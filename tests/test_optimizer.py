import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import geoent as ge
from geoent import reports
from geoent.errors import DomainError, ShapeMismatchError
from geoent.optimizer import (_blocked_tensor, _coarsening_bounds, _initial_factors, _pair_step,
                              _pencil_top, _qubit_pencil, _qubit_top)


def schmidt_lambda2(psi, partition):
    """Independent bipartition oracle: largest squared singular value."""
    assert partition.k == 2
    axes = [q - 1 for b in partition.blocks for q in b]
    m1 = len(partition.blocks[0])
    mat = psi.tensor.transpose(axes).reshape(2 ** m1, -1)
    return float(np.max(scipy.linalg.svdvals(mat)) ** 2)


def relabelled(partition, sigma):
    """The partition's blocks at their positions in permute_qubits(psi, sigma)."""
    inverse = {old: new for new, old in enumerate(sigma, start=1)}
    return ge.Partition(tuple(
        tuple(sorted(inverse[q] for q in block)) for block in partition.blocks
    ))


def local_unitary(psi, rng):
    """Apply an independent random 2x2 unitary to every qubit."""
    t = psi.tensor
    for q in range(psi.num_qubits):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        t = np.moveaxis(np.tensordot(u, t, axes=(1, q)), 0, q)
    return ge.PureState(psi.num_qubits, t.reshape(-1))


def contraction(psi, product, keep):
    """The state contracted with every conjugated factor of ``product``
    except those of the blocks in ``keep`` (a vector or a matrix)."""
    partition = product.partition
    axes = [q - 1 for b in partition.blocks for q in b]
    t = psi.tensor.transpose(axes).reshape([2 ** len(b) for b in partition.blocks])
    for s in reversed(range(partition.k)):
        if s not in keep:
            t = np.tensordot(t, product.factors[s].conj(), axes=(s, 0))
    return t


@st.composite
def random_cases(draw, ks=(2, 5)):
    """(state, partition, rng) with ks[0] <= K <= ks[1] and K <= N <= 5: by
    default even K, whose sweeps are pairs only, and odd K, whose sweeps also
    update one block alone."""
    k = draw(st.integers(*ks))
    n = draw(st.integers(k, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    partitions = sorted(ge.set_partitions(n, k), key=lambda p: p.sort_key())
    return ge.random_state(n, rng), draw(st.sampled_from(partitions)), rng


# Examples are fixed so that tier-1 runs the same cases every time.
invariance_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)


class TestConfigAndTypes:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            ge.OptimizerConfig(restarts=0)
        with pytest.raises(DomainError):
            ge.OptimizerConfig(tol=0.0)
        # An infinite tol stopped every restart at sweep 2 (W(3) 1|1|1 read
        # 0.444405 for 4/9, converged); a nan one never stopped a restart.
        for kwargs in ({"tol": float("inf")}, {"tol": float("nan")}, {"tol": -1e-12},
                       {"restarts": 2.5}, {"restarts": True}, {"restarts": -3},
                       {"max_iterations": 10.0}, {"max_iterations": False},
                       {"max_iterations": 0}, {"seed": -1}, {"seed": True},
                       {"seed": 1.5}):
            with pytest.raises(DomainError):
                ge.OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeds_2_to_the_31_apart_differ(self, seed):
        # The seed once entered the generator masked to 31 bits, so these
        # two runs were bitwise identical.
        psi, partition = ge.random_state(4, 0), ge.Partition(((1,), (2,), (3, 4)))
        a, b = (ge.best_overlap(psi, partition, ge.OptimizerConfig(restarts=16, seed=s))
                for s in (seed, seed + 2 ** 31))
        assert a.lambda2 == pytest.approx(b.lambda2, abs=1e-12)
        assert a.winner_restart != b.winner_restart or not all(
            np.array_equal(x, y) for x, y in zip(a.argmax.factors, b.argmax.factors))

    def test_product_state_validation(self):
        partition = ge.Partition(((1,), (2, 3)))
        with pytest.raises(ShapeMismatchError):
            ge.ProductState(partition, (np.array([1.0, 0.0]),))
        with pytest.raises(ShapeMismatchError):
            ge.ProductState(partition, (np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        with pytest.raises(DomainError):
            ge.ProductState(partition, (np.array([1.0, 1.0]), np.eye(4)[0]))

    def test_assemble_basis_product(self):
        partition = ge.Partition(((1, 3), (2, 4)))
        factors = (np.eye(4)[1].astype(complex), np.eye(4)[2].astype(complex))
        # block {1,3} in state |01>, block {2,4} in |10>: qubits (1,2,3,4) = 0,1,1,0
        assembled = ge.ProductState(partition, factors).assemble()
        assert assembled.allclose(ge.basis_ket(4, 0b0110), 1e-15)


class TestAscentKernel:
    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_pair_matrix_reinjects(self, n):
        # The one start at restarts=1 is |0...0>, so the first pair matrix of
        # |1...1> vanishes and the pair is redrawn at random.
        partition = ge.Partition(tuple((q,) for q in range(1, n + 1)))
        result = ge.best_overlap(ge.basis_ket(n, 2 ** n - 1), partition,
                                 ge.OptimizerConfig(restarts=1))
        assert result.reinjections >= 1
        assert result.lambda2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("blocks", [((1,), (2,), (3, 4)), ((1,), (2,), (3,), (4,)),
                                        ((1,), (3,), (2, 4))])
    def test_basis_product_certified_at_sweep_1(self, blocks, config):
        result = ge.best_overlap(ge.basis_ket(4, 5), ge.Partition(blocks), config)
        assert result.upper_bound == pytest.approx(1.0, abs=1e-12)
        assert result.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert result.converged and result.iterations == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_sweeps(self, seed):
        # A run capped at m sweeps is a prefix of the run capped at m + 1.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        psi = ge.random_state(n, rng)
        k = int(rng.integers(3, n + 1))
        partition = sorted(ge.set_partitions(n, k), key=lambda p: p.sort_key())[0]
        values = [ge.best_overlap(psi, partition,
                                  ge.OptimizerConfig(restarts=8, max_iterations=m)).lambda2
                  for m in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("blocks", [((1,), (2,), (3, 4, 5)), ((1,), (2,), (3,), (4, 5)),
                                        ((1,), (2,), (3,), (4,), (5,))])
    def test_argmax_is_stationary_for_every_step(self, blocks, config):
        # Every block, and every pair that a sweep updates (the smallest two,
        # then the next two), is optimal given the other factors.
        psi = ge.random_state(5, 31)
        result = ge.best_overlap(psi, ge.Partition(blocks), config)
        product = result.argmax
        assert abs(ge.overlap(psi, product.assemble())) ** 2 == pytest.approx(
            result.lambda2, abs=1e-12)
        for s in range(len(blocks)):
            env = contraction(psi, product, {s})
            assert np.linalg.norm(env) ** 2 == pytest.approx(result.lambda2, abs=1e-9)
        for s in range(0, len(blocks) - 1, 2):
            sigma = scipy.linalg.svdvals(contraction(psi, product, {s, s + 1}))[0]
            assert sigma ** 2 == pytest.approx(result.lambda2, abs=1e-9)
        for f in product.factors:
            lead = f[np.argmax(np.abs(f) > 1e-14)]
            assert lead.real > 0 and abs(lead.imag) < 1e-15


def same_result(a, b):
    """Bitwise equality of every field of two results."""
    return (a.lambda2 == b.lambda2 and a.upper_bound == b.upper_bound
            and a.iterations == b.iterations and a.converged == b.converged
            and a.winner_restart == b.winner_restart and a.reinjections == b.reinjections
            and a.partition == b.partition
            and all(np.array_equal(fa, fb) for fa, fb in zip(a.argmax.factors, b.argmax.factors)))


def shape_batches(n, k):
    """All k-block partitions of n qubits, one list per shape."""
    groups = {}
    for p in sorted(ge.set_partitions(n, k), key=lambda p: p.sort_key()):
        groups.setdefault(p.shape, []).append(p)
    return list(groups.values())


class TestBatch:
    # At N = 5 every pair has a qubit block; 2|2|2 at N = 6 pairs 4x4 blocks.
    @pytest.mark.parametrize("n, k, sizes", [(5, 3, None), (5, 4, None), (5, 5, None),
                                             (6, 3, (2, 2, 2))])
    def test_batch_matches_single_calls(self, n, k, sizes, fast_config):
        psi = ge.random_state(n, 70 + k)
        for batch in shape_batches(n, k):
            if sizes and batch[0].shape != ge.Shape(sizes):
                continue
            results = ge.best_overlaps([psi] * len(batch), batch, fast_config)
            for partition, result in zip(batch, results):
                single = ge.best_overlap(psi, partition, fast_config)
                assert result.partition == partition
                assert result.lambda2 == pytest.approx(single.lambda2, abs=1e-12)
                assert result.upper_bound == single.upper_bound
            reverse = ge.best_overlaps([psi] * len(batch), batch[::-1], fast_config)
            assert all(same_result(a, b) for a, b in zip(results, reverse[::-1]))

    def test_batch_of_different_states(self, fast_config):
        states = [ge.random_state(4, seed) for seed in (1, 2, 3)]
        partition = ge.Partition(((1,), (2,), (3, 4)))
        results = ge.best_overlaps(states, [partition] * 3, fast_config)
        for psi, result in zip(states, results):
            single = ge.best_overlap(psi, partition, fast_config)
            assert result.lambda2 == pytest.approx(single.lambda2, abs=1e-12)

    def test_certificate_stops_one_problem(self, config):
        # w(6) meets its bound 1/2 at sweep 1 and stops there, while the
        # other state in the batch, with a larger overlap, sweeps on.
        partition = ge.Partition(((1,), (2, 3), (4, 5, 6)))
        amps = ge.basis_ket(6, 0).amplitudes + 0.5 * ge.random_state(6, 8).amplitudes
        psi = ge.PureState(6, amps / np.linalg.norm(amps))
        certified, other = ge.best_overlaps([ge.w(6), psi], [partition] * 2, config)
        assert certified.lambda2 == pytest.approx(0.5, abs=1e-12)
        assert certified.converged and certified.iterations == 1
        assert other.lambda2 > certified.lambda2 and other.iterations > 1
        assert other.lambda2 == pytest.approx(ge.best_overlap(psi, partition, config).lambda2,
                                              abs=1e-12)

    def test_large_batch_runs_in_pieces(self, monkeypatch, fast_config):
        from geoent import optimizer

        psi = ge.random_state(5, 71)
        batch = next(b for b in shape_batches(5, 3) if len(b) == 15)
        whole = ge.best_overlaps([psi] * 15, batch, fast_config)
        calls = []
        real = optimizer._ascent

        def counted(tensors, partitions, config):
            calls.append(len(tensors))
            return real(tensors, partitions, config)

        monkeypatch.setattr(optimizer, "_ascent", counted)
        # room for three problems of 2^5 amplitudes at these restarts
        monkeypatch.setattr(optimizer, "_BATCH_AMPLITUDES", 3 * fast_config.restarts * 32)
        pieces = ge.best_overlaps([psi] * 15, batch, fast_config)
        assert calls == [3, 3, 3, 3, 3]
        assert all(same_result(a, b) for a, b in zip(whole, pieces))

    @pytest.mark.parametrize("n, blocks", [
        (4, ((1,), (2,), (3, 4))), (5, ((1,), (2, 3), (4, 5))),
        (5, ((1,), (2,), (3,), (4, 5))), (5, ((1,), (2,), (3,), (4,), (5,))),
    ])
    def test_coarsening_bounds_equal_per_problem_svd(self, n, blocks):
        partition = ge.Partition(blocks)
        stack = np.stack([_blocked_tensor(ge.random_state(n, seed), partition)
                          for seed in range(7)])
        k = len(blocks)
        want = []
        for psi_k in stack:
            best = 1.0
            for mask in range(1, 2 ** (k - 1)):
                group = [t for t in range(k) if mask >> t & 1]
                rest = [t for t in range(k) if not mask >> t & 1]
                rows = int(np.prod([psi_k.shape[t] for t in group]))
                mat = psi_k.transpose(group + rest).reshape(rows, -1)
                best = min(best, float(np.linalg.svd(mat, compute_uv=False)[0]) ** 2)
            want.append(best)
        assert np.array_equal(_coarsening_bounds(stack), want)

    @pytest.mark.parametrize("restarts", [1, 5, 16])
    def test_starts_keep_each_problems_draws(self, restarts):
        # Each problem's random rows come from its own SeedSequence, drawn
        # block by block, after the deterministic rows shared by the batch.
        batch = shape_batches(5, 3)[1]
        config = ge.OptimizerConfig(restarts=restarts, seed=3)
        dims = [2 ** len(b) for b in batch[0].blocks]
        factors, _ = _initial_factors(dims, config, batch)
        n_det = min(4 + 3 * len(dims), max(1, restarts // 2))
        for p, partition in enumerate(batch):
            rows = slice(p * restarts, (p + 1) * restarts)
            assert all(np.array_equal(f[rows][:n_det], factors[t][:n_det])
                       for t, f in enumerate(factors))
            rng = np.random.default_rng(np.random.SeedSequence(
                [3] + [sum(1 << (q - 1) for q in block) for block in partition.blocks]))
            size = restarts - n_det
            for f, d in zip(factors, dims):
                z = rng.normal(size=(size, d)) + 1j * rng.normal(size=(size, d))
                assert np.array_equal(f[rows][n_det:], z / np.linalg.norm(z, axis=1)[:, None])

    @pytest.mark.parametrize("blocks", [
        ((1,), (2,), (3,), (4,), (5,), (6,), (7,)), ((1,), (2,), (3,)),
        ((1,), (2,), (3,), (4,), (5, 6)), ((1,), (2, 3), (4, 5)), ((1,), (2, 3, 4), (5, 6, 7)),
    ], ids=["2^7", "2^3", "2^4x4", "2x4x4", "2x8x8"])
    def test_starts_are_distinct(self, blocks):
        # A qubit block clamps two ones to one, so the menu repeated rows:
        # 8 of the 64 starts on seven qubit blocks ran the same trajectories.
        partition = ge.Partition(blocks)
        dims = [2 ** len(b) for b in partition.blocks]
        factors, _ = _initial_factors(dims, ge.OptimizerConfig(), [partition])
        rows = np.concatenate(factors, axis=1)
        assert len(np.unique(rows, axis=0)) == len(rows) == 64

    def test_unequal_dimensions_rejected(self, fast_config):
        psi = ge.random_state(5, 3)
        with pytest.raises(ShapeMismatchError):
            ge.best_overlaps([psi, psi], [ge.Partition(((1,), (2,), (3, 4, 5))),
                                          ge.Partition(((1,), (2, 3), (4, 5)))], fast_config)


def is_top_eigvec(gram, v, tol=1e-12):
    """v is a unit eigenvector of the largest eigenvalue of the Hermitian gram."""
    top = np.linalg.eigvalsh(gram)[-1]
    scale = max(top, 1.0)
    return (abs(np.linalg.norm(v) - 1.0) <= tol
            and np.linalg.norm(gram @ v - top * v) <= tol * scale)


def qubit_top(grams):
    """``_qubit_top`` on stacked 2x2 Gram matrices."""
    return _qubit_top(grams[:, 0, 0].real, grams[:, 0, 1], grams[:, 1, 1].real)


class TestQubitEigvec:
    def test_random_grams_match_eigh(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 2, 4)) + 1j * rng.normal(size=(200, 2, 4))
        grams = x @ x.conj().transpose(0, 2, 1)
        grams[:50] *= rng.uniform(1e-8, 1e-3, size=(50, 1, 1))
        v = qubit_top(grams)
        ref = np.linalg.eigh(grams)[1][:, :, -1]
        assert all(is_top_eigvec(g, u) for g, u in zip(grams, v))
        np.testing.assert_allclose(np.abs(np.sum(ref.conj() * v, axis=1)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("gram", [np.diag([2.0, 2.0]), np.diag([0.0, 3.0]),
                                      np.diag([3.0, 0.0]), np.zeros((2, 2))],
                             ids=["a=c", "a<c", "a>c", "zero"])
    def test_degenerate_grams(self, gram):
        v = qubit_top(gram.astype(complex)[None])[0]
        assert np.all(np.isfinite(v))
        assert is_top_eigvec(gram, v)

    def test_rejects_perturbed_vector(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        gram = x @ x.conj().T
        v = qubit_top(gram[None])[0]
        assert is_top_eigvec(gram, v)
        bad = v + 1e-6 * np.array([1.0, -1.0])
        assert not is_top_eigvec(gram, bad / np.linalg.norm(bad))


class TestQubitPairStep:
    @staticmethod
    def _gap(pair, shift=0.0):
        """Largest difference between the rank-one part top (top^H pair) of
        ``_pair_step`` and of batched eigh, shifted by ``shift``."""
        top, env = _pair_step(pair)
        ref = np.linalg.eigh(pair @ pair.conj().transpose(0, 2, 1))[1][:, :, -1]
        ref_env = np.einsum("ri,rij->rj", ref.conj(), pair)
        got = top[:, :, None] * env[:, None, :] + shift
        return np.max(np.abs(got - ref[:, :, None] * ref_env[:, None, :]))

    @pytest.mark.parametrize("d", [2, 4, 8, 32])
    def test_matches_eigh(self, d):
        rng = np.random.default_rng(d)
        pair = (rng.normal(size=(500, 2, d)) + 1j * rng.normal(size=(500, 2, d))) / np.sqrt(2 * d)
        pair[:100] *= rng.uniform(1e-6, 1.0, size=(100, 1, 1))
        assert self._gap(pair) <= 1e-14
        assert self._gap(pair, shift=1e-9) > 1e-14


class TestKnownMisses:
    # Optimizer seeds at which the one-block ascent stopped short of the
    # optimum that other seeds find; values from perfbench/recorded.json.
    @pytest.mark.parametrize("index, blocks, seed, recorded", [
        (18, ((1,), (2,), (3,), (4,), (5,)), 8, 0.7101359605216302),
        (18, ((1,), (2,), (3,), (4,), (5,)), 33, 0.7101359605216302),
        (7, ((1,), (3,), (4,), (2, 5)), 26, 0.6452076697288454),
    ], ids=["random18-seed8", "random18-seed33", "random7-seed26"])
    def test_random_pool_optimum(self, index, blocks, seed, recorded):
        psi = ge.random_state(5, np.random.SeedSequence([0, 5, index]))
        result = ge.best_overlap(psi, ge.Partition(blocks),
                                 ge.OptimizerConfig(restarts=16, seed=seed))
        assert result.e_g <= recorded + 1e-9


@pytest.fixture
def sweep_passes(monkeypatch):
    """The ascent's sweep passes, one ``_sweep`` call each, recorded as (rows
    swept, restarts among them); the other rows are extrapolated twins."""
    from geoent import optimizer

    passes = []
    real = optimizer._sweep

    def counted(steps, x, prob, prev, plain, *args):
        passes.append((len(prob), plain))
        return real(steps, x, prob, prev, plain, *args)

    monkeypatch.setattr(optimizer, "_sweep", counted)
    return passes


CRAWLS = pytest.mark.parametrize("n, excitations, blocks, value", [
    (7, 2, ((1,), (2, 3, 4), (5, 6, 7)), 3 / 7),
    (6, 3, ((1, 2), (3, 4), (5, 6)), 2 / 5),
], ids=["magnon7_2-1|3|3", "magnon6_3-2|2|2"])


class TestExtrapolatedTry:
    # Degenerate maxima: without the try, the losing restarts crawl for
    # 4057-4154 passes after the winner converged at sweep 2.
    @CRAWLS
    @pytest.mark.parametrize("seed", range(3))
    def test_crawls_end(self, n, excitations, blocks, value, seed, sweep_passes):
        result = ge.best_overlap(ge.magnon(n, excitations), ge.Partition(blocks),
                                 ge.OptimizerConfig(seed=seed))
        assert result.lambda2 == pytest.approx(value, abs=1e-12)
        assert 0 < len(sweep_passes) <= 1000

    def test_wghz_phi_pi_next_to_w(self, sweep_passes):
        # Figure 1's W+GHZ curve at phi = pi, eta index 1 of 101: without the
        # try the ascent took 437 passes and stopped at E = 0.5498926743800188.
        eta = np.linspace(0.0, np.pi / 2, 101)[1]
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), np.pi, ge.ghz(3))
        result = ge.best_overlap(psi, ge.Partition(((1,), (2,), (3,))),
                                 ge.OptimizerConfig(seed=1))
        assert 0 < len(sweep_passes) <= 150
        assert result.e_g <= 0.5498926743800188

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_sweeps_on_degenerate_maximum(self, seed, sweep_passes):
        # At 4 restarts magnon(6,3)'s winner on 2|2|2 is a crawling restart;
        # each sweep is one pass, its twins swept with the restarts.
        psi, partition = ge.magnon(6, 3), ge.Partition(((1, 2), (3, 4), (5, 6)))
        values = []
        for m in range(1, 13):
            sweep_passes.clear()
            config = ge.OptimizerConfig(restarts=4, seed=seed, max_iterations=m)
            values.append(ge.best_overlap(psi, partition, config).lambda2)
            assert len(sweep_passes) == m
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTwinGate:
    # With an extrapolated try on every sweep in a second pass, magnon(7,2)
    # 1|3|3 took 585-589 passes and magnon(6,3) 2|2|2 573-581; with twins
    # whose step beta grows as (t - 1)/3 without a cap, up to 89.
    @CRAWLS
    @pytest.mark.parametrize("seed", range(3))
    def test_crawls_end_in_50_passes(self, n, excitations, blocks, value, seed, sweep_passes):
        result = ge.best_overlap(ge.magnon(n, excitations), ge.Partition(blocks),
                                 ge.OptimizerConfig(seed=seed))
        assert result.lambda2 == pytest.approx(value, abs=1e-12)
        assert 0 < len(sweep_passes) <= 50

    @pytest.mark.parametrize("seed", range(3))
    def test_closes_where_restarts_converge_fast(self, seed, sweep_passes):
        # W+GHZ(7) K = 6 converges linearly: every restart takes a twin on
        # sweeps 2 and 3, a few on the next ones, and then none.
        psi = ge.superpose(np.cos(np.pi / 6), ge.w(7), np.sin(np.pi / 6), 0.0, ge.ghz(7))
        blocks = ((1,), (2,), (3,), (4,), (5,), (6, 7))
        ge.best_overlap(psi, ge.Partition(blocks), ge.OptimizerConfig(seed=seed))
        twins = [rows - plain for rows, plain in sweep_passes]
        assert twins[0] == 0 and twins[1] == 64 and twins[2] == sweep_passes[2][1]
        assert sum(twins[3:]) <= 8
        assert len(twins) > 8 and not any(twins[6:])

    @pytest.mark.parametrize("seed", range(3))
    def test_wghz_phi_pi_inside_interval(self, seed):
        eta = np.linspace(0.0, np.pi / 2, 101)[1]
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), np.pi, ge.ghz(3))
        partition = ge.Partition(((1,), (2,), (3,)))
        result = ge.best_overlap(psi, partition, ge.OptimizerConfig(seed=seed))
        lo, hi = ge.qubit_block_interval(psi, partition)
        assert lo - 1e-9 <= result.lambda2 <= hi
        assert result.e_g <= 0.5498926743800188


class TestBestOverlap:
    def test_ghz3_bipartition(self, config):
        result = ge.best_overlap(ge.ghz(3), ge.Partition(((1,), (2, 3))), config)
        assert result.lambda2 == pytest.approx(0.5, abs=1e-12)
        assert result.e_g == pytest.approx(0.5, abs=1e-12)

    def test_w3_bipartition(self, config):
        result = ge.best_overlap(ge.w(3), ge.Partition(((1,), (2, 3))), config)
        assert result.lambda2 == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("blocks", [((1, 2), (3, 4)), ((1,), (2,), (3, 4))])
    def test_product_state_is_separable(self, blocks, config):
        result = ge.best_overlap(ge.basis_ket(4, 5), ge.Partition(blocks), config)
        assert result.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert result.e_g == pytest.approx(0.0, abs=1e-12)

    def test_argmax_realizes_value(self, config):
        psi = ge.random_state(4, 11)
        result = ge.best_overlap(psi, ge.Partition(((1, 2), (3, 4))), config)
        realized = abs(ge.overlap(psi, result.argmax.assemble())) ** 2
        assert realized == pytest.approx(result.lambda2, abs=1e-10)

    def test_single_block_partition(self, config):
        result = ge.best_overlap(ge.w(4), ge.Partition(((1, 2, 3, 4),)), config)
        assert result.lambda2 == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_bipartition_matches_schmidt(self, seed, config):
        psi = ge.random_state(4, 100 + seed)
        partition = ge.Partition(((1, 3), (2, 4)))
        result = ge.best_overlap(psi, partition, config)
        assert result.lambda2 == pytest.approx(schmidt_lambda2(psi, partition), abs=1e-9)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_w_bipartitions_match_closed_form(self, n, config):
        psi = ge.w(n)
        for m in range(1, n // 2 + 1):
            partition = ge.representative_partition(ge.Shape((m, n - m)))
            result = ge.best_overlap(psi, partition, config)
            assert result.lambda2 == pytest.approx(
                ge.w_bisep(m, n).lambda2, abs=1e-7
            )

    def test_closed_form_agreement_sample(self, config):
        cases = [
            (ge.w(6), ((1, 2), (3, 4, 5, 6)), ge.w_bisep(2, 6).lambda2),
            (ge.w(8), ((1, 2, 3), (4, 5, 6, 7, 8)), ge.w_bisep(3, 8).lambda2),
            (ge.ghz(5), ((1, 4), (2, 3, 5)), 0.5),
            (ge.magnon(6, 2), ((1, 2, 3), (4, 5, 6)), ge.magnon2_bisep(3, 6).lambda2),
        ]
        for psi, blocks, expected in cases:
            result = ge.best_overlap(psi, ge.Partition(blocks), config)
            assert result.lambda2 == pytest.approx(expected, abs=1e-7)

    def test_asym_w_agreement(self, config):
        rng = np.random.default_rng(17)
        gamma = rng.uniform(0.1, 1.0, 5)
        psi = ge.asym_w(gamma)
        for blocks, block_a in [(((1, 2), (3, 4, 5)), {1, 2}),
                                (((2, 4), (1, 3, 5)), {2, 4})]:
            result = ge.best_overlap(psi, ge.Partition(blocks), config)
            expected = ge.asym_w_bisep(gamma, block_a).lambda2
            assert result.lambda2 == pytest.approx(expected, abs=1e-7)

    def test_xi_phases_do_not_change_value(self, config):
        gamma = (0.8, 0.5, 0.7)
        partition = ge.Partition(((1,), (2, 3)))
        plain = ge.best_overlap(ge.asym_w(gamma), partition, config)
        phased = ge.best_overlap(
            ge.asym_w(gamma, xi=(0.3, 1.9, 4.4)), partition, config
        )
        assert phased.lambda2 == pytest.approx(plain.lambda2, abs=1e-9)

    def test_permutation_covariance(self, config):
        psi = ge.random_state(4, 23)
        sigma = (2, 4, 1, 3)  # new qubit q carries old qubit sigma[q-1]
        permuted = ge.permute_qubits(psi, sigma)
        partition = ge.Partition(((1, 2), (3, 4)))
        a = ge.best_overlap(psi, partition, config)
        b = ge.best_overlap(permuted, relabelled(partition, sigma), config)
        assert a.lambda2 == pytest.approx(b.lambda2, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        psi = ge.random_state(4, 5)
        partition = ge.Partition(((1,), (2, 3, 4)))
        config = ge.OptimizerConfig(restarts=12, seed=42)
        a = ge.best_overlap(psi, partition, config)
        b = ge.best_overlap(psi, partition, config)
        assert a.lambda2 == b.lambda2
        assert a.winner_restart == b.winner_restart
        for fa, fb in zip(a.argmax.factors, b.argmax.factors):
            assert np.array_equal(fa, fb)

    def test_partition_state_mismatch(self, config):
        with pytest.raises(ShapeMismatchError):
            ge.best_overlap(ge.w(3), ge.Partition(((1, 2), (3, 4))), config)

    def test_result_consistency(self, config):
        result = ge.best_overlap(ge.w(4), ge.Partition(((1,), (2, 3, 4))), config)
        assert result.e_g == 1.0 - result.lambda2
        assert result.converged
        assert 0 <= result.winner_restart < config.restarts


class TestInvariances:
    @invariance_settings
    @given(random_cases())
    def test_local_unitaries(self, case):
        psi, partition, rng = case
        config = ge.OptimizerConfig()
        a = ge.best_overlap(psi, partition, config)
        b = ge.best_overlap(local_unitary(psi, rng), partition, config)
        assert b.lambda2 == pytest.approx(a.lambda2, abs=1e-9)

    @invariance_settings
    @given(random_cases(), st.data())
    def test_qubit_relabelling(self, case, data):
        psi, partition, _ = case
        sigma = data.draw(st.permutations(range(1, psi.num_qubits + 1)))
        config = ge.OptimizerConfig()
        a = ge.best_overlap(psi, partition, config)
        b = ge.best_overlap(ge.permute_qubits(psi, sigma), relabelled(partition, sigma), config)
        assert b.lambda2 == pytest.approx(a.lambda2, abs=1e-9)

    @invariance_settings
    @given(random_cases())
    def test_bound_and_argmax(self, case):
        psi, partition, _ = case
        result = ge.best_overlap(psi, partition, ge.OptimizerConfig())
        assert result.lambda2 <= result.upper_bound + 1e-12
        realized = abs(ge.overlap(psi, result.argmax.assemble())) ** 2
        assert realized == pytest.approx(result.lambda2, abs=1e-12)


class TestCertifiedStop:
    def test_fires_on_w6_tripartition(self, config):
        # The 1,2,3|4,5,6 coarsening gives exactly 1/2, which the winner meets.
        result = ge.best_overlap(ge.w(6), ge.Partition(((1,), (2, 3), (4, 5, 6))), config)
        assert result.upper_bound == pytest.approx(0.5, abs=1e-12)
        assert result.lambda2 >= result.upper_bound - config.tol
        # The tol rule compares two sweeps, so it cannot stop a restart at
        # sweep 1; only the certificate can.
        assert result.converged and result.iterations == 1

    def test_does_not_cut_short_magnon7(self, config):
        # Lambda^2 = 3/7 stays below the coarsening bound 4/7: no certificate.
        result = ge.best_overlap(
            ge.magnon(7, 2), ge.Partition(((1,), (2, 3, 4), (5, 6, 7))), config
        )
        assert result.lambda2 == pytest.approx(3 / 7, abs=1e-9)
        assert result.upper_bound == pytest.approx(4 / 7, abs=1e-12)
        assert result.converged and result.iterations > 1

    def test_bipartition_is_exact(self, config):
        result = ge.best_overlap(ge.random_state(5, 2), ge.Partition(((1, 4), (2, 3, 5))), config)
        assert result.upper_bound == result.lambda2
        assert result.converged and result.iterations == 0


class TestQubitBlockInterval:
    @invariance_settings
    @given(random_cases(ks=(3, 3)))
    def test_ascent_inside_interval(self, case):
        # Every K = 3 partition of N <= 5 qubits has a one-qubit block, and
        # 1|2|2 takes the 4 x 4 eigvalsh path.
        psi, partition, _ = case
        value = ge.best_overlap(psi, partition, ge.OptimizerConfig()).lambda2
        lo, hi = ge.qubit_block_interval(psi, partition)
        assert lo - 1e-9 <= value <= hi + 1e-12

    @pytest.mark.parametrize("n, blocks", [(3, ((2,), (1,), (3,))), (4, ((3,), (1, 2), (4,))),
                                           (5, ((1, 4), (2,), (3, 5)))])
    def test_pencil_is_sigma_max_squared(self, n, blocks):
        rng = np.random.default_rng(n)
        psi_k = _blocked_tensor(ge.random_state(n, rng), ge.Partition(blocks))
        qubit = psi_k.shape.index(2)
        pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
        for _ in range(5):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            bloch = np.array([np.vdot(a, s @ a).real for s in pauli])
            m = np.tensordot(a.conj(), psi_k, axes=(0, qubit))
            sigma = np.linalg.svd(m, compute_uv=False)[0]
            assert _pencil_top(_qubit_pencil(psi_k), bloch)[0] == pytest.approx(sigma ** 2, abs=1e-12)

    @pytest.mark.parametrize("psi, blocks, exact", [
        (ge.ghz(3), ((1,), (2,), (3,)), 0.5),
        (ge.w(3), ((1,), (2,), (3,)), 4 / 9),
        (ge.magnon(4, 2), ((1,), (2,), (3, 4)), 5 / 12),
        (ge.w(6), ((1,), (2, 3), (4, 5, 6)), 0.5),
    ], ids=["ghz3", "w3", "magnon4_2", "w6"])
    def test_known_values(self, psi, blocks, exact):
        # Maxima on orbits end on the cell count, with a gap of at most a few 1e-6.
        lo, hi = ge.qubit_block_interval(psi, ge.Partition(blocks))
        assert lo - 1e-12 <= exact <= hi + 1e-12
        assert hi - lo <= 5e-6

    def test_lowered_upper_end_is_caught(self, config, monkeypatch):
        # Negative control: criterion 10 fails once hi is 1e-6 too low.
        assert reports.run_verify(config, suites=["oracle"]).passed
        real = reports.qubit_block_interval
        monkeypatch.setattr(reports, "qubit_block_interval",
                            lambda psi, p: (real(psi, p)[0], real(psi, p)[1] - 1e-6))
        assert not reports.run_verify(config, suites=["oracle"]).passed

    @pytest.mark.parametrize("blocks", [((1,), (2, 3)), ((1,), (2,), (3,), (4,)),
                                        ((1, 2), (3, 4), (5, 6))])
    def test_needs_three_blocks_and_a_qubit(self, blocks):
        partition = ge.Partition(blocks)
        with pytest.raises(DomainError):
            ge.qubit_block_interval(ge.random_state(partition.n, 0), partition)


def wghz_pi_batch():
    """Figure 1's W+GHZ curve at phi = pi, eta indices 1, 32, 50 and 99 of 101."""
    eta = np.linspace(0.0, np.pi / 2, 101)
    states = [ge.superpose(np.cos(eta[i]), ge.w(3), np.sin(eta[i]), np.pi, ge.ghz(3))
              for i in (1, 32, 50, 99)]
    return states, [ge.Partition(((1,), (2,), (3,)))] * 4, ge.OptimizerConfig(seed=1)


def random_shape_batch(sizes):
    """The first (at most) four partitions of one shape of a random 5-qubit state."""
    partitions = [p for p in sorted(ge.set_partitions(5, len(sizes)), key=lambda p: p.sort_key())
                  if p.shape.sizes == sizes][:4]
    return ([ge.random_state(5, 7)] * len(partitions), partitions,
            ge.OptimizerConfig(restarts=16, seed=1))


def lone(psi, blocks, config=None):
    return [psi], [ge.Partition(blocks)], config or ge.OptimizerConfig()


class TestTrajectory:
    # The whole path of the ascent, recorded before its factors were packed
    # into one array: (passes, rows swept, restart rows among them), then per
    # problem lambda2, iterations, winner_restart and reinjections.
    @pytest.mark.parametrize("case, path, lam2, iterations, winners, reinjections", [
        (wghz_pi_batch, (50, 9533, 5702),
         [0.45010732563580524, 0.5720079311821555, 0.5878531404199031, 0.5001212512111706],
         [44, 14, 10, 4], [26, 6, 0, 20], [0, 0, 0, 0]),
        (lambda: random_shape_batch((1, 2, 2)), (21, 1179, 974),
         [0.48490146053571, 0.43746669248268183, 0.41895209623877966, 0.49054499790857337],
         [13, 18, 15, 13], [14, 10, 13, 5], [0, 0, 0, 0]),
        (lambda: random_shape_batch((1, 1, 1, 2)), (18, 1005, 845),
         [0.4836122635668925, 0.40153698356236905, 0.4148855395281704, 0.4041374826559176],
         [11, 11, 12, 14], [8, 2, 15, 2], [0, 0, 0, 0]),
        (lambda: random_shape_batch((1, 1, 1, 1, 1)), (17, 267, 218),
         [0.39777526146075015], [15], [9], [0]),
        (lambda: lone(ge.magnon(7, 2), ((1,), (2, 3, 4), (5, 6, 7))), (40, 2438, 1482),
         [0.42857142857142866], [2], [4], [1]),
        (lambda: lone(ge.basis_ket(3, 7), ((1,), (2,), (3,)), ge.OptimizerConfig(restarts=1)),
         (2, 3, 2), [1.0], [2], [0], [1]),
        (lambda: lone(ge.basis_ket(4, 15), ((1,), (2,), (3,), (4,)),
                      ge.OptimizerConfig(restarts=1)),
         (2, 3, 2), [1.0], [2], [0], [1]),
        (lambda: lone(ge.basis_ket(4, 5), ((1,), (2,), (3, 4))), (1, 64, 64),
         [1.0], [1], [1], [8]),
    ], ids=["wghz-pi-1|1|1", "random5-1|2|2", "random5-1|1|1|2", "random5-1|1|1|1|1",
            "magnon7_2-1|3|3", "reinject-3", "reinject-4", "certified-sweep-1"])
    def test_path_is_pinned(self, case, path, lam2, iterations, winners, reinjections,
                            sweep_passes):
        results = ge.best_overlaps(*case())
        assert (len(sweep_passes), sum(r for r, _ in sweep_passes),
                sum(p for _, p in sweep_passes)) == path
        np.testing.assert_allclose([r.lambda2 for r in results], lam2, rtol=0, atol=1e-15)
        assert [r.iterations for r in results] == iterations
        assert [r.winner_restart for r in results] == winners
        assert [r.reinjections for r in results] == reinjections
        assert all(r.converged for r in results)
