import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import geoent as ge
from geoent.errors import DomainError, ResourceCapError, ShapeMismatchError


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
def random_cases(draw):
    """(state, partition, rng) with 2 <= K <= N <= 5: even K, whose sweeps
    are pairs only, and odd K, whose sweeps also update one block alone."""
    k = draw(st.integers(2, 5))
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


class TestGridOracle:
    def test_w3(self):
        result = ge.grid_oracle(ge.w(3), ge.Partition(((1,), (2, 3))), 40)
        assert result.lambda2 == pytest.approx(2 / 3, abs=1e-4)

    def test_bell(self):
        result = ge.grid_oracle(ge.ghz(2), ge.Partition(((1,), (2,))), 40)
        assert result.lambda2 == pytest.approx(0.5, abs=1e-6)

    def test_cluster_2_2(self):
        result = ge.grid_oracle(ge.cluster4(), ge.Partition(((1, 2), (3, 4))), 8)
        assert result.lambda2 == pytest.approx(0.5, abs=1e-3)

    def test_three_blocks(self):
        result = ge.grid_oracle(
            ge.magnon(4, 2), ge.Partition(((1,), (2,), (3, 4))), 16
        )
        assert result.lambda2 == pytest.approx(5 / 12, abs=1e-4)

    def test_argmax_realizes_value(self):
        psi = ge.random_state(3, 9)
        result = ge.grid_oracle(psi, ge.Partition(((1,), (2, 3))), 24)
        realized = abs(ge.overlap(psi, result.argmax.assemble())) ** 2
        assert realized == pytest.approx(result.lambda2, abs=1e-10)

    def test_parameter_cap(self):
        psi = ge.random_state(7, 1)
        with pytest.raises(ResourceCapError):
            ge.grid_oracle(psi, ge.Partition(((1, 2, 3), (4, 5, 6, 7))), 4)

    def test_grid_size_cap(self):
        with pytest.raises(ResourceCapError):
            ge.grid_oracle(ge.cluster4(), ge.Partition(((1, 2), (3, 4))), 40)
