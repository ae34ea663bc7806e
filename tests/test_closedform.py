from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.optimize

import geoent as ge
from geoent.closedform import _bisep_ratio
from geoent.errors import DomainError
from geoent.reports import compute_curve

# A K = 3 case where a multistart coordinate ascent falls 3.7e-10 short in lambda^2.
ASCENT_SHORTFALL_GAMMA = (0.60851655, 0.77556503, 0.98562202)


def _sum_product(w, deltas):
    """F(d) = sum_s w_s sin(d_s) prod_{t != s} cos(d_t), batched over leading axes."""
    cos_d = np.cos(deltas)
    loo = np.stack([np.prod(np.delete(cos_d, s, axis=-1), axis=-1) for s in range(len(w))], -1)
    return np.sum(w * np.sin(deltas) * loo, axis=-1)


def _grid_max_sum_product(w, points=24):
    """Dense grid over [0, pi/2]^K, then a Powell polish from the best point."""
    axes = [np.linspace(0.0, np.pi / 2, points)] * len(w)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(w))
    best = mesh[int(np.argmax(_sum_product(w, mesh)))]
    res = scipy.optimize.minimize(lambda d: -_sum_product(w, d), best,
                                  method="Powell", bounds=[(0.0, np.pi / 2)] * len(w),
                                  options={"xtol": 1e-10, "ftol": 1e-15})
    return float(-res.fun)


def _circumradius_lambda2(gamma):
    """lambda^2 of the weighted single-excitation state on 1|1|1, by w_trisep's formula."""
    m1, m2, m3 = sorted(float(g) ** 2 for g in gamma)
    if m3 >= m1 + m2:
        return m3 / (m1 + m2 + m3)
    sigma = 2 * (m1 * m2 + m1 * m3 + m2 * m3) - m1 ** 2 - m2 ** 2 - m3 ** 2
    return 4 * m1 * m2 * m3 / (sigma * (m1 + m2 + m3))


def _matches_circumradius(gamma, shift=0.0):
    value = ge.asym_w_ksep_reduced(gamma, ge.Shape((1, 1, 1))).lambda2
    return abs(value - (_circumradius_lambda2(gamma) + shift)) <= 1e-13


class TestGhz:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (8, 5)])
    def test_constant_half(self, n, k):
        value = ge.ghz_egk(n, k)
        assert value.exact == Fraction(1, 2)
        assert value.e_g == 0.5

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 4)])
    def test_k_range(self, n, k):
        with pytest.raises(DomainError):
            ge.ghz_egk(n, k)


class TestWFullSeparable:
    def test_exact_values(self):
        assert ge.w_full_separable(3).exact == Fraction(5, 9)
        assert ge.w_full_separable(4).exact == Fraction(37, 64)
        assert ge.w_full_separable(2).exact == Fraction(1, 2)

    def test_asymptote(self):
        assert ge.w_full_separable(2000).e_g == pytest.approx(1 - np.exp(-1), abs=3e-4)

    def test_lambda_formula(self):
        for n in range(2, 9):
            assert 1 - ge.w_full_separable(n).lambda2 == pytest.approx(
                1 - ((n - 1) / n) ** (n - 1), abs=1e-14
            )


FULL3 = ge.Partition(((1,), (2,), (3,)))


def _assert_within(got, want, tol):
    """got lies within tol of want, and a 1e-9 shift of got would not."""
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(got + 1e-9 - want)) > tol


def _assert_in_intervals(values, states):
    """Each value lies in its state's certified 1|2|3 interval [lo - 1e-9, hi + 1e-12],
    and a 1e-9 rise of the values would leave some interval."""
    lo, hi = np.array([ge.qubit_block_interval(psi, FULL3) for psi in states]).T
    assert np.all(lo - 1e-9 <= values) and np.all(values <= hi + 1e-12)
    assert np.any(values + 1e-9 > hi + 1e-12)


def _by_weight(psi):
    return psi.amplitudes[(1 << np.arange(psi.num_qubits + 1)) - 1]


def _symmetric_state(amps_by_weight):
    """The normalized symmetric state with amplitude a_k on every weight-k ket."""
    n = len(amps_by_weight) - 1
    amps = np.asarray(amps_by_weight)[[bin(j).count("1") for j in range(2 ** n)]]
    return ge.PureState(n, amps / np.linalg.norm(amps))


class TestDickeFullSeparable:
    def test_exact_values(self):
        assert ge.dicke_full_separable(4, 2).exact == Fraction(5, 8)
        assert ge.dicke_full_separable(6, 3).exact == 1 - Fraction(20 * 27 * 27, 6 ** 6)
        for n in range(2, 9):
            assert ge.dicke_full_separable(n, 1) == ge.w_full_separable(n)
            assert ge.dicke_full_separable(n, 0).lambda2 == ge.dicke_full_separable(n, n).lambda2 == 1.0

    @pytest.mark.parametrize("n,k", [(1, 0), (4, -1), (4, 5)])
    def test_range(self, n, k):
        with pytest.raises(DomainError):
            ge.dicke_full_separable(n, k)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_dense_one_dimensional_maximum(self, n):
        # (cos t, sin t) on every qubit: C(N,k) s^k (1 - s)^(N-k) with s = sin^2 t.
        s = np.linspace(0.0, 1.0, 200001)
        for k in range(1, n):
            grid = np.max(comb(n, k) * s ** k * (1 - s) ** (n - k))
            exact = ge.dicke_full_separable(n, k).lambda2
            assert exact >= grid - 1e-15
            _assert_within(exact, grid, 2e-10)  # the grid's own error is below 8.4e-11

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dicke_rows_of_the_batched_rule(self, n):
        # E vanishes identically on a Dicke state; a global phase and a
        # weight below 1 scale Wei & Goldbart's value by |c_k|^2.
        rows = np.zeros((n + 1, n + 1), dtype=np.complex128)
        rows[np.arange(n + 1), np.arange(n + 1)] = [
            0.8 * np.exp(0.3j) / np.sqrt(comb(n, k)) for k in range(n + 1)]
        want = [0.64 * ge.dicke_full_separable(n, k).lambda2 for k in range(n + 1)]
        _assert_within(ge.symmetric_full_separable(rows), np.array(want), 1e-15)


class TestSymmetricFullSeparable:
    def test_figure_one_states_in_certified_interval(self):
        config = ge.OptimizerConfig(seed=1)
        phis = compute_curve("1", config).rows[:, 4]
        etas = np.linspace(0.0, np.pi / 2, 101)
        states = [ge.superpose(np.cos(e), ge.w(3), np.sin(e), p, other)
                  for other, phases in ((ge.w_tilde3(), 0.0), (ge.ghz(3), 0.0),
                                        (ge.ghz(3), np.pi), (ge.ghz(3), phis))
                  for e, p in zip(etas, np.broadcast_to(phases, etas.shape))]
        assert len(states) == 404
        _assert_in_intervals(ge.symmetric_full_separable([_by_weight(s) for s in states]), states)

    @pytest.mark.parametrize("other", [ge.w_tilde3(), ge.ghz(3)], ids=["w_w_tilde", "w_ghz3"])
    def test_near_either_end_in_certified_interval(self, other):
        # Near a Dicke end the maxima approach a circle and E all but vanishes.
        small = np.logspace(-15, -1, 15)
        etas = np.concatenate([small, np.pi / 2 - small])
        phis = (0.0, np.pi, np.random.default_rng(3).uniform(0.0, np.pi))
        states = [ge.superpose(np.cos(e), ge.w(3), np.sin(e), p, other) for p in phis for e in etas]
        _assert_in_intervals(ge.symmetric_full_separable([_by_weight(s) for s in states]), states)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_random_symmetric_states_meet_the_ascent(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(20, n + 1)) + 1j * rng.normal(size=(20, n + 1))
        states = [_symmetric_state(row) for row in rows]
        partition = ge.representative_partition(ge.Shape((1,) * n))
        ascent = np.array([r.lambda2 for r in ge.best_overlaps(states, [partition] * 20)])
        exact = ge.symmetric_full_separable([_by_weight(psi) for psi in states])
        assert np.min(exact - ascent) >= -1e-14
        assert not np.min(exact - 1e-9 - ascent) >= -1e-14
        _assert_within(exact, ascent, 1e-12)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
    def test_dicke_states_with_rounding_noise_meet_the_ascent(self, n, k):
        # Eigenvalues alone miss the circle of maxima's radius here by up to
        # 7.8e-12 in lambda^2; the Newton step on the stationarity recovers it.
        rng = np.random.default_rng(k)
        noise = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        states = [_symmetric_state(np.eye(n + 1)[k] + eps * noise) for eps in (1e-15, 3e-15, 1e-13)]
        partition = ge.representative_partition(ge.Shape((1,) * n))
        ascent = np.array([ge.best_overlap(psi, partition).lambda2 for psi in states])
        exact = ge.symmetric_full_separable([_by_weight(psi) for psi in states])
        assert np.min(exact - ascent) >= -1e-14
        assert not np.min(exact - 1e-9 - ascent) >= -1e-14
        _assert_within(exact, ascent, 1e-12)

    def test_rotated_w_is_nan_and_its_scan_takes_the_ascent(self, config):
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        psi = ge.PureState(3, np.kron(np.kron(u, u), u) @ ge.w(3).amplitudes)
        assert ge.is_symmetric(psi)
        assert np.isnan(ge.symmetric_full_separable([_by_weight(psi)])[0])
        value, _ = ge.egk_absolute(psi, 3, config)
        _assert_within(1.0 - value, 4 / 9, 5e-10)

    @pytest.mark.parametrize("n", [2, 11])
    def test_nan_outside_three_to_ten_qubits(self, n):
        assert np.isnan(ge.symmetric_full_separable([_by_weight(ge.w(n))])).all()

    def test_shape_checked(self):
        with pytest.raises(DomainError):
            ge.symmetric_full_separable([0.5, 0.5])


class TestWBisep:
    @pytest.mark.parametrize("m,n,expected", [
        (1, 4, Fraction(1, 4)), (2, 5, Fraction(2, 5)), (3, 6, Fraction(1, 2)),
        (1, 3, Fraction(1, 3)),
    ])
    def test_values(self, m, n, expected):
        value = ge.w_bisep(m, n)
        assert value.exact == expected
        assert Fraction(1) - value.exact == Fraction(n - m, n)

    def test_larger_half_rejected(self):
        with pytest.raises(DomainError):
            ge.w_bisep(3, 5)


class TestWTrisep:
    @pytest.mark.parametrize("sizes,expected", [
        ((1, 2, 2), Fraction(19, 35)),
        ((2, 2, 2), Fraction(5, 9)),
        ((1, 1, 4), Fraction(1, 3)),
        ((1, 1, 3), Fraction(2, 5)),
        ((1, 2, 3), Fraction(1, 2)),
    ])
    def test_values(self, sizes, expected):
        assert ge.w_trisep(*sizes).exact == expected

    @pytest.mark.parametrize("m1,m2", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_branch_continuity(self, m1, m2):
        # both branch formulas, written out independently, at m3 = m1 + m2
        m3 = m1 + m2
        n = m1 + m2 + m3
        big_block = Fraction(1) - Fraction(m3, n)
        sigma = 2 * (m1 * m2 + m1 * m3 + m2 * m3) - m1 ** 2 - m2 ** 2 - m3 ** 2
        interior = Fraction(1) - Fraction(4 * m1 * m2 * m3, n * sigma)
        assert big_block == interior
        assert ge.w_trisep(m1, m2, m3).exact == big_block

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            ge.w_trisep(2, 1, 3)


class TestWKsepReduced:
    @pytest.mark.parametrize("sizes,expected", [
        ((1, 1, 1), Fraction(5, 9)),
        ((1, 1, 1, 1), Fraction(37, 64)),
        ((1, 1, 1, 3), Fraction(1, 2)),
        ((2, 2, 2), Fraction(5, 9)),
    ] + [
        # full separability: 1 - ((N-1)/N)^(N-1)
        ((1,) * n, 1 - Fraction((n - 1) ** (n - 1), n ** (n - 1))) for n in range(2, 13)
    ])
    def test_matches_exact_routes(self, sizes, expected):
        value = ge.w_ksep_reduced(ge.Shape(sizes))
        assert value.e_g == pytest.approx(float(expected), abs=1e-14)

    @pytest.mark.parametrize("sizes,printed", [
        ((1, 1, 1, 2), 0.559),
        ((1, 1, 2, 2), 0.567),
        ((1, 1, 1, 1, 2), 0.580),
        ((1, 1, 1, 1, 1), 0.590),
    ])
    def test_three_decimal_targets(self, sizes, printed):
        assert ge.w_ksep_reduced(ge.Shape(sizes)).e_g == pytest.approx(printed, abs=5e-4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_bipartition_shape_reduces_to_bisep(self, n):
        reduced = ge.w_ksep_reduced(ge.Shape((1, n - 1)))
        assert reduced.e_g == pytest.approx(ge.w_bisep(1, n).e_g, abs=1e-9)

    @pytest.mark.parametrize("n", [13, 20, 50])
    def test_full_separability_beyond_k12(self, n):
        # K = N of W(N) is ((N-1)/N)^(N-1); no cap on K remains.
        value = ge.w_ksep_reduced(ge.Shape((1,) * n))
        assert value.lambda2 == pytest.approx(((n - 1) / n) ** (n - 1), abs=1e-14)


class TestMagnon2:
    @pytest.mark.parametrize("m,n,expected", [
        (1, 4, Fraction(1, 2)), (2, 4, Fraction(1, 3)),
    ])
    def test_values(self, m, n, expected):
        assert ge.magnon2_bisep(m, n).exact == expected

    @pytest.mark.parametrize("n", range(5, 9))
    def test_single_site_cut(self, n):
        assert ge.magnon2_bisep(1, n).exact == Fraction(2, n)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            ge.magnon2_bisep(1, 3)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_schmidt_oracle(self, n):
        for m in range(1, n // 2 + 1):
            assert ge.magnon2_bisep(m, n).exact == ge.magnon_bisep_schmidt(m, n, 2).exact


class TestAsymWBisep:
    def test_uniform(self):
        assert ge.asym_w_bisep((1, 1, 1), {1}).exact == Fraction(1, 3)

    def test_product_state(self):
        assert ge.asym_w_bisep((1, 0, 0), {1}).exact == 0

    def test_mixed_weights(self):
        gamma = (Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(1, 6))
        value = ge.asym_w_bisep(gamma, {1, 2})
        assert value.lambda2 == pytest.approx(18 / 35, abs=1e-15)
        assert value.exact == Fraction(17, 35)

    def test_block_side_symmetric(self):
        gamma = (0.9, 0.4, 0.3, 0.7)
        a = ge.asym_w_bisep(gamma, {1, 3})
        b = ge.asym_w_bisep(gamma, {2, 4})
        assert a.e_g == b.e_g

    @pytest.mark.parametrize("block", [set(), {1, 2, 3}])
    def test_degenerate_blocks(self, block):
        with pytest.raises(DomainError):
            ge.asym_w_bisep((1, 1, 1), block)

    @staticmethod
    def _reference(gamma, block, shift=0):
        """The value computed with plain Fraction arithmetic, lambda^2 shifted by ``shift``."""
        g = [Fraction(x) for x in gamma]
        total = sum(x * x for x in g)
        in_a = sum(g[q - 1] ** 2 for q in block)
        lam = max(in_a, total - in_a) / total + shift
        return ge.ClosedFormValue(float(lam), 1.0 - float(lam), 1 - lam, "asymw-bipartition")

    def test_equals_plain_fraction_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            size = int(rng.integers(1, n))
            block = {int(q) for q in rng.choice(np.arange(1, n + 1), size, replace=False)}
            floats = 10.0 ** rng.uniform(-30, 30, n)
            fractions = [Fraction(int(a), int(b))
                         for a, b in zip(rng.integers(1, 60, n), rng.integers(1, 60, n))]
            ints = [int(x) for x in rng.integers(1, 9, n)]
            for gamma in (tuple(floats), tuple(rng.uniform(0, 1, n)),
                          tuple(fractions), tuple(ints)):
                value = ge.asym_w_bisep(gamma, block)
                assert value == self._reference(gamma, block)
                assert value != self._reference(gamma, block, shift=-Fraction(1e-9))

    def test_integer_core_equals_fraction_arithmetic(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            blocks = [{int(q) for q in rng.choice(np.arange(1, n + 1), int(rng.integers(1, n)),
                                                  replace=False)} for _ in range(3)]
            floats = 10.0 ** rng.uniform(-30, 30, n)
            fractions = [Fraction(int(a), int(b))
                         for a, b in zip(rng.integers(1, 60, n), rng.integers(1, 60, n))]
            ints = [int(x) for x in rng.integers(1, 9, n)]
            for gamma in (tuple(floats), tuple(fractions), tuple(ints)):
                g = [Fraction(x) for x in gamma]
                total = sum(x * x for x in g)
                each = [max(in_a, total - in_a) / total
                        for in_a in (sum(g[q - 1] ** 2 for q in block) for block in blocks)]
                for got, want in ((_bisep_ratio(gamma, blocks[:1]), each[0]),
                                  (_bisep_ratio(gamma, blocks), max(each))):
                    assert Fraction(*got) == want
                    assert got[0] / got[1] == float(want)
                    assert got[0] / got[1] != float(want + Fraction(1e-9))

    @pytest.mark.parametrize("figure, weights, blocks", [
        ("4", (0.5,), [{1}]),
        ("5", (0.5,), [{1}, {2}, {3}]),
        ("6", (2 / 3, 1 / 6), [{1}]),
        ("7", (2 / 3, 1 / 6), [{1, 2}]),
    ])
    def test_figure_surfaces_equal_asym_w_bisep(self, figure, weights, blocks):
        rows = compute_curve(figure, gamma_points=21).rows
        grid = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(rows[:, :2], [(a, b) for a in grid for b in grid])
        want = [min(ge.asym_w_bisep((a, b, *weights), block).e_g for block in blocks)
                for a, b in rows[:, :2]]
        assert np.array_equal(rows[:, 2], want)


class TestAsymWKsepReduced:
    @pytest.mark.parametrize("sizes", [(1, 2), (1, 1, 2), (2, 2), (1, 1, 1, 1)])
    def test_uniform_reduces_to_w(self, sizes):
        shape = ge.Shape(sizes)
        uniform = ge.asym_w_ksep_reduced(np.ones(shape.n), shape)
        assert uniform.e_g == pytest.approx(ge.w_ksep_reduced(shape).e_g, abs=1e-12)

    def test_bipartition_agrees_with_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            gamma = rng.uniform(0.1, 1.0, 5)
            reduced = ge.asym_w_ksep_reduced(gamma, ge.Shape((2, 3)))
            direct = ge.asym_w_bisep(gamma, {1, 2})
            assert reduced.e_g == pytest.approx(direct.e_g, abs=1e-10)

    def test_non_contiguous_partition(self):
        gamma = np.array([0.9, 0.2, 0.7, 0.4, 0.6])
        partition = ge.Partition(((1, 3), (2, 4, 5)))
        reduced = ge.asym_w_ksep_reduced(gamma, partition)
        direct = ge.asym_w_bisep(gamma, {1, 3})
        assert reduced.e_g == pytest.approx(direct.e_g, abs=1e-10)

    def test_uniform_full_separability(self):
        value = ge.asym_w_ksep_reduced((1, 1, 1), ge.Shape((1, 1, 1)))
        assert value.e_g == pytest.approx(5 / 9, abs=1e-9)

    def test_block_mismatch(self):
        with pytest.raises(DomainError):
            ge.asym_w_ksep_reduced((1, 1, 1), ge.Shape((1, 3)))

    @pytest.mark.parametrize("gamma", [
        ASCENT_SHORTFALL_GAMMA,
        # sum of the smaller squared weights = largest squared weight * (1 +- 1e-6),
        # on both sides of the boundary where the interior maximum appears
        *[(1.0, np.sqrt(a * (1 + eps)), np.sqrt((1 - a) * (1 + eps)))
          for a in (0.5, 0.3) for eps in (1e-6, -1e-6)],
    ])
    def test_circumradius_at_k3(self, gamma):
        assert _matches_circumradius(gamma)

    def test_circumradius_at_k3_random(self):
        rng = np.random.default_rng(11)
        for gamma in rng.uniform(0.0, 1.0, (300, 3)):
            assert _matches_circumradius(gamma), gamma

    def test_circumradius_check_rejects_1e9_error(self):
        assert not _matches_circumradius(ASCENT_SHORTFALL_GAMMA, shift=-1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_grid_never_exceeds(self, k):
        rng = np.random.default_rng(k)
        for w in rng.uniform(0.0, 1.0, (15, k)):
            exact = np.sqrt(ge.asym_w_ksep_reduced(w, ge.Shape((1,) * k)).lambda2 * np.sum(w ** 2))
            grid = _grid_max_sum_product(w)
            assert grid <= exact + 1e-12
            assert grid >= exact - 1e-9


class TestWghzBisepReduced:
    @pytest.mark.parametrize("m1,m2", [(1, 3), (2, 2), (2, 4), (1, 1)])
    def test_pure_ghz_endpoint(self, m1, m2):
        assert ge.wghz_bisep_reduced(np.pi / 2, m1, m2).e_g == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pure_w_endpoint(self, n):
        assert ge.wghz_bisep_reduced(0.0, 1, n - 1).e_g == pytest.approx(1 / n, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_monotone_for_single_site_cut(self, n):
        etas = np.linspace(0.0, np.pi / 2, 41)
        values = [ge.wghz_bisep_reduced(eta, 1, n - 1).e_g for eta in etas]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_scale_invariant_when_blocks_not_single(self):
        eta = np.pi / 6
        base = ge.wghz_bisep_reduced(eta, 2, 2).lambda2
        assert ge.wghz_bisep_reduced(eta, 4, 4).lambda2 == pytest.approx(base, abs=1e-9)
        assert ge.wghz_bisep_reduced(eta, 6, 6).lambda2 == pytest.approx(base, abs=1e-9)

    def test_eta_range(self):
        with pytest.raises(DomainError):
            ge.wghz_bisep_reduced(2.0, 1, 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_state_svd(self, n):
        for eta in np.linspace(0.0, np.pi / 2, 17):
            psi = ge.superpose(np.cos(eta), ge.w(n), np.sin(eta), 0.0, ge.ghz(n))
            for m1 in range(1, n):
                sigma = np.linalg.svd(psi.amplitudes.reshape(2 ** m1, 2 ** (n - m1)),
                                      compute_uv=False)[0]
                value = ge.wghz_bisep_reduced(eta, m1, n - m1).lambda2
                assert value == pytest.approx(sigma ** 2, abs=1e-14)


class TestCascade:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_max_value(self, m):
        value, angles = ge.cascade_max_f(m)
        assert abs(value ** 2 - m) <= 1e-12
        assert ge.cascade_f(angles) == pytest.approx(value, abs=1e-12)

    def test_m1(self):
        value, angles = ge.cascade_max_f(1)
        assert value == 1.0
        assert angles == pytest.approx([0.0])

    def test_m2(self):
        value, angles = ge.cascade_max_f(2)
        assert value == pytest.approx(np.sqrt(2), abs=1e-15)
        assert angles == pytest.approx([np.pi / 4, 0.0], abs=1e-15)

    def test_argmax_formula(self):
        _, angles = ge.cascade_max_f(5)
        for i, angle in enumerate(angles, start=1):
            h = 5 - i
            assert angle == pytest.approx(np.arcsin(np.sqrt(h / (1 + h))), abs=1e-15)

    def test_grid_never_exceeds(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0.0, np.pi / 2, (2000, 4))
        assert np.max(ge.cascade_f(samples)) <= 2.0 + 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    def test_sum_of_hypersphere_coordinates(self, m):
        # cascade_f = sum v_i with ||v|| <= 1: the Cauchy-Schwarz check of criterion 11.
        from geoent.reports import _hypersphere_point

        d = np.random.default_rng(m).uniform(0.0, np.pi / 2, (500, m))
        u = _hypersphere_point(d)
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(ge.cascade_f(d) - u[:, :m].sum(axis=1))) <= 1e-12
        assert np.max(np.linalg.norm(u[:, :m], axis=1)) <= 1.0 + 1e-12
        _, angles = ge.cascade_max_f(m)
        assert np.max(np.abs(_hypersphere_point(angles)[:m] - 1.0 / np.sqrt(m))) <= 1e-12

    def test_shifted_argmax_fails_criterion_11(self, monkeypatch):
        # A 1e-6 shift moves cascade_f by only O(1e-12) but u(d) by O(1e-6).
        from geoent import reports

        real = reports.cascade_max_f
        monkeypatch.setattr(reports, "cascade_max_f", lambda m: (real(m)[0], real(m)[1] + 1e-6))
        report = reports.run_verify(suites=["lemmas"])
        lines = [line for line in report.results[0].lines if line.startswith("cascade")]
        assert not report.passed
        assert len(lines) == 6 and all(line.endswith("[MISMATCH]") for line in lines)


class TestLineMax:
    @pytest.mark.parametrize("x,y,value,angle", [
        (1.0, 0.0, 1.0, 0.0),
        (1.0, 1.0, np.sqrt(2), np.pi / 4),
        (3.0, 4.0, 5.0, np.arctan2(4, 3)),
    ])
    def test_examples(self, x, y, value, angle):
        got_value, got_angle = ge.line_max(x, y)
        assert got_value == pytest.approx(value, abs=1e-15)
        assert got_angle == pytest.approx(angle, abs=1e-15)


class TestClosedFormValueInvariants:
    def _values(self):
        yield ge.ghz_egk(5, 3)
        yield ge.w_full_separable(6)
        yield ge.w_bisep(2, 6)
        yield ge.w_trisep(1, 2, 2)
        yield ge.w_ksep_reduced(ge.Shape((1, 1, 2)))
        yield ge.magnon2_bisep(2, 5)
        yield ge.asym_w_bisep((0.3, 0.8, 0.5), {2})
        yield ge.asym_w_ksep_reduced((0.3, 0.8, 0.5), ge.Shape((1, 2)))
        yield ge.wghz_bisep_reduced(0.4, 1, 3)

    def test_bounds_and_consistency(self):
        for value in self._values():
            assert 0.0 <= value.lambda2 <= 1.0
            assert abs(value.e_g - (1.0 - value.lambda2)) <= 1e-15
            if value.exact is not None:
                assert abs(float(value.exact) - value.e_g) <= 1e-15

    def test_rationality_where_promised(self):
        rationals = [
            ge.ghz_egk(4, 2),
            ge.w_full_separable(5),
            ge.w_bisep(1, 5),
            ge.w_trisep(1, 1, 3),
            ge.magnon2_bisep(1, 4),
            ge.asym_w_bisep((1, 1, 1, 1), {1, 2}),
        ]
        assert all(v.exact is not None for v in rationals)


class TestScaleInvarianceOfClosedForms:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_w_bisep(self, l):
        assert ge.w_bisep(1 * l, 4 * l).exact == ge.w_bisep(1, 4).exact

    @pytest.mark.parametrize("l", [1, 2])
    def test_w_trisep(self, l):
        assert ge.w_trisep(1 * l, 2 * l, 2 * l).exact == ge.w_trisep(1, 2, 2).exact

    @pytest.mark.parametrize("sizes", [(1, 2), (1, 1, 1), (1, 1, 2)])
    def test_w_ksep_reduced(self, sizes):
        base = ge.w_ksep_reduced(ge.Shape(sizes)).e_g
        scaled = ge.w_ksep_reduced(ge.Shape(sizes).scaled(2)).e_g
        assert scaled == pytest.approx(base, abs=1e-9)
