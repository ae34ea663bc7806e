import numpy as np
import pytest

import geoent as ge
from geoent.errors import DomainError, ResourceCapError
from geoent import reports
from geoent.reports import compute_curve

FULL3 = ge.Partition(((1,), (2,), (3,)))


def _lone_e3(etas, phis, other, config):
    """E^(3) of cos(eta) W + sin(eta) e^{i phi} other, one ``best_overlap`` per point."""
    return np.array([
        ge.best_overlap(ge.superpose(np.cos(e), ge.w(3), np.sin(e), p, other), FULL3, config).e_g
        for e, p in zip(etas, np.broadcast_to(phis, np.shape(etas)))
    ])


def _assert_within(got, want, tol):
    """got lies within tol of want, and a 1e-9 shift of got would not."""
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(got + 1e-9 - want)) > tol


class TestIsSymmetric:
    @pytest.mark.parametrize("psi", [ge.w(5), ge.ghz(4), ge.magnon(5, 2), ge.w_tilde3()])
    def test_symmetric_families(self, psi):
        assert ge.is_symmetric(psi)

    @pytest.mark.parametrize("psi", [
        ge.cluster4(),
        ge.asym_w((1, 1, 2)),
        ge.random_state(4, 2),
        ge.basis_ket(3, 4),
    ])
    def test_asymmetric_states(self, psi):
        assert not ge.is_symmetric(psi)

    def test_antisymmetric_pair(self):
        # (|01> - |10>)/sqrt(2) (x) |0>: equal moduli within each weight, signs differ.
        amps = np.zeros(8)
        amps[[2, 4]] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
        assert not ge.is_symmetric(ge.PureState(3, amps))

    def test_one_amplitude_moved_by_1e9(self):
        amps = ge.magnon(5, 2).amplitudes.copy()
        amps[0b01100] += 1e-9
        assert not ge.is_symmetric(ge.PureState(5, amps / np.linalg.norm(amps)))
        amps[0b01100] -= 1e-9 - 1e-11
        assert ge.is_symmetric(ge.PureState(5, amps / np.linalg.norm(amps)))


def _count_ascent_problems(monkeypatch):
    """The partitions the hierarchy module hands to ``best_overlaps``."""
    from geoent import hierarchy as hmod

    sent = []
    real = hmod.best_overlaps

    def counted(states, partitions, config=None):
        sent.extend(partitions)
        return real(states, partitions, config)

    monkeypatch.setattr(hmod, "best_overlaps", counted)
    return sent


class TestExactSymmetricRoute:
    def test_symmetric_hierarchy_sends_no_full_separability(self, monkeypatch, fast_config):
        sent = _count_ascent_problems(monkeypatch)
        report = ge.full_hierarchy(ge.w(7), fast_config)
        assert sent and max(p.k for p in sent) == 6
        assert report.entry(7).absolute_e == pytest.approx(ge.w_full_separable(7).e_g, abs=1e-15)

    def test_figure_one_sends_no_problem(self, monkeypatch, fast_config):
        sent = _count_ascent_problems(monkeypatch)
        compute_curve("1", fast_config, eta_points=11)
        assert sent == []

    def test_random_state_sends_full_separability(self, monkeypatch, fast_config):
        sent = _count_ascent_problems(monkeypatch)
        ge.full_hierarchy(ge.random_state(5, 0), fast_config)
        assert ge.Partition(((1,), (2,), (3,), (4,), (5,))) in sent

    def test_beyond_ten_qubits_sends_full_separability(self, monkeypatch, fast_config):
        sent = _count_ascent_problems(monkeypatch)
        value, _ = ge.egk_absolute(ge.w(11), 11, fast_config)
        assert [p.k for p in sent] == [11]
        assert value == pytest.approx(ge.w_full_separable(11).e_g, abs=1e-9)

    def test_nan_points_of_a_sweep_take_the_ascent(self, monkeypatch, config):
        from geoent import hierarchy as hmod

        real = hmod.symmetric_full_separable
        monkeypatch.setattr(hmod, "symmetric_full_separable",
                            lambda rows: np.where(np.arange(len(rows)) % 2, np.nan, real(rows)))
        etas = np.linspace(0.0, np.pi / 2, 7)
        rows = np.array([e for _, e in ge.sweep_eta("w_ghz3", etas, config, phi=0.4)])
        _assert_within(rows, _lone_e3(etas, 0.4, ge.ghz(3), config), 1e-12)


class TestRelative:
    def test_w6_shape_2_4(self, config):
        partition = ge.representative_partition(ge.Shape((2, 4)))
        result = ge.best_overlap(ge.w(6), partition, config)
        assert result.e_g == pytest.approx(1 / 3, abs=1e-9)

    def test_w6_shape_1_2_3(self, config):
        partition = ge.representative_partition(ge.Shape((1, 2, 3)))
        result = ge.best_overlap(ge.w(6), partition, config)
        assert result.e_g == pytest.approx(0.5, abs=1e-9)

    def test_magnon_1_1_2_dual_route(self, config):
        partition = ge.representative_partition(ge.Shape((1, 1, 2)))
        psi = ge.magnon(4, 2)
        ascent = ge.best_overlap(psi, partition, config)
        lo, hi = ge.qubit_block_interval(psi, partition)
        assert lo - 1e-9 <= ascent.lambda2 <= hi + 1e-12
        assert ascent.e_g == pytest.approx(0.583, abs=5e-4)


class TestAbsolute:
    def test_w4_k2(self, config):
        value, argmin = ge.egk_absolute(ge.w(4), 2, config)
        assert value == pytest.approx(0.25, abs=1e-9)
        assert [p.shape.text for p in argmin] == ["1|3"]

    def test_cluster_k3(self, config):
        value, argmin = ge.egk_absolute(ge.cluster4(), 3, config)
        assert value == pytest.approx(0.5, abs=1e-9)
        assert ge.Partition(((1,), (2,), (3, 4))) in argmin

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ghz5_constant(self, k, config):
        value, _ = ge.egk_absolute(ge.ghz(5), k, config)
        assert value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 5])
    def test_k_range(self, k, config):
        with pytest.raises(DomainError):
            ge.egk_absolute(ge.w(4), k, config)

    def test_full_scan_cap(self, fast_config):
        psi = ge.random_state(9, 0)
        with pytest.raises(ResourceCapError):
            ge.egk_absolute(psi, 2, fast_config, scan="full")

    def test_forced_shapes_scan_on_asymmetric(self, fast_config):
        psi = ge.random_state(9, 0)
        value, _ = ge.egk_absolute(psi, 8, fast_config, scan="shapes")
        assert 0.0 <= value <= 1.0

    def test_shape_reduction_sound_for_symmetric(self, config):
        # full set-partition scan and one-representative-per-shape scan agree
        for psi in (ge.w(4), ge.magnon(4, 2)):
            for k in (2, 3):
                full, _ = ge.egk_absolute(psi, k, config, scan="full")
                shaped, _ = ge.egk_absolute(psi, k, config, scan="shapes")
                assert abs(full - shaped) <= 1e-9

    def test_workers_bit_identical(self, fast_config):
        psi = ge.random_state(4, 40)
        for k in (2, 3, 4):
            serial = ge.egk_absolute(psi, k, fast_config, workers=1)
            parallel = ge.egk_absolute(psi, k, fast_config, workers=2)
            assert serial == parallel

    @staticmethod
    def _count_pools(monkeypatch):
        """Record each process pool opened, each call of its ``map`` and each shutdown."""
        from geoent import hierarchy as hmod

        opened, maps, closed = [], [], []

        class Counted(hmod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                maps.append(self)
                return super().map(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                closed.append(self)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(hmod, "ProcessPoolExecutor", Counted)
        return opened, maps, closed

    def test_one_pool_and_one_map_per_hierarchy(self, monkeypatch, fast_config):
        # Every level's batches go out in one map over one pool.
        opened, maps, closed = self._count_pools(monkeypatch)
        psi = ge.random_state(5, 40)  # two shapes at K = 2 and at K = 3
        assert ge.full_hierarchy(psi, fast_config, workers=2) == ge.full_hierarchy(psi, fast_config)
        assert len(opened) == 1 and maps == opened
        report = reports.run_verify(fast_config, suites=["fullsep"], workers=2)
        assert report.passed and len(opened) == 2
        assert closed == opened

    def test_monotonicity_suite_maps_states_over_verify_pool(self, monkeypatch, fast_config):
        # The suite's hierarchies run with one worker inside verify's one pool.
        opened, maps, closed = self._count_pools(monkeypatch)
        monkeypatch.setattr(reports, "_MONOTONICITY_STATES", 4)
        report = reports.run_verify(fast_config, suites=["monotonicity"], workers=2)
        assert report.passed and "random states checked: 4" in report.results[0].lines
        assert len(opened) == 1 and maps == opened and closed == opened

    @pytest.mark.parametrize("workers", [0, -5, True, 2.0, "2", None])
    def test_bad_workers_rejected(self, workers, fast_config):
        psi = ge.random_state(4, 40)
        with pytest.raises(DomainError, match="workers"):
            ge.full_hierarchy(psi, fast_config, workers=workers)
        with pytest.raises(DomainError, match="workers"):
            reports.run_verify(fast_config, suites=["lemmas"], workers=workers)

    def test_bad_workers_rejected_on_one_batch_scan(self, fast_config):
        # K = N has one shape, so the scan needs no pool; workers is still checked.
        with pytest.raises(DomainError, match="workers"):
            ge.egk_absolute(ge.ghz(4), 4, fast_config, workers=0)


class TestFullHierarchy:
    def test_w5_matches_reference_rows(self, config):
        report = ge.full_hierarchy(ge.w(5), config)
        assert report.symmetric and report.monotonic
        values = {entry.k: entry.absolute_e for entry in report.entries}
        assert values[2] == pytest.approx(1 / 5, abs=1e-9)
        assert values[3] == pytest.approx(2 / 5, abs=1e-9)
        assert values[4] == pytest.approx(0.559, abs=5e-4)
        assert values[5] == pytest.approx(0.5904, abs=1e-7)

    def test_cluster4(self, config):
        report = ge.full_hierarchy(ge.cluster4(), config)
        values = {entry.k: entry.absolute_e for entry in report.entries}
        assert values[2] == pytest.approx(0.5, abs=1e-9)
        assert values[3] == pytest.approx(0.5, abs=1e-9)
        assert values[4] == pytest.approx(0.75, abs=1e-9)
        assert report.monotonic
        assert not report.symmetric
        assert report.entry(2).scan == "full"

    def test_ghz4(self, config):
        report = ge.full_hierarchy(ge.ghz(4), config)
        for entry in report.entries:
            assert entry.absolute_e == pytest.approx(0.5, abs=1e-9)

    def test_w6_relative_ordering_exception(self, config):
        # relative values may invert across K while the absolute law holds
        rel_222 = ge.best_overlap(
            ge.w(6), ge.representative_partition(ge.Shape((2, 2, 2))), config
        ).e_g
        rel_1113 = ge.best_overlap(
            ge.w(6), ge.representative_partition(ge.Shape((1, 1, 1, 3))), config
        ).e_g
        assert rel_222 == pytest.approx(5 / 9, abs=1e-9)
        assert rel_1113 == pytest.approx(0.5, abs=1e-9)
        assert rel_222 > rel_1113
        abs3, _ = ge.egk_absolute(ge.w(6), 3, config)
        abs4, _ = ge.egk_absolute(ge.w(6), 4, config)
        assert abs3 <= abs4 + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_random_states_monotonic(self, seed, fast_config):
        psi = ge.random_state(4, 1000 + seed)
        report = ge.full_hierarchy(psi, fast_config)
        assert report.monotonic, report.violations

    def test_underperforming_scan_is_reported_and_coarsened(self, monkeypatch, fast_config):
        from types import SimpleNamespace

        from geoent import hierarchy as hmod

        real = hmod.best_overlaps

        def underperform_k2_scan(states, partitions, config=None):
            results = real(states, partitions, config)
            if partitions[0].k == 2:
                return [SimpleNamespace(e_g=min(1.0, r.e_g + 0.3)) for r in results]
            return results

        monkeypatch.setattr(hmod, "best_overlaps", underperform_k2_scan)
        report = hmod.full_hierarchy(ge.w(4), fast_config)
        (k, scanned, above), = report.violations
        assert k == 3
        assert scanned == pytest.approx(0.55, abs=1e-9)
        assert above == pytest.approx(0.5, abs=1e-9)
        assert not report.monotonic
        assert report.entry(2).absolute_e == pytest.approx(0.5, abs=1e-9)
        assert report.entry(2).absolute_e <= report.entry(3).absolute_e

    @pytest.mark.parametrize("psi", [ge.w(4), ge.cluster4()], ids=["w4", "cluster4"])
    def test_is_symmetric_called_once(self, psi, monkeypatch, fast_config):
        from geoent import hierarchy as hmod

        calls = []
        real = hmod.is_symmetric

        def counted(state, *args, **kwargs):
            calls.append(state)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(hmod, "is_symmetric", counted)
        report = hmod.full_hierarchy(psi, fast_config)
        assert calls == [psi]
        assert report.symmetric == real(psi)

    def test_report_serialization(self, fast_config):
        report = ge.full_hierarchy(ge.w(4), fast_config)
        doc = report.to_dict()
        assert doc["n"] == 4 and doc["symmetric"] is True
        entry = doc["entries"][0]
        assert set(entry) == {"k", "absolute_e", "argmin_partitions", "scan", "relative"}
        assert entry["argmin_partitions"] == ["1|2,3,4"]
        assert "1|3" in entry["relative"]


def _coarsenings(p):
    """Every partition made by merging two blocks of p."""
    return [ge.Partition(tuple(b for b in p.blocks if b not in (s, t)) + (s + t,))
            for i, s in enumerate(p.blocks) for t in p.blocks[i + 1:]]


def _scanned_key(p, scan):
    """The ``relative`` key of p, or None where the scan does not hold p."""
    if scan == "full":
        return p.text
    return p.shape.text if p == ge.representative_partition(p.shape) else None


_WGHZ = [ge.superpose(np.cos(np.pi / 6), ge.w(n), np.sin(np.pi / 6), 0.0, ge.ghz(n))
         for n in range(4, 7)]
_MONOTONE_CASES = (
    [(f"random{n}_{i}", ge.random_state(n, 300 + i), "auto") for n in (4, 5) for i in range(2)]
    + [(f"{name}{n}", build(n), "auto")
       for name, build in (("ghz", ge.ghz), ("w", ge.w), ("magnon2_", lambda n: ge.magnon(n, 2)),
                           ("wghz", lambda n: _WGHZ[n - 4]))
       for n in range(4, 7)]
    + [("random5_shapes", ge.random_state(5, 7), "shapes")]
)


class TestMonotoneByConstruction:
    @pytest.mark.parametrize("psi, scan", [c[1:] for c in _MONOTONE_CASES],
                             ids=[c[0] for c in _MONOTONE_CASES])
    def test_absolute_nondecreasing_and_coarsenings_below(self, psi, scan, fast_config):
        report = ge.full_hierarchy(psi, fast_config, scan=scan)
        values = [e.absolute_e for e in report.entries]
        assert values == sorted(values)
        for k in range(3, psi.num_qubits + 1):
            entry, below = report.entry(k), report.entry(k - 1)
            for p in entry.argmin_partitions:
                e_p = entry.relative[_scanned_key(p, entry.scan)]
                keys = [_scanned_key(q, below.scan) for q in _coarsenings(p)]
                assert all(below.relative[key] <= e_p for key in keys if key is not None)

    def test_forced_shape_scan_takes_ascent_or_witness(self, fast_config):
        psi = ge.random_state(5, 7)
        report = ge.full_hierarchy(psi, fast_config, scan="shapes")
        assert not report.symmetric
        for entry in report.entries:
            for key, value in entry.relative.items():
                rep = ge.representative_partition(ge.Shape.from_text(key))
                witnesses = [] if entry.k == psi.num_qubits else [
                    report.entry(entry.k + 1).relative[p.shape.text]
                    for p in report.entry(entry.k + 1).argmin_partitions
                    if rep in _coarsenings(p)]
                assert value == ge.best_overlap(psi, rep, fast_config).e_g or value in witnesses


class TestPhaseIndependence:
    def test_wghz3_biseparable_phase_free(self, config):
        values = []
        for phi in (0.0, np.pi / 2, np.pi):
            psi = ge.superpose(np.cos(0.7), ge.w(3), np.sin(0.7), phi, ge.ghz(3))
            values.append(ge.egk_absolute(psi, 2, config)[0])
        assert max(values) - min(values) <= 1e-7

    def test_asym_w_xi_free(self, config):
        gamma = (0.9, 0.4, 0.6, 0.8)
        base = ge.egk_absolute(ge.asym_w(gamma), 2, config)[0]
        phased = ge.egk_absolute(
            ge.asym_w(gamma, xi=(1.1, 0.2, 5.0, 2.3)), 2, config
        )[0]
        assert abs(base - phased) <= 1e-7


class TestScaleInvarianceCheck:
    def test_w_1_2(self, config):
        check = ge.scale_invariance_check("w", ge.Shape((1, 2)), 2, config)
        assert check.base_e == pytest.approx(1 / 3, abs=1e-9)
        assert check.diff <= 1e-7

    def test_identity_scale(self, config):
        check = ge.scale_invariance_check("w", ge.Shape((1, 2)), 1, config)
        assert check.diff == 0.0

    def test_cap(self, config):
        with pytest.raises(ResourceCapError):
            ge.scale_invariance_check("w", ge.Shape((4, 4)), 2, config)

    def test_unknown_family(self, config):
        with pytest.raises(DomainError):
            ge.scale_invariance_check("ghz", ge.Shape((1, 2)), 2, config)


class TestSweepEta:
    def test_w_ghz3_endpoint(self, config):
        (_, e0), = ge.sweep_eta("w_ghz3", [0.0], config, phi=0.3, k=3)
        assert e0 == pytest.approx(5 / 9, abs=1e-6)

    def test_w_w_tilde_symmetric_endpoints(self, config):
        rows = ge.sweep_eta("w_w_tilde", [0.0, np.pi / 2], config, k=3)
        assert rows[0][1] == pytest.approx(5 / 9, abs=1e-6)
        assert rows[1][1] == pytest.approx(5 / 9, abs=1e-6)

    def test_wghz_curve(self, config):
        values = compute_curve("3", config, n_list=[6], eta_points=11).rows[:, 1].tolist()
        assert values[0] == pytest.approx(1 / 6, abs=1e-9)
        assert values[-1] == pytest.approx(0.5, abs=1e-9)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_unknown_family(self, config):
        with pytest.raises(DomainError):
            ge.sweep_eta("bell", [0.0], config)

    @pytest.mark.parametrize("phi", [0.7, np.linspace(0.0, np.pi, 9)], ids=["scalar", "per-eta"])
    def test_batch_matches_per_point_best_overlap(self, config, phi):
        etas = np.linspace(0.0, np.pi / 2, 9)
        rows = ge.sweep_eta("w_ghz3", etas, config, phi=phi, k=3)
        assert [eta for eta, _ in rows] == list(etas)
        lone = _lone_e3(etas, phi, ge.ghz(3), config)
        _assert_within(np.array([e for _, e in rows]), lone, 1e-12)

    def test_w_ghz3_pi_eta_index_1_in_interval(self):
        # Figure 1's W+GHZ curve at phi = pi, eta index 1 of 101, alone at seed 1.
        eta = np.linspace(0.0, np.pi / 2, 101)[1]
        psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), np.pi, ge.ghz(3))
        value = ge.best_overlap(psi, FULL3, ge.OptimizerConfig(seed=1)).lambda2
        lo, hi = ge.qubit_block_interval(psi, FULL3)
        assert lo == pytest.approx(0.4501073256346152, abs=1e-12)
        assert hi == pytest.approx(0.4501073257241275, abs=1e-12)
        assert lo - 1e-9 <= value <= hi + 1e-12
        assert hi - value <= 1e-10

    @pytest.mark.parametrize("family, phi", [("w_w_tilde", 0.0), ("w_ghz3", 0.0), ("w_ghz3", np.pi)])
    def test_figure_one_points_in_interval(self, family, phi):
        # Away from the endpoints, whose maxima lie on orbits, each interval
        # closes to 1e-10 in a few ms.
        etas = np.linspace(0.0, np.pi / 2, 101)[[1, 25, 32, 50, 75, 99]]
        other = ge.w_tilde3() if family == "w_w_tilde" else ge.ghz(3)
        for eta, e in ge.sweep_eta(family, etas, ge.OptimizerConfig(seed=1), phi=phi, k=3):
            psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), phi, other)
            lo, hi = ge.qubit_block_interval(psi, FULL3)
            assert lo - 1e-9 <= 1.0 - e <= hi + 1e-12
            assert hi - lo <= 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("family", ["w_w_tilde", "w_ghz3"])
    @pytest.mark.parametrize("phi", [0.7, np.linspace(0.0, np.pi, 101)], ids=["scalar", "per-eta"])
    def test_curve_is_bitwise_per_point_superpose(self, k, family, phi):
        # Each row of the curve's amplitude array is superpose's state, so every
        # E is bitwise the per-point rule: the exact symmetric rule at k = 3
        # (the ascent where it gives nan), one SVD at k = 2.
        etas = np.linspace(0.0, np.pi / 2, 101)
        other = ge.w_tilde3() if family == "w_w_tilde" else ge.ghz(3)
        config = ge.OptimizerConfig(seed=1)
        want = []
        for eta, p in zip(etas.tolist(), np.broadcast_to(phi, etas.shape)):
            psi = ge.superpose(np.cos(eta), ge.w(3), np.sin(eta), p, other)
            exact, = ge.symmetric_full_separable([psi.amplitudes[[0, 1, 3, 7]]])
            if k == 3 and not np.isnan(exact):
                want.append(1.0 - exact)
            else:
                partition = FULL3 if k == 3 else ge.Partition(((1,), (2, 3)))
                want.append(ge.best_overlap(psi, partition, config).e_g)
        rows = ge.sweep_eta(family, etas, config, phi=phi, k=k)
        assert [e for _, e in rows] == want

    def test_phi_of_wrong_length(self, config):
        with pytest.raises(DomainError):
            ge.sweep_eta("w_ghz3", [0.0, 0.5], config, phi=[0.0, 1.0, 2.0])

    def test_empty_grid(self, config):
        assert ge.sweep_eta("w_ghz3", [], config, k=3) == []

    def test_figure1_rows_match_per_state_best_overlap(self, config):
        data = compute_curve("1", config, eta_points=5)
        rows = data.rows
        assert rows.dtype == np.float64 and rows.shape == (5, 6)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 1] = 0.0
        etas = rows[:, 0]
        for col, other, phis in ((1, ge.w_tilde3(), 0.0), (2, ge.ghz(3), 0.0),
                                 (3, ge.ghz(3), np.pi), (5, ge.ghz(3), rows[:, 4])):
            _assert_within(rows[:, col], _lone_e3(etas, phis, other, config), 1e-12)
