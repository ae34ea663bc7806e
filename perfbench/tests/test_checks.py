"""The checks pass on correct outputs and catch a reference moved by 1e-6."""

import dataclasses

import numpy as np
import pytest

from perfbench import references, workloads
from perfbench.worker import check, import_geoent, measure

ge = import_geoent()
PERTURBATION = 1e-6


def _failed_frac(workload, names):
    ops = tuple(op for op in workload.ops if op.name in names)
    records = measure(dataclasses.replace(workload, ops=ops), seconds=0.0)
    return len(check(records)) / len(records)


def _move_recorded(monkeypatch, name, kind, key):
    moved = {state: {k: dict(values) for k, values in rec.items()}
             for state, rec in workloads.recorded_values().items()}
    moved[name][kind][key] -= PERTURBATION
    monkeypatch.setattr(workloads, "recorded_values", lambda: moved)


def test_symmetric_ops_pass_and_fail_when_recorded_value_moves(monkeypatch):
    workload = workloads.build("symmetric-families", 3, ge)
    names = {"ghz4", "wghz5"}
    assert _failed_frac(workload, names) == 0.0

    _move_recorded(monkeypatch, "wghz5", "absolute", "4")
    assert _failed_frac(workload, names) == 0.5


def test_random_ops_fail_when_recorded_k3_value_moves(monkeypatch):
    workload = workloads.build("random-asym", 5, ge)
    names = {"random0", "random1"}
    assert _failed_frac(workload, names) == 0.0

    k3 = [key for key in workloads.recorded_values()["random1"]["relative"]
          if key.count("|") == 2]
    _move_recorded(monkeypatch, "random1", "relative", k3[len(k3) // 2])
    assert _failed_frac(workload, names) == 0.5


def test_random_ops_fail_when_svd_reference_moves(monkeypatch):
    workload = workloads.build("random-asym", 5, ge)
    assert _failed_frac(workload, {"random0"}) == 0.0

    exact = references.StateReference.bipartition_e
    monkeypatch.setattr(references.StateReference, "bipartition_e",
                        lambda self, side: exact(self, side) - PERTURBATION)
    assert _failed_frac(workload, {"random0"}) == 1.0


def test_table_op_fails_when_reference_row_moves(monkeypatch):
    workload = workloads.build("paper-figures", 0, ge)
    assert _failed_frac(workload, {"table-V"}) == 0.0

    rows = [list(r) for r in workloads.TABLE_ROWS["V"]]
    rows[-1][3] += PERTURBATION          # the exact 1|3 row, tolerance 1e-7
    monkeypatch.setitem(workloads.TABLE_ROWS, "V", [tuple(r) for r in rows])
    assert _failed_frac(workload, {"table-V"}) == 1.0


@pytest.mark.parametrize("n", [2, 3, 7])
def test_wghz_bipartition_reference_matches_dense_svd(n):
    for eta in (0.0, 0.4, 1.2, 3.14159 / 2):
        psi = ge.superpose(np.cos(eta), ge.w(n), np.sin(eta), 0.0, ge.ghz(n))
        dense = references.StateReference(psi.amplitudes).bipartition_e({1})
        assert workloads._wghz_bipartition_e(eta, n) == pytest.approx(dense, abs=1e-12)


def test_symmetric_product_reference_on_known_states():
    w3 = workloads.W3
    ghz3 = workloads.GHZ3
    e = references.symmetric_product_e(
        [references.weight_sums(w3), references.weight_sums(ghz3)])
    assert e == pytest.approx([5 / 9, 0.5], abs=1e-12)
