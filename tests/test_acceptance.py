"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 8 checks the paper's scale property as it holds at finite size, at
1e-7 throughout. It asserts E(shape) = E(2 * shape) where that identity is
exact: the W state on any shape, and the W+GHZ superposition when every block
has at least 2 qubits. Where the identity is false in exact arithmetic it
asserts the exact values instead: the two-excitation state 1|3 vs 2|6
(1/2 vs 13/28, with E(l | 3l) = 7/16 + 3/(16(4l-1)) tending to 7/16), and
W+GHZ 1|2 vs 2|4, where a size-1 block has |W_1> = |1>.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import geoent as ge
from geoent import reports
from geoent.cli import main
from geoent.reports import compute_table, run_verify


def record(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")


def table_values(result):
    return {(r.state, r.k, r.shape.text): r for r in result.rows}


@pytest.fixture(scope="module")
def config():
    return ge.OptimizerConfig()


def test_criterion_01_table_i(config):
    t0 = time.monotonic()
    result = compute_table("I", config)
    elapsed = time.monotonic() - t0
    rows = table_values(result)
    expected = {
        ("w4", 4, "1|1|1|1"): Fraction(37, 64),
        ("w4", 3, "1|1|2"): Fraction(1, 2),
        ("w4", 2, "2|2"): Fraction(1, 2),
        ("w4", 2, "1|3"): Fraction(1, 4),
        ("ghz4", 4, "1|1|1|1"): Fraction(1, 2),
        ("ghz4", 3, "1|1|2"): Fraction(1, 2),
        ("ghz4", 2, "2|2"): Fraction(1, 2),
        ("ghz4", 2, "1|3"): Fraction(1, 2),
    }
    numeric_ok = all(
        abs(rows[key].numeric - float(target)) <= 1e-7
        for key, target in expected.items()
    )
    exact_ok = all(rows[key].exact == target for key, target in expected.items())
    ok = numeric_ok and exact_ok and elapsed < 5.0
    record(1, ok, f"4-qubit table, runtime {elapsed:.2f}s")
    assert numeric_ok and exact_ok
    assert elapsed < 5.0


def test_criterion_02_table_ii(config):
    t0 = time.monotonic()
    result = compute_table("II", config)
    elapsed = time.monotonic() - t0
    rows = table_values(result)
    exact = {
        ("w5", 3, "1|2|2"): Fraction(19, 35),
        ("w5", 3, "1|1|3"): Fraction(2, 5),
        ("w5", 2, "2|3"): Fraction(2, 5),
        ("w5", 2, "1|4"): Fraction(1, 5),
    }
    printed = {
        ("w5", 5, "1|1|1|1|1"): 0.590,
        ("w5", 4, "1|1|1|2"): 0.559,
    }
    exact_ok = all(
        abs(rows[key].numeric - float(target)) <= 1e-7 and rows[key].exact == target
        for key, target in exact.items()
    )
    printed_ok = all(
        abs(rows[key].numeric - target) <= 5e-4 for key, target in printed.items()
    )
    ok = exact_ok and printed_ok and elapsed < 30.0
    record(2, ok, f"5-qubit W table, runtime {elapsed:.2f}s")
    assert exact_ok and printed_ok
    assert elapsed < 30.0


def test_criterion_03_table_iii(config):
    t0 = time.monotonic()
    result = compute_table("III", config)
    elapsed = time.monotonic() - t0
    rows = table_values(result)
    exact = {
        ("w6", 3, "2|2|2"): Fraction(5, 9),
        ("w6", 4, "1|1|1|3"): Fraction(1, 2),
        ("w6", 3, "1|2|3"): Fraction(1, 2),
        ("w6", 2, "3|3"): Fraction(1, 2),
        ("w6", 3, "1|1|4"): Fraction(1, 3),
        ("w6", 2, "2|4"): Fraction(1, 3),
        ("w6", 2, "1|5"): Fraction(1, 6),
    }
    printed = {
        ("w6", 6, "1|1|1|1|1|1"): 0.598,
        ("w6", 5, "1|1|1|1|2"): 0.580,
        ("w6", 4, "1|1|2|2"): 0.567,
    }
    exact_ok = all(
        abs(rows[key].numeric - float(target)) <= 1e-7 for key, target in exact.items()
    )
    printed_ok = all(
        abs(rows[key].numeric - target) <= 5e-4 for key, target in printed.items()
    )
    ok = exact_ok and printed_ok and elapsed < 120.0
    record(3, ok, f"6-qubit W table (shape scan), runtime {elapsed:.2f}s")
    assert exact_ok and printed_ok
    assert elapsed < 120.0


def test_criterion_04_table_iv(config):
    t0 = time.monotonic()
    result = compute_table("IV", config)
    elapsed = time.monotonic() - t0
    rows = table_values(result)
    targets = {
        ("cluster4", 4, "1|1|1|1"): 0.75,
        ("cluster4", 3, "1|1|2"): 0.5,
        ("cluster4", 2, "2|2"): 0.5,
        ("cluster4", 2, "1|3"): 0.5,
    }
    values_ok = all(
        abs(rows[key].numeric - target) <= 1e-7 for key, target in targets.items()
    )
    degeneracy_ok = set(result.degenerate_rows) == {
        "cluster4 K=3 1|1|2", "cluster4 K=2 2|2", "cluster4 K=2 1|3",
    }
    ok = values_ok and degeneracy_ok and elapsed < 10.0
    record(4, ok, f"cluster table with threefold degeneracy, runtime {elapsed:.2f}s")
    assert values_ok
    assert degeneracy_ok
    assert elapsed < 10.0


def test_criterion_05_table_v(config):
    t0 = time.monotonic()
    result = compute_table("V", config)
    elapsed = time.monotonic() - t0
    rows = table_values(result)
    exact_rows = {
        ("magnon4_2", 2, "2|2"): Fraction(1, 3),
        ("magnon4_2", 2, "1|3"): Fraction(1, 2),
    }
    exact_ok = True
    for key, target in exact_rows.items():
        row = rows[key]
        closed = ge.magnon2_bisep(row.shape.sizes[0], 4)
        exact_ok = exact_ok and closed.exact == target
        exact_ok = exact_ok and abs(row.numeric - float(target)) <= 1e-7
        exact_ok = exact_ok and abs(row.closed_value - float(target)) <= 1e-15
    printed_ok = (
        abs(rows[("magnon4_2", 4, "1|1|1|1")].numeric - 0.625) <= 5e-4
        and abs(rows[("magnon4_2", 3, "1|1|2")].numeric - 0.583) <= 5e-4
    )
    ok = exact_ok and printed_ok and elapsed < 10.0
    record(5, ok, f"two-excitation table, runtime {elapsed:.2f}s")
    assert exact_ok and printed_ok
    assert elapsed < 10.0


def test_criterion_06_full_separability(config):
    report = run_verify(config, suites=["fullsep"])
    record(6, report.passed,
           "W full separability N=3..8 at 1e-7; GHZ constant 1/2 at 1e-9")
    assert report.passed, reports.render_report(report)


def test_criterion_07_monotonicity(config):
    t0 = time.monotonic()
    report = run_verify(config, suites=["monotonicity"])
    elapsed = time.monotonic() - t0
    record(7, report.passed,
           f"200 random 4/5-qubit states + families N<=6, runtime {elapsed:.1f}s")
    assert report.passed, reports.render_report(report)


def svd_bipartition_e(psi, m):
    """E^(2) across qubits 1..m | m+1..N: one minus the largest squared Schmidt
    coefficient (Wei & Goldbart 2003), computed without geoent's optimizer."""
    sigma = np.linalg.svd(psi.amplitudes.reshape(2 ** m, -1), compute_uv=False)
    return 1.0 - sigma[0] ** 2


def test_criterion_08_scale_invariance(config):
    eta = np.pi / 6
    failures = []

    def expect(label, value, target):
        if abs(value - target) > 1e-7:
            failures.append(f"{label}: {value:.12g} vs {float(target):.12g}")

    # Exact invariances: W on any shape, W+GHZ when every block has >= 2 qubits.
    for family, sizes, family_eta in (
        ("w", (1, 2), None),
        ("w", (1, 1, 1), None),
        ("w", (1, 3), None),
        ("wghz", (2, 4), eta),
    ):
        check = ge.scale_invariance_check(family, ge.Shape(sizes), 2, config,
                                          eta=family_eta)
        expect(f"{family} {check.shape.text} vs {check.scaled_shape.text}",
               check.scaled_e, check.base_e)

    # Two-excitation state: never invariant at finite size, so both values are
    # pinned to the closed form, and the exact law shows the approach to 7/16.
    check = ge.scale_invariance_check("magnon2", ge.Shape((1, 3)), 2, config)
    assert ge.magnon2_bisep(1, 4).exact == Fraction(1, 2)
    assert ge.magnon2_bisep(2, 8).exact == Fraction(13, 28)
    expect("magnon2 1|3", check.base_e, ge.magnon2_bisep(1, 4).exact)
    expect("magnon2 2|6", check.scaled_e, ge.magnon2_bisep(2, 8).exact)
    law = [ge.magnon2_bisep(l, 4 * l).exact for l in (1, 2, 4, 8)]
    assert law == [Fraction(7, 16) + Fraction(3, 16 * (4 * l - 1)) for l in (1, 2, 4, 8)]
    assert all(a > b > Fraction(7, 16) for a, b in zip(law, law[1:]))

    # W+GHZ from a size-1 block: each value against the reduced closed form and
    # an SVD of the state, and the two values must stay apart.
    check = ge.scale_invariance_check("wghz", ge.Shape((1, 2)), 2, config, eta=eta)
    expect("wghz 1|2 vs 1/2 - sqrt(3)/8", check.base_e, 0.5 - np.sqrt(3) / 8)
    for shape, value in ((check.shape, check.base_e),
                         (check.scaled_shape, check.scaled_e)):
        m1, m2 = shape.sizes
        psi = ge.superpose(np.cos(eta), ge.w(shape.n), np.sin(eta), 0.0,
                           ge.ghz(shape.n))
        expect(f"wghz {shape.text} vs closed form", value,
               ge.wghz_bisep_reduced(eta, m1, m2).e_g)
        expect(f"wghz {shape.text} vs SVD", value, svd_bipartition_e(psi, m1))
    if check.diff <= 1e-7:
        failures.append(f"wghz 1|2 vs 2|4 no longer differ: diff={check.diff:.3g}")

    report = run_verify(config, suites=["scale"])
    record(8, not failures and report.passed,
           "; ".join(failures) or "four exact scalings and two exact exceptions within 1e-7")
    assert not failures, "; ".join(failures)
    assert report.passed, reports.render_report(report)


def test_criterion_09_figure_spot_checks(config):
    report = run_verify(config, suites=["figures"])
    record(9, report.passed,
           "endpoint 5/9 at eta=0; biseparable phase independence; "
           "monotone single-site-cut curves N=4..10")
    assert report.passed, reports.render_report(report)


def test_criterion_10_oracle_cross_validation(config):
    # 1|2,3 is solved by an SVD; 1|2|3 keeps the multistart ascent under a
    # certified interval.
    report = run_verify(config, suites=["oracle"])
    record(10, report.passed,
           "SVD vs reduced density matrix (1|2,3), ascent in certified interval (1|2|3), "
           "20 random 3-qubit states")
    lines = report.results[0].lines
    assert len(lines) == 2 and "1|2|3" in lines[1], lines
    assert report.passed, reports.render_report(report)


def test_criterion_11_maximization_lemmas(config):
    report = run_verify(config, suites=["lemmas"])
    record(11, report.passed,
           "nested-cosine maximum sqrt(M); single-angle maxima; "
           "two-excitation closed form vs optimizer")
    assert report.passed, reports.render_report(report)


def test_criterion_12_determinism(tmp_path):
    out = [tmp_path / f"report{i}.txt" for i in range(3)]
    base = ["verify", "--suite", "fullsep", "--suite", "oracle", "--seed", "3"]
    assert main(base + ["-o", str(out[0])]) == 0
    assert main(base + ["-o", str(out[1])]) == 0
    assert main(base + ["--workers", "2", "-o", str(out[2])]) == 0
    identical = (out[0].read_bytes() == out[1].read_bytes() == out[2].read_bytes())
    record(12, identical, "byte-identical reports across runs and worker counts")
    assert identical
