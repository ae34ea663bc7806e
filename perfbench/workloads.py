"""The benchmark's workloads: inputs made from the seed, ops and their checks.

Every op is one call into geoent's public API. Its check compares the output
with references that do not trust the optimizer (see ``references``) and
returns a list of problems; an empty list means the op is correct.

* ``random-asym``: ``full_hierarchy`` of a fixed pool of Haar-random complex
  5-qubit states at 16 restarts (the monotonicity suite's traffic: many small partitions per
  shape, full set-partition scan, per-call dispatch in the optimizer).
* ``symmetric-families``: ``full_hierarchy`` of GHZ, W, two-excitation and
  cos(pi/6) W + sin(pi/6) GHZ states for N = 4..7 at the default config (one
  representative partition per shape, blocks up to 2^7, restarts that crawl
  to the sweep cap).
* ``paper-figures``: the five reference tables and seven figure datasets at
  default resolution (closed forms and 3-qubit fixed-partition ascents).

The inputs are fixed, so every value can be checked against one recorded at
the seed commit. The run seed seeds the optimizer's restarts and shuffles the
order of the ops in a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .references import (
    OPTIMIZER_TOL,
    StateReference,
    check_exact,
    check_range,
    check_relative,
    contiguous_blocks,
    parse_blocks,
    symmetric_product_e,
    weight_sums,
)

WORKLOADS = ("random-asym", "symmetric-families", "paper-figures")

RANDOM_N = 5
RANDOM_RESTARTS = 16
RANDOM_POOL = 20           # one pass is about 20 s on a 2-core Xeon
SYMMETRIC_NS = range(4, 8)      # N = 8 (w8 alone ~15 s) would break the run-time budget
WGHZ_ETA = np.pi / 6
TABLES = ("I", "II", "III", "IV", "V")
FIGURES = ("1", "2", "3", "4", "5", "6", "7")

# Closed-form rows use the verify suite's tolerances: 1e-9 for GHZ, 1e-7 else.
GHZ_TOL = 1e-9
EXACT_TOL = 1e-7
PRINTED_TOL = 5e-4
FORMULA_TOL = 1e-12        # exact rationals against the same formula in floats

RECORDED = Path(__file__).with_name("recorded.json")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]     # one pass; a run measures whole passes


def build(name: str, seed: int, ge) -> Workload:
    """Make the workload's inputs from ``seed``; ``ge`` is the imported package."""
    if name == "random-asym":
        return _random_asym(seed, ge)
    if name == "symmetric-families":
        return _symmetric_families(seed, ge)
    if name == "paper-figures":
        return _paper_figures(seed, ge)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _call(module, name, *args):
    """Look the entry point up at call time, so a traced run sees its wrapper."""
    return getattr(module, name)(*args)


def _shuffled(ops, seed):
    order = np.random.default_rng(np.random.SeedSequence([seed, 0xB3])).permutation(len(ops))
    return tuple(ops[i] for i in order)


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------

def _set_partition_count(n, k):
    """Stirling number of the second kind S(n, k)."""
    if k == n:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _set_partition_count(n - 1, k) + _set_partition_count(n - 1, k - 1)


def _shape_count(n, k, largest=None):
    """Integer partitions of n into k parts, none above ``largest``."""
    largest = n if largest is None else largest
    if k == 0:
        return int(n == 0)
    return sum(_shape_count(n - m, k - 1, m) for m in range(1, min(n, largest) + 1))


def check_hierarchy(report, amplitudes, shape_scan: bool) -> list:
    """Structure, monotonicity and optimizer-free bounds of a HierarchyReport."""
    ref = StateReference(amplitudes)
    n = ref.n
    problems = []
    if not report.monotonic:
        problems.append(f"not monotonic: {report.violations}")
    if [e.k for e in report.entries] != list(range(2, n + 1)):
        problems.append(f"levels {[e.k for e in report.entries]} are not 2..{n}")
        return problems
    full_sep = symmetric_product_e(weight_sums(amplitudes)[None, :])[0]
    for entry in report.entries:
        count = _shape_count(n, entry.k) if shape_scan else _set_partition_count(n, entry.k)
        if len(entry.relative) != count:
            problems.append(f"K={entry.k}: {len(entry.relative)} partitions scanned, expected {count}")
        for key, value in entry.relative.items():
            blocks = contiguous_blocks(key) if shape_scan else parse_blocks(key)
            if len(blocks) != entry.k or sorted(q for b in blocks for q in b) != list(range(1, n + 1)):
                problems.append(f"K={entry.k}: bad partition key {key!r}")
                continue
            check_relative(problems, f"K={entry.k} {key}", value, ref, blocks)
            if entry.k == n:
                check_range(problems, f"K={n} vs symmetric product", value, 0.0,
                            full_sep + OPTIMIZER_TOL)
        if entry.relative and entry.absolute_e != min(entry.relative.values()):
            problems.append(f"K={entry.k}: absolute {entry.absolute_e!r} is not the minimum")
    return problems


def check_recorded(problems, report, recorded):
    """One-sided: no value may sit above the one recorded at the seed commit."""
    for entry in report.entries:
        if entry.absolute_e > recorded["absolute"][str(entry.k)] + OPTIMIZER_TOL:
            problems.append(f"K={entry.k}: absolute {entry.absolute_e!r} above recorded "
                            f"{recorded['absolute'][str(entry.k)]!r}")
        for key, value in entry.relative.items():
            if value > recorded["relative"][key] + OPTIMIZER_TOL:
                problems.append(f"{key}: {value!r} above recorded {recorded['relative'][key]!r}")


@lru_cache(maxsize=None)
def recorded_values() -> dict:
    """Hierarchy values of every fixed-input state, recorded at the seed commit."""
    return json.loads(RECORDED.read_text())


def random_states(ge):
    """The random-asym pool: the same states for every run seed."""
    return [(f"random{i}", ge.random_state(RANDOM_N, np.random.SeedSequence([0, RANDOM_N, i])))
            for i in range(RANDOM_POOL)]


def _random_asym(seed, ge) -> Workload:
    config = ge.OptimizerConfig(restarts=RANDOM_RESTARTS, seed=seed)
    ops = [Op(name, partial(_call, ge, "full_hierarchy", psi, config),
              partial(_check_random, name, psi.amplitudes))
           for name, psi in random_states(ge)]
    return Workload("random-asym", _shuffled(ops, seed))


def _check_random(name, amplitudes, report):
    problems = check_hierarchy(report, amplitudes, shape_scan=False)
    if report.symmetric:
        problems.append("a random state was reported symmetric")
    check_recorded(problems, report, recorded_values()[name])
    return problems


def symmetric_states(ge):
    states = []
    for n in SYMMETRIC_NS:
        states += [
            (f"ghz{n}", ge.ghz(n)),
            (f"w{n}", ge.w(n)),
            (f"magnon{n}_2", ge.magnon(n, 2)),
            (f"wghz{n}", ge.superpose(np.cos(WGHZ_ETA), ge.w(n), np.sin(WGHZ_ETA), 0.0, ge.ghz(n))),
        ]
    return states


def _symmetric_families(seed, ge) -> Workload:
    config = ge.OptimizerConfig(seed=seed)
    ops = [Op(name, partial(_call, ge, "full_hierarchy", psi, config),
              partial(_check_symmetric, ge, name, psi.amplitudes))
           for name, psi in symmetric_states(ge)]
    return Workload("symmetric-families", _shuffled(ops, seed))


def _check_symmetric(ge, name, amplitudes, report):
    problems = check_hierarchy(report, amplitudes, shape_scan=True)
    if not report.symmetric:
        problems.append("state not detected as symmetric")
    n = report.num_qubits
    closed = {}
    if name.startswith("ghz"):
        closed = {e.k: {key: (0.5, GHZ_TOL) for key in e.relative} for e in report.entries}
    elif name.startswith("w") and not name.startswith("wghz"):
        closed[n] = {"|".join(["1"] * n): (ge.w_full_separable(n).e_g, EXACT_TOL)}
        closed[2] = {f"{m}|{n - m}": (ge.w_bisep(m, n).e_g, EXACT_TOL) for m in range(1, n // 2 + 1)}
    elif name.startswith("magnon"):
        closed[2] = {f"{m}|{n - m}": (ge.magnon2_bisep(m, n).e_g, EXACT_TOL)
                     for m in range(1, n // 2 + 1)}
    for entry in report.entries:
        for key, (value, tol) in closed.get(entry.k, {}).items():
            got = entry.relative.get(key)
            if got is None or abs(got - value) > tol:
                problems.append(f"K={entry.k} {key}: {got!r} vs closed form {value!r}")
    check_recorded(problems, report, recorded_values()[name])
    return problems


# ---------------------------------------------------------------------------
# tables and figures
# ---------------------------------------------------------------------------

def _rows(state, *rows):
    return [(state, k, shape, ref, EXACT_TOL if exact else PRINTED_TOL)
            for k, shape, ref, exact in rows]


_X = True    # exact reference (closed form or rational)
_P = False   # printed to three decimals in the paper

# (state, K, shape, reference E, tolerance) in the order compute_table emits them.
TABLE_ROWS = {
    "I": _rows("ghz4",
               (4, "1|1|1|1", 0.5, _X), (3, "1|1|2", 0.5, _X), (2, "2|2", 0.5, _X), (2, "1|3", 0.5, _X))
    + _rows("w4",
            (4, "1|1|1|1", 37 / 64, _X), (3, "1|1|2", 0.5, _X), (2, "2|2", 0.5, _X), (2, "1|3", 0.25, _X)),
    "II": _rows("w5",
                (5, "1|1|1|1|1", 0.590, _P), (4, "1|1|1|2", 0.559, _P), (3, "1|2|2", 19 / 35, _X),
                (3, "1|1|3", 0.4, _X), (2, "2|3", 0.4, _X), (2, "1|4", 0.2, _X)),
    "III": _rows("w6",
                 (6, "1|1|1|1|1|1", 0.598, _P), (5, "1|1|1|1|2", 0.580, _P), (4, "1|1|2|2", 0.567, _P),
                 (3, "2|2|2", 5 / 9, _X), (4, "1|1|1|3", 0.5, _X), (3, "1|2|3", 0.5, _X),
                 (2, "3|3", 0.5, _X), (3, "1|1|4", 1 / 3, _X), (2, "2|4", 1 / 3, _X),
                 (2, "1|5", 1 / 6, _X)),
    "IV": _rows("cluster4",
                (4, "1|1|1|1", 0.75, _X), (3, "1|1|2", 0.5, _X), (2, "2|2", 0.5, _X), (2, "1|3", 0.5, _X)),
    "V": _rows("magnon4_2",
               (4, "1|1|1|1", 0.625, _P), (3, "1|1|2", 0.583, _P), (2, "2|2", 1 / 3, _X),
               (2, "1|3", 0.5, _X)),
}
TABLE_IV_DEGENERATE = {"cluster4 K=3 1|1|2", "cluster4 K=2 2|2", "cluster4 K=2 1|3"}


def check_table(table, result) -> list:
    """The verify suite's rule: reference within the row tolerance, closed form within 1e-7."""
    problems = []
    got = [(r.state, r.k, r.shape.text) for r in result.rows]
    want = [row[:3] for row in TABLE_ROWS[table]]
    if got != want:
        return [f"table {table} rows {got} != {want}"]
    for r, (_, _, _, reference, tol) in zip(result.rows, TABLE_ROWS[table]):
        label = f"{r.state} K={r.k} {r.shape.text}"
        if not abs(r.numeric - reference) <= tol:
            problems.append(f"{label}: {r.numeric!r} vs reference {reference!r} (tol {tol})")
        if r.closed_value is not None and not abs(r.numeric - r.closed_value) <= EXACT_TOL:
            problems.append(f"{label}: {r.numeric!r} vs closed form {r.closed_value!r}")
    if table == "IV" and set(result.degenerate_rows) != TABLE_IV_DEGENERATE:
        problems.append(f"table IV degenerate rows {result.degenerate_rows}")
    return problems


def _three_qubit(kets, weight):
    v = np.zeros(8, dtype=np.complex128)
    v[list(kets)] = weight
    return v


W3 = _three_qubit((1, 2, 4), 1 / np.sqrt(3))
WT3 = _three_qubit((3, 5, 6), 1 / np.sqrt(3))
GHZ3 = _three_qubit((0, 7), 1 / np.sqrt(2))


def _wghz_bipartition_e(eta, n):
    """Exact E^(2)(1 | N-1) of cos(eta) W + sin(eta) GHZ on N qubits.

    In the orthonormal kets |0..0>, W_{N-1}, |1..1> of the last N-1 qubits
    the state is a 2 x 3 matrix (2 x 2 for N = 2, where W_1 = |1>).
    """
    c, s = np.cos(eta), np.sin(eta)
    m = np.array([[s / np.sqrt(2), c * np.sqrt((n - 1) / n), 0.0],
                  [c / np.sqrt(n), 0.0, s / np.sqrt(2)]])
    if n == 2:
        m = np.column_stack([m[:, 0], m[:, 1] + m[:, 2]])
    return 1.0 - float(np.linalg.svd(m, compute_uv=False)[0]) ** 2


def _asym_w_e(gammas, block):
    """E of the bipartition block | rest for weighted single excitations."""
    g2 = np.asarray(gammas, dtype=np.float64) ** 2
    total = g2.sum()
    inside = sum(g2[q - 1] for q in block)
    return 1.0 - max(inside, total - inside) / total


def check_curve(figure, data, eta_points=101, gamma_points=61) -> list:
    problems = []
    rows = np.array(data.rows, dtype=np.float64)
    label = f"figure {figure}"
    if figure in ("1", "2", "3"):
        etas = np.linspace(0.0, np.pi / 2, eta_points)
        if rows.shape[0] != eta_points or not np.allclose(rows[:, 0], etas, rtol=0, atol=1e-15):
            return [f"{label}: eta grid differs"]
    if figure == "1":
        # columns: W+Wt, W+GHZ (phi 0), W+GHZ (phi pi), random phi, W+GHZ (random phi)
        for col, other, phases in ((1, WT3, 0.0), (2, GHZ3, 0.0), (3, GHZ3, np.pi), (5, GHZ3, rows[:, 4])):
            phases = np.broadcast_to(phases, etas.shape)
            amps = [np.cos(e) * W3 + np.sin(e) * np.exp(1j * p) * other for e, p in zip(etas, phases)]
            upper = symmetric_product_e(np.array([weight_sums(a) for a in amps]))
            for i, a in enumerate(amps):
                lower = StateReference(a).coarsening_bound([(1,), (2,), (3,)])
                check_range(problems, f"{label} col {col} row {i}", rows[i, col],
                            lower - 1e-9, upper[i] + OPTIMIZER_TOL)
    elif figure == "2":
        for col, other in ((1, WT3), (2, GHZ3)):
            for i, e in enumerate(etas):
                phase = 0.0 if col == 1 else rows[i, 3]
                ref = StateReference(np.cos(e) * W3 + np.sin(e) * np.exp(1j * phase) * other)
                check_exact(problems, f"{label} col {col} row {i}", rows[i, col], ref.bipartition_e({1}))
    elif figure == "3":
        for j, n in enumerate(data.meta["n_list"], start=1):
            for i, e in enumerate(etas):
                check_exact(problems, f"{label} n={n} row {i}", rows[i, j], _wghz_bipartition_e(e, n))
    else:
        grid = np.linspace(0.0, 1.0, gamma_points)
        if rows.shape[0] != gamma_points ** 2:
            return [f"{label}: {rows.shape[0]} rows"]
        for (g1, g2, e), (w1, w2) in zip(rows, ((a, b) for a in grid for b in grid)):
            if (g1, g2) != (w1, w2):
                return [f"{label}: gamma grid differs at ({g1}, {g2})"]
            if figure == "4":
                want = _asym_w_e((g1, g2, 0.5), {1})
            elif figure == "5":
                want = min(_asym_w_e((g1, g2, 0.5), {q}) for q in (1, 2, 3))
            else:
                want = _asym_w_e((g1, g2, 2 / 3, 1 / 6), {1} if figure == "6" else {1, 2})
            if not abs(e - want) <= FORMULA_TOL:
                problems.append(f"{label} ({g1}, {g2}): {e!r} vs {want!r}")
    return problems


def _paper_figures(seed, ge) -> Workload:
    from geoent import reports

    config = ge.OptimizerConfig(seed=seed)
    ops = [Op(f"table-{t}", partial(_call, reports, "compute_table", t, config), partial(check_table, t))
           for t in TABLES]
    ops += [Op(f"figure-{f}", partial(_call, reports, "compute_curve", f, config), partial(check_curve, f))
            for f in FIGURES]
    return Workload("paper-figures", _shuffled(ops, seed))
