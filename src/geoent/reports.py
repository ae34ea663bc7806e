"""Reference tables, figure datasets, and the verification suite.

The five reference tables pin the measures of the 4-qubit GHZ/W pair, the
5- and 6-qubit W states, the 4-qubit cluster state, and the 4-qubit
two-excitation state. Each table lists every shape of each of its states,
so a state's rows come from one hierarchy scan, next to the state's one
closed-form rule. Exact rows carry rationals; rows only known to three
decimals are checked at 5e-4. The verification suite compares the numeric
optimizer against every closed form and reference value and exercises the
structural laws (monotonicity, scale invariance, phase independence).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import closedform
from .closedform import cascade_f, cascade_max_f, line_max
from .errors import DomainError, ShapeMismatchError
from .hierarchy import (
    DEGENERACY_TOL,
    _by_weight,
    _process_map,
    _scan,
    egk_absolute,
    full_hierarchy,
    scale_invariance_check,
    sweep_eta,
)
from .optimizer import OptimizerConfig, best_overlap, qubit_block_interval
from .partitions import Partition, Shape, representative_partition
from .states import (
    asym_w,
    cluster4,
    ghz,
    magnon,
    random_state,
    superpose,
    w,
    w_tilde3,
)

EXACT_TOL = 1e-7
PRINTED_TOL = 5e-4
_MONOTONICITY_STATES = 200


def fmt(x: float) -> str:
    """12-significant-digit decimal rendering used in all emitted files."""
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    state: str
    k: int
    shape: Shape
    exact: Fraction | None
    closed_value: float | None
    numeric: float
    reference: float
    tolerance: float

    @property
    def abs_diff(self) -> float | None:
        if self.closed_value is None:
            return None
        return abs(self.numeric - self.closed_value)


@dataclass(frozen=True)
class TableResult:
    table: str
    rows: tuple[TableRow, ...]
    degenerate_rows: tuple[str, ...]


def _row_label(row: TableRow) -> str:
    return f"{row.state} K={row.k} {row.shape.text}"


def _w_closed(shape: Shape):
    """W's closed form on a shape: full separability at K = N, else the
    bi-, tri- or K-separable form."""
    if shape.k == shape.n:
        return closedform.w_full_separable(shape.n)
    if shape.k == 2:
        return closedform.w_bisep(shape.sizes[0], shape.n)
    if shape.k == 3:
        return closedform.w_trisep(*shape.sizes)
    return closedform.w_ksep_reduced(shape)


def _magnon2_closed(shape: Shape):
    """The two-excitation state's closed form on a shape: the Dicke value at
    K = N, the bipartition form at K = 2, none in between."""
    if shape.k == shape.n:
        return closedform.dicke_full_separable(shape.n, 2)
    return closedform.magnon2_bisep(shape.sizes[0], shape.n) if shape.k == 2 else None


# Per table, each state as (name, builder, closed form of a Shape or None,
# rows of (block sizes, reference)); a Fraction reference is exact, a float
# one is printed to three decimals. Every row lists one shape of its state.
_TABLES = {
    "I": [
        ("ghz4", lambda: ghz(4), lambda s: closedform.ghz_egk(s.n, s.k), [
            ((1, 1, 1, 1), Fraction(1, 2)),
            ((1, 1, 2), Fraction(1, 2)),
            ((2, 2), Fraction(1, 2)),
            ((1, 3), Fraction(1, 2)),
        ]),
        ("w4", lambda: w(4), _w_closed, [
            ((1, 1, 1, 1), Fraction(37, 64)),
            ((1, 1, 2), Fraction(1, 2)),
            ((2, 2), Fraction(1, 2)),
            ((1, 3), Fraction(1, 4)),
        ]),
    ],
    "II": [
        ("w5", lambda: w(5), _w_closed, [
            ((1, 1, 1, 1, 1), 0.590),
            ((1, 1, 1, 2), 0.559),
            ((1, 2, 2), Fraction(19, 35)),
            ((1, 1, 3), Fraction(2, 5)),
            ((2, 3), Fraction(2, 5)),
            ((1, 4), Fraction(1, 5)),
        ]),
    ],
    "III": [
        ("w6", lambda: w(6), _w_closed, [
            ((1, 1, 1, 1, 1, 1), 0.598),
            ((1, 1, 1, 1, 2), 0.580),
            ((1, 1, 2, 2), 0.567),
            ((2, 2, 2), Fraction(5, 9)),
            ((1, 1, 1, 3), Fraction(1, 2)),
            ((1, 2, 3), Fraction(1, 2)),
            ((3, 3), Fraction(1, 2)),
            ((1, 1, 4), Fraction(1, 3)),
            ((2, 4), Fraction(1, 3)),
            ((1, 5), Fraction(1, 6)),
        ]),
    ],
    "IV": [
        ("cluster4", cluster4, None, [
            ((1, 1, 1, 1), Fraction(3, 4)),
            ((1, 1, 2), Fraction(1, 2)),
            ((2, 2), Fraction(1, 2)),
            ((1, 3), Fraction(1, 2)),
        ]),
    ],
    "V": [
        ("magnon4_2", lambda: magnon(4, 2), _magnon2_closed, [
             ((1, 1, 1, 1), Fraction(5, 8)),
             ((1, 1, 2), 0.583),
             ((2, 2), Fraction(1, 3)),
             ((1, 3), Fraction(1, 2)),
         ]),
    ],
}


def compute_table(table: str, config: OptimizerConfig | None = None) -> TableResult:
    """Compute one reference table: closed forms next to the numeric optimizer.
    Each state is one hierarchy scan; a row's value is the minimum over the
    scanned partitions of its shape."""
    if table not in _TABLES:
        raise DomainError(f"unknown table {table!r}; choose from I, II, III, IV, V")
    rows = []
    for state_name, build, closed_form, specs in _TABLES[table]:
        psi = build()
        _, _, levels = _scan(psi, range(psi.num_qubits, 1, -1), config, "auto", 1)
        for sizes, reference in specs:
            shape = Shape(sizes)
            closed = closed_form(shape) if closed_form else None
            rows.append(TableRow(
                state=state_name,
                k=shape.k,
                shape=shape,
                exact=None if closed is None else closed.exact,
                closed_value=None if closed is None else closed.e_g,
                numeric=min(e for p, e in levels[shape.k].items() if p.shape == shape),
                reference=float(reference),
                tolerance=EXACT_TOL if isinstance(reference, Fraction) else PRINTED_TOL,
            ))
    minimum = min(r.numeric for r in rows)
    degenerate = tuple(
        _row_label(r) for r in rows if r.numeric <= minimum + DEGENERACY_TOL
    )
    return TableResult(table, tuple(rows), degenerate)


def table_to_csv(result: TableResult) -> str:
    out = io.StringIO()
    out.write("state,k,shape,exact,closed_value,numeric_value,abs_diff\n")
    for r in result.rows:
        exact = f"{r.exact.numerator}/{r.exact.denominator}" if r.exact is not None else ""
        closed = fmt(r.closed_value) if r.closed_value is not None else ""
        diff = fmt(r.abs_diff) if r.abs_diff is not None else ""
        out.write(f"{r.state},{r.k},{r.shape.text},{exact},{closed},{fmt(r.numeric)},{diff}\n")
    return out.getvalue()


def table_to_dict(result: TableResult) -> dict:
    return {
        "table": result.table,
        "degenerate_rows": list(result.degenerate_rows),
        "rows": [
            {
                "state": r.state,
                "k": r.k,
                "shape": r.shape.text,
                "exact": (f"{r.exact.numerator}/{r.exact.denominator}"
                          if r.exact is not None else None),
                "closed_value": r.closed_value,
                "numeric_value": r.numeric,
                "abs_diff": r.abs_diff,
            }
            for r in result.rows
        ],
    }


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurveData:
    """A figure dataset; ``rows`` is a read-only float64 array, one column per header."""

    figure: str
    meta: dict
    header: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.header):
            raise ShapeMismatchError(
                f"rows of shape {rows.shape} do not match {len(self.header)} columns")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


_DEFAULT_FIG3_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 100)


def compute_curve(figure: str, config: OptimizerConfig | None = None, *,
                  eta_points: int = 101, gamma_points: int = 61,
                  n_list=None) -> CurveData:
    """Datasets behind the seven curve/surface figures, each built by a few
    whole-array passes rather than one call per point.

    1: E^(3) of the two 3-qubit superposition families vs eta (phases 0, pi,
       and seeded-random per point); 2: E^(2) of the same families; both one
       ``sweep_eta`` per curve. 3: E^(2)(1|N-1) of the real W+GHZ
       superposition for several N, one stacked SVD over the eta grid per N.
       4-7: weighted single-excitation surfaces over (gamma1, gamma2), each
       one exact integer pass of ``closedform._bisep_ratio`` over the grid.
    """
    config = config or OptimizerConfig()
    if eta_points < 2 or gamma_points < 2:
        raise DomainError("grid resolution must be >= 2")
    etas = np.linspace(0.0, np.pi / 2, eta_points)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xF19]))

    def curve(family, **kwargs):
        return [e for _, e in sweep_eta(family, etas, config, **kwargs)]

    if figure == "1":
        wwt = curve("w_w_tilde", phi=0.0, k=3)
        wg0 = curve("w_ghz3", phi=0.0, k=3)
        wgp = curve("w_ghz3", phi=np.pi, k=3)
        phis = rng.uniform(0.0, np.pi, etas.size)
        return CurveData(
            "1", {"seed": config.seed},
            ("eta", "e3_w_wtilde", "e3_wghz_phi0", "e3_wghz_phi_pi",
             "phi_random", "e3_wghz_phi_random"),
            np.column_stack([etas, wwt, wg0, wgp, phis, curve("w_ghz3", phi=phis, k=3)]),
        )

    if figure == "2":
        phi_wghz = float(rng.uniform(0.0, np.pi))
        return CurveData(
            "2", {"seed": config.seed, "phi_wghz": phi_wghz},
            ("eta", "e2_w_wtilde", "e2_wghz", "phi_wghz"),
            np.column_stack([etas, curve("w_w_tilde", phi=0.0, k=2),
                             curve("w_ghz3", phi=phi_wghz, k=2), np.full(etas.size, phi_wghz)]),
        )

    if figure == "3":
        n_values = tuple(int(n) for n in (n_list or _DEFAULT_FIG3_N))
        return CurveData(
            "3", {"n_list": list(n_values)},
            tuple(["eta"] + [f"e2_1_vs_rest_n{n}" for n in n_values]),
            np.column_stack([etas] + [1.0 - closedform._wghz_bisep_lambda2(etas, 1, n - 1)
                                      for n in n_values]),
        )

    if figure in ("4", "5", "6", "7"):
        grid = np.linspace(0.0, 1.0, gamma_points)
        g1, g2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        if figure in ("4", "5"):
            fixed = {"gamma3": 0.5}
            blocks = [{1}] if figure == "4" else [{1}, {2}, {3}]
        else:
            fixed = {"gamma3": 2.0 / 3.0, "gamma4": 1.0 / 6.0}
            blocks = [{1}] if figure == "6" else [{1, 2}]
        # closedform.asym_w_bisep's exact value, min over blocks, in one
        # integer pass over the grid, with no Fraction built.
        gammas = np.column_stack([g1, g2] + [np.full(g1.size, g) for g in fixed.values()])
        top, total = closedform._bisep_ratio(gammas, blocks)
        e = 1.0 - (top / total).astype(np.float64)
        return CurveData(figure, fixed, ("gamma1", "gamma2", "e2"), np.column_stack([g1, g2, e]))

    raise DomainError(f"unknown figure {figure!r}; choose 1-7")


def curve_to_csv(data: CurveData) -> str:
    out = io.StringIO()
    out.write(",".join(data.header) + "\n")
    for row in data.rows:
        out.write(",".join(fmt(x) for x in row) + "\n")
    return out.getvalue()


def curve_to_dict(data: CurveData) -> dict:
    return {
        "figure": data.figure,
        "meta": data.meta,
        "header": list(data.header),
        "rows": [list(map(float, row)) for row in data.rows],
    }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    lines: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _check_tables(config, pmap):
    results = []
    for table in ("I", "II", "III", "IV", "V"):
        result = compute_table(table, config)
        lines = []
        ok = True
        for r in result.rows:
            ref_ok = abs(r.numeric - r.reference) <= r.tolerance
            closed_ok = r.closed_value is None or abs(r.numeric - r.closed_value) <= EXACT_TOL
            ok = ok and ref_ok and closed_ok
            status = "ok" if (ref_ok and closed_ok) else "MISMATCH"
            lines.append(
                f"{_row_label(r)}: numeric={fmt(r.numeric)} "
                f"reference={fmt(r.reference)} [{status}]"
            )
        if table == "IV":
            expected = {
                "cluster4 K=3 1|1|2",
                "cluster4 K=2 2|2",
                "cluster4 K=2 1|3",
            }
            deg_ok = set(result.degenerate_rows) == expected
            ok = ok and deg_ok
            lines.append(
                "degenerate rows: " + "; ".join(result.degenerate_rows)
                + ("" if deg_ok else " [MISMATCH]")
            )
        crit = {"I": "1", "II": "2", "III": "3", "IV": "4", "V": "5"}[table]
        results.append(CheckResult(crit, f"table-{table}", ok, tuple(lines)))
    return results


_SYMMETRIC_FAMILIES = (
    ("ghz", ghz),
    ("w", w),
    ("magnon2", lambda n: magnon(n, 2)),
    ("wghz(pi/6)", lambda n: superpose(np.cos(np.pi / 6), w(n), np.sin(np.pi / 6), 0.0, ghz(n))),
)


def _check_fullsep(config, pmap):
    lines = []
    ok = True
    for n in range(3, 9):
        target = closedform.w_full_separable(n).e_g
        numeric = best_overlap(
            w(n), representative_partition(Shape((1,) * n)), config
        ).e_g
        good = abs(numeric - target) <= EXACT_TOL
        ok = ok and good
        lines.append(f"w{n} full separability: numeric={fmt(numeric)} "
                     f"closed={fmt(target)} [{'ok' if good else 'MISMATCH'}]")
    cases = [(n, k) for n in range(2, 9) for k in range(2, n + 1)]
    absolute = pmap(egk_absolute, [ghz(n) for n, _ in cases], [k for _, k in cases],
                    repeat(config))
    ghz_ok = True
    for (n, k), (value, _) in zip(cases, absolute):
        good = abs(value - 0.5) <= 1e-9
        ghz_ok = ghz_ok and good
        if not good:
            lines.append(f"ghz{n} K={k}: {fmt(value)} [MISMATCH]")
    ok = ok and ghz_ok
    lines.append("ghz N=2..8, all K: absolute E within 1e-9 of 1/2"
                 if ghz_ok else "ghz rows above mismatched")
    # Scans take K = N of a symmetric state from the exact rule, so the ascent
    # is cross-checked against it here.
    for name, build in _SYMMETRIC_FAMILIES:
        worst = 0.0
        for n in range(3, 8):
            psi = build(n)
            exact, = closedform.symmetric_full_separable([_by_weight(psi.amplitudes)])
            partition = representative_partition(Shape((1,) * n))
            worst = max(worst, abs(best_overlap(psi, partition, config).lambda2 - exact))
        good = worst <= 1e-9
        ok = ok and good
        lines.append(f"{name} N=3..7 full separability: ascent vs exact symmetric rule, "
                      f"max |diff| = {fmt(worst)} [{'ok' if good else 'MISMATCH'}]")
    return [CheckResult("6", "full-separability", ok, tuple(lines))]


def _paper_family_states():
    families = []
    for n in range(3, 7):
        families.append((f"ghz{n}", ghz(n)))
        families.append((f"w{n}", w(n)))
    families.append(("w_tilde3", w_tilde3()))
    families.append(("cluster4", cluster4()))
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        families.append((f"magnon{n}_{k}", magnon(n, k)))
    for n in range(3, 7):
        families.append(
            (f"wghz{n}", superpose(np.cos(np.pi / 6), w(n), np.sin(np.pi / 6), 0.0, ghz(n)))
        )
    families.append(
        ("w_w_tilde", superpose(np.cos(np.pi / 6), w(3), np.sin(np.pi / 6), np.pi / 3, w_tilde3()))
    )
    families.append(
        ("w_ghz3", superpose(np.cos(np.pi / 6), w(3), np.sin(np.pi / 6), np.pi / 3, ghz(3)))
    )
    families.append(("asym_w4", asym_w((0.9, 0.5, 0.7, 0.3))))
    return families


def _check_monotonicity(config, pmap):
    random_config = replace(config, restarts=max(8, config.restarts // 4))
    per_size = _MONOTONICITY_STATES // 2
    randoms = [(n, i) for n, how_many in ((4, per_size), (5, _MONOTONICITY_STATES - per_size))
               for i in range(how_many)]
    families = _paper_family_states()
    states = [random_state(n, np.random.SeedSequence([config.seed, n, i])) for n, i in randoms]
    configs = [random_config] * len(randoms) + [config] * len(families)
    hierarchies = list(pmap(full_hierarchy, states + [psi for _, psi in families], configs))
    lines = [f"random n={n} index={i}: violations {r.violations}"
             for (n, i), r in zip(randoms, hierarchies) if not r.monotonic]
    lines.append(f"random states checked: {len(randoms)}")
    lines += [f"family {name}: violations {r.violations}"
              for (name, _), r in zip(families, hierarchies[len(randoms):]) if not r.monotonic]
    lines.append("family states checked: %d" % len(families))
    ok = all(r.monotonic for r in hierarchies)
    return [CheckResult("7", "monotonicity", ok, tuple(lines))]


# (family, shape, scale factor, eta, exact). Exact invariances: W on any
# shape, whose state is sum_s sqrt(M_s/N) |W_{M_s}>|0...0> so that E depends
# only on the ratios M_s/N; W+GHZ when every block has at least 2 qubits, so
# that |0...0>, |W_M> and |1...1> are orthonormal in each block. Checked
# exceptions, where both values are pinned to their closed forms and must
# differ: the two-excitation state, whose E(l | 3l) = 7/16 + 3/(16(4l-1))
# only tends to its limit, and W+GHZ from a size-1 block, where |W_1> = |1>.
_SCALE_CASES = (
    ("w", (1, 2), 2, None, True),
    ("w", (1, 1, 1), 2, None, True),
    ("w", (1, 3), 2, None, True),
    ("wghz", (2, 4), 2, np.pi / 6, True),
    ("magnon2", (1, 3), 2, None, False),
    ("wghz", (1, 2), 2, np.pi / 6, False),
)


def _scale_reference(family, shape, eta):
    """Closed-form E of a two-block shape, the reference of a checked exception."""
    m1, m2 = shape.sizes
    if family == "magnon2":
        return closedform.magnon2_bisep(m1, shape.n).e_g
    return closedform.wghz_bisep_reduced(eta, m1, m2).e_g


def _check_scale(config, pmap):
    lines = []
    ok = True
    for family, sizes, l, eta, exact in _SCALE_CASES:
        check = scale_invariance_check(family, Shape(sizes), l, config, eta=eta)
        label = family if eta is None else f"{family}(eta={fmt(eta)})"
        line = (
            f"{label} {check.shape.text} vs {check.scaled_shape.text} "
            f"[{'exact invariance' if exact else 'checked exception'}]: "
            f"base={fmt(check.base_e)} scaled={fmt(check.scaled_e)} "
            f"diff={fmt(check.diff)}"
        )
        if exact:
            good = check.diff <= EXACT_TOL
        else:
            base_ref = _scale_reference(family, check.shape, eta)
            scaled_ref = _scale_reference(family, check.scaled_shape, eta)
            good = (abs(check.base_e - base_ref) <= EXACT_TOL
                    and abs(check.scaled_e - scaled_ref) <= EXACT_TOL
                    and check.diff > EXACT_TOL)
            line += f" closed={fmt(base_ref)},{fmt(scaled_ref)}"
        ok = ok and good
        lines.append(f"{line} [{'ok' if good else 'MISMATCH'}]")
    law = all(
        closedform.magnon2_bisep(l, 4 * l).exact
        == Fraction(7, 16) + Fraction(3, 16 * (4 * l - 1))
        for l in (1, 2, 4, 8)
    )
    ok = ok and law
    lines.append("magnon2 l|3l on N=4l: E = 7/16 + 3/(16(4l-1)) for l=1,2,4,8 "
                 f"[{'ok' if law else 'MISMATCH'}]")
    return [CheckResult("8", "scale-invariance", ok, tuple(lines))]


def _check_figures(config, pmap):
    lines = []
    ok = True
    target = float(closedform.w_full_separable(3).e_g)
    for family in ("w_w_tilde", "w_ghz3"):
        (_, e0), = sweep_eta(family, [0.0], config, phi=0.0, k=3)
        good = abs(e0 - target) <= 1e-6
        ok = ok and good
        lines.append(f"figure 1 endpoint {family} eta=0: {fmt(e0)} "
                     f"[{'ok' if good else 'MISMATCH'}]")
    for eta in (0.4, np.pi / 4, 1.1):
        values = [
            sweep_eta("w_ghz3", [eta], config, phi=phi, k=2)[0][1]
            for phi in (0.0, np.pi / 2, np.pi)
        ]
        spread = max(values) - min(values)
        good = spread <= EXACT_TOL
        ok = ok and good
        lines.append(f"figure 2 phase independence eta={fmt(eta)}: spread={fmt(spread)} "
                     f"[{'ok' if good else 'MISMATCH'}]")
    etas = np.linspace(0.0, np.pi / 2, 101)
    for n in range(4, 11):
        values = (1.0 - closedform._wghz_bisep_lambda2(etas, 1, n - 1)).tolist()
        monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        ends = abs(values[0] - 1.0 / n) <= 1e-6 and abs(values[-1] - 0.5) <= 1e-6
        good = monotone and ends
        ok = ok and good
        lines.append(
            f"figure 3 n={n}: endpoints ({fmt(values[0])}, {fmt(values[-1])}) "
            f"monotone={monotone} [{'ok' if good else 'MISMATCH'}]"
        )
    return [CheckResult("9", "figure-curves", ok, tuple(lines))]


def _check_oracle(config, pmap):
    # 1|2,3 is solved by an SVD; 1|2|3 keeps the multistart ascent under test.
    states = [random_state(3, np.random.SeedSequence([config.seed, 3, 0xA11, i]))
              for i in range(20)]
    split, full = Partition(((1,), (2, 3))), Partition(((1,), (2,), (3,)))
    worst = 0.0
    below = above = gap = -np.inf
    for psi in states:
        # On 1|2,3, Lambda^2 is the top eigenvalue of qubit 1's reduced density matrix.
        amps = psi.tensor.reshape(2, -1)
        top = np.linalg.eigvalsh(amps @ amps.conj().T)[-1]
        worst = max(worst, abs(best_overlap(psi, split, config).lambda2 - top))
        value = best_overlap(psi, full, config).lambda2
        lo, hi = qubit_block_interval(psi, full)
        below, above, gap = max(below, lo - value), max(above, value - hi), max(gap, hi - lo)
    good = (worst <= 1e-12, below <= 1e-9 and above <= 1e-12 and gap <= 1e-9)
    lines = (
        f"SVD vs qubit 1's reduced density matrix on 1|2,3, 20 random 3-qubit states: "
        f"max |diff| = {fmt(worst)} [{'ok' if good[0] else 'MISMATCH'}]",
        f"ascent in certified interval [lo, hi] on 1|2|3, same 20 states: "
        f"max lo - ascent = {fmt(below)}, max ascent - hi = {fmt(above)}, "
        f"max hi - lo = {fmt(gap)} [{'ok' if good[1] else 'MISMATCH'}]",
    )
    return [CheckResult("10", "oracle-cross-validation", all(good), lines)]


def _hypersphere_point(deltas) -> np.ndarray:
    """u(d) in R^(m+1): u_i = cos d_i prod_{j<i} sin d_j, u_(m+1) = prod_j sin d_j.
    A unit vector, so cascade_f(d) = sum_(i<=m) u_i <= sqrt(m) by Cauchy-Schwarz,
    with equality only at u = (1/sqrt(m), ..., 1/sqrt(m), 0)."""
    sines = np.cumprod(np.sin(deltas), axis=-1)
    ones = np.ones_like(sines[..., :1])
    return np.concatenate([np.cos(deltas), ones], -1) * np.concatenate([ones, sines], -1)


def _check_lemmas(config, pmap):
    lines = []
    ok = True
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xCA5]))
    for m in range(1, 7):
        value, angles = cascade_max_f(m)
        gap = np.max(np.abs(_hypersphere_point(angles) - np.append(np.full(m, m ** -0.5), 0.0)))
        d = rng.uniform(0.0, np.pi / 2, (256, m))
        v = _hypersphere_point(d)[:, :m]
        good = (abs(value ** 2 - m) <= 1e-12 and abs(float(cascade_f(angles)) - value) <= 1e-12
                and gap <= 1e-12 and np.max(np.abs(cascade_f(d) - v.sum(axis=1))) <= 1e-12
                and np.max(np.linalg.norm(v, axis=1)) <= 1.0 + 1e-12)
        ok = ok and good
        lines.append(f"cascade m={m}: max={fmt(value)} argmax-gap={fmt(gap)} "
                     f"[{'ok' if good else 'MISMATCH'}]")
    for x, y in ((1.0, 0.0), (1.0, 1.0), (3.0, 4.0), (0.3, 1.7)):
        value, _ = line_max(x, y)
        good = abs(value - np.hypot(x, y)) <= 1e-15
        ok = ok and good
    lines.append("single-angle maxima match sqrt(x^2+y^2)")
    for m, n in ((1, 4), (2, 4), (1, 5), (2, 5), (2, 6), (3, 6)):
        closed = closedform.magnon2_bisep(m, n).lambda2
        shape = Shape((m, n - m))
        numeric = best_overlap(magnon(n, 2), representative_partition(shape), config).lambda2
        good = abs(closed - numeric) <= EXACT_TOL
        ok = ok and good
        lines.append(f"two-excitation bipartition m={m} n={n}: closed={fmt(closed)} "
                     f"numeric={fmt(numeric)} [{'ok' if good else 'MISMATCH'}]")
    return [CheckResult("11", "maximization-lemmas", ok, tuple(lines))]


_SUITES = {
    "tables": _check_tables,
    "fullsep": _check_fullsep,
    "monotonicity": _check_monotonicity,
    "scale": _check_scale,
    "figures": _check_figures,
    "oracle": _check_oracle,
    "lemmas": _check_lemmas,
}

SUITE_NAMES = tuple(_SUITES)


def run_verify(config: OptimizerConfig | None = None, *, suites=None,
               workers: int = 1) -> VerifyReport:
    """Run the verification suites and collect per-criterion results.

    One pool of ``workers`` processes serves every suite: the full-separability
    suite maps its GHZ (N, K) cases over it, the monotonicity suite its states.
    """
    config = config or OptimizerConfig()
    chosen = list(suites) if suites else list(SUITE_NAMES)
    for name in chosen:
        if name not in _SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results = []
    with _process_map(workers) as pmap:
        for name in chosen:
            results.extend(_SUITES[name](config, pmap))
    return VerifyReport(seed=config.seed, results=tuple(results))


def render_report(report: VerifyReport) -> str:
    """Deterministic plain-text rendering (no timestamps, fixed float format)."""
    out = io.StringIO()
    out.write("geoent verification report\n")
    out.write(f"seed={report.seed}\n")
    for r in report.results:
        out.write(f"[{'PASS' if r.passed else 'FAIL'}] criterion-{r.criterion} {r.name}\n")
        for line in r.lines:
            out.write(f"    {line}\n")
    out.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    return out.getvalue()
