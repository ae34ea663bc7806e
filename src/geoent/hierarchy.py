"""Absolute K-separability measures, full hierarchies, and structural checks.

The absolute measure at a given K is the minimum of the relative measure
over K-block partitions. ``_scan`` holds the scan policy of every caller:
symmetric states (invariant under every qubit transposition) need only one
representative partition per block-size shape; asymmetric states are
scanned over all set partitions, within size caps. K = N of a symmetric
state of 3..10 qubits is exact, from ``closedform.symmetric_full_separable``
(its closest product state is symmetric too). Every other scanned partition
is an independent distance problem: a scan gathers them all, runs one
``best_overlaps`` batch per shape, and maps the batches over ``workers``
processes. A full hierarchy is then made monotone in K by construction (see
``full_hierarchy``); the reference tables of ``reports`` are plain scans.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .closedform import symmetric_full_separable
from .errors import DomainError, ResourceCapError
from .optimizer import OptimizerConfig, best_overlap, best_overlaps
from .partitions import Partition, Shape, representative_partition, set_partitions, shapes
from .states import PureState, ghz, magnon, superpose, w, w_tilde3

SYMMETRY_TOL = 1e-10
DEGENERACY_TOL = 1e-9
MONOTONICITY_TOL = 1e-9
MAX_FULL_SCAN = 8
MAX_SHAPE_SCAN = 14


def _by_weight(amps: np.ndarray) -> np.ndarray:
    """The amplitude of the first ket of each Hamming weight k = 0..N along the
    last axis of ``amps``, the amplitude of every weight-k ket of a symmetric state."""
    return amps[..., (1 << np.arange(amps.shape[-1].bit_length())) - 1]


def is_symmetric(psi: PureState) -> bool:
    """True iff every amplitude lies within SYMMETRY_TOL of the first amplitude of
    its Hamming weight: the states invariant under every qubit transposition."""
    j = np.arange(2 ** psi.num_qubits)
    weight = sum((j >> q) & 1 for q in range(psi.num_qubits))
    first = psi.amplitudes[(1 << weight) - 1]  # the first ket of weight w is 2^w - 1
    return bool(np.max(np.abs(psi.amplitudes - first)) <= SYMMETRY_TOL)


@contextmanager
def _process_map(workers: int, tasks: int | None = None):
    """``map`` over a pool of ``workers`` processes (no more than ``tasks``),
    shut down on exit, or the builtin ``map`` for a pool of one. Only
    ``_relative_values`` (for one scan) and ``reports.run_verify`` (for its
    suites) open one; work mapped over a pool runs with one worker, so no
    pool is opened inside another."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise DomainError(f"workers must be an int >= 1, got {workers!r}")
    size = workers if tasks is None else min(workers, tasks)
    with ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext() as pool:
        yield pool.map if pool else map


def _relative_values(psi, partitions, config, workers) -> dict:
    """E per partition, in input order: one ``best_overlaps`` batch per shape,
    the batches mapped over at most ``workers`` processes."""
    batches = {}
    for p in partitions:
        batches.setdefault(p.shape, []).append(p)
    with _process_map(workers, len(batches)) as pmap:
        # Consumed lazily: each batch's results are dropped once read.
        results = pmap(best_overlaps, [[psi] * len(b) for b in batches.values()],
                       batches.values(), repeat(config))
        e_g = {p: r.e_g for batch, rs in zip(batches.values(), results) for p, r in zip(batch, rs)}
    return {p: e_g[p] for p in partitions}


@dataclass(frozen=True)
class KEntry:
    k: int
    absolute_e: float
    argmin_partitions: tuple[Partition, ...]
    relative: dict
    scan: str
    reran: bool = False


@dataclass(frozen=True)
class HierarchyReport:
    num_qubits: int
    symmetric: bool
    entries: tuple[KEntry, ...]
    monotonic: bool
    violations: tuple[tuple[int, float, float], ...]

    def entry(self, k: int) -> KEntry:
        for e in self.entries:
            if e.k == k:
                return e
        raise KeyError(k)

    def to_dict(self) -> dict:
        return {
            "n": self.num_qubits,
            "symmetric": self.symmetric,
            "monotonic": self.monotonic,
            "violations": [list(v) for v in self.violations],
            "entries": [
                {
                    "k": e.k,
                    "absolute_e": e.absolute_e,
                    "argmin_partitions": [p.text for p in e.argmin_partitions],
                    "scan": e.scan,
                    "relative": dict(e.relative),
                }
                for e in self.entries
            ],
        }


def _resolve_scan(n: int, scan: str, symmetric: bool) -> str:
    if scan == "shapes" or (scan == "auto" and symmetric):
        if n > MAX_SHAPE_SCAN:
            raise ResourceCapError(f"N={n} exceeds the shape-scan cap of {MAX_SHAPE_SCAN}")
        return "shapes"
    if scan in ("auto", "full"):
        if n > MAX_FULL_SCAN:
            raise ResourceCapError(
                f"N={n} exceeds the full set-partition scan cap of {MAX_FULL_SCAN}; "
                "use the shapes-only scan"
            )
        return "full"
    raise DomainError(f"unknown scan mode {scan!r}")


def _scanned_partitions(n, k, scan_mode) -> list:
    """The K-block partitions a scan visits: one representative per shape, or all."""
    if scan_mode == "shapes":
        return [representative_partition(s) for s in shapes(n, k)]
    return sorted(set_partitions(n, k), key=lambda p: p.sort_key())


def _scan(psi, ks, config, scan, workers):
    """The scan policy: (symmetric, scan mode, {K: {partition: E}}) for each
    K of ``ks``. K = N of a symmetric state takes the exact rule of
    ``closedform.symmetric_full_separable``; every other partition, and K = N
    where that rule gives nan, goes to one ``_relative_values`` call."""
    n = psi.num_qubits
    symmetric = is_symmetric(psi)
    scan_mode = _resolve_scan(n, scan, symmetric)
    levels = {k: _scanned_partitions(n, k, scan_mode) for k in ks}
    exact = {}
    if symmetric and n in levels:
        lambda2, = symmetric_full_separable([_by_weight(psi.amplitudes)])
        if not np.isnan(lambda2):
            exact[levels[n][0]] = 1.0 - lambda2
    scanned = _relative_values(psi, [p for ps in levels.values() for p in ps if p not in exact],
                               config or OptimizerConfig(), workers)
    scanned.update(exact)
    return symmetric, scan_mode, {k: {p: scanned[p] for p in ps} for k, ps in levels.items()}


def _entry(k, values, scan_mode) -> KEntry:
    minimum = min(values.values())
    argmin = tuple(p for p, v in values.items() if v <= minimum + DEGENERACY_TOL)
    key = (lambda p: p.shape.text) if scan_mode == "shapes" else (lambda p: p.text)
    return KEntry(k, minimum, argmin, {key(p): v for p, v in values.items()}, scan_mode)


def egk_absolute(psi: PureState, k: int, config: OptimizerConfig | None = None,
                 scan: str = "auto", workers: int = 1):
    """Absolute measure: minimum of the relative measure over K-block partitions.

    Returns (value, realizing_partitions); every partition within 1e-9 of the
    minimum is reported, in canonical order.
    """
    n = psi.num_qubits
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= K <= N, got K={k}, N={n}")
    _, scan_mode, levels = _scan(psi, (k,), config, scan, workers)
    entry = _entry(k, levels[k], scan_mode)
    return entry.absolute_e, list(entry.argmin_partitions)


def full_hierarchy(psi: PureState, config: OptimizerConfig | None = None,
                   scan: str = "auto", workers: int = 1) -> HierarchyReport:
    """Absolute measures for K = 2..N, monotone in K by construction.

    The partitions of every level are scanned in one ``_scan``, so
    ``workers`` processes share all of the hierarchy's batches.
    Then, from K = N down: merging two blocks of the product state that
    realizes a level-K argmin P keeps its overlap, so each coarsening P' that
    level K-1 scans takes min(E(P'), E(P)). A full scan holds every P'; a
    shape scan holds the merge of P's two largest blocks, a representative.
    ``monotonic`` says whether the scans alone obeyed the law; ``violations``
    lists each K whose (K-1)-scan minimum exceeded E^(K) by MONOTONICITY_TOL.
    """
    n = psi.num_qubits
    symmetric, scan_mode, levels = _scan(psi, range(n, 1, -1), config, scan, workers)
    entries, scan_min, above = {}, {}, {}
    for k, values in levels.items():
        scan_min[k] = min(values.values())
        # The coarsening witness: merge two blocks of each level-(K+1) argmin.
        for p in entries[k + 1].argmin_partitions if k < n else ():
            for s, t in combinations(p.blocks, 2):
                merged = Partition(tuple(b for b in p.blocks if b not in (s, t)) + (s + t,))
                if merged in values:
                    values[merged] = min(values[merged], above[p])
        entries[k], above = _entry(k, values, scan_mode), values
    violations = [
        (k, scan_min[k - 1], entries[k].absolute_e)
        for k in range(3, n + 1)
        if scan_min[k - 1] > entries[k].absolute_e + MONOTONICITY_TOL
    ]
    return HierarchyReport(
        num_qubits=n,
        symmetric=symmetric,
        entries=tuple(entries[k] for k in range(2, n + 1)),
        monotonic=not violations,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# structural checks and curve sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleCheck:
    family: str
    shape: Shape
    scale: int
    scaled_shape: Shape
    base_e: float
    scaled_e: float
    eta: float | None = None

    @property
    def diff(self) -> float:
        return abs(self.base_e - self.scaled_e)


def _family_state(family: str, n: int, eta: float | None):
    if family == "w":
        return w(n)
    if family == "magnon2":
        return magnon(n, 2)
    if family == "wghz":
        if eta is None:
            raise DomainError("family 'wghz' requires eta")
        return superpose(np.cos(eta), w(n), np.sin(eta), 0.0, ghz(n))
    raise DomainError(f"unknown scalable family {family!r}")


def scale_invariance_check(family: str, shape: Shape, l: int,
                           config: OptimizerConfig | None = None,
                           eta: float | None = None) -> ScaleCheck:
    """Compare E on a shape with E on the L-scaled shape of the scaled state.

    The identity E(shape) = E(L * shape) is exact for the W family on every
    shape, since its state is sum_s sqrt(M_s/N) |W_{M_s}>|0...0> and E depends
    only on the ratios M_s/N. For W+GHZ it is exact when every block of
    ``shape`` has at least 2 qubits; a size-1 block breaks it, because there
    |W_1> = |1>. For the two-excitation state it holds only as L -> oo:
    E(l | 3l) on N = 4l is 7/16 + 3/(16(4l-1)). The check only reports both
    values; it does not decide which case applies.
    """
    config = config or OptimizerConfig()
    if l < 1:
        raise DomainError("scale factor must be >= 1")
    scaled = shape.scaled(l)
    if scaled.n > MAX_SHAPE_SCAN:
        raise ResourceCapError(
            f"scaled system of {scaled.n} qubits exceeds the cap of {MAX_SHAPE_SCAN}"
        )
    base = best_overlap(_family_state(family, shape.n, eta),
                        representative_partition(shape), config)
    big = best_overlap(_family_state(family, scaled.n, eta),
                       representative_partition(scaled), config)
    return ScaleCheck(family, shape, l, scaled, base.e_g, big.e_g, eta)


def sweep_eta(family: str, etas, config: OptimizerConfig | None = None, *,
              phi=0.0, k: int = 3):
    """(eta, E) pairs along a mixing-angle grid for the 3-qubit superposition
    families 'w_w_tilde' and 'w_ghz3', with relative phase ``phi``, one angle
    or one per eta; ``k`` selects E^(2) (bipartition 1|2) or E^(3) (full
    separability). The amplitudes of the whole curve are one (P, 8) array,
    each row the normalized cos(eta) W + sin(eta) e^(i phi) other, as
    ``superpose`` builds it. Every state of both families is symmetric, so
    E^(3) is the exact rule of ``closedform.symmetric_full_separable`` on the
    rows' weight columns; points where it gives nan (a rotated Dicke state)
    and the E^(2) points become states for one ``best_overlaps`` batch.
    """
    if family not in ("w_w_tilde", "w_ghz3"):
        raise DomainError(f"unknown sweep family {family!r}")
    config = config or OptimizerConfig()
    etas = [float(e) for e in etas]
    other = w_tilde3() if family == "w_w_tilde" else ghz(3)
    if k == 3:
        partition = Partition(((1,), (2,), (3,)))
    elif k == 2:
        partition = Partition(((1,), (2, 3)))
    else:
        raise DomainError("three-qubit sweeps support k = 2 or 3")
    phis = np.asarray(phi, dtype=np.float64)
    if phis.ndim == 0:
        phis = np.full(len(etas), phis)
    elif phis.shape != (len(etas),):
        raise DomainError(f"need one phi or {len(etas)} of them, got shape {phis.shape}")
    angles = np.array(etas, dtype=np.float64)
    amps = (np.cos(angles)[:, None] * w(3).amplitudes
            + (np.sin(angles) * np.exp(1j * phis))[:, None] * other.amplitudes)
    # One norm per row, as superpose takes it: norm(axis=1) sums in another
    # order and moves some E by an ulp.
    amps /= np.array([np.linalg.norm(row) for row in amps])[:, None]
    e_g = np.full(len(etas), np.nan)
    if k == 3:
        e_g = 1.0 - symmetric_full_separable(_by_weight(amps))
    rest = np.flatnonzero(np.isnan(e_g))
    states = [PureState(3, amps[i]) for i in rest]
    e_g[rest] = [r.e_g for r in best_overlaps(states, [partition] * len(rest), config)]
    return [(eta, float(e)) for eta, e in zip(etas, e_g)]
