"""Numerical maximization of |<Phi|Psi>|^2 over K-separable product states.

A bipartition (K = 2) is solved exactly: Lambda^2 is the largest squared
Schmidt coefficient of the blocked amplitude matrix, and the leading
singular vectors are the optimal factors (one SVD, no restarts, no RNG).

For K >= 3 the workhorse is multistart alternating ascent over pairs of
blocks: with all factors but two fixed, the state contracted against the
others is a matrix, and its leading singular pair is the optimal pair of
factors, with the largest singular value as the overlap modulus. For odd K
a sweep first sets the largest block alone to the normalized contraction of
the state against the others, which is its optimal factor; then it takes
the pairs from the smallest block up. Every step is exact, so the ascent is
monotone. ``best_overlaps`` runs problems of equal block dimensions as one
vectorized ascent over all their restarts, which matter only here.

Every bipartition that coarsens the partition has a larger separable set,
so the smallest of their sigma_max^2 bounds Lambda^2 from above. This bound
is reported as ``upper_bound``, and once a problem's best restart meets it
within ``tol`` the maximum is certified and all its restarts stop.

On a degenerate maximum, such as the orbits of the magnon and W+GHZ states,
the ascent (a higher-order power method) converges sublinearly: losing
restarts crawl for thousands of sweeps onto the winner's value. So a sweep t
that starts a restart at x, kept after it left x_prev, may also run an
extrapolated twin of it (cf. Rajih, Comon & Harshman, SIAM J. Matrix Anal.
Appl. 30, 2008): with each block's x_prev rotated by the phase of
<x_prev, x>, the twin starts from the normalized x + beta (x - x_prev),
beta = min((t - 1)/3, 3/2), and its result replaces the restart's only
where its overlap is strictly higher. A restart takes a twin on its two
sweeps after the first, and then only while it crawls: while its last gain
in Lambda^2 exceeds ``_TWIN_RATIO`` times the one before, so not where it
converges linearly. Twins run in the same sweep pass as the restarts. Every
kept point is the output of an exact sweep, so monotonicity and every stop
keep their meaning.

The ascent packs each restart's factors into one row of a complex
(rows, sum d_t) array, blocks ordered by dimension, block t a column slice.
A sweep pass gathers its active rows once, its steps write into them in
place, and it scatters them back once; a twin is extrapolated once per group
of equal-dimension blocks, as an (R, k, d) view. Each row's overlap,
Lambda^2 and last two gains move with it in one (4, rows) array.

``qubit_block_interval`` brackets Lambda^2 of a K = 3 partition with a
one-qubit block by branch and bound on that qubit's Bloch sphere. It shares
only ``_blocked_tensor`` with the ascent, so it is an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFaultError, ShapeMismatchError
from .partitions import Partition
from .states import PureState

_ZERO_NORM = 1e-120
_GAUGE_EPS = 1e-14
_BATCH_AMPLITUDES = 1 << 18  # problems x restarts x 2^N per ascent run (4 MB per matrix copy)
_INTERVAL_GAP = 1e-10  # qubit_block_interval stops refining at this hi - lo
_INTERVAL_CELLS = 1 << 14  # and makes at most this many cells
_TWIN_SWEEPS = 2  # every restart takes an extrapolated twin on this many sweeps after its first
_TWIN_RATIO = 0.3  # and then only while its last gain exceeds this times the one before
_TWIN_BETA_MAX = 1.5  # the largest extrapolation step beta of a twin


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multistart ascent."""

    restarts: int = 64
    max_iterations: int = 10000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
        # A nan tol never stops a restart; an infinite one stops every restart at sweep 2.
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True, eq=False)
class ProductState:
    """One unit-norm factor per partition block, aligned with the partition."""

    partition: Partition
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.complex128).reshape(-1) for f in self.factors)
        if len(factors) != self.partition.k:
            raise ShapeMismatchError(
                f"{len(factors)} factors for a {self.partition.k}-block partition"
            )
        for block, f in zip(self.partition.blocks, factors):
            if f.size != 2 ** len(block):
                raise ShapeMismatchError(
                    f"factor for block {block} has dimension {f.size}, "
                    f"expected {2 ** len(block)}"
                )
            norm = np.linalg.norm(f)
            if abs(norm - 1.0) > 1e-12:
                raise DomainError(f"factor for block {block} is not unit norm ({norm!r})")
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    def assemble(self) -> PureState:
        """Expand the tensor product back to a full state in qubit order."""
        n = self.partition.n
        full = self.factors[0].reshape((2,) * len(self.partition.blocks[0]))
        for f, block in zip(self.factors[1:], self.partition.blocks[1:]):
            full = np.tensordot(full, f.reshape((2,) * len(block)), axes=0)
        block_axes = [q - 1 for b in self.partition.blocks for q in b]
        amps = np.ascontiguousarray(full.transpose(np.argsort(block_axes))).reshape(-1)
        return PureState(n, amps)


@dataclass(frozen=True, eq=False)
class OverlapResult:
    """Best squared overlap found, with the realizing product state.

    ``upper_bound`` is a rigorous upper bound on Lambda^2: the smallest
    sigma_max^2 over the bipartitions that coarsen the partition. It equals
    ``lambda2`` for K <= 2, where the value is exact.
    """

    lambda2: float
    e_g: float
    argmax: ProductState
    partition: Partition
    iterations: int
    converged: bool
    winner_restart: int
    upper_bound: float
    reinjections: int = 0

    def __post_init__(self):
        if not -1e-12 <= self.lambda2 <= 1.0 + 1e-9:
            raise DomainError(f"lambda2 = {self.lambda2!r} outside [0, 1]")
        if abs(self.e_g - (1.0 - self.lambda2)) > 1e-15:
            raise DomainError("e_g must equal 1 - lambda2")


# ---------------------------------------------------------------------------
# tensor plumbing
# ---------------------------------------------------------------------------

def _blocked_tensor(psi: PureState, partition: Partition) -> np.ndarray:
    """Reshape the state so axis s enumerates the basis of block s."""
    if partition.n != psi.num_qubits:
        raise ShapeMismatchError(
            f"partition covers {partition.n} qubits, state has {psi.num_qubits}"
        )
    axes = [q - 1 for b in partition.blocks for q in b]
    dims = [2 ** len(b) for b in partition.blocks]
    return np.ascontiguousarray(psi.tensor.transpose(axes)).reshape(dims)


def _coarsening_bounds(stack: np.ndarray) -> np.ndarray:
    """Per problem of a stack of blocked tensors (axis 0), the smallest
    sigma_max^2 over the 2^(K-1) - 1 coarsenings into two groups.

    A group is a nonempty set of blocks without the last one; the rest form
    the other group. Each coarsening's separable set contains the
    partition's, so each sigma_max^2 bounds Lambda^2 from above.
    """
    dims = stack.shape[1:]
    k = len(dims)
    best = np.ones(stack.shape[0])
    for mask in range(1, 2 ** (k - 1)):
        group = [t for t in range(k) if mask >> t & 1]
        rest = [t for t in range(k) if not mask >> t & 1]
        rows = math.prod(dims[t] for t in group)
        mats = stack.transpose([0] + [t + 1 for t in group + rest]).reshape(len(stack), rows, -1)
        best = np.minimum(best, np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2)
    return best


def _gauge_fix(factors: np.ndarray) -> np.ndarray:
    """Rotate each row so its first non-negligible entry is real nonnegative."""
    lead = np.argmax(np.abs(factors) > _GAUGE_EPS, axis=1)
    pivot = factors[np.arange(factors.shape[0]), lead]
    phase = np.where(np.abs(pivot) > 0, pivot / np.maximum(np.abs(pivot), _ZERO_NORM), 1.0)
    return factors * phase.conj()[:, None]


def _deterministic_starts(dims: list[int], count: int) -> list[np.ndarray]:
    """Fixed start menu, one (rows, d_t) array per block with rows <= count: on
    every block and then on one block at a time, uniform rows and excitation
    patterns (unit uniform superpositions of the basis states with a given
    number of ones). A qubit block clamps two ones to one, so a menu row that
    repeats an earlier one is skipped for the next distinct row.

    The per-block patterns make the known optima of the uniform-excitation
    families exact fixed points of the ascent, so those values are
    reproduced without iteration error.
    """
    k = len(dims)
    menu = [[0] * k, [None] * k, [1] * k, [max(dims)] * k]  # None: uniform; max(dims): all ones
    for ones in (1, 2, None):
        menu += [[ones if t == s else 0 for t in range(k)] for s in range(k)]
    top = [d.bit_length() - 1 for d in dims]
    picks = list(dict.fromkeys(
        tuple(m + 1 if ones is None else min(ones, m) for ones, m in zip(row, top)) for row in menu
    ))[:count]
    starts = []
    for t, (d, m) in enumerate(zip(dims, top)):
        weight = np.array([bin(i).count("1") for i in range(d)])
        patterns = np.array([weight == j for j in range(m + 1)] + [weight >= 0],
                            dtype=np.complex128)
        patterns /= np.sqrt(patterns.real.sum(axis=1, keepdims=True))
        starts.append(patterns[[row[t] for row in picks]])
    return starts


def _initial_factors(dims, config, partitions) -> tuple[list[np.ndarray], list]:
    """Every problem's starts, one (problems x restarts, d_t) array per block:
    the start menu, then unit rows drawn block by block from the problem's
    own generator (returned too), seeded by the config seed and its blocks."""
    r = config.restarts
    det = _deterministic_starts(dims, min(4 + 3 * len(dims), max(1, r // 2)))
    n_det = len(det[0])
    rngs = [np.random.default_rng(np.random.SeedSequence(
        [config.seed] + [sum(1 << (q - 1) for q in block) for block in p.blocks]))
        for p in partitions]
    factors = []
    for t, d in enumerate(dims):
        f = np.empty((len(partitions), r, d), dtype=np.complex128)
        f[:, :n_det] = det[t]
        if r > n_det:
            z = np.stack([rng.normal(size=(r - n_det, d)) + 1j * rng.normal(size=(r - n_det, d))
                          for rng in rngs])
            f[:, n_det:] = z / np.linalg.norm(z, axis=2, keepdims=True)
        factors.append(f.reshape(-1, d))
    return factors, rngs


# ---------------------------------------------------------------------------
# alternating ascent
# ---------------------------------------------------------------------------

def _sweep_steps(dims: list[int]) -> list[tuple[int, ...]]:
    """The blocks each step of a sweep updates, in order: for odd K the
    largest block alone, then pairs from the smallest block up."""
    order = sorted(range(len(dims)), key=lambda t: dims[t])
    alone = [(order.pop(),)] if len(order) % 2 else []
    return alone + [tuple(order[i:i + 2]) for i in range(0, len(order), 2)]


def _conj_outer(x: list[np.ndarray], blocks: list[int]) -> np.ndarray:
    """Rows of the conjugated factors' tensor product over ``blocks``, (R, prod d)."""
    out = x[blocks[0]].conj()
    for t in blocks[1:]:
        out = (out[:, :, None] * x[t].conj()[:, None, :]).reshape(out.shape[0], -1)
    return out


def _qubit_top(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit top eigenvectors of the 2x2 Gram matrices [[a, b], [conj(b), c]].

    With h = (a - c)/2 and t = |h| + sqrt(h^2 + |b|^2), it is (t, conj(b)) if
    h >= 0, else (b, t); t = 0 (a multiple of I) gives (1, 0).
    """
    h = (a - c) / 2
    up = h >= 0
    t = np.abs(h) + np.hypot(h, np.abs(b))
    t = np.where(t > 0, t, 1.0)  # t = 0 only where h >= 0
    # t times 1/norm and b over norm round as the complex vector over its norm does.
    norm = np.sqrt(t ** 2 + (b.real ** 2 + b.imag ** 2))
    tn, bn = t * (1.0 / norm), np.where(up, b.conj(), b) / norm
    return np.stack([np.where(up, tn, bn), np.where(up, bn, tn)], axis=1)


def _rowwise(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row i of v times the matrix m[i]: an einsum for matrices of at most 8
    entries, where a stacked matmul costs more per matrix, else a matmul."""
    return np.einsum("rk,rkw->rw", v, m) if m[0].size <= 8 else (v[:, None, :] @ m)[:, 0]


def _pair_step(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pair step on stacked (R, d0, d1) matrices, d0 <= d1: the unit top
    eigenvector of each Gram matrix pair pair^H, and its product with the pair
    (the other factor before normalization). With d0 = 2 the Gram matrix's
    entries are sums over the two rows, for ``_qubit_top``; else batched eigh.
    """
    if pair.shape[1] == 2:
        a, c = np.einsum("rij,rij->ri", pair, pair.conj()).real.T
        top = _qubit_top(a, np.einsum("rj,rj->r", pair[:, 0], pair[:, 1].conj()), c)
    else:
        top = np.linalg.eigh(pair @ pair.conj().transpose(0, 2, 1))[1][:, :, -1]
    return top, _rowwise(top.conj(), pair)


def best_overlap(psi: PureState, partition: Partition, config: OptimizerConfig | None = None) -> OverlapResult:
    """Lambda_K^2 on a fixed partition: an SVD for K = 2, else the ascent of
    ``best_overlaps`` on this one problem."""
    psi_k = _blocked_tensor(psi, partition)
    if psi_k.ndim == 1:
        product = ProductState(partition, (_gauge_fix(psi_k.reshape(1, -1))[0],))
        return OverlapResult(1.0, 0.0, product, partition, 0, True, 0, upper_bound=1.0)
    if psi_k.ndim == 2:
        u, s, vh = np.linalg.svd(psi_k, full_matrices=False)
        best = min(float(s[0]) ** 2, 1.0)
        product = ProductState(partition, (_gauge_fix(u[:, :1].T)[0], _gauge_fix(vh[:1])[0]))
        return OverlapResult(best, 1.0 - best, product, partition, 0, True, 0, upper_bound=best)
    return _ascent(psi_k[None], [partition], config or OptimizerConfig())[0]


def best_overlaps(states, partitions, config: OptimizerConfig | None = None) -> list[OverlapResult]:
    """Lambda_K^2 of each problem of two equal-length sequences, whose blocks
    have the same dimensions in block order. A lone problem, or K <= 2,
    is a ``best_overlap`` call; the others run as one multistart ascent over
    all their restarts, in pieces of at most ``_BATCH_AMPLITUDES`` problems
    x restarts x 2^N.

    A sweep takes the steps of the module docstring: a pair takes the top
    eigenvector of its Gram matrix on the smaller side, then one matvec.
    With a qubit on that side the Gram matrix's three entries are built
    elementwise and its eigenvector is in closed form; a larger pair takes a
    batched eigh. Each step contracts every active restart's outer product of
    the other factors with its own problem's matrix (a plain product for a
    lone problem); on matrices of at most 8 entries the contractions are
    einsums, since a stacked matmul costs more per tiny matrix. The bounds,
    the start menu and the winners' gauge are set up once per batch. Each problem keeps its own starts, RNG,
    bound and stops, so its result equals a batch of one within rounding and
    is bitwise the same in any order of a batch that runs in one piece.

    Each sweep is one pass over the active restarts and the extrapolated
    twins of the module docstring, stacked below them against the same
    problems' matrices; a twin's result is kept for its restart only where
    it ends strictly higher. Each restart's factors are one row of a packed
    array, gathered and scattered once per pass, and a twin is extrapolated
    once per group of equal-dimension blocks. Twins never reinject: random
    draws and ``reinjections`` come only from the restarts. The start menu
    skips repeated rows, and random rows fill the restarts it leaves.

    A restart stops when its squared overlap improves by less than
    ``config.tol`` over a sweep; all of a problem's restarts stop once its
    best is within ``config.tol`` of the bound (the winner then counts as
    converged). So ``converged`` means a step below ``tol``, not a value
    within ``tol`` of the maximum: on a degenerate maximum a plain run stops
    about 2e-9 short. Each result is the best of its restarts (ties to the
    lowest index) and is deterministic for a fixed seed.
    """
    config = config or OptimizerConfig()
    tensors = [_blocked_tensor(psi, p) for psi, p in zip(states, partitions, strict=True)]
    if any(t.shape != tensors[0].shape for t in tensors):
        raise ShapeMismatchError("a batch needs partitions with equal block dimensions")
    if len(tensors) <= 1 or tensors[0].ndim <= 2:
        return [best_overlap(psi, p, config) for psi, p in zip(states, partitions)]
    stack = np.stack(tensors)
    per_run = max(1, _BATCH_AMPLITUDES // (config.restarts * tensors[0].size))
    return [res for i in range(0, len(stack), per_run)
            for res in _ascent(stack[i:i + per_run], partitions[i:i + per_run], config)]


def _sweep(steps, x, prob, prev, plain, rngs, reinjections) -> np.ndarray:
    """One sweep of the ascent on the rows ``x`` (one (R, d_t) column view of
    the packed factors per block, written in place), row i against problem
    ``prob[i]``'s matrices.

    The first ``plain`` rows are restarts, the others their extrapolated
    twins. ``prev`` is each row's overlap before the sweep; where it is 0
    (a twin) the monotonicity check starts after the first step. A step
    whose matrix vanishes redraws a restart's new factors from its problem's
    generator in ``rngs`` and counts it in ``reinjections``; a twin is lost.
    Returns each row's overlap, -1 for a lost twin.
    """
    lost = np.zeros(len(prob), dtype=bool)
    for keep, rest, mats in steps:
        outer = _conj_outer(x, rest)
        # One problem needs no per-row copy of its matrix: a plain product is faster.
        env = outer @ mats[0] if len(mats) == 1 else _rowwise(outer, mats[prob])
        if len(keep) == 2:
            # keep[0] is the smaller block, so the Gram matrix is the smaller one.
            top, env = _pair_step(env.reshape(len(prob), x[keep[0]].shape[1], -1))
            new = [top, env]
        else:
            new = [env]
        norms = np.linalg.norm(env, axis=1)
        dead = norms < _ZERO_NORM
        new[-1] = env / np.maximum(norms, _ZERO_NORM)[:, None]
        if dead.any():
            lost[plain:] |= dead[plain:]
            for row in np.flatnonzero(dead[:plain]):
                rng = rngs[prob[row]]
                for f in new:
                    z = rng.normal(size=f.shape[1]) + 1j * rng.normal(size=f.shape[1])
                    f[row] = z / np.linalg.norm(z)
                reinjections[prob[row]] += 1
            norms[dead] = 0.0
        if ((norms < prev - 1e-9) & ~(dead | lost)).any():
            raise NumericalFaultError("ascent monotonicity violated; numerical fault")
        for t, f in zip(keep, new):
            x[t][...] = f
        prev = norms
    return np.where(lost, -1.0, prev)


def _extrapolate(x_prev: np.ndarray, x: np.ndarray, beta: float, groups) -> np.ndarray:
    """Packed rows whose every block is the unit vector along x + beta (x - x_prev),
    with x_prev first rotated by the phase of <x_prev, x> so that the
    difference carries no global phase. Each (column, count, dimension) of
    ``groups`` is a run of equal-dimension blocks, taken as one (R, k, d) view."""
    out = np.empty_like(x)
    for lo, k, d in groups:
        cols = slice(lo, lo + k * d)
        a, p = x[:, cols].reshape(-1, k, d), x_prev[:, cols].reshape(-1, k, d)
        c = np.einsum("rkd,rkd->rk", p.conj(), a)
        size = np.abs(c)
        phase = np.where(size > 0, c / np.maximum(size, _ZERO_NORM), 1.0)
        e = a + beta * (a - p * phase[:, :, None])
        out[:, cols] = (e / np.linalg.norm(e, axis=2, keepdims=True)).reshape(-1, k * d)
    return out


def _ascent(stack, partitions, config: OptimizerConfig) -> list[OverlapResult]:
    """The K >= 3 ascent of ``best_overlaps`` on a stack of blocked tensors (axis 0)."""
    dims = list(stack.shape[1:])
    n_prob, r = len(stack), config.restarts
    bounds = _coarsening_bounds(stack)
    stop_at = bounds - config.tol  # +inf once a problem is certified
    steps = []
    for keep in _sweep_steps(dims):
        rest = [t for t in range(len(dims)) if t not in keep]
        width = math.prod(dims[t] for t in keep)
        mats = stack.transpose([0] + [t + 1 for t in rest + list(keep)]).reshape(n_prob, -1, width)
        steps.append((keep, rest, mats))
    # One row per restart holds all its factors, blocks ordered by dimension:
    # block t is the column slice cols[t], and equal dimensions form groups.
    order = sorted(range(len(dims)), key=lambda t: dims[t])
    edges = np.cumsum([0] + sorted(dims)).tolist()
    cols = [slice(edges[i], edges[i + 1]) for i in np.argsort(order)]
    groups = [(edges[sorted(dims).index(d)], dims.count(d), d) for d in sorted(set(dims))]
    factors, rngs = _initial_factors(dims, config, partitions)
    factors = np.concatenate([factors[t] for t in order], axis=1)
    x_prev = np.empty_like(factors)  # each row's kept point before its last sweep
    # Per row: overlap, lam2, and the lam2 gains of its last two sweeps (latest first).
    scalars = np.zeros((4, n_prob * r))
    scalars[1] = -1.0
    lam2 = scalars[1].reshape(n_prob, r)  # a view, so it follows every scatter
    iterations = np.full(n_prob * r, config.max_iterations, dtype=int)
    converged = np.zeros(n_prob * r, dtype=bool)
    active = np.ones(n_prob * r, dtype=bool)
    reinjections = np.zeros(n_prob, dtype=int)

    for sweep in range(1, config.max_iterations + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        n, prob = idx.size, idx // r
        x, s = factors[idx], scalars[:, idx]
        # The restarts that still crawl get a twin beyond x along their last sweep.
        if sweep == 1:
            twin = np.zeros(0, dtype=int)
        elif sweep <= 1 + _TWIN_SWEEPS:
            twin = np.arange(n)
        else:
            twin = np.flatnonzero(s[2] > _TWIN_RATIO * s[3])
        if twin.size:
            beta = min((sweep - 1) / 3, _TWIN_BETA_MAX)
            x = np.concatenate([x, _extrapolate(x_prev[idx[twin]], x[twin], beta, groups)])
        x_prev[idx] = x[:n]
        value = _sweep(steps, [x[:, c] for c in cols], np.concatenate([prob, prob[twin]]),
                       np.concatenate([s[0], np.zeros(twin.size)]), n, rngs, reinjections)
        won = value[n:] > value[twin]
        x[twin[won]] = x[n:][won]
        value[twin[won]] = value[n:][won]
        value = value[:n]
        factors[idx] = x[:n]
        s[3] = s[2]
        s[2] = value ** 2 - s[1]
        s[1] = value ** 2
        s[0] = value
        scalars[:, idx] = s
        newly = idx[np.abs(s[2]) < config.tol]
        iterations[newly] = sweep
        converged[newly] = True
        active[newly] = False
        certified = lam2.max(axis=1) >= stop_at
        if certified.any():
            best = np.flatnonzero(certified) * r + lam2[certified].argmax(axis=1)
            iterations[best] = sweep
            converged[best] = True
            active.reshape(n_prob, r)[certified] = False
            stop_at[certified] = np.inf

    winners = np.arange(n_prob) * r + lam2.argmax(axis=1)
    best_rows = factors[winners]
    gauged = [_gauge_fix(best_rows[:, c]) for c in cols]
    results = []
    for p, (partition, winner) in enumerate(zip(partitions, winners)):
        product = ProductState(partition, tuple(g[p] for g in gauged))
        best = min(float(scalars[1, winner]), 1.0)
        results.append(OverlapResult(
            lambda2=best,
            e_g=1.0 - best,
            argmax=product,
            partition=partition,
            iterations=int(iterations[winner]),
            converged=bool(converged[winner]),
            winner_restart=int(winner % r),
            upper_bound=float(bounds[p]),
            reinjections=int(reinjections[p]),
        ))
    return results


# ---------------------------------------------------------------------------
# certified interval on a qubit's Bloch sphere
# ---------------------------------------------------------------------------

def _qubit_pencil(psi_k: np.ndarray) -> np.ndarray:
    """The pencil (A0, Ax, Ay, Az) of ``qubit_block_interval``, shape (4, d, d),
    for the first one-qubit block of a K = 3 tensor; d is the smaller other block."""
    qubit = psi_k.shape.index(2)
    rest = sorted((t for t in range(3) if t != qubit), key=lambda t: psi_k.shape[t])
    slices = psi_k.transpose(qubit, *rest)
    g = np.einsum("ibk,jck->ijbc", slices, slices.conj())
    return np.stack([g[0, 0] + g[1, 1], g[0, 1] + g[1, 0],
                     1j * (g[0, 1] - g[1, 0]), g[0, 0] - g[1, 1]]) / 2


def _pencil_top(pencil: np.ndarray, points: np.ndarray) -> np.ndarray:
    """lambda_max(A0 + u.(Ax, Ay, Az)) for each Bloch vector u in the last axis
    of ``points``: closed form for 2 x 2, else batched eigvalsh."""
    h = pencil[0] + np.tensordot(points.reshape(-1, 3), pencil[1:], axes=1)
    if h.shape[-1] > 2:
        return np.linalg.eigvalsh(h)[:, -1]
    p, q = h[:, 0, 0].real, h[:, 1, 1].real
    return (p + q) / 2 + np.hypot((p - q) / 2, np.abs(h[:, 0, 1]))


def qubit_block_interval(psi: PureState, partition: Partition) -> tuple[float, float]:
    """Bounds (lo, hi) on Lambda^2 of a K = 3 partition A|B|C with a one-qubit A.

    With A's factor a fixed, Lambda^2 is sigma_max^2 of M(a) = sum_i conj(a_i)
    psi_i, psi_i the B x C slice at A = i. On the smaller of B and C, M M^dagger
    is the pencil A0 + u.(Ax, Ay, Az) in a's Bloch vector u: with
    G_ij = psi_i psi_j^dagger, A0 = (G00 + G11)/2, Ax = (G01 + G10)/2,
    Ay = i(G01 - G10)/2 and Az = (G00 - G11)/2. Its lambda_max is convex in
    u, so Lambda^2 is its maximum over the sphere and, on a polytope, over the
    vertices (cf. Chen, Xu & Zhu, PRA 82, 032301, 2010).

    Branch and bound over the octahedron's 8 spherical triangles, each split
    into 4 at normalized edge midpoints. A cell lies in the frustum
    conv{v_i, v_i/h}, h the distance of its chord plane from the origin, so
    the largest value at those 6 points bounds it from above; its vertices
    and normalized centroid lie on the sphere and bound Lambda^2 from below.
    The cells above lo + ``_INTERVAL_GAP`` are split, highest first, until
    none is left or ``_INTERVAL_CELLS`` cells were made; the interval is
    rigorous either way, and a maximum on an orbit ends on the cell count.
    """
    psi_k = _blocked_tensor(psi, partition)
    if psi_k.ndim != 3 or 2 not in psi_k.shape:
        raise DomainError(f"the interval needs K = 3 with a one-qubit block, got {partition.text}")
    pencil = _qubit_pencil(psi_k)
    signs = np.array([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)], dtype=float)
    cells = signs[:, :, None] * np.eye(3)  # cells[i, j] is vertex j of cell i
    lo = settled = -np.inf
    made = len(cells)
    while len(cells):
        centroid = cells.sum(axis=1)
        centroid /= np.linalg.norm(centroid, axis=1, keepdims=True)
        normal = np.cross(cells[:, 1] - cells[:, 0], cells[:, 2] - cells[:, 0])
        h = np.abs((normal * cells[:, 0]).sum(axis=1)) / np.linalg.norm(normal, axis=1)
        at_vertices = _pencil_top(pencil, cells).reshape(-1, 3)
        lo = max(lo, at_vertices.max(), _pencil_top(pencil, centroid).max())
        beyond = _pencil_top(pencil, cells / h[:, None, None]).reshape(-1, 3)
        upper = np.maximum(at_vertices, beyond).max(axis=1)
        order = np.argsort(-upper, kind="stable")
        n_split = min(int((upper > lo + _INTERVAL_GAP).sum()), (_INTERVAL_CELLS - made) // 4)
        settled = max(settled, upper[order[n_split:]].max(initial=-np.inf))
        v = cells[order[:n_split]]
        mid = v + v[:, [1, 2, 0]]  # mid[:, j] lies on the edge from vertex j to j + 1
        mid /= np.linalg.norm(mid, axis=2, keepdims=True)
        cells = np.concatenate([np.stack([v[:, 0], mid[:, 0], mid[:, 2]], axis=1),
                                np.stack([mid[:, 0], v[:, 1], mid[:, 1]], axis=1),
                                np.stack([mid[:, 2], mid[:, 1], v[:, 2]], axis=1), mid])
        made += len(cells)
    return float(lo), float(max(lo, settled))
