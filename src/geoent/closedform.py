"""Exact and reduced-form values of the squared overlap Lambda_K^2 and E_G^(K).

These serve as the oracle for the numeric optimizer. Wherever a formula is
rational in integers the result carries an exact Fraction; the reduced
K-angle forms are maximized numerically (multistart coordinate ascent with
closed-form single-angle updates) over exactly K (or 2K) variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DomainError
from .partitions import Partition, Shape

MAX_REDUCED_K = 12
_ASCENT_STARTS = 32
_ASCENT_TOL = 1e-12
_ASCENT_SWEEPS = 20000
_START_SEED = 20080528


@dataclass(frozen=True)
class ClosedFormValue:
    """A (Lambda^2, E) pair, optionally exact as a rational number."""

    lambda2: float
    e_g: float
    exact: Fraction | None
    formula: str

    def __post_init__(self):
        if not -1e-12 <= self.lambda2 <= 1.0 + 1e-12:
            raise DomainError(f"lambda2 = {self.lambda2!r} outside [0, 1]")
        if abs(self.e_g - (1.0 - self.lambda2)) > 1e-15:
            raise DomainError("e_g must equal 1 - lambda2")
        if self.exact is not None and abs(float(self.exact) - self.e_g) > 1e-15:
            raise DomainError("exact rational disagrees with e_g")


def _from_exact_lambda2(lam: Fraction, formula: str) -> ClosedFormValue:
    lambda2 = float(lam)
    return ClosedFormValue(lambda2, 1.0 - lambda2, 1 - lam, formula)


def _from_float_lambda2(lam: float, formula: str) -> ClosedFormValue:
    return ClosedFormValue(lam, 1.0 - lam, None, formula)


# ---------------------------------------------------------------------------
# elementary maximization lemmas
# ---------------------------------------------------------------------------

def line_max(x: float, y: float) -> tuple[float, float]:
    """Maximum of x cos(d) + y sin(d) over d, with its argmax angle."""
    return float(np.hypot(x, y)), float(np.arctan2(y, x))


def cascade_f(deltas) -> np.ndarray | float:
    """The nested function cos d1 + sin d1 (cos d2 + sin d2 (... cos dM)).

    ``deltas`` may carry leading batch axes; the nesting runs along the last.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    value = np.cos(deltas[..., -1])
    for i in range(deltas.shape[-1] - 2, -1, -1):
        value = np.cos(deltas[..., i]) + np.sin(deltas[..., i]) * value
    return value if value.ndim else float(value)


def cascade_max_f(m: int) -> tuple[float, np.ndarray]:
    """Maximum sqrt(m) of the nested function, with the maximizing angles.

    The maximizer peels angles from the inside out: d_{m-h} = arcsin
    sqrt(h/(1+h)) for h = 0..m-1, each step an instance of line_max.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    h = np.arange(m - 1, -1, -1, dtype=np.float64)
    angles = np.arcsin(np.sqrt(h / (1.0 + h)))
    return float(np.sqrt(m)), angles


# ---------------------------------------------------------------------------
# multistart coordinate ascent for sum_s w_s sin(d_s) prod_{t != s} cos(d_t)
# ---------------------------------------------------------------------------

def _loo_products(arr: np.ndarray) -> np.ndarray:
    """Leave-one-out products along the last axis."""
    s, k = arr.shape
    pref = np.ones((s, k))
    suf = np.ones((s, k))
    np.cumprod(arr[:, :-1], axis=1, out=pref[:, 1:])
    np.cumprod(arr[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pref * suf


def _sum_product_value(w: np.ndarray, angles: np.ndarray) -> np.ndarray:
    loo = _loo_products(np.cos(angles))
    return np.sum(w * np.sin(angles) * loo, axis=-1)


def _ascent_starts(k: int, n_starts: int) -> np.ndarray:
    starts = [np.zeros(k)]
    for s in range(k):
        x = np.zeros(k)
        x[s] = np.pi / 2
        starts.append(x)
    for t in np.linspace(0.1, np.pi / 2 - 0.1, 8):
        starts.append(np.full(k, t))
    rng = np.random.default_rng(_START_SEED)
    while len(starts) < n_starts:
        starts.append(rng.uniform(0.0, np.pi / 2, k))
    return np.array(starts[:max(n_starts, len(starts))])


def _bipartition_bound(w: np.ndarray) -> float:
    """Smallest max(sum_A w^2, sum_B w^2) over the groupings A|B of the blocks.

    It is the squared bipartition value of the weighted single-excitation
    state for each grouping, so it bounds the squared maximum from above.
    """
    sq = w ** 2
    masks = np.arange(1, 2 ** (w.size - 1))
    in_a = ((masks[:, None] >> np.arange(w.size - 1)) & 1) @ sq[:-1]
    return float(np.min(np.maximum(in_a, np.sum(sq) - in_a)))


def _max_sum_product(weights, n_starts: int = _ASCENT_STARTS) -> tuple[float, np.ndarray]:
    """Maximize sum_s w_s sin(d_s) prod_{t != s} cos(d_t) over [0, pi/2]^K.

    Multistart coordinate ascent; each single-angle subproblem is
    A cos(d_u) + B sin(d_u) with A, B >= 0 and is solved exactly by line_max.
    The one-hot corner starts are exact fixed points, so boundary maxima
    (e.g. all weight on one block) are reproduced with no rounding drift.
    Every start stops once the best value squared is within _ASCENT_TOL of
    the bipartition bound, which certifies it as the maximum.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    k = w.size
    if k > MAX_REDUCED_K:
        raise DomainError(f"reduced maximization supports K <= {MAX_REDUCED_K}, got {k}")
    if k == 1:
        return float(w[0]), np.array([np.pi / 2])
    bound = _bipartition_bound(w)
    angles = _ascent_starts(k, n_starts)
    prev = np.full(angles.shape[0], -1.0)
    for _ in range(_ASCENT_SWEEPS):
        for u in range(k):
            cosines = np.cos(angles)
            cosines[:, u] = 1.0
            loo = _loo_products(cosines)
            terms = w * np.sin(angles) * loo
            terms[:, u] = 0.0
            a_coef = np.sum(terms, axis=1)
            b_coef = w[u] * loo[:, u]
            angles[:, u] = np.arctan2(b_coef, a_coef)
        value = _sum_product_value(w, angles)
        if np.all(np.abs(value - prev) < _ASCENT_TOL) or np.max(value) ** 2 >= bound - _ASCENT_TOL:
            break
        prev = value
    best = int(np.argmax(value))
    return float(value[best]), angles[best]


# ---------------------------------------------------------------------------
# GHZ and W families
# ---------------------------------------------------------------------------

def ghz_egk(n: int, k: int) -> ClosedFormValue:
    """E = 1/2 for every 2 <= K <= N."""
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= K <= N, got K={k}, N={n}")
    return _from_exact_lambda2(Fraction(1, 2), "ghz-constant")


def w_full_separable(n: int) -> ClosedFormValue:
    """Lambda^2 = ((N-1)/N)^(N-1) for the uniform single-excitation state."""
    if n < 2:
        raise DomainError("need N >= 2")
    lam = Fraction((n - 1) ** (n - 1), n ** (n - 1))
    return _from_exact_lambda2(lam, "w-fullsep")


def w_bisep(m: int, n: int) -> ClosedFormValue:
    """E = M/N for the bipartition M | N-M with M the smaller block."""
    if not 1 <= m <= n - m:
        raise DomainError(f"need 1 <= M <= N-M, got M={m}, N={n}")
    return _from_exact_lambda2(Fraction(n - m, n), "w-bipartition")


def w_trisep(m1: int, m2: int, m3: int) -> ClosedFormValue:
    """Tripartition value for the uniform single-excitation state.

    For M3 >= M1+M2 the largest block dominates and E = 1 - M3/N; otherwise
    E = 1 - 4 M1 M2 M3 / (N Sigma) with
    Sigma = 2(M1 M2 + M1 M3 + M2 M3) - M1^2 - M2^2 - M3^2.
    The two branches agree at M3 = M1 + M2.
    """
    if not 1 <= m1 <= m2 <= m3:
        raise DomainError(f"need 1 <= M1 <= M2 <= M3, got ({m1}, {m2}, {m3})")
    n = m1 + m2 + m3
    if m3 >= m1 + m2:
        lam = Fraction(m3, n)
    else:
        sigma = 2 * (m1 * m2 + m1 * m3 + m2 * m3) - m1 ** 2 - m2 ** 2 - m3 ** 2
        lam = Fraction(4 * m1 * m2 * m3, n * sigma)
    return _from_exact_lambda2(lam, "w-tripartition")


def w_ksep_reduced(shape: Shape) -> ClosedFormValue:
    """K-angle reduced maximization for the uniform single-excitation state.

    After the inner cascade maximizations, block s contributes sqrt(M_s) and
    Lambda^2 = (1/N) max over K angles of the sum-product form.
    """
    value, _ = _max_sum_product(np.sqrt(np.asarray(shape.sizes, dtype=np.float64)))
    return _from_float_lambda2(value ** 2 / shape.n, "w-reduced-k")


# ---------------------------------------------------------------------------
# two-excitation (k = 2) symmetric states
# ---------------------------------------------------------------------------

def magnon2_bisep(m: int, n: int) -> ClosedFormValue:
    """Bipartition value for the uniform two-excitation state, N >= 4.

    Lambda^2 = max{(N-M)(N-M-1), 2M(N-M)} / (N(N-1)): either both
    excitations sit in the large block or one in each.
    """
    if n < 4:
        raise DomainError("need N >= 4")
    if not 1 <= m <= n - m:
        raise DomainError(f"need 1 <= M <= N-M, got M={m}, N={n}")
    lam = Fraction(max((n - m) * (n - m - 1), 2 * m * (n - m)), n * (n - 1))
    return _from_exact_lambda2(lam, "magnon2-bipartition")


def magnon_bisep_schmidt(m: int, n: int, k: int) -> ClosedFormValue:
    """Exact bipartition value for any excitation number, via the Schmidt form.

    Splitting j of the k excitations into the M-qubit block gives the squared
    Schmidt coefficient C(M,j) C(N-M,k-j) / C(N,k); Lambda^2 is the largest.
    Independent of the reduced-form route; used for cross-checks.
    """
    if not 1 <= m <= n - m:
        raise DomainError(f"need 1 <= M <= N-M, got M={m}, N={n}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= N-1, got k={k}")
    best = max(
        Fraction(comb(m, j) * comb(n - m, k - j), comb(n, k))
        for j in range(0, k + 1)
    )
    return _from_exact_lambda2(best, "magnon-schmidt")


# ---------------------------------------------------------------------------
# weighted single-excitation (asymmetric) states
# ---------------------------------------------------------------------------

def _gamma_fractions(gamma) -> list[Fraction]:
    out = [Fraction(g) for g in gamma]
    if any(g < 0 for g in out):
        raise DomainError("weights must be nonnegative")
    if not any(out):
        raise DomainError("weights are all zero")
    return out


def asym_w_bisep(gamma, block_a) -> ClosedFormValue:
    """Bipartition value for per-qubit excitation weights.

    ``gamma`` is qubit-ordered (weight of qubit q at position q-1);
    ``block_a`` is a nonempty proper subset of {1..N}. The best product
    state concentrates the excitation weight of one side:
    Lambda^2 = max(sum_A gamma^2, sum_notA gamma^2) / sum gamma^2.
    """
    g = _gamma_fractions(gamma)
    n = len(g)
    block_a = frozenset(int(q) for q in block_a)
    if not block_a or block_a == frozenset(range(1, n + 1)):
        raise DomainError("block must be a nonempty proper subset")
    if not block_a <= frozenset(range(1, n + 1)):
        raise DomainError(f"block labels must lie in 1..{n}")
    total = sum(x * x for x in g)
    in_a = sum(g[q - 1] ** 2 for q in block_a)
    lam = max(in_a, total - in_a) / total
    return _from_exact_lambda2(lam, "asymw-bipartition")


def asym_w_ksep_reduced(gamma, blocks) -> ClosedFormValue:
    """K-angle reduced maximization for per-qubit excitation weights.

    ``blocks`` is a Shape (contiguous blocks in order) or a Partition
    (equivalent to permuting the weights into contiguous layout first).
    Block s contributes G_s = sqrt(sum of its squared weights) and
    Lambda^2 = N_norm^2 max over K angles of the sum-product form.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0):
        raise DomainError("weights must be nonnegative")
    total = float(np.sum(gamma ** 2))
    if total == 0.0:
        raise DomainError("weights are all zero")
    if isinstance(blocks, Shape):
        if blocks.n != gamma.size:
            raise DomainError(
                f"shape covers {blocks.n} qubits but {gamma.size} weights given"
            )
        bounds = np.cumsum((0,) + blocks.sizes)
        g_blocks = [gamma[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    elif isinstance(blocks, Partition):
        if blocks.n != gamma.size:
            raise DomainError(
                f"partition covers {blocks.n} qubits but {gamma.size} weights given"
            )
        g_blocks = [gamma[[q - 1 for q in b]] for b in blocks.blocks]
    else:
        raise DomainError("blocks must be a Shape or a Partition")
    weights = np.array([np.sqrt(np.sum(gb ** 2)) for gb in g_blocks])
    value, _ = _max_sum_product(weights)
    return _from_float_lambda2(value ** 2 / total, "asymw-reduced-k")


# ---------------------------------------------------------------------------
# W + GHZ superposition, bipartitions
# ---------------------------------------------------------------------------

def _wghz_objective(eta: float, m1: int, m2: int):
    n = m1 + m2
    ce = np.cos(eta) / np.sqrt(n)
    se = np.sin(eta) / np.sqrt(2.0)
    r1 = np.sqrt(m1)
    r2 = np.sqrt(m2)

    def parts(a, b, m, root):
        # (single-excitation sum S, all-ones corner C) for one block
        if m == 1:
            s = np.sin(a)
            return s, s
        return root * np.sin(a) * np.sin(b), np.sin(a) * np.cos(b)

    def value(angles):
        a1, b1, a2, b2 = (angles[..., i] for i in range(4))
        s1, c1 = parts(a1, b1, m1, r1)
        s2, c2 = parts(a2, b2, m2, r2)
        return ce * (np.cos(a1) * s2 + np.cos(a2) * s1) + se * (
            np.cos(a1) * np.cos(a2) + c1 * c2
        )

    return value, (ce, se, r1, r2)


def wghz_bisep_reduced(eta: float, m1: int, m2: int) -> ClosedFormValue:
    """Bipartition value for cos(eta) W + sin(eta) GHZ on M1 + M2 qubits.

    Reduced to at most four angles (two per block; a size-1 block has a
    single angle because its excitation amplitude and its all-ones corner
    are the same coefficient). Maximized by multistart coordinate ascent
    with exact single-angle updates.
    """
    if not 0.0 <= eta <= np.pi / 2 + 1e-12:
        raise DomainError(f"eta={eta} outside [0, pi/2]")
    if m1 < 1 or m2 < 1:
        raise DomainError("block sizes must be >= 1")
    value_fn, (ce, se, r1, r2) = _wghz_objective(eta, m1, m2)

    corners = np.array([
        [0.0, 0.0, np.pi / 2, np.pi / 2],
        [np.pi / 2, np.pi / 2, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [np.pi / 2, 0.0, np.pi / 2, 0.0],
    ])
    diag = np.array([np.full(4, t) for t in np.linspace(0.1, np.pi / 2 - 0.1, 8)])
    rng = np.random.default_rng(_START_SEED)
    rand = rng.uniform(0.0, np.pi / 2, (12, 4))
    angles = np.vstack([corners, diag, rand])

    def block_terms(a, b, m, root):
        if m == 1:
            return np.sin(a), np.sin(a)
        return root * np.sin(a) * np.sin(b), np.sin(a) * np.cos(b)

    prev = np.full(angles.shape[0], -1.0)
    for _ in range(_ASCENT_SWEEPS):
        a1, b1, a2, b2 = (angles[:, i] for i in range(4))
        # a1
        s2, c2 = block_terms(a2, b2, m2, r2)
        a_coef = ce * s2 + se * np.cos(a2)
        if m1 == 1:
            b_coef = ce * np.cos(a2) + se * c2
        else:
            b_coef = ce * np.cos(a2) * r1 * np.sin(b1) + se * np.cos(b1) * c2
        angles[:, 0] = a1 = np.arctan2(b_coef, a_coef)
        # b1
        if m1 > 1:
            a_coef = se * np.sin(a1) * c2
            b_coef = ce * np.cos(a2) * r1 * np.sin(a1)
            angles[:, 1] = b1 = np.arctan2(b_coef, a_coef)
        # a2
        s1, c1 = block_terms(a1, b1, m1, r1)
        a_coef = ce * s1 + se * np.cos(a1)
        if m2 == 1:
            b_coef = ce * np.cos(a1) + se * c1
        else:
            b_coef = ce * np.cos(a1) * r2 * np.sin(b2) + se * np.cos(b2) * c1
        angles[:, 2] = a2 = np.arctan2(b_coef, a_coef)
        # b2
        if m2 > 1:
            a_coef = se * np.sin(a2) * c1
            b_coef = ce * np.cos(a1) * r2 * np.sin(a2)
            angles[:, 3] = np.arctan2(b_coef, a_coef)
        value = value_fn(angles)
        if np.all(np.abs(value - prev) < _ASCENT_TOL):
            break
        prev = value
    best = float(np.max(value))
    return _from_float_lambda2(best ** 2, "wghz-reduced-2")
