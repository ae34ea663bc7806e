"""Exact values of the squared overlap Lambda_K^2 and E_G^(K) for solvable families.

These serve as the oracle for the numeric optimizer. Wherever a formula is
rational in integers the result carries an exact Fraction. The rest are exact
in floating point, with no iteration: the weighted single-excitation forms
reduce to the single root of a convex scalar equation, and the W + GHZ
bipartitions to the largest singular value of an at most 3x3 matrix.

Full separability (K = N) of any permutation-symmetric state of 3..10 qubits
is a maximum over one Bloch sphere. ``symmetric_full_separable`` takes it
over the roots of one polynomial, found for a whole batch of states as
companion-matrix eigenvalues, and the hierarchy scans and the figure-1 sweeps
use it in place of the ascent. A Dicke state's value is Wei & Goldbart's
closed form (``dicke_full_separable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np
import scipy.optimize

from .errors import DomainError
from .partitions import Partition, Shape, representative_partition


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
# maximum of sum_s w_s sin(d_s) prod_{t != s} cos(d_t), in closed form
# ---------------------------------------------------------------------------

def _max_sum_product(weights) -> float:
    """Maximum of F(d) = sum_s w_s sin(d_s) prod_{t != s} cos(d_t) over [0, pi/2]^K.

    Zero weights sit at d_s = 0 and drop out of K. Let j carry the largest weight
    and rho_s = w_s^2 / w_j^2 for s != j. A face d_s = pi/2 gives at most
    w_s <= w_j, which the corner d_j = pi/2 attains; a face d_s = 0 is never
    optimal, since dF/dd_s > 0 there. At an interior stationary point
    sin(2 d_s) is proportional to w_s, and only block j can pass pi/4
    (swapping it with a larger weight's angle would raise F). With
    c = cos(2 d_j), stationarity is the single equation

        G(c) = c + sum_{s != j} sqrt(1 - rho_s + rho_s c^2) - (K - 2) = 0.

    G is convex, G(-1) = 0 (the corner) and G(1) = 2, so it has a root in
    (-1, 1) iff G'(-1) = 1 - sum rho_s < 0, and then only one. F is
    evaluated at the angles of that root, so the value is attained.
    """
    w = np.asarray(weights, dtype=np.float64)
    w = w[w > 0]
    j = int(np.argmax(w))
    rho = np.delete(w, j) ** 2 / w[j] ** 2
    if np.sum(rho) <= 1.0:
        return float(w[j])

    def g(c):
        return c + np.sum(np.sqrt(1.0 - rho + rho * c * c)) - (w.size - 2)

    def g_slope(c):
        root = np.sqrt(1.0 - rho + rho * c * c)
        # a weight tied with w_j has a kink at c = 0; 0 is a subgradient there
        return 1.0 + np.sum(np.divide(rho * c, root, out=np.zeros_like(rho), where=root > 0))

    c_min = scipy.optimize.brentq(g_slope, -1.0, 1.0, xtol=1e-16)
    if g(c_min) >= 0.0:  # the dip below 0 is lost to rounding; the root is the corner
        return float(w[j])
    c = scipy.optimize.brentq(g, c_min, 1.0, xtol=1e-16)
    sin_2dj = np.sqrt((1.0 - c) * (1.0 + c))
    d = np.arcsin(sin_2dj * w / w[j]) / 2
    d[j] = np.arctan2(sin_2dj, c) / 2
    cos_others = np.where(np.eye(w.size, dtype=bool), 1.0, np.cos(d))
    value = float(w @ (np.sin(d) * np.prod(cos_others, axis=1)))
    return max(float(w[j]), value)


# ---------------------------------------------------------------------------
# GHZ and W families
# ---------------------------------------------------------------------------

def ghz_egk(n: int, k: int) -> ClosedFormValue:
    """E = 1/2 for every 2 <= K <= N."""
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= K <= N, got K={k}, N={n}")
    return _from_exact_lambda2(Fraction(1, 2), "ghz-constant")


def w_full_separable(n: int) -> ClosedFormValue:
    """Lambda^2 = ((N-1)/N)^(N-1) for the uniform single-excitation state,
    the Dicke value at k = 1."""
    return dicke_full_separable(n, 1)


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
    """K-block value for the uniform single-excitation state, for any shape.

    After the inner cascade maximizations, block s contributes sqrt(M_s) and
    Lambda^2 = (1/N) max over K angles of the sum-product form, which
    _max_sum_product solves exactly.
    """
    value = _max_sum_product(np.sqrt(np.asarray(shape.sizes, dtype=np.float64)))
    return _from_float_lambda2(value ** 2 / shape.n, "w-reduced-k")


# ---------------------------------------------------------------------------
# full separability of permutation-symmetric states
# ---------------------------------------------------------------------------

_SYMMETRIC_N = range(3, 11)  # the N that symmetric_full_separable answers; raw roots
                             # lose up to 4.4e-3 at N = 11..14
_CIRCLE_TOL = 1e-8  # E_j counts as rounding where |E_j| <= this x the sum of its terms' moduli
_DICKE_TOL = 1e-12  # and a row is one Dicke state if every other |c_k| is at most this


def dicke_full_separable(n: int, k: int) -> ClosedFormValue:
    """Lambda^2 = C(N,k) (k/N)^k ((N-k)/N)^(N-k) for the Dicke state D_N^k, the
    uniform superposition of the N-qubit kets with k ones (Wei & Goldbart,
    PRA 68, 042307, 2003): every qubit in cos(t)|0> + e^(i x) sin(t)|1> with
    sin^2(t) = k/N, a circle of maxima."""
    if n < 2:
        raise DomainError("need N >= 2")
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={n}")
    return _from_exact_lambda2(Fraction(comb(n, k) * k ** k * (n - k) ** (n - k), n ** n),
                               "dicke-fullsep")


def _polymul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products of two stacks of polynomials, coefficients lowest first."""
    if x.shape[1] > y.shape[1]:
        x, y = y, x
    out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1), dtype=np.result_type(x, y))
    for j in range(x.shape[1]):
        out[:, j:j + y.shape[1]] += x[:, j:j + 1] * y
    return out


def _a_b(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (lowest first) of A = q' and B = N q - z q', per row of q."""
    n = q.shape[1] - 1
    j = np.arange(n + 1)
    return j[1:] * q[:, 1:], (n - j[:n]) * q[:, :n]


def _stationary_polynomial(q: np.ndarray, absolute: bool = False) -> np.ndarray:
    """Coefficients (lowest first) of E(z) = sum_i conj(q_i) R_i A^(i-1) B^(m-i)
    for each row of q (see ``symmetric_full_separable``), or with ``absolute``
    the same sum over every term's modulus, a scale for its rounding."""
    n = q.shape[1] - 1
    j = np.arange(n + 1)
    a, b = _a_b(q)
    r = (j - j[:, None]) * q[:, None]   # R_i = z q' - i q, row i
    qbar = q.conj()
    if absolute:
        a, b, r, qbar = (np.abs(x) for x in (a, b, r, qbar))
    a_pow, b_pow = [np.ones_like(a[:, :1])], [np.ones_like(b[:, :1])]
    for _ in range(n - 1):
        a_pow.append(_polymul(a_pow[-1], a))
        b_pow.append(_polymul(b_pow[-1], b))
    e = np.zeros((len(q), (n - 1) ** 2 + 2), dtype=a.dtype)
    # i = 0: R_0 / A = z; i = N: R_N / B = -1
    e[:, 1:] += qbar[:, :1] * b_pow[-1]
    e[:, :-1] += (1 if absolute else -1) * qbar[:, n:] * a_pow[-1]
    for i in range(1, n):
        term = _polymul(r[:, i], _polymul(a_pow[i - 1], b_pow[n - 1 - i]))
        e[:, :term.shape[1]] += qbar[:, i:i + 1] * term
    return e


def _symmetric_overlaps(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """F(z) = |q(z)|^2 / (1 + |z|^2)^N, one row of points per row of q, summed
    as |sum_k q_k alpha^(N-k) beta^k|^2 over the unit vector (alpha, beta) ~ (1, z)."""
    n = q.shape[1] - 1
    k = np.arange(n + 1)
    alpha = 1 / np.sqrt(1 + np.abs(z) ** 2)
    beta = z * alpha
    return np.abs((q[:, None] * alpha[..., None] ** (n - k) * beta[..., None] ** k).sum(-1)) ** 2


def _newton_step(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each point z after one Newton step on h = conj(z) B(z) - A(z) = 0, the
    stationarity of F, as a real 2-D system (h depends on z and conj(z));
    a point whose step is not finite stays."""
    def at(c):  # Horner, one row of points per row of coefficients
        out = np.zeros_like(z)
        for t in range(c.shape[1] - 1, -1, -1):
            out = out * z + c[:, t:t + 1]
        return out

    a, b = _a_b(q)
    j = np.arange(1, a.shape[1])
    h_zbar = at(b)
    h = z.conj() * h_zbar - at(a)
    h_z = z.conj() * at(j * b[:, 1:]) - at(j * a[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = z + (h_zbar * h.conj() - h_z.conj() * h) / (np.abs(h_z) ** 2 - np.abs(h_zbar) ** 2)
    return np.where(np.isfinite(step), step, z)


def symmetric_full_separable(amps_by_weight) -> np.ndarray:
    """Lambda^2 at K = N of S permutation-symmetric N-qubit states, one per row
    of ``amps_by_weight`` (S, N+1): a_k, the amplitude of every ket with k ones.

    For N >= 3 the closest product state of a symmetric state is symmetric
    (Huebener et al., PRA 80, 032324, 2009), so Lambda^2 is the maximum over
    one qubit phi ~ (1, z) of F(z) = |q(z)|^2 / (1 + |z|^2)^N with
    q(z) = sum_k C(N,k) conj(a_k) z^k, together with z = 0 and z = inf (|1>).
    At a stationary point with q != 0, conj(z) = A(z)/B(z) with A = q' and
    B = N q - z q', both of degree <= m = N - 1. Conjugating and clearing
    denominators, every such point is a root of
        E(z) = z sum_i conj(B_i) A^i B^(m-i) - sum_i conj(A_i) A^i B^(m-i),
    of degree <= m^2 + 1. Regrouped by conj(q_i), E is sum_i conj(q_i) R_i
    A^(i-1) B^(m-i) with R_i = z q' - i q, whose coefficients (j - i) q_j
    carry no cancellation, so a state near a Dicke state keeps its relative
    accuracy. The roots come from ``numpy.linalg.eigvals`` of companion
    matrices, one stack per numerical degree; F is evaluated at each root and
    at the root after one Newton step on the stationarity, which recovers the
    radius of a near-Dicke state's nearly circular ridge.

    Where E vanishes identically (every coefficient at rounding level) the
    maxima form a circle: a row with a
    single Dicke component c_k = sqrt(C(N,k)) a_k gets Wei & Goldbart's
    |c_k|^2 C(N,k) (k/N)^k ((N-k)/N)^(N-k); any other such row (a rotated
    Dicke state) is nan. Every row is nan for N outside 3..10, where the raw
    roots lose accuracy; callers take the ascent for nan rows.
    """
    amps = np.asarray(amps_by_weight, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise DomainError(f"need an (S, N+1) array of amplitudes, got shape {amps.shape}")
    n = amps.shape[1] - 1
    if n not in _SYMMETRIC_N:
        return np.full(len(amps), np.nan)
    binom = np.array([comb(n, k) for k in range(n + 1)], dtype=np.float64)
    q = binom * amps.conj()
    best = np.maximum(np.abs(q[:, 0]) ** 2, np.abs(q[:, n]) ** 2)
    scaled = q / np.max(np.abs(q), axis=1, keepdims=True)
    e = _stationary_polynomial(scaled)
    live = np.abs(e) > _CIRCLE_TOL * _stationary_polynomial(scaled, absolute=True)
    degree = np.where(live.any(axis=1), e.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), -1)
    for d in np.unique(degree[degree > 0]):
        rows = np.nonzero(degree == d)[0]
        companion = np.zeros((len(rows), d, d), dtype=np.complex128)
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, :, -1] = -e[rows, :d] / e[rows, d:d + 1]
        roots = np.linalg.eigvals(companion)
        roots = np.concatenate([roots, _newton_step(scaled[rows], roots)], axis=1)
        best[rows] = np.maximum(best[rows], _symmetric_overlaps(q[rows], roots).max(axis=1))
    for row in np.nonzero(degree < 0)[0]:
        dicke = binom * np.abs(amps[row]) ** 2
        k = int(np.argmax(dicke))
        single = np.delete(dicke, k).max() <= _DICKE_TOL ** 2
        best[row] = dicke[k] * dicke_full_separable(n, k).lambda2 if single else np.nan
    return np.minimum(best, 1.0)


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
    if any(g.numerator < 0 for g in out):
        raise DomainError("weights must be nonnegative")
    if not any(out):
        raise DomainError("weights are all zero")
    return out


def _bisep_ratio(gamma, blocks) -> tuple[int, int]:
    """The largest Lambda^2 over the bipartitions block | rest for per-qubit
    weights, max(sum_A gamma^2, sum_notA gamma^2) / sum gamma^2, as a pair of
    integers: each weight's ``as_integer_ratio`` scaled to the lcm of the
    denominators, so the sums are of squared integers, exact for any rational
    weights (floats included), and one correctly rounded int / int is a float.
    """
    ratios = [g.as_integer_ratio() for g in gamma]
    scale = lcm(*(d for _, d in ratios))
    squares = [(n * (scale // d)) ** 2 for n, d in ratios]
    total = sum(squares)
    inside = [sum(squares[q - 1] for q in block) for block in blocks]
    return max(max(x, total - x) for x in inside), total


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
    return _from_exact_lambda2(Fraction(*_bisep_ratio(g, [block_a])), "asymw-bipartition")


def asym_w_ksep_reduced(gamma, blocks) -> ClosedFormValue:
    """K-block value for per-qubit excitation weights.

    ``blocks`` is a Shape (contiguous blocks in order) or a Partition
    (equivalent to permuting the weights into contiguous layout first).
    Block s contributes G_s = sqrt(sum of its squared weights) and
    Lambda^2 = max over K angles of the sum-product form, squared and divided
    by sum gamma^2; _max_sum_product solves it exactly.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0):
        raise DomainError("weights must be nonnegative")
    total = float(np.sum(gamma ** 2))
    if total == 0.0:
        raise DomainError("weights are all zero")
    if isinstance(blocks, Shape):
        blocks = representative_partition(blocks)
    if not isinstance(blocks, Partition):
        raise DomainError("blocks must be a Shape or a Partition")
    if blocks.n != gamma.size:
        raise DomainError(f"blocks cover {blocks.n} qubits but {gamma.size} weights given")
    weights = np.array([np.sqrt(np.sum(gamma[[q - 1 for q in b]] ** 2)) for b in blocks.blocks])
    value = _max_sum_product(weights)
    return _from_float_lambda2(value ** 2 / total, "asymw-reduced-k")


# ---------------------------------------------------------------------------
# W + GHZ superposition, bipartitions
# ---------------------------------------------------------------------------

def wghz_bisep_reduced(eta: float, m1: int, m2: int) -> ClosedFormValue:
    """Bipartition value for cos(eta) W + sin(eta) GHZ on M1 + M2 qubits.

    In each block the state lies in the orthonormal span of |0...0>, |W_M>
    and |1...1> (for M = 1 the last two are the same ket |1>). With
    c = cos(eta)/sqrt(N) and s = sin(eta)/sqrt(2) its coefficient matrix in
    these bases has s at the all-zeros and all-ones corners and c sqrt(M1),
    c sqrt(M2) at the single excitations; Lambda^2 is its largest squared
    singular value.
    """
    if not 0.0 <= eta <= np.pi / 2 + 1e-12:
        raise DomainError(f"eta={eta} outside [0, pi/2]")
    if m1 < 1 or m2 < 1:
        raise DomainError("block sizes must be >= 1")
    c = np.cos(eta) / np.sqrt(m1 + m2)
    s = np.sin(eta) / np.sqrt(2.0)
    ones1, ones2 = min(m1, 2), min(m2, 2)  # index of |1...1> in each basis
    coefficients = np.zeros((ones1 + 1, ones2 + 1))
    coefficients[0, 0] = s
    coefficients[1, 0] = c * np.sqrt(m1)
    coefficients[0, 1] = c * np.sqrt(m2)
    coefficients[ones1, ones2] = s
    sigma = np.linalg.svd(coefficients, compute_uv=False)[0]
    return _from_float_lambda2(float(sigma ** 2), "wghz-reduced-2")
