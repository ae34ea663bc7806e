"""N-qubit pure states with binary indexing, and the state families under study.

Amplitude vectors are dense, length 2^N, indexed by the integer J obtained by
reading the ket left to right: qubit q (1-based) carries bit weight 2^(N-q),
so J = 0 is |00...0> and J = 2^N - 1 is |11...1>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from itertools import combinations

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeMismatchError

NORM_TOL = 1e-12
MAX_QUBITS = 20  # the dense-representation cap

_FAMILIES = (
    "ghz",
    "w",
    "w_tilde",
    "cluster4",
    "magnon",
    "wghz_superposition",
    "w_w_tilde_superposition",
    "w_ghz3_superposition",
    "asym_w",
    "explicit",
)


def _check_num_qubits(n):
    if n < 1:
        raise DomainError(f"need at least one qubit, got n={n}")
    if n > MAX_QUBITS:
        raise DomainError(f"n={n} exceeds the dense-representation cap of {MAX_QUBITS} qubits")


@dataclass(frozen=True, eq=False)
class PureState:
    """Immutable N-qubit pure state.

    Parameters
    ----------
    num_qubits : int
        Number of qubits N (>= 1).
    amplitudes : array_like
        Complex vector of length 2^N with unit norm (within 1e-12).
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_num_qubits(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != 2 ** self.num_qubits:
            raise ShapeMismatchError(
                f"amplitude vector has length {amps.size}, "
                f"expected 2^{self.num_qubits} = {2 ** self.num_qubits}"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise DomainError(f"state is not normalized: sum |c_J|^2 = {norm2!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def tensor(self) -> np.ndarray:
        """The amplitude vector reshaped to one axis per qubit (read-only view)."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def support(self) -> np.ndarray:
        """Indices J with |c_J| > 1e-12."""
        return np.nonzero(np.abs(self.amplitudes) > 1e-12)[0]


def _normalized(amps) -> np.ndarray:
    amps = np.asarray(amps, dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise DegenerateInputError("amplitude vector collapses to zero")
    return amps / norm


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def basis_ket(n: int, j: int) -> PureState:
    """Computational-basis state |J>> on n qubits."""
    _check_num_qubits(n)
    if not 0 <= j < 2 ** n:
        raise IndexError(f"index J={j} out of range for n={n} qubits")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[j] = 1.0
    return PureState(n, amps)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if n < 2:
        raise DomainError("ghz needs n >= 2")
    _check_num_qubits(n)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def w(n: int) -> PureState:
    """Uniform single-excitation state: 1/sqrt(n) sum_p |2^p>> on n >= 2 qubits."""
    if n < 2:
        raise DomainError("w needs n >= 2")
    _check_num_qubits(n)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[[2 ** p for p in range(n)]] = 1.0 / np.sqrt(n)
    return PureState(n, amps)


def w_tilde3() -> PureState:
    """(|110> + |101> + |011>)/sqrt(3), the bit-flipped 3-qubit W state."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[[3, 5, 6]] = 1.0 / np.sqrt(3.0)
    return PureState(3, amps)


def cluster4() -> PureState:
    """(|0000> + |0011> + |1100> - |1111>)/2."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[[0, 3, 12]] = 0.5
    amps[15] = -0.5
    return PureState(4, amps)


def magnon(n: int, k: int) -> PureState:
    """Uniform superposition of all n-qubit basis kets with exactly k excitations."""
    _check_num_qubits(n)
    if not 1 <= k <= n - 1:
        raise DomainError(f"excitation count k={k} must satisfy 1 <= k <= n-1 = {n - 1}")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    idx = [sum(2 ** p for p in c) for c in combinations(range(n), k)]
    amps[idx] = 1.0 / np.sqrt(comb(n, k))
    return PureState(n, amps)


def superpose(a: float, psi1: PureState, b: float, phase: float, psi2: PureState) -> PureState:
    """Renormalized a|psi1> + b e^{i phase}|psi2>.

    The components need not be orthogonal; the result is renormalized
    unconditionally and a zero result raises DegenerateInputError.
    """
    if psi1.num_qubits != psi2.num_qubits:
        raise ShapeMismatchError(
            f"cannot superpose states on {psi1.num_qubits} and {psi2.num_qubits} qubits"
        )
    amps = a * psi1.amplitudes + b * np.exp(1j * phase) * psi2.amplitudes
    return PureState(psi1.num_qubits, _normalized(amps))


def asym_w(gamma, xi=None) -> PureState:
    """Weighted single-excitation state with per-qubit weights and phases.

    ``gamma`` is qubit-ordered: gamma[q-1] is the excitation weight of qubit q,
    placed at index J = 2^(N-q). Weights must be nonnegative and not all zero;
    the state is normalized by (sum gamma^2)^(-1/2).
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    n = gamma.size
    _check_num_qubits(n)
    if np.any(gamma < 0):
        raise DomainError("asym_w weights must be nonnegative")
    if not np.any(gamma > 0):
        raise DegenerateInputError("asym_w weights are all zero")
    if xi is None:
        xi = np.zeros(n)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.size != n:
        raise ShapeMismatchError(f"xi has length {xi.size}, expected {n}")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    for q in range(1, n + 1):
        amps[2 ** (n - q)] = gamma[q - 1] * np.exp(1j * xi[q - 1])
    return PureState(n, _normalized(amps))


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def overlap(psi: PureState, phi: PureState) -> complex:
    """Inner product <phi|psi> = sum_J conj(c_J^phi) c_J^psi."""
    if psi.num_qubits != phi.num_qubits:
        raise ShapeMismatchError(
            f"overlap between {psi.num_qubits}- and {phi.num_qubits}-qubit states"
        )
    return complex(np.vdot(phi.amplitudes, psi.amplitudes))


def permute_qubits(psi: PureState, sigma) -> PureState:
    """Relabel qubits: qubit q of the result carries qubit sigma[q-1] of the input.

    ``sigma`` is a length-N rearrangement of (1, ..., N).
    """
    n = psi.num_qubits
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"{sigma} is not a permutation of 1..{n}")
    axes = [s - 1 for s in sigma]
    amps = np.ascontiguousarray(psi.tensor.transpose(axes)).reshape(-1)
    return PureState(n, amps)


def random_state(n: int, rng) -> PureState:
    """Haar-random pure state on n qubits; ``rng`` is a seed or a Generator."""
    _check_num_qubits(n)
    rng = np.random.default_rng(rng)
    z = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return PureState(n, z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# recipes and JSON persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateRecipe:
    """Declarative description of a buildable state family."""

    family: str
    n: int | None = None
    k: int | None = None
    eta: float | None = None
    phi: float | None = None
    gamma: tuple[float, ...] | None = None
    xi: tuple[float, ...] | None = None
    amplitudes: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if self.xi is not None:
            object.__setattr__(self, "xi", tuple(float(x) for x in self.xi))
        if self.eta is not None and not 0.0 <= self.eta <= np.pi / 2 + 1e-12:
            raise DomainError(f"eta={self.eta} outside [0, pi/2]")

    def build(self) -> PureState:
        f = self.family
        if f == "ghz":
            return ghz(self._need("n"))
        if f == "w":
            return w(self._need("n"))
        if f == "w_tilde":
            return w_tilde3()
        if f == "cluster4":
            return cluster4()
        if f == "magnon":
            return magnon(self._need("n"), self._need("k"))
        if f == "wghz_superposition":
            eta = self._need("eta")
            n = self._need("n")
            return superpose(np.cos(eta), w(n), np.sin(eta), 0.0, ghz(n))
        if f == "w_w_tilde_superposition":
            eta = self._need("eta")
            return superpose(np.cos(eta), w(3), np.sin(eta), self.phi or 0.0, w_tilde3())
        if f == "w_ghz3_superposition":
            eta = self._need("eta")
            return superpose(np.cos(eta), w(3), np.sin(eta), self.phi or 0.0, ghz(3))
        if f == "asym_w":
            return asym_w(self._need("gamma"), self.xi)
        if f == "explicit":
            amps = self._need("amplitudes")
            vec = np.array([complex(re, im) for re, im in amps])
            n = vec.size.bit_length() - 1
            return PureState(n, vec)
        raise DomainError(f"unknown family {f!r}")  # pragma: no cover

    def _need(self, name):
        value = getattr(self, name)
        if value is None:
            raise DomainError(f"family {self.family!r} requires parameter {name!r}")
        return value

    def as_dict(self) -> dict:
        out = {"family": self.family}
        for name in ("n", "k", "eta", "phi", "gamma", "xi", "amplitudes"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StateRecipe":
        kwargs = dict(data)
        for name in ("gamma", "xi"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        if kwargs.get("amplitudes") is not None:
            kwargs["amplitudes"] = tuple((re, im) for re, im in kwargs["amplitudes"])
        return cls(**kwargs)


def save_state(psi: PureState, path, recipe: StateRecipe | None = None) -> None:
    """Write the JSON state format: {"n": N, "amplitudes": [[re, im], ...]}."""
    doc = {
        "n": psi.num_qubits,
        "amplitudes": [[float(c.real), float(c.imag)] for c in psi.amplitudes],
    }
    if recipe is not None:
        doc["recipe"] = recipe.as_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path) -> PureState:
    """Read the JSON state format, validating length and normalization."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return PureState(n, amps)
