"""Correctness references computed by the benchmark without the geoent optimizer.

* Bipartitions are exact: Lambda^2 = sigma_max^2 of the blocked amplitude
  matrix (Wei & Goldbart, PRA 68, 042307, 2003).
* A K >= 3 partition P is bounded below by every bipartition that merges its
  blocks: Lambda^2(P) <= sigma_max^2(coarsening), so E(P) >= E(coarsening).
* Every basis ket is a product state, so E <= 1 - max_J |c_J|^2.
* The overlap with a symmetric product state phi^{(x)N} bounds full
  separability from above for any state, and equals it for symmetric states
  of N >= 3 qubits (Huebener et al., PRA 80, 032324, 2009).

Amplitude indexing follows geoent: qubit q (1-based) is tensor axis q - 1.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# A value that must reach an exact reference may sit above it by OPTIMIZER_TOL
# and below it only by rounding (ROUNDING_TOL).
OPTIMIZER_TOL = 1e-7
ROUNDING_TOL = 1e-9


def parse_blocks(text: str) -> list[tuple[int, ...]]:
    """Partition text "1,3|2,4,5" -> [(1, 3), (2, 4, 5)]."""
    return [tuple(int(q) for q in part.split(",")) for part in text.split("|")]


def contiguous_blocks(shape_text: str) -> list[tuple[int, ...]]:
    """Shape text "1|2|2" -> [(1,), (2, 3), (4, 5)], the representative partition."""
    blocks, start = [], 1
    for m in (int(x) for x in shape_text.split("|")):
        blocks.append(tuple(range(start, start + m)))
        start += m
    return blocks


class StateReference:
    """Optimizer-free bounds for one N-qubit state, with cached bipartitions."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        self.n = amps.size.bit_length() - 1
        self.tensor = amps.reshape((2,) * self.n)
        self.basis_upper = 1.0 - float(np.max(np.abs(amps)) ** 2)
        self._bip: dict[frozenset, float] = {}

    def bipartition_e(self, side) -> float:
        """Exact E of the bipartition side | rest."""
        side = frozenset(side)
        if 1 not in side:
            side = frozenset(range(1, self.n + 1)) - side
        if side not in self._bip:
            a = sorted(q - 1 for q in side)
            b = [q for q in range(self.n) if q not in a]
            m = self.tensor.transpose(a + b).reshape(2 ** len(a), -1)
            sigma = np.linalg.svd(m, compute_uv=False)[0]
            self._bip[side] = 1.0 - float(sigma) ** 2
        return self._bip[side]

    def coarsening_bound(self, blocks) -> float:
        """Largest E over the bipartitions that merge ``blocks`` into two groups."""
        first, rest = blocks[0], blocks[1:]
        best = 0.0
        for size in range(len(rest)):
            for extra in combinations(rest, size):
                side = set(first).union(*extra)
                best = max(best, self.bipartition_e(side))
        return best


def check_range(problems, label, value, low, high):
    if not low <= value <= high:
        problems.append(f"{label}: {value!r} outside [{low!r}, {high!r}]")


def check_exact(problems, label, value, exact):
    check_range(problems, label, value, exact - ROUNDING_TOL, exact + OPTIMIZER_TOL)


def check_relative(problems, label, value, ref: StateReference, blocks):
    """Exact for a bipartition; coarsening and basis bounds otherwise."""
    if len(blocks) == 2:
        check_exact(problems, label, value, ref.bipartition_e(blocks[0]))
    else:
        check_range(problems, label, value, ref.coarsening_bound(blocks) - ROUNDING_TOL,
                    ref.basis_upper + ROUNDING_TOL)


def symmetric_product_e(weight_sums, coarse=(33, 64), refine_steps=30, seeds=3):
    """1 - max |<phi^{(x)N}|psi>|^2 over single-qubit phi, for each row.

    ``weight_sums[s, k]`` is the sum of the amplitudes of row s over basis kets
    with k ones, so the overlap with phi = (cos t, e^{i x} sin t) is
    sum_k g_k cos(t)^(N-k) sin(t)^k e^{-i k x}. A coarse grid picks the best
    ``seeds`` points; a shrinking 9x9 pattern search polishes each.
    """
    g = np.asarray(weight_sums, dtype=np.complex128)
    n = g.shape[1] - 1
    k = np.arange(n + 1)

    def value(theta, chi):
        c = np.cos(theta)[..., None]
        s = np.sin(theta)[..., None]
        terms = g[:, None, :] * c ** (n - k) * s ** k * np.exp(-1j * k * chi[..., None])
        return np.abs(terms.sum(axis=-1)) ** 2

    rows = g.shape[0]
    th, ch = np.meshgrid(np.linspace(0.0, np.pi / 2, coarse[0]),
                         np.linspace(0.0, 2 * np.pi, coarse[1], endpoint=False),
                         indexing="ij")
    th, ch = th.reshape(-1), ch.reshape(-1)
    grid = value(np.broadcast_to(th, (rows, th.size)), np.broadcast_to(ch, (rows, ch.size)))
    start = np.argsort(grid, axis=1)[:, -seeds:]
    off_t, off_c = (a.reshape(-1) for a in np.meshgrid(np.linspace(-1, 1, 9),
                                                          np.linspace(-1, 1, 9),
                                                          indexing="ij"))
    best = np.max(grid, axis=1)
    for j in range(seeds):
        t0, c0 = th[start[:, j]], ch[start[:, j]]
        dt, dc = (np.pi / 2) / (coarse[0] - 1), 2 * np.pi / coarse[1]
        for _ in range(refine_steps):
            t = np.clip(t0[:, None] + dt * off_t, 0.0, np.pi / 2)
            c = c0[:, None] + dc * off_c
            v = value(t, c)
            pick = np.argmax(v, axis=1)
            t0, c0 = t[np.arange(rows), pick], c[np.arange(rows), pick]
            best = np.maximum(best, v[np.arange(rows), pick])
            dt, dc = dt / 2, dc / 2
    return 1.0 - best


def weight_sums(amplitudes) -> np.ndarray:
    """Per Hamming weight k, the sum of the amplitudes of kets with k ones."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    n = amps.size.bit_length() - 1
    ones = np.array([bin(j).count("1") for j in range(amps.size)])
    return np.array([amps[ones == k].sum() for k in range(n + 1)])
