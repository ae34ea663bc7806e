"""K-block partitions of the qubit set and their size shapes.

A Shape is the non-decreasing multiset of block sizes (M_1 <= ... <= M_K); a
Partition assigns concrete qubit labels (1-based) to blocks. Canonical form:
each block sorted ascending, blocks ordered by (size, smallest element).
Text forms: shape "1|2|3"; partition "1|2,3" (blocks separated by '|',
labels comma-separated).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import DomainError


@dataclass(frozen=True, order=True)
class Shape:
    """Non-decreasing block-size multiset of an integer partition of N."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise DomainError(f"block sizes must be positive, got {sizes}")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise DomainError(f"block sizes must be non-decreasing, got {sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def text(self) -> str:
        return "|".join(str(m) for m in self.sizes)

    @classmethod
    def from_text(cls, text: str) -> "Shape":
        try:
            return cls(tuple(int(part) for part in text.split("|")))
        except ValueError as exc:
            raise DomainError(f"cannot parse shape {text!r}") from exc

    def scaled(self, l: int) -> "Shape":
        """Multiply every block size by the integer l >= 1."""
        if l < 1:
            raise DomainError(f"scale factor must be >= 1, got {l}")
        return Shape(tuple(m * l for m in self.sizes))


@dataclass(frozen=True)
class Partition:
    """Canonical K-block set partition of the qubit labels {1..N}."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(q) for q in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: (len(b), b[0] if b else 0)))
        object.__setattr__(self, "blocks", blocks)
        if any(len(b) == 0 for b in blocks):
            raise DomainError("partition blocks must be nonempty")
        labels = sorted(q for b in blocks for q in b)
        n = len(labels)
        if labels != list(range(1, n + 1)):
            raise DomainError(
                f"blocks must be disjoint and cover 1..N exactly, got labels {labels}"
            )

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def shape(self) -> Shape:
        return Shape(tuple(len(b) for b in self.blocks))

    @property
    def text(self) -> str:
        return "|".join(",".join(str(q) for q in b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        try:
            blocks = tuple(
                tuple(int(q) for q in part.split(",")) for part in text.split("|")
            )
        except ValueError as exc:
            raise DomainError(f"cannot parse partition {text!r}") from exc
        return cls(blocks)

    def sort_key(self):
        return (self.shape.sizes, self.blocks)


def shapes(n: int, k: int) -> list[Shape]:
    """All integer partitions of n into exactly k positive parts, sorted."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= K <= N, got K={k}, N={n}")

    def rec(remaining, parts_left, minimum):
        if parts_left == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining // parts_left + 1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    return sorted(Shape(s) for s in rec(n, k, 1))


def set_partitions(n: int, k: int) -> Iterator[Partition]:
    """Lazily enumerate every set partition of {1..n} into k nonempty blocks.

    Deterministic order: lexicographic in the restricted-growth string that
    assigns each label to a block. Each emitted Partition is in canonical form.
    Total count is the Stirling number of the second kind S(n, k).
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= K <= N, got K={k}, N={n}")

    assignment = [0] * n

    def rec(i, used):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                blocks = [[] for _ in range(k)]
                for label, block in enumerate(assignment, start=1):
                    blocks[block].append(label)
                yield Partition(tuple(tuple(b) for b in blocks))
            return
        for block in range(min(used + 1, k)):
            assignment[i] = block
            yield from rec(i + 1, max(used, block + 1))

    return rec(0, 0)


def representative_partition(shape: Shape) -> Partition:
    """The contiguous partition with the given shape: {1..M1}|{M1+1..M1+M2}|..."""
    blocks = []
    start = 1
    for m in shape.sizes:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return Partition(tuple(blocks))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
