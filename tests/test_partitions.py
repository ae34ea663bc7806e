from functools import lru_cache
from math import comb

import pytest

import geoent as ge
from geoent.errors import DomainError


@lru_cache(maxsize=None)
def count_integer_partitions(n, k):
    # independent oracle: p(n, k) = p(n-1, k-1) + p(n-k, k)
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return count_integer_partitions(n - 1, k - 1) + count_integer_partitions(n - k, k)


def stirling_inclusion_exclusion(n, k):
    # independent oracle for S(n, k)
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i
    return total // factorial


class TestShapes:
    def test_examples(self):
        assert [s.sizes for s in ge.shapes(4, 2)] == [(1, 3), (2, 2)]
        assert [s.sizes for s in ge.shapes(6, 3)] == [(1, 1, 4), (1, 2, 3), (2, 2, 2)]
        assert [s.sizes for s in ge.shapes(5, 5)] == [(1, 1, 1, 1, 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_match_oracle(self, n):
        for k in range(1, n + 1):
            assert len(ge.shapes(n, k)) == count_integer_partitions(n, k)

    def test_sorted_non_decreasing(self):
        for shape in ge.shapes(9, 4):
            assert list(shape.sizes) == sorted(shape.sizes)
            assert shape.n == 9 and shape.k == 4

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(DomainError):
            ge.shapes(4, k)

    def test_validation(self):
        with pytest.raises(DomainError):
            ge.Shape((2, 1))
        with pytest.raises(DomainError):
            ge.Shape((0, 1))

    def test_text_round_trip(self):
        shape = ge.Shape((1, 2, 3))
        assert shape.text == "1|2|3"
        assert ge.Shape.from_text("1|2|3") == shape

    def test_scale(self):
        assert ge.Shape((1, 2)).scaled(2) == ge.Shape((2, 4))
        assert ge.Shape((1, 2)).scaled(1) == ge.Shape((1, 2))
        assert ge.Shape((2, 2, 2)).scaled(3) == ge.Shape((6, 6, 6))
        with pytest.raises(DomainError):
            ge.Shape((1, 2)).scaled(0)


class TestSetPartitions:
    def test_three_into_two(self):
        texts = {p.text for p in ge.set_partitions(3, 2)}
        assert texts == {"1|2,3", "2|1,3", "3|1,2"}

    def test_four_into_two_count(self):
        assert sum(1 for _ in ge.set_partitions(4, 2)) == 7

    def test_single_block(self):
        parts = list(ge.set_partitions(5, 1))
        assert len(parts) == 1
        assert parts[0].blocks == ((1, 2, 3, 4, 5),)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_match_stirling(self, n):
        for k in range(1, n + 1):
            count = sum(1 for _ in ge.set_partitions(n, k))
            assert count == stirling_inclusion_exclusion(n, k)
            assert count == ge.stirling2(n, k)

    def test_canonical_form(self):
        for p in ge.set_partitions(6, 3):
            sizes = [len(b) for b in p.blocks]
            assert sizes == sorted(sizes)
            for a, b in zip(p.blocks, p.blocks[1:]):
                if len(a) == len(b):
                    assert a[0] < b[0]
            labels = sorted(q for block in p.blocks for q in block)
            assert labels == list(range(1, 7))

    def test_deterministic_order(self):
        assert list(ge.set_partitions(6, 3)) == list(ge.set_partitions(6, 3))

    def test_lazy(self):
        it = ge.set_partitions(8, 4)
        assert iter(it) is iter(it)
        next(it)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 4)])
    def test_every_shape_realized(self, n, k):
        seen = {p.shape for p in ge.set_partitions(n, k)}
        assert seen == set(ge.shapes(n, k))

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            list(ge.set_partitions(3, 4))


class TestPartition:
    def test_canonicalization(self):
        p = ge.Partition(((3, 2), (1,)))
        assert p.blocks == ((1,), (2, 3))
        assert p.text == "1|2,3"

    def test_from_text(self):
        p = ge.Partition.from_text("1,2|3,4|5,6")
        assert p.blocks == ((1, 2), (3, 4), (5, 6))
        assert p.n == 6 and p.k == 3

    def test_shape_of(self):
        assert ge.Partition(((2,), (1, 3))).shape == ge.Shape((1, 2))
        assert ge.Partition(((1, 2), (3, 4))).shape == ge.Shape((2, 2))
        assert ge.Partition(((1,), (2,), (3, 4, 5, 6))).shape == ge.Shape((1, 1, 4))

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            ge.Partition(((1, 2), (2, 3)))

    def test_rejects_gaps(self):
        with pytest.raises(DomainError):
            ge.Partition(((1,), (3,)))

    def test_rejects_empty_block(self):
        with pytest.raises(DomainError):
            ge.Partition(((1, 2), ()))

    def test_bad_text(self):
        with pytest.raises(DomainError):
            ge.Partition.from_text("1|a,3")

    def test_representative(self):
        p = ge.representative_partition(ge.Shape((1, 2, 3)))
        assert p.blocks == ((1,), (2, 3), (4, 5, 6))
