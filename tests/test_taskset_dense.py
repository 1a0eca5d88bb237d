"""Unit tests for the original global-width bit vectors."""

import numpy as np
import pytest

from repro.core.taskset import DenseBitVector


class TestConstruction:
    def test_empty_has_no_ranks(self):
        v = DenseBitVector.empty(100)
        assert v.count() == 0 and v.is_empty()

    def test_full_has_all_ranks(self):
        v = DenseBitVector.full(100)
        assert v.count() == 100
        assert v.to_ranks().tolist() == list(range(100))

    def test_full_masks_padding_bits(self):
        # width 13 is not a byte multiple; padding must stay zero.
        v = DenseBitVector.full(13)
        assert v.count() == 13

    def test_from_ranks(self):
        v = DenseBitVector.from_ranks([0, 3, 1023], 1024)
        assert v.to_ranks().tolist() == [0, 3, 1023]

    def test_from_ranks_deduplicates(self):
        v = DenseBitVector.from_ranks([5, 5, 5], 16)
        assert v.count() == 1

    def test_from_ranks_out_of_range(self):
        message = r"rank out of range \[0, 16\): "
        with pytest.raises(ValueError, match=message + "16"):
            DenseBitVector.from_ranks([16], 16)
        with pytest.raises(ValueError, match=message + "-1"):
            DenseBitVector.from_ranks([-1], 16)
        with pytest.raises(ValueError, match=message + "200"):
            DenseBitVector.from_ranks(np.array([3, 200], dtype=np.uint8), 16)

    @pytest.mark.parametrize("ranks", [
        [9, 2, 2, 5], {2, 5, 9}, (r for r in (5, 9, 2)),
        np.array([9, 2, 5], dtype=np.uint8),
    ], ids=["list", "set", "generator", "uint8"])
    def test_from_ranks_accepts_any_integer_iterable(self, ranks):
        v = DenseBitVector.from_ranks(ranks, 16)
        assert v.to_ranks().tolist() == [2, 5, 9]

    def test_from_ranks_empty(self):
        assert DenseBitVector.from_ranks([], 16).is_empty()
        assert DenseBitVector.from_ranks(iter(()), 0).count() == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            DenseBitVector(-1)

    def test_zero_width_allowed(self):
        v = DenseBitVector(0)
        assert v.count() == 0 and v.serialized_bits() == 0

    def test_data_shape_validated(self):
        with pytest.raises(ValueError):
            DenseBitVector(16, data=np.zeros(5, dtype=np.uint8))


class TestSetAlgebra:
    def test_union(self):
        a = DenseBitVector.from_ranks([1, 2], 16)
        b = DenseBitVector.from_ranks([2, 3], 16)
        assert (a | b).to_ranks().tolist() == [1, 2, 3]

    def test_union_inplace_returns_self(self):
        a = DenseBitVector.from_ranks([1], 16)
        b = DenseBitVector.from_ranks([2], 16)
        assert a.union_inplace(b) is a
        assert a.to_ranks().tolist() == [1, 2]

    def test_intersection(self):
        a = DenseBitVector.from_ranks([1, 2, 3], 16)
        b = DenseBitVector.from_ranks([2, 3, 4], 16)
        assert (a & b).to_ranks().tolist() == [2, 3]

    def test_difference(self):
        a = DenseBitVector.from_ranks([1, 2, 3], 16)
        b = DenseBitVector.from_ranks([2], 16)
        assert (a - b).to_ranks().tolist() == [1, 3]

    def test_complement_respects_width(self):
        a = DenseBitVector.from_ranks([0, 1], 5)
        assert a.complement().to_ranks().tolist() == [2, 3, 4]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width mismatch"):
            DenseBitVector.empty(8).union(DenseBitVector.empty(16))

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            DenseBitVector.empty(8).union("not a vector")

    def test_union_does_not_mutate_operands(self):
        a = DenseBitVector.from_ranks([1], 16)
        b = DenseBitVector.from_ranks([2], 16)
        _ = a | b
        assert a.count() == 1 and b.count() == 1


class TestQueries:
    def test_contains(self):
        v = DenseBitVector.from_ranks([7], 16)
        assert 7 in v and 6 not in v

    def test_contains_out_of_range_false(self):
        v = DenseBitVector.from_ranks([7], 16)
        assert 100 not in v and -1 not in v

    def test_count_large(self):
        v = DenseBitVector.from_ranks(range(0, 10_000, 3), 10_000)
        assert v.count() == len(range(0, 10_000, 3))

    def test_equality_and_hash(self):
        a = DenseBitVector.from_ranks([1, 2], 16)
        b = DenseBitVector.from_ranks([1, 2], 16)
        assert a == b and hash(a) == hash(b)
        assert a != DenseBitVector.from_ranks([1], 16)

    def test_copy_is_independent(self):
        a = DenseBitVector.from_ranks([1], 16)
        b = a.copy()
        b.union_inplace(DenseBitVector.from_ranks([2], 16))
        assert a.count() == 1 and b.count() == 2


class TestWireSize:
    """The Section V defect: size is the job width, not the content."""

    @pytest.mark.parametrize("width", [8, 1024, 212_992])
    def test_serialized_bits_always_full_width(self, width):
        assert DenseBitVector.empty(width).serialized_bits() == width
        assert DenseBitVector.from_ranks([0], width).serialized_bits() == width

    def test_million_cores_is_a_megabit(self):
        """'a million cores would require a 1 megabit bit vector per edge'"""
        v = DenseBitVector.empty(1_000_000)
        assert v.serialized_bits() == 1_000_000  # ~1 Mbit

    def test_serialized_bytes_rounds_up(self):
        assert DenseBitVector.empty(13).serialized_bytes() == 2
