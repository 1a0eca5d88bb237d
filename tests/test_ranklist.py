"""Unit tests for compressed rank-list formatting (Figure 1 labels)."""

import numpy as np
import pytest

from repro.core.ranklist import (
    compress_ranks,
    format_edge_label,
    format_rank_list,
    normalize_ranks,
    parse_rank_list,
)


class TestNormalize:
    """One normalisation feeds every formatter and label constructor."""

    @pytest.mark.parametrize("ranks", [
        [7, 3, 3, 250], (250, 7, 3), {3, 7, 250}, (r for r in (250, 3, 7, 3)),
        range(3, 251), np.array([250, 7, 3, 7]),
        np.array([3, 7, 250], dtype=np.uint8),
        np.array([250, 3, 7], dtype=np.int16),
        [np.int64(250), np.uint8(7), 3],
    ], ids=["list", "tuple", "set", "generator", "range", "unsorted-array",
            "uint8", "int16", "numpy-scalars"])
    def test_any_integer_iterable(self, ranks):
        arr = normalize_ranks(ranks)
        assert arr.dtype == np.int64 and arr.ndim == 1
        assert arr[0] == 3 and arr[-1] == 250
        assert (np.diff(arr) > 0).all()

    def test_small_unsigned_dtypes_do_not_wrap(self):
        """np.diff on uint8 wraps 3 - 250 to 9: widen first."""
        ranks = np.array([250, 3, 4, 5], dtype=np.uint8)
        assert compress_ranks(ranks) == [(3, 5), (250, 250)]
        assert compress_ranks(np.sort(ranks)) == [(3, 5), (250, 250)]
        assert format_edge_label(ranks) == "4:[3-5,250]"

    def test_empty_inputs(self):
        for empty in ([], (), set(), iter(()), np.zeros(0, dtype=np.uint8)):
            arr = normalize_ranks(empty)
            assert arr.dtype == np.int64 and arr.shape == (0,)
        assert format_edge_label(np.zeros(0, dtype=np.int64)) == "0:[]"

    def test_normalised_array_is_passed_through(self):
        arr = np.array([0, 3, 4, 1023])
        assert normalize_ranks(arr) is arr

    def test_caller_array_is_not_modified(self):
        arr = np.array([5, 1, 5, 2])
        assert normalize_ranks(arr).tolist() == [1, 2, 5]
        assert arr.tolist() == [5, 1, 5, 2]

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            normalize_ranks(np.zeros((2, 2), dtype=np.int64))

    def test_runs_are_python_ints(self):
        runs = compress_ranks(np.array([4, 5, 9], dtype=np.int32))
        assert runs == [(4, 5), (9, 9)]
        assert all(type(x) is int for run in runs for x in run)


class TestCompress:
    def test_empty(self):
        assert compress_ranks([]) == []

    def test_single(self):
        assert compress_ranks([5]) == [(5, 5)]

    def test_run_collapse(self):
        assert compress_ranks([1, 2, 3, 7]) == [(1, 3), (7, 7)]

    def test_unsorted_input(self):
        assert compress_ranks([3, 1, 2]) == [(1, 3)]

    def test_duplicates_ignored(self):
        assert compress_ranks([1, 1, 2]) == [(1, 2)]


class TestFormat:
    def test_figure1_main_label(self):
        assert format_edge_label(range(1024)) == "1024:[0-1023]"

    def test_figure1_barrier_label(self):
        ranks = [0] + list(range(3, 1024))
        assert format_edge_label(ranks) == "1022:[0,3-1023]"

    def test_figure1_single_task_labels(self):
        assert format_edge_label([1]) == "1:[1]"
        assert format_edge_label([2]) == "1:[2]"

    def test_truncation_ellipsis(self):
        label = format_rank_list([8, 11, 12, 17, 40, 50], max_runs=3)
        assert label == "[8,11-12,17,...]"

    def test_no_truncation_when_under_limit(self):
        assert format_rank_list([1, 5], max_runs=4) == "[1,5]"

    def test_count_never_truncated(self):
        label = format_edge_label(list(range(0, 100, 2)), max_runs=2)
        assert label.startswith("50:")
        assert label.endswith("...]")

    def test_empty_list(self):
        assert format_rank_list([]) == "[]"
        assert format_edge_label([]) == "0:[]"


class TestParse:
    def test_roundtrip_simple(self):
        ranks = [0, 3, 4, 5, 1023]
        assert parse_rank_list(format_rank_list(ranks)) == ranks

    def test_parse_single(self):
        assert parse_rank_list("[7]") == [7]

    def test_parse_empty(self):
        assert parse_rank_list("[]") == []

    def test_parse_run(self):
        assert parse_rank_list("[2-5]") == [2, 3, 4, 5]

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            parse_rank_list("[1,2,...]")

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            parse_rank_list("1,2,3")

    def test_descending_run_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            parse_rank_list("[5-2]")

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError):
            parse_rank_list("[a-b]")
