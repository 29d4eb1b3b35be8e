"""Unit tests for repro.util.timebin."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import distinct_pairs
from repro.util.timebin import (
    TimeBinner,
    bin_count_series,
    bin_sum_series,
    bin_unique_series,
)


class TestTimeBinner:
    def test_bin_count(self):
        binner = TimeBinner(start=0.0, end=3600.0, width=600.0)
        assert binner.n_bins == 6

    def test_partial_last_bin(self):
        binner = TimeBinner(start=0.0, end=1000.0, width=600.0)
        assert binner.n_bins == 2

    def test_index_of(self):
        binner = TimeBinner(start=100.0, end=400.0, width=100.0)
        assert binner.index_of(100.0) == 0
        assert binner.index_of(199.9) == 0
        assert binner.index_of(200.0) == 1
        assert binner.index_of(399.9) == 2
        assert binner.index_of(400.0) is None
        assert binner.index_of(50.0) is None

    def test_edges_and_centers(self):
        binner = TimeBinner(start=0.0, end=300.0, width=100.0)
        assert list(binner.edges()) == [0.0, 100.0, 200.0]
        assert list(binner.centers()) == [50.0, 150.0, 250.0]

    def test_iter_bins_clamps_last_edge(self):
        binner = TimeBinner(start=0.0, end=250.0, width=100.0)
        bins = list(binner.iter_bins())
        assert bins[-1] == (200.0, 250.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeBinner(start=0.0, end=10.0, width=0.0)
        with pytest.raises(ValueError):
            TimeBinner(start=10.0, end=10.0, width=1.0)


class TestSeriesBuilders:
    def test_count_series(self):
        binner = TimeBinner(start=0.0, end=30.0, width=10.0)
        counts = bin_count_series(binner, [1.0, 2.0, 11.0, 29.0, 35.0])
        assert list(counts) == [2.0, 1.0, 1.0]

    def test_sum_series(self):
        binner = TimeBinner(start=0.0, end=20.0, width=10.0)
        sums = bin_sum_series(binner, [(1.0, 5.0), (2.0, 5.0), (15.0, 1.0), (25.0, 99.0)])
        assert list(sums) == [10.0, 1.0]

    def test_unique_series_counts_each_key_once(self):
        binner = TimeBinner(start=0.0, end=20.0, width=10.0)
        events = [(1.0, "a"), (2.0, "a"), (3.0, "b"), (12.0, "a")]
        uniques = bin_unique_series(binner, events)
        assert list(uniques) == [2.0, 1.0]


# Keys cover negatives and the int64 extremes, so both the packed-key path
# and the lexsort fallback (packed key past int64) are exercised.
_INT64 = np.iinfo(np.int64)
_keys = st.one_of(st.integers(-5, 5),
                  st.integers(int(_INT64.min), int(_INT64.max)))


def _reference_pairs(first, second):
    """The structured-row unique that distinct_pairs replaces."""
    pairs = np.unique(np.stack([np.asarray(first, dtype=np.int64),
                                np.asarray(second, dtype=np.int64)], axis=1),
                      axis=0)
    return pairs[:, 0], pairs[:, 1]


class TestDistinctPairs:
    @given(st.lists(st.tuples(_keys, _keys), max_size=60))
    def test_matches_row_unique(self, pairs):
        first = np.asarray([a for a, _ in pairs], dtype=np.int64)
        second = np.asarray([b for _, b in pairs], dtype=np.int64)
        got_first, got_second = distinct_pairs(first, second)
        if not pairs:
            assert got_first.size == got_second.size == 0
            return
        want_first, want_second = _reference_pairs(first, second)
        np.testing.assert_array_equal(got_first, want_first)
        np.testing.assert_array_equal(got_second, want_second)
        assert got_first.dtype == got_second.dtype == np.int64

    def test_overflowing_span_takes_the_lexsort_path(self):
        first = np.array([0, 1, 1, 0], dtype=np.int64)
        second = np.array([_INT64.max, _INT64.min, _INT64.min, _INT64.max],
                          dtype=np.int64)
        got_first, got_second = distinct_pairs(first, second)
        assert got_first.tolist() == [0, 1]
        assert got_second.tolist() == [_INT64.max, _INT64.min]

    @given(st.lists(st.tuples(st.floats(-50.0, 150.0), _keys), max_size=60))
    def test_unique_series_matches_row_unique(self, events):
        binner = TimeBinner(start=0.0, end=100.0, width=10.0)
        ts = np.asarray([t for t, _ in events], dtype=float)
        keys = np.asarray([k for _, k in events], dtype=np.int64)
        got = bin_unique_series(binner, (ts, keys))
        in_range = (ts >= binner.start) & (ts < binner.end)
        want = np.zeros(binner.n_bins)
        if in_range.any():
            bins = ((ts[in_range] - binner.start) // binner.width).astype(int)
            pair_bins, _ = _reference_pairs(bins, keys[in_range])
            want = np.bincount(pair_bins, minlength=binner.n_bins).astype(float)
        np.testing.assert_array_equal(got, want)
