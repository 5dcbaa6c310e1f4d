"""Tests for the interval data model."""

import numpy as np
import pytest

from repro.temporal import Interval, IntervalCollection


class TestInterval:
    def test_basic_fields(self):
        x = Interval(1, 5.0, 9.0)
        assert x.uid == 1
        assert x.start == 5.0
        assert x.end == 9.0
        assert x.length == 4.0

    def test_zero_length_allowed(self):
        x = Interval(0, 3.0, 3.0)
        assert x.length == 0.0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 5.0, 4.0)

    @pytest.mark.parametrize("start, end", [(float("nan"), 5.0), (0.0, float("nan"))])
    def test_nan_endpoint_rejected(self, start, end):
        # `end < start` is false for NaN, so a NaN endpoint used to pass.
        with pytest.raises(ValueError):
            Interval(999, start, end)

    def test_endpoint_accessor(self):
        x = Interval(0, 1.0, 2.0)
        assert x.endpoint("start") == 1.0
        assert x.endpoint("end") == 2.0
        with pytest.raises(ValueError):
            x.endpoint("middle")

    def test_shift(self):
        x = Interval(7, 1.0, 2.0, payload="p")
        shifted = x.shift(10.0)
        assert (shifted.start, shifted.end) == (11.0, 12.0)
        assert shifted.uid == 7
        assert shifted.payload == "p"

    def test_overlaps(self):
        a = Interval(0, 0.0, 10.0)
        b = Interval(1, 5.0, 15.0)
        c = Interval(2, 11.0, 12.0)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_overlaps_touching_endpoints(self):
        a = Interval(0, 0.0, 10.0)
        b = Interval(1, 10.0, 20.0)
        assert a.overlaps(b)

    def test_immutable(self):
        x = Interval(0, 1.0, 2.0)
        with pytest.raises(AttributeError):
            x.start = 5.0


class TestIntervalCollection:
    def test_from_tuples_assigns_ids(self):
        collection = IntervalCollection.from_tuples("c", [(0, 1), (2, 3), (4, 8)])
        assert len(collection) == 3
        assert [x.uid for x in collection] == [0, 1, 2]

    def test_from_arrays(self):
        collection = IntervalCollection.from_arrays("c", [0, 5], [3, 9])
        assert collection[1].end == 9.0

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ValueError):
            IntervalCollection.from_arrays("c", [0, 5], [3])

    def test_get_by_uid(self, handmade_collection):
        assert handmade_collection.get(3).start == 25.0

    def test_add_invalidates_cache(self, handmade_collection):
        _ = handmade_collection.starts
        handmade_collection.add(Interval(99, 100.0, 110.0))
        assert len(handmade_collection.starts) == 6
        assert handmade_collection.get(99).end == 110.0

    def test_extend(self):
        collection = IntervalCollection("c")
        collection.extend([Interval(0, 0, 1), Interval(1, 1, 2)])
        assert len(collection) == 2

    def test_numpy_views(self, handmade_collection):
        assert isinstance(handmade_collection.starts, np.ndarray)
        assert handmade_collection.starts[0] == 0.0
        assert handmade_collection.ends[-1] == 41.0

    def test_time_range(self, handmade_collection):
        assert handmade_collection.time_range() == (0.0, 41.0)

    def test_time_range_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalCollection("empty").time_range()

    def test_average_length(self):
        collection = IntervalCollection.from_tuples("c", [(0, 10), (0, 20)])
        assert collection.average_length() == 15.0

    def test_total_span(self, handmade_collection):
        assert handmade_collection.total_span() == 41.0

    def test_describe(self, handmade_collection):
        summary = handmade_collection.describe()
        assert summary["count"] == 5
        assert summary["length_min"] == 1.0
        assert summary["length_max"] == 18.0

    def test_iteration_order(self, handmade_collection):
        uids = [x.uid for x in handmade_collection]
        assert uids == [0, 1, 2, 3, 4]
