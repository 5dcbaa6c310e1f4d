"""Tests for statistics collection (granules, bucket matrices, the Map-Reduce job)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Granularity,
    collect_statistics,
    collect_statistics_mapreduce,
    update_statistics,
)
from repro.core.statistics import (
    BucketMatrix,
    DatasetStatistics,
    bucket_columns,
    bucket_counts,
)
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.temporal import Interval, IntervalCollection


@pytest.fixture()
def collection():
    return IntervalCollection(
        "c",
        [
            Interval(0, 0.0, 5.0),
            Interval(1, 12.0, 18.0),
            Interval(2, 15.0, 35.0),
            Interval(3, 38.0, 40.0),
            Interval(4, 1.0, 39.0),
        ],
    )


class TestGranularity:
    def test_width(self):
        granularity = Granularity(0.0, 40.0, 4)
        assert granularity.width == 10.0

    def test_granule_of_clamps(self):
        granularity = Granularity(0.0, 40.0, 4)
        assert granularity.granule_of(-5.0) == 0
        assert granularity.granule_of(0.0) == 0
        assert granularity.granule_of(9.999) == 0
        assert granularity.granule_of(10.0) == 1
        assert granularity.granule_of(40.0) == 3
        assert granularity.granule_of(100.0) == 3

    def test_granule_range(self):
        granularity = Granularity(0.0, 40.0, 4)
        assert granularity.granule_range(1) == (10.0, 20.0)
        with pytest.raises(IndexError):
            granularity.granule_range(4)

    def test_bucket_of(self):
        granularity = Granularity(0.0, 40.0, 4)
        assert granularity.bucket_of(Interval(0, 12.0, 18.0)) == (1, 1)
        assert granularity.bucket_of(Interval(0, 15.0, 35.0)) == (1, 3)

    def test_bucket_box(self):
        granularity = Granularity(0.0, 40.0, 4)
        box = granularity.bucket_box((1, 3))
        assert box.start_range == (10.0, 20.0)
        assert box.end_range == (30.0, 40.0)

    def test_degenerate_range(self):
        granularity = Granularity(5.0, 5.0, 3)
        assert granularity.granule_of(5.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Granularity(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            Granularity(10.0, 0.0, 4)

    def test_for_collection(self, collection):
        granularity = Granularity.for_collection(collection, 4)
        assert granularity.time_min == 0.0
        assert granularity.time_max == 40.0


class TestBucketMatrix:
    def test_add_and_count(self):
        matrix = BucketMatrix("c", Granularity(0.0, 40.0, 4))
        matrix.add((0, 0))
        matrix.add((0, 0))
        matrix.add((1, 3), amount=5)
        assert matrix.count((0, 0)) == 2
        assert matrix.count((1, 3)) == 5
        assert matrix.count((2, 2)) == 0
        assert matrix.total() == 7
        assert matrix.nonempty_buckets() == [(0, 0), (1, 3)]

    def test_iteration_sorted(self):
        matrix = BucketMatrix("c", Granularity(0.0, 40.0, 4))
        matrix.add((2, 3))
        matrix.add((0, 1))
        assert [key for key, _ in matrix] == [(0, 1), (2, 3)]


class TestCollectStatistics:
    def test_counts_match_collection_size(self, collection):
        statistics = collect_statistics({"c": collection}, num_granules=4)
        matrix = statistics.matrix("c")
        assert matrix.total() == len(collection)
        assert statistics.num_granules == 4

    def test_expected_buckets(self, collection):
        statistics = collect_statistics({"c": collection}, num_granules=4)
        matrix = statistics.matrix("c")
        assert matrix.count((0, 0)) == 1  # [0, 5]
        assert matrix.count((1, 1)) == 1  # [12, 18]
        assert matrix.count((1, 3)) == 1  # [15, 35]
        assert matrix.count((3, 3)) == 1  # [38, 40]
        assert matrix.count((0, 3)) == 1  # [1, 39]

    def test_average_lengths_recorded(self, collection):
        statistics = collect_statistics({"c": collection}, num_granules=4)
        assert statistics.average_lengths["c"] == pytest.approx(collection.average_length())

    def test_bucket_of_helper(self, collection):
        statistics = collect_statistics({"c": collection}, num_granules=4)
        assert statistics.bucket_of("c", collection.get(2)) == (1, 3)

    def test_nonempty_bucket_count(self, collection):
        statistics = collect_statistics({"c": collection}, num_granules=4)
        assert statistics.nonempty_bucket_count("c") == 5

    def test_mapreduce_path_matches_direct(self, collection):
        other = IntervalCollection(
            "d", [Interval(0, 2.0, 9.0), Interval(1, 20.0, 31.0)]
        )
        collections = {"c": collection, "d": other}
        direct = collect_statistics(collections, num_granules=5)
        engine = MapReduceEngine(ClusterConfig(num_reducers=2, num_mappers=3))
        distributed = collect_statistics_mapreduce(collections, num_granules=5, engine=engine)
        for name in collections:
            assert dict(direct.matrix(name).counts) == dict(distributed.matrix(name).counts)
        assert distributed.collection_metrics is not None
        assert distributed.collection_metrics.shuffle_records == len(collection) + len(other)


_ENDPOINTS = st.lists(
    st.tuples(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=25)),
    max_size=40,
)


class TestBucketColumns:
    """The one bucket split of phase (d): a partition of the collection by position."""

    @given(
        base=_ENDPOINTS,
        appended=_ENDPOINTS,
        num_granules=st.integers(min_value=1, max_value=6),
        payload_every=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(base=[], appended=[], num_granules=3, payload_every=0, seed=0)
    @example(base=[(5, 0)] * 4, appended=[(5, 0)], num_granules=3, payload_every=2, seed=1)
    @example(
        base=[(0, 10), (0, 10), (10, 0)], appended=[(-30, 90)], num_granules=4,
        payload_every=1, seed=2,
    )
    @settings(deadline=None, max_examples=150)
    def test_batches_partition_the_collection(
        self, base, appended, num_granules, payload_every, seed
    ):
        # Uids in shuffled order, so uid order differs from insertion order; the
        # appended intervals may fall outside the range the granules were cut on.
        uids = np.random.default_rng(seed).permutation(len(base) + len(appended)).tolist()
        rows = [
            Interval(
                uid,
                float(start),
                float(start + length),
                payload={"tag": uid} if payload_every and uid % payload_every == 0 else None,
            )
            for uid, (start, length) in zip(uids, base + appended)
        ]
        collection = IntervalCollection("c", rows[: len(base)])
        if base:
            statistics = collect_statistics({"c": collection}, num_granules)
        else:
            statistics = DatasetStatistics(
                {"c": BucketMatrix("c", Granularity(0.0, 1.0, num_granules))}, num_granules
            )
        collection.extend(rows[len(base) :])
        update_statistics(statistics, inserted={"c": rows[len(base) :]})
        matrix = statistics.matrix("c")
        granularity = matrix.granularity

        batches = bucket_columns(granularity, collection)

        lengths = {key: len(batch) for key, batch in batches.items()}
        assert lengths == matrix.counts
        assert lengths == bucket_counts(granularity, collection.starts, collection.ends)
        by_uid = {x.uid: x for x in rows}
        seen = []
        for key, batch in batches.items():
            assert np.all(np.diff(batch.uids) > 0)
            members = [by_uid[uid] for uid in batch.uids.tolist()]
            assert batch.to_intervals() == members
            assert batch.starts.tolist() == [x.start for x in members]
            assert batch.ends.tolist() == [x.end for x in members]
            payloads = [x.payload for x in members]
            assert batch.payloads == (tuple(payloads) if any(payloads) else None)
            assert all(granularity.bucket_of(x) == key for x in members)
            seen.extend(batch.uids.tolist())
        assert sorted(seen) == sorted(uids)
