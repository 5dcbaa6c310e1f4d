"""Tests for the streaming layer: collections, incremental evaluation, parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_top_k
from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import (
    AutoPlanner,
    ExecutionContext,
    PlanCache,
    get_algorithm,
)
from repro.streaming import (
    CandidateFilter,
    StreamingCollection,
    equivalent_top_k,
    replay_batches,
)
from repro.temporal import Interval, IntervalCollection


def make_context(backend: str = "serial") -> ExecutionContext:
    return ExecutionContext(
        cluster=ClusterConfig(num_reducers=4, num_mappers=2, backend=backend, max_workers=2)
    )


def result_key(results):
    return [(r.uids, round(r.score, 9)) for r in results]


@pytest.fixture(scope="module")
def stream_collections() -> list[IntervalCollection]:
    """Three deterministic collections small enough for the naive oracle."""
    config = SyntheticConfig(size=36, start_max=700.0, length_max=60.0)
    return list(generate_collections(3, config, seed=404).values())


class TestStreamingCollection:
    def test_ingest_is_invisible_until_commit(self):
        stream = StreamingCollection("c", [Interval(0, 0.0, 5.0)])
        stream.ingest([Interval(1, 1.0, 4.0), Interval(2, 2.0, 6.0)])
        assert len(stream) == 1
        assert stream.pending_batches == 1
        batch = stream.commit_next()
        assert len(batch) == 2
        assert batch.index == 0
        assert len(stream) == 3
        assert stream.pending_batches == 0
        assert stream.log.total_appended == 2

    def test_commit_without_pending_returns_none(self):
        stream = StreamingCollection("c", [Interval(0, 0.0, 5.0)])
        assert stream.commit_next() is None

    def test_duplicate_uid_rejected_at_ingest(self):
        stream = StreamingCollection("c", [Interval(0, 0.0, 5.0)])
        with pytest.raises(ValueError, match="uid 0"):
            stream.ingest([Interval(0, 1.0, 2.0)])
        # Duplicates across staged (not yet committed) batches are caught too.
        stream.ingest([Interval(1, 1.0, 2.0)])
        with pytest.raises(ValueError, match="uid 1"):
            stream.ingest([Interval(1, 3.0, 4.0)])

    def test_rejected_ingest_leaves_stream_retryable(self):
        stream = StreamingCollection("c", [Interval(0, 0.0, 5.0)])
        with pytest.raises(ValueError, match="uid 0"):
            stream.ingest([Interval(1, 1.0, 2.0), Interval(0, 3.0, 4.0)])
        assert stream.pending_batches == 0
        # The valid interval of the rejected batch was not leaked into the uid
        # set: resubmitting the corrected batch succeeds.
        assert stream.ingest([Interval(1, 1.0, 2.0), Interval(2, 3.0, 4.0)]) == 2
        assert stream.pending_batches == 1

    def test_numpy_views_follow_commits(self):
        stream = StreamingCollection("c", [Interval(0, 0.0, 5.0)])
        assert stream.starts.tolist() == [0.0]
        stream.ingest([Interval(1, 1.0, 4.0)])
        stream.commit_next()
        assert stream.starts.tolist() == [0.0, 1.0]
        assert stream.time_range() == (0.0, 5.0)

    def test_replay_batches_roundtrip(self, stream_collections):
        original = stream_collections[0]
        stream = replay_batches(original, 5)
        assert len(stream) == 0
        assert stream.pending_batches == 5
        while stream.commit_next() is not None:
            pass
        assert [i.uid for i in stream] == [i.uid for i in original]
        assert len(stream.log) == 5

    def test_from_collection_seeds_contents(self, stream_collections):
        stream = StreamingCollection.from_collection(stream_collections[0])
        assert len(stream) == len(stream_collections[0])
        assert stream.pending_batches == 0


class TestCandidateFilter:
    def _table(self, *upper_bounds: float):
        from repro.core import BucketCombination, CombinationTable

        return CombinationTable.of(
            [
                BucketCombination(
                    vertices=("x1", "x2"),
                    buckets=((0, 0), (1, 1)),
                    nb_res=4,
                    lower_bound=0.0,
                    upper_bound=upper_bound,
                )
                for upper_bound in upper_bounds
            ]
        )

    def test_clean_combination_pruned(self):
        keep = CandidateFilter({"x1": frozenset({(3, 3)})}, threshold=None)
        assert keep(self._table(1.0)).tolist() == [False]
        assert (keep.clean_skipped, keep.bound_pruned, keep.kept) == (1, 0, 0)

    def test_dirty_combination_kept_without_threshold(self):
        keep = CandidateFilter({"x1": frozenset({(0, 0)})}, threshold=None)
        assert keep(self._table(0.2)).tolist() == [True]
        assert keep.kept == 1

    def test_bound_pruned_at_or_below_threshold(self):
        keep = CandidateFilter({"x1": frozenset({(0, 0)})}, threshold=0.5)
        # ties cannot improve the top-k
        assert keep(self._table(0.5, 0.4, 0.6)).tolist() == [False, False, True]
        assert (keep.clean_skipped, keep.bound_pruned, keep.kept) == (0, 2, 1)

    def test_clean_wins_over_bound(self):
        """A clean combination below the threshold counts as clean, as per object."""
        keep = CandidateFilter({"x2": frozenset({(9, 9)})}, threshold=0.5)
        assert keep(self._table(0.4, 0.9)).tolist() == [False, False]
        assert (keep.clean_skipped, keep.bound_pruned, keep.kept) == (2, 0, 0)


class TestStaticFallback:
    def test_static_collections_single_full_evaluation(self, stream_collections):
        query = build_query("Qo,m", stream_collections, "P1", k=10)
        with make_context() as context:
            report = get_algorithm("tkij-streaming").run(query, context, num_granules=5)
        assert equivalent_top_k(report.results, naive_top_k(query))
        raw = report.raw
        assert raw.batches_ingested == 1
        assert raw.replans == 0
        assert raw.batches[0].replanned is False

    def test_rerun_without_new_batches_reuses_answer(self, stream_collections):
        query = build_query("Qo,m", stream_collections, "P1", k=10)
        with make_context() as context:
            algorithm = get_algorithm("tkij-streaming")
            first = algorithm.run(query, context, num_granules=5)
            second = algorithm.run(query, context, num_granules=5)
        assert result_key(second.results) == result_key(first.results)
        # No new batch: the second run processed no ticks at all.
        assert second.raw.batches == []
        assert second.elapsed_seconds == 0.0

    def test_empty_first_batch_rejected(self):
        streams = [StreamingCollection(name) for name in ("a", "b", "c")]
        query = build_query("Qo,m", streams, "P1", k=5)
        with make_context() as context:
            with pytest.raises(ValueError, match="no intervals yet"):
                get_algorithm("tkij-streaming").run(query, context)

    def test_unknown_knobs_rejected(self, stream_collections):
        query = build_query("Qo,m", stream_collections, "P1", k=10)
        with make_context() as context:
            algorithm = get_algorithm("tkij-streaming")
            with pytest.raises(ValueError, match="plan mode"):
                algorithm.plan(query, context, mode="psychic")
            with pytest.raises(ValueError, match="strategy"):
                algorithm.plan(query, context, strategy="psychic")
            with pytest.raises(ValueError, match="assigner"):
                algorithm.plan(query, context, assigner="psychic")


class TestPerBatchParity:
    """Acceptance: per-batch incremental top-k equals full recomputation."""

    NUM_BATCHES = 4

    def _chunks(self, collections, num_batches):
        return {
            c.name: [
                c.intervals[start : start + -(-len(c.intervals) // num_batches)]
                for start in range(
                    0, len(c.intervals), -(-len(c.intervals) // num_batches)
                )
            ]
            for c in collections
        }

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_matches_full_recompute_and_oracle_each_batch(
        self, backend, stream_collections
    ):
        chunks = self._chunks(stream_collections, self.NUM_BATCHES)
        streams = [StreamingCollection(c.name) for c in stream_collections]
        query = build_query("Qo,m", streams, "P1", k=12)
        algorithm = get_algorithm("tkij-streaming")
        static = get_algorithm("tkij")
        incremental_batches = 0
        pruned_pairs = 0
        with make_context(backend) as context, make_context(backend) as full_context:
            for tick in range(self.NUM_BATCHES):
                for stream in streams:
                    stream.ingest(chunks[stream.name][tick])
                report = algorithm.run(query, context, num_granules=5)
                full = static.run(query, full_context, num_granules=5)
                assert equivalent_top_k(report.results, full.results), (
                    f"batch {tick} diverged from full recomputation"
                )
                assert equivalent_top_k(report.results, naive_top_k(query)), (
                    f"batch {tick} diverged from the naive oracle"
                )
                batch = report.raw.batches[-1]
                if not batch.replanned:
                    incremental_batches += 1
                    pruned_pairs += batch.pruned_pairs
        # The schedule must actually exercise the incremental path, and the
        # incremental path must actually prune (all-old combinations at least).
        assert incremental_batches > 0
        assert pruned_pairs > 0

    def test_serial_and_thread_agree_per_batch(self, stream_collections):
        outcomes = []
        for backend in ("serial", "thread"):
            chunks = self._chunks(stream_collections, self.NUM_BATCHES)
            streams = [StreamingCollection(c.name) for c in stream_collections]
            query = build_query("Qo,m", streams, "P1", k=12)
            per_batch = []
            with make_context(backend) as context:
                for tick in range(self.NUM_BATCHES):
                    for stream in streams:
                        stream.ingest(chunks[stream.name][tick])
                    report = get_algorithm("tkij-streaming").run(
                        query, context, num_granules=5
                    )
                    per_batch.append(result_key(report.results))
            outcomes.append(per_batch)
        assert outcomes[0] == outcomes[1]


class TestReplanPolicy:
    def test_initial_state_requires_full_evaluation(self):
        replan, reason = AutoPlanner().should_replan(
            base_size=0, appended_since_plan=0, batch_size=10
        )
        assert replan
        assert "no base plan" in reason

    def test_doubling_schedule(self):
        planner = AutoPlanner()
        stay, _ = planner.should_replan(
            base_size=100, appended_since_plan=40, batch_size=20
        )
        replan, reason = planner.should_replan(
            base_size=100, appended_since_plan=100, batch_size=20
        )
        assert stay is False
        assert replan is True
        assert "growth" in reason

    def test_out_of_range_batch_forces_replan(self):
        replan, reason = AutoPlanner().should_replan(
            base_size=1000, appended_since_plan=10, batch_size=10, out_of_range=5
        )
        assert replan is True
        assert "outside" in reason

    def test_streaming_survives_time_range_extension(self, stream_collections):
        # Batches shifted far past the original range force clamped statistics;
        # the policy replans and the answer stays equivalent to the oracle.
        base = stream_collections[0]
        streams = [StreamingCollection(c.name) for c in stream_collections]
        query = build_query("Qo,m", streams, "P1", k=10)
        algorithm = get_algorithm("tkij-streaming")
        with make_context() as context:
            for tick in range(2):
                for stream, source in zip(streams, stream_collections):
                    intervals = source.intervals[tick * 18 : (tick + 1) * 18]
                    if tick == 1:
                        span = base.total_span()
                        intervals = [i.shift(5.0 * span) for i in intervals]
                        intervals = [
                            Interval(i.uid + 10_000, i.start, i.end, i.payload)
                            for i in intervals
                        ]
                    stream.ingest(intervals)
                report = algorithm.run(query, context, num_granules=5)
                assert equivalent_top_k(report.results, naive_top_k(query))
            assert report.raw.replans >= 1


    def test_auto_replan_prices_freshly_collected_statistics(self, stream_collections):
        # Under mode="auto" a replan must not price (or execute on) matrices
        # that were maintained incrementally: every granularity the planner may
        # fetch is dropped first, so the tick's plan and its granule boundaries
        # come from the current time range.
        streams = [StreamingCollection(c.name) for c in stream_collections]
        query = build_query("Qo,m", streams, "P1", k=10)
        algorithm = get_algorithm("tkij-streaming")
        planner = AutoPlanner()
        with make_context() as context:
            for tick in range(2):
                for stream, source in zip(streams, stream_collections):
                    intervals = source.intervals[tick * 18 : (tick + 1) * 18]
                    if tick == 1:
                        intervals = [
                            Interval(i.uid + 10_000, i.start + 5_000.0, i.end + 5_000.0)
                            for i in intervals
                        ]
                    stream.ingest(intervals)
                report = algorithm.run(query, context, mode="auto", planner=planner)
                assert equivalent_top_k(report.results, naive_top_k(query))
            batch = report.raw.batches[-1]
            assert batch.replanned and report.raw.replans == 1
            assert batch.statistics_cached is False
            collections = {stream.name: stream for stream in streams}
            for num_granules in planner.granule_candidates:
                statistics = context.statistics.lookup(collections, num_granules)
                if statistics is None:
                    continue
                for stream in streams:
                    matrix = statistics.matrix(stream.name)
                    assert (
                        matrix.granularity.time_min,
                        matrix.granularity.time_max,
                    ) == stream.time_range()
                    assert matrix.low == float("inf")  # nothing folded in since
            chosen = context.statistics.lookup(collections, report.explanation.num_granules)
            assert report.explanation.inputs["estimated_combinations"] == np.prod(
                [chosen.nonempty_bucket_count(stream.name) for stream in streams]
            )


class TestOutOfRangeAppends:
    """Appends beyond the plan's granule range clamp into border buckets whose
    boxes must still cover them (``BucketMatrix.bucket_box``)."""

    @staticmethod
    def _draw(rng, count, start_max, first_uid):
        starts = np.floor(rng.uniform(0.0, start_max, count))
        lengths = np.maximum(1.0, np.round(rng.uniform(1.0, 100.0, count)))
        return [
            Interval(first_uid + i, float(start), float(start + length))
            for i, (start, length) in enumerate(zip(starts, lengths))
        ]

    @pytest.mark.parametrize("seed", [49, 111, 189])
    def test_stray_appends_keep_the_answer_exact(self, seed):
        # A few intervals of a batch land past the range the plan was built on —
        # not always enough to trigger the out-of-range replan, but a clamped
        # one can hold a true result (these seeds returned a wrong top-k).
        rng = np.random.default_rng(seed)
        streams = [
            StreamingCollection(f"C{i}", self._draw(rng, 40, 2000.0, 0)) for i in range(3)
        ]
        query = build_query("Qo,m", streams, "P1", k=10)
        algorithm = get_algorithm("tkij-streaming")
        with make_context() as context:
            report = algorithm.run(query, context, num_granules=20)
            assert equivalent_top_k(report.results, naive_top_k(query))
            for tick in range(2):
                for stream in streams:
                    stream.ingest(self._draw(rng, 6, 2300.0, 40 + 6 * tick))
                report = algorithm.run(query, context, num_granules=20)
                assert equivalent_top_k(report.results, naive_top_k(query))

    def test_border_boxes_cover_clamped_intervals(self):
        from repro.core import collect_statistics, update_statistics

        base = IntervalCollection("c", [Interval(0, 100.0, 150.0), Interval(1, 300.0, 400.0)])
        statistics = collect_statistics({"c": base}, num_granules=4)
        matrix = statistics.matrix("c")
        before = {key: matrix.bucket_box(key) for key in matrix.nonempty_buckets()}
        assert before == {
            key: matrix.granularity.bucket_box(key) for key in matrix.nonempty_buckets()
        }
        strays = [Interval(2, 20.0, 60.0), Interval(3, 390.0, 480.0), Interval(4, 450.0, 470.0)]
        update_statistics(statistics, inserted={"c": strays})
        for interval in strays:
            box = matrix.bucket_box(matrix.granularity.bucket_of(interval))
            assert box.start_low <= interval.start <= box.start_high
            assert box.end_low <= interval.end <= box.end_high
        # Deletions never shrink the recorded extents; inner edges never move.
        update_statistics(statistics, deleted={"c": strays[:1]})
        assert (matrix.low, matrix.high) == (20.0, 480.0)
        assert matrix.bucket_box((1, 2)) == matrix.granularity.bucket_box((1, 2))


class TestStreamStateIsolation:
    def test_distinct_ks_do_not_share_state(self, stream_collections):
        algorithm = get_algorithm("tkij-streaming")
        with make_context() as context:
            query_a = build_query("Qo,m", stream_collections, "P1", k=5)
            query_b = build_query("Qo,m", stream_collections, "P1", k=15)
            report_a = algorithm.run(query_a, context, num_granules=5)
            report_b = algorithm.run(query_b, context, num_granules=5)
        assert len(report_a.results) == 5
        assert len(report_b.results) == 15
        assert len(context.streams) == 2

    @pytest.mark.parametrize("query_name", ["Qo,m", "Qs,f,m"])
    def test_distinct_parameters_do_not_share_state(self, query_name):
        # The stream key is the query fingerprint, predicate parameters
        # included: a P2 query on a stream_id a P1 query used must get the P2
        # answer, not the P1 query's persistent top-k.
        collections = generate_collections(3, SyntheticConfig(size=40), seed=5).values()
        streams = [StreamingCollection(c.name, c.intervals) for c in collections]
        algorithm = get_algorithm("tkij-streaming")
        with make_context() as context:
            for params in ("P1", "P2"):
                query = build_query(query_name, streams, params, k=20)
                streamed = algorithm.run(query, context, num_granules=5, stream_id="shared")
                expected = get_algorithm("tkij").run(query, context, num_granules=5)
                assert equivalent_top_k(streamed.results, expected.results), params
            assert len(context.streams) == 2


class TestFullTicksPlanThroughTKIJ:
    def test_auto_stream_matches_one_shot_tkij_and_replans_miss_the_plan_cache(
        self, stream_collections
    ):
        # A full tick is tkij's own plan + execute: with a plan cache in the
        # context it reaches tkij's plan cache, and a replan after growth sees
        # a new statistics fingerprint, so it misses.
        streams = [StreamingCollection(c.name) for c in stream_collections]
        query = build_query("Qo,m", streams, "P1", k=10)
        algorithm = get_algorithm("tkij-streaming")
        plan_cache = PlanCache(max_entries=8)
        with make_context() as context:
            context.plan_cache = plan_cache
            for tick in range(4):
                for stream, source in zip(streams, stream_collections):
                    stream.ingest(source.intervals[tick * 9 : (tick + 1) * 9])
                report = algorithm.run(query, context, mode="auto")
                with make_context() as fresh:
                    expected = get_algorithm("tkij").run(query, fresh, mode="auto")
                assert equivalent_top_k(report.results, expected.results), tick
                assert report.explanation is not None
        replans = report.raw.replans
        assert replans >= 1
        full_ticks = 1 + replans
        assert plan_cache.describe()["hits"] == 0
        assert plan_cache.describe()["misses"] == full_ticks
        assert plan_cache.describe()["entries"] == full_ticks


# ----------------------------------------------------------------- property
_PROPERTY_CONFIG = SyntheticConfig(size=24, start_max=500.0, length_max=50.0)
_PROPERTY_COLLECTIONS = list(
    generate_collections(3, _PROPERTY_CONFIG, seed=505).values()
)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_batch_partitioning_matches_single_shot(data):
    """Satellite: any batch partitioning yields the same top-k as one-shot TKIJ."""
    chunks = {}
    max_batches = 1
    for collection in _PROPERTY_COLLECTIONS:
        size = len(collection.intervals)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=size - 1),
                unique=True,
                max_size=4,
            ).map(sorted),
            label=f"cuts-{collection.name}",
        )
        edges = [0, *cuts, size]
        chunks[collection.name] = [
            collection.intervals[a:b] for a, b in zip(edges, edges[1:])
        ]
        max_batches = max(max_batches, len(chunks[collection.name]))

    streams = [StreamingCollection(c.name) for c in _PROPERTY_COLLECTIONS]
    query = build_query("Qo,m", streams, "P1", k=8)
    algorithm = get_algorithm("tkij-streaming")
    with make_context() as context:
        for tick in range(max_batches):
            for stream in streams:
                mine = chunks[stream.name]
                stream.ingest(mine[tick] if tick < len(mine) else [])
            report = algorithm.run(query, context, num_granules=5)

    single_shot = build_query("Qo,m", _PROPERTY_COLLECTIONS, "P1", k=8)
    assert equivalent_top_k(report.results, naive_top_k(single_shot))


_interval_shape = st.tuples(st.integers(-400, 900), st.integers(1, 120))


@settings(max_examples=12, deadline=None)
@given(
    base=st.lists(st.lists(_interval_shape, min_size=6, max_size=12), min_size=3, max_size=3),
    ticks=st.lists(
        st.lists(st.lists(_interval_shape, max_size=4), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
)
def test_any_append_sequence_any_range_growth_matches_naive(base, ticks):
    """Whatever is appended, however far outside the planned range, every tick's
    incremental answer equals the naive oracle's and the SQL oracle's — with
    both replan rules switched off, so clamped border buckets are all the
    evaluator has."""

    def intervals(shapes, first_uid):
        return [
            Interval(first_uid + at, float(start), float(start + length))
            for at, (start, length) in enumerate(shapes)
        ]

    # The base sits inside [0, 520]; appends may fall anywhere in [-400, 1020].
    streams = [
        StreamingCollection(f"C{i}", intervals([(s % 400, n) for s, n in shapes], 0))
        for i, shapes in enumerate(base)
    ]
    query = build_query("Qo,m", streams, "P1", k=6)
    algorithm = get_algorithm("tkij-streaming")
    planner = AutoPlanner(replan_cost_factor=1e9, replan_out_of_range_fraction=1.0)

    def matches_both_oracles(context):
        report = algorithm.run(query, context, num_granules=6, planner=planner)
        assert equivalent_top_k(report.results, naive_top_k(query))
        sql = get_algorithm("sql-oracle").run(query, context)
        assert equivalent_top_k(report.results, sql.results)
        return report

    with make_context() as context:
        report = matches_both_oracles(context)
        for tick, batches in enumerate(ticks):
            for stream, shapes in zip(streams, batches):
                stream.ingest(intervals(shapes, 100 * (tick + 1)))
            report = matches_both_oracles(context)
        assert report.raw.replans == 0
