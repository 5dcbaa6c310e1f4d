"""Tests for the per-reducer local top-k join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_top_k
from repro.columnar import IntervalColumns, box_mask, sweep_positions
from repro.core import (
    KERNELS,
    TKIJ,
    CombinationSpace,
    LocalJoinConfig,
    LocalTopKJoin,
    TopBucketsSelector,
    collect_statistics,
)
from repro.core.local_join import _window_rows
from repro.datagen import SyntheticConfig, generate_collections
from repro.index import Rect
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.query import QueryBuilder
from repro.streaming.parity import equivalent_top_k
from repro.temporal import AttributeDiffers, Interval, IntervalCollection, PredicateParams
from repro.temporal.aggregation import MinScore, SumScore, WeightedSum

P1 = PredicateParams.of(4, 16, 0, 10)
P2 = PredicateParams.of(0, 16, 2, 8)


def _prepare(query, num_granules=4, strategy="loose"):
    """Statistics, selected combinations and the full bucket->intervals mapping."""
    collections = {query.collections[v].name: query.collections[v] for v in query.vertices}
    statistics = collect_statistics(collections, num_granules=num_granules)
    space = CombinationSpace(query, statistics)
    result = TopBucketsSelector(strategy=strategy).run(query, statistics, space)
    intervals = {}
    for vertex in query.vertices:
        collection = query.collections[vertex]
        matrix = statistics.matrix(collection.name)
        for interval in collection:
            key = (vertex, matrix.granularity.bucket_of(interval))
            intervals.setdefault(key, []).append(interval)
    return statistics, result.selected, intervals


class TestLocalJoinCorrectness:
    @pytest.mark.parametrize("query_name", ["Qs,m", "Qb,b", "Qo,o", "Qo,m"])
    def test_single_worker_matches_naive(self, tiny_collections, query_name):
        """With all combinations and all data, the local join is an exact evaluator."""
        query = build_query(query_name, tiny_collections, P1, k=8)
        _, selected, intervals = _prepare(query)
        join = LocalTopKJoin(query)
        results, stats = join.run(selected, intervals)
        expected = naive_top_k(query)
        assert [round(r.score, 9) for r in results] == [round(r.score, 9) for r in expected]
        assert stats.tuples_scored > 0

    def test_binary_query(self, pair_collections):
        query = build_query("Qb,b", [pair_collections[0], pair_collections[1], pair_collections[0]], P1, k=5)
        _, selected, intervals = _prepare(query)
        results, _ = LocalTopKJoin(query).run(selected, intervals)
        assert len(results) == 5
        assert all(results[i].score >= results[i + 1].score for i in range(len(results) - 1))

    def test_results_sorted_descending(self, tiny_collections):
        query = build_query("Qo,o", tiny_collections, P2, k=12)
        _, selected, intervals = _prepare(query)
        results, _ = LocalTopKJoin(query).run(selected, intervals)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_result_count(self, tiny_collections):
        query = build_query("Qs,m", tiny_collections, P1, k=10)
        _, selected, intervals = _prepare(query)
        results, _ = LocalTopKJoin(query).run(selected, intervals, k=10**7)
        total = len(tiny_collections[0]) * len(tiny_collections[1]) * len(tiny_collections[2])
        assert len(results) <= total


class TestLocalJoinConfigurations:
    @pytest.mark.parametrize(
        "config",
        [
            LocalJoinConfig(use_index=False, early_termination=False),
            LocalJoinConfig(use_index=False, early_termination=True),
            LocalJoinConfig(use_index=True, early_termination=False),
            LocalJoinConfig(use_index=True, early_termination=True),
        ],
    )
    def test_flags_do_not_change_results(self, tiny_collections, config):
        query = build_query("Qs,m", tiny_collections, P1, k=6)
        _, selected, intervals = _prepare(query)
        baseline, _ = LocalTopKJoin(query, LocalJoinConfig(use_index=False, early_termination=False)).run(
            selected, intervals
        )
        results, _ = LocalTopKJoin(query, config).run(selected, intervals)
        assert [round(r.score, 9) for r in results] == [round(r.score, 9) for r in baseline]

    def test_early_termination_skips_combinations(self, tiny_collections):
        query = build_query("Qb,b", tiny_collections, P1, k=3)
        _, selected, intervals = _prepare(query)
        eager = LocalTopKJoin(query, LocalJoinConfig(early_termination=True))
        lazy = LocalTopKJoin(query, LocalJoinConfig(early_termination=False))
        _, eager_stats = eager.run(selected, intervals)
        _, lazy_stats = lazy.run(selected, intervals)
        assert eager_stats.combinations_processed <= lazy_stats.combinations_processed
        assert eager_stats.tuples_scored <= lazy_stats.tuples_scored

    def test_index_reduces_candidates(self, tiny_collections):
        query = build_query("Qs,m", tiny_collections, P1, k=3)
        _, selected, intervals = _prepare(query)
        with_index, idx_stats = LocalTopKJoin(
            query, LocalJoinConfig(use_index=True)
        ).run(selected, intervals)
        without_index, raw_stats = LocalTopKJoin(
            query, LocalJoinConfig(use_index=False)
        ).run(selected, intervals)
        assert [r.score for r in with_index] == [r.score for r in without_index]
        assert idx_stats.candidates_examined <= raw_stats.candidates_examined

    def test_missing_bucket_data_is_skipped(self, tiny_collections):
        query = build_query("Qs,m", tiny_collections, P1, k=3)
        _, selected, intervals = _prepare(query)
        # Drop the data of one vertex entirely: combinations referencing it produce nothing.
        partial = {key: value for key, value in intervals.items() if key[0] != "x2"}
        results, stats = LocalTopKJoin(query).run(selected, partial)
        assert results == []

    def test_stats_merge(self):
        from repro.core import LocalJoinStats

        a = LocalJoinStats(1, 2, 3, 4)
        b = LocalJoinStats(10, 20, 30, 40)
        a.merge(b)
        assert (a.combinations_processed, a.combinations_skipped) == (11, 22)
        assert (a.candidates_examined, a.tuples_scored) == (33, 44)


_AGGREGATIONS = {
    "sum": SumScore(),
    "weighted": WeightedSum((2.0, 0.5)),
    "min": MinScore(),
}


def _parity_query(case, collections):
    """A Table-1 query by name, ``Qb*(n=4)``, or ``Qo,m`` under another aggregation."""
    if case == "Qb*(n=4)":
        # Half of each collection: without early termination the star
        # enumerates every 4-tuple.
        halves = [IntervalCollection(c.name, list(c)[: len(c) // 2]) for c in collections]
        return build_query("Qb*", [*halves, halves[0]], P1, k=8, num_vertices=4)
    if case not in _AGGREGATIONS:
        return build_query(case, collections, P1, k=8)
    builder = QueryBuilder(name=f"Qo,m-{case}", params=P1)
    for vertex, collection in zip(("x", "y", "z"), collections):
        builder.add_collection(vertex, collection)
    return (
        builder.add_predicate("x", "y", "overlaps")
        .add_predicate("y", "z", "meets")
        .aggregate_with(_AGGREGATIONS[case])
        .top(8)
        .build()
    )


def _stats_tuple(stats):
    return (
        stats.combinations_processed,
        stats.combinations_skipped,
        stats.candidates_examined,
        stats.tuples_scored,
    )


def _shuffle_tuple(metrics):
    return (
        metrics.shuffle_records,
        metrics.shuffle_size,
        metrics.shuffle_bytes,
        metrics.counters.get("join.intervals_shuffled"),
    )


class TestKernelParity:
    """Scalar vs vector vs sweep kernel: tie-aware-identical top-k, identical counters.

    Parity is exact by construction (same candidate order, same pruning
    thresholds, bit-identical kernel floats), so the counters are compared
    with ``==`` — any drift is a real bug, not noise.
    """

    @pytest.mark.parametrize(
        "case",
        [
            "Qs,m",
            "Qb,b",
            "Qo,o",
            "Qo,m",
            "Qs,f,m",  # cyclic: two connecting edges at the last vertex
            "QjB,jB",
            "Qf,b",
            "Qb*(n=4)",
            "sum",
            "weighted",
            "min",
        ],
    )
    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_local_join_kernels_agree(
        self, tiny_collections, case, use_index, early_termination
    ):
        query = _parity_query(case, tiny_collections)
        _, selected, intervals = _prepare(query)
        outcomes = {}
        for kernel in KERNELS:
            outcomes[kernel] = LocalTopKJoin(
                query,
                LocalJoinConfig(
                    use_index=use_index,
                    early_termination=early_termination,
                    kernel=kernel,
                ),
            ).run(selected, intervals)
        scalar_results, scalar_stats = outcomes["scalar"]
        for kernel in ("vector", "sweep"):
            results, stats = outcomes[kernel]
            assert equivalent_top_k(scalar_results, results), kernel
            assert _stats_tuple(scalar_stats) == _stats_tuple(stats), kernel

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_tkij_kernels_agree_across_backends(
        self, tiny_collections, backend, early_termination
    ):
        """The kernel × backend matrix: every cell matches the serial scalar run."""
        reports = {}
        for kernel in KERNELS:
            query = build_query("Qo,m", tiny_collections, P1, k=10)
            with TKIJ(
                num_granules=4,
                cluster=ClusterConfig(backend=backend, max_workers=2),
                join_config=LocalJoinConfig(
                    early_termination=early_termination, kernel=kernel
                ),
            ) as evaluator:
                reports[kernel] = evaluator.execute(query)
        scalar = reports["scalar"]
        for kernel in ("vector", "sweep"):
            report = reports[kernel]
            assert equivalent_top_k(scalar.results, report.results), kernel
            assert _stats_tuple(scalar.local_join_stats) == _stats_tuple(
                report.local_join_stats
            ), kernel
            assert _shuffle_tuple(scalar.join_metrics) == _shuffle_tuple(
                report.join_metrics
            ), kernel
        # And the answer is the true one.
        expected = naive_top_k(build_query("Qo,m", tiny_collections, P1, k=10))
        assert equivalent_top_k(reports["sweep"].results, expected)

    @pytest.mark.parametrize("shape", ["chain", "self-join", "hybrid"])
    def test_shuffle_accounting_is_kernel_and_backend_independent(
        self, tiny_collections, shape
    ):
        """Every kernel ships the same bucket batches: records, interval volume,
        bytes, results and work counters match the serial scalar run exactly."""
        first, second, _ = tiny_collections
        if shape == "chain":
            query = build_query("Qs,m", tiny_collections, P1, k=10)
        elif shape == "self-join":
            query = build_query("Qs,m", [first, second, first], P1, k=10)
        else:
            tagged = [
                IntervalCollection(
                    collection.name,
                    [
                        Interval(x.uid, x.start, x.end, payload={"side": (x.uid + shift) % 3})
                        for x in collection
                    ],
                )
                for shift, collection in enumerate((first, second))
            ]
            query = (
                QueryBuilder(name="hybrid", params=P1)
                .add_collection("x", tagged[0])
                .add_collection("y", tagged[1])
                .add_predicate("x", "y", "before", attributes=[AttributeDiffers("side")])
                .top(10)
                .build()
            )
        outcomes = {}
        for backend in ("serial", "process"):
            for kernel in KERNELS:
                with TKIJ(
                    num_granules=4,
                    cluster=ClusterConfig(backend=backend, max_workers=2),
                    join_config=LocalJoinConfig(kernel=kernel),
                ) as evaluator:
                    outcomes[backend, kernel] = evaluator.execute(query)
        reference = outcomes["serial", "scalar"]
        metrics = reference.join_metrics
        assert metrics.shuffle_size == metrics.counters.get("join.intervals_shuffled")
        assert metrics.shuffle_records < metrics.shuffle_size  # batches, not intervals
        assert equivalent_top_k(reference.results, naive_top_k(query))
        for cell, report in outcomes.items():
            assert equivalent_top_k(reference.results, report.results), cell
            assert _stats_tuple(reference.local_join_stats) == _stats_tuple(
                report.local_join_stats
            ), cell
            assert _shuffle_tuple(metrics) == _shuffle_tuple(report.join_metrics), cell

    @pytest.mark.parametrize("kernel", ["vector", "sweep"])
    def test_initial_threshold_respected_by_columnar_kernels(
        self, tiny_collections, kernel
    ):
        """Seeding the floor prunes identically in every kernel (streaming path)."""
        query = build_query("Qb,b", tiny_collections, P1, k=5)
        _, selected, intervals = _prepare(query)
        floor = 0.6
        scalar_results, scalar_stats = LocalTopKJoin(
            query, LocalJoinConfig(kernel="scalar")
        ).run(selected, intervals, initial_threshold=floor)
        results, stats = LocalTopKJoin(
            query, LocalJoinConfig(kernel=kernel)
        ).run(selected, intervals, initial_threshold=floor)
        assert equivalent_top_k(scalar_results, results)
        assert _stats_tuple(scalar_stats) == _stats_tuple(stats)
        assert all(result.score > floor for result in results)


# Counters ``(processed, skipped, candidates, scored)`` and exact ``(uids,
# score)`` lists of fixed-seed runs, recorded from the recursive scalar walk
# that preceded the compiled one: every kernel must enumerate the same tuples,
# with the same floats, doing the same work.
GOLDEN = {
    "Qb,b": (
        (1, 74, 963, 686),
        [
            ((6, 2, 44), 1.0),
            ((6, 2, 51), 1.0),
            ((6, 5, 0), 1.0),
            ((6, 5, 10), 1.0),
            ((6, 5, 11), 1.0),
            ((6, 5, 22), 1.0),
            ((6, 5, 44), 1.0),
        ],
    ),
    "QjB,jB": (
        (1, 209, 950, 551),
        [
            ((9, 53, 10), 1.0),
            ((42, 53, 10), 1.0),
            ((54, 2, 44), 1.0),
            ((55, 25, 45), 1.0),
            ((55, 25, 69), 1.0),
            ((55, 54, 45), 1.0),
            ((79, 2, 44), 1.0),
        ],
    ),
    "Qo,m": (
        (29, 181, 5308, 1002),
        [
            ((38, 50, 59), 1.0),
            ((64, 27, 29), 0.9286610457879817),
            ((44, 34, 40), 0.9265993154088221),
            ((66, 0, 28), 0.9225541940499653),
            ((64, 32, 17), 0.9069353045328228),
            ((72, 68, 35), 0.8925011713015749),
            ((66, 31, 68), 0.7670030650999848),
        ],
    ),
    "Qs,f,m": (
        (48, 162, 41265, 265),
        [
            ((31, 73, 56), 0.6179109769616199),
            ((53, 69, 40), 0.5895676649992462),
            ((78, 57, 39), 0.5299659070293122),
            ((52, 59, 66), 0.5118003707011098),
            ((66, 0, 68), 0.5008905017119692),
            ((44, 69, 40), 0.4881687035502485),
            ((64, 27, 17), 0.47492386646350343),
        ],
    ),
    "Qf,b": (
        (14, 127, 1573, 1251),
        [
            ((36, 45, 1), 1.0),
            ((36, 45, 6), 1.0),
            ((36, 45, 20), 1.0),
            ((36, 45, 25), 1.0),
            ((36, 45, 27), 1.0),
            ((36, 45, 28), 1.0),
            ((36, 45, 47), 1.0),
        ],
    ),
    "Qs,m": (
        (32, 178, 5847, 701),
        [
            ((6, 6, 69), 0.5),
            ((6, 8, 10), 0.5),
            ((6, 53, 10), 0.5),
            ((8, 6, 69), 0.5),
            ((8, 8, 10), 0.5),
            ((8, 53, 10), 0.5),
            ((9, 6, 69), 0.5),
        ],
    ),
    "Qb*(n=4)": (
        (1, 877, 44868, 42160),
        [
            ((6, 2, 0, 0), 1.0),
            ((6, 2, 0, 3), 1.0),
            ((6, 2, 0, 19), 1.0),
            ((6, 2, 0, 31), 1.0),
            ((6, 2, 0, 35), 1.0),
            ((6, 2, 0, 37), 1.0),
            ((6, 2, 0, 39), 1.0),
        ],
    ),
    "hybrid": (
        (2, 208, 3410, 1903),
        [
            ((17, 63, 12), 1.0),
            ((17, 63, 13), 1.0),
            ((17, 63, 15), 1.0),
            ((17, 63, 18), 1.0),
            ((17, 63, 33), 1.0),
            ((17, 63, 49), 1.0),
            ((56, 23, 51), 1.0),
        ],
    ),
    "Qo,m@0.6": (
        (29, 181, 82, 10),
        [
            ((38, 50, 59), 1.0),
            ((64, 27, 29), 0.9286610457879817),
            ((44, 34, 40), 0.9265993154088221),
            ((66, 0, 28), 0.9225541940499653),
            ((64, 32, 17), 0.9069353045328228),
            ((72, 68, 35), 0.8925011713015749),
            ((66, 31, 68), 0.7670030650999848),
        ],
    ),
}


@pytest.fixture(scope="module")
def golden_collections():
    config = SyntheticConfig(size=80, start_max=8000.0, length_max=120.0, integer_endpoints=False)
    return list(generate_collections(4, config, seed=404).values())


def _golden_case(label, collections):
    """The query and score floor of one :data:`GOLDEN` entry."""
    if label == "Qb*(n=4)":
        return build_query("Qb*", collections, P1, k=7, num_vertices=4), 0.0
    if label == "Qo,m@0.6":
        return build_query("Qo,m", collections[:3], P1, k=7), 0.6
    if label != "hybrid":
        return build_query(label, collections[:3], P1, k=7), 0.0
    tagged = [
        IntervalCollection(
            collection.name,
            [
                Interval(x.uid, x.start, x.end, payload={"side": (x.uid + shift) % 3})
                for x in collection
            ],
        )
        for shift, collection in enumerate(collections[:3])
    ]
    query = (
        QueryBuilder(name="hybrid", params=P1)
        .add_collection("x", tagged[0])
        .add_collection("y", tagged[1])
        .add_collection("z", tagged[2])
        .add_predicate("x", "y", "overlaps")
        .add_predicate("y", "z", "before", attributes=[AttributeDiffers("side")])
        .top(7)
        .build()
    )
    return query, 0.0


class TestGoldenCounters:
    """Same tuples, same floats, same counters as the recorded scalar walk."""

    @pytest.mark.parametrize("label", list(GOLDEN))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_recorded_walk(self, golden_collections, label, kernel):
        query, floor = _golden_case(label, golden_collections)
        _, selected, intervals = _prepare(query, num_granules=5)
        results, stats = LocalTopKJoin(query, LocalJoinConfig(kernel=kernel)).run(
            selected, intervals, initial_threshold=floor
        )
        counters, expected = GOLDEN[label]
        assert _stats_tuple(stats) == counters
        assert [(result.uids, result.score) for result in results] == expected


_INF = float("inf")
_BOX_SIDE = st.one_of(
    st.integers(min_value=-21, max_value=33).map(float),
    st.sampled_from([-_INF, _INF]),
    st.floats(min_value=-25.0, max_value=35.0),
)


_ENDPOINTS = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=0,
    max_size=60,
)


def _bucket(endpoints):
    """Columns with duplicate starts and zero-length intervals, uids reversed."""
    starts = np.array([float(start) for start, _ in endpoints])
    ends = np.array([float(start + length) for start, length in endpoints])
    uids = np.arange(len(endpoints))[::-1].copy()
    return IntervalColumns(uids, starts, ends)


def _small_bucket():
    return IntervalColumns(
        np.arange(4),
        np.array([0.0, 1.0, 1.0, 3.0]),
        np.array([2.0, 2.0, 5.0, 9.0]),
    )


class TestSweepWindows:
    """The sweep kernel's searchsorted windows == brute-force box-mask scans."""

    @given(endpoints=_ENDPOINTS, sides=st.tuples(_BOX_SIDE, _BOX_SIDE, _BOX_SIDE, _BOX_SIDE))
    @settings(deadline=None, max_examples=300)
    def test_sweep_positions_match_box_mask(self, endpoints, sides):
        """Same candidate positions, same (insertion) order for duplicate
        starts, zero-length intervals, empty and single-row buckets, and
        infinite, boundary-equal and empty (inverted) boxes."""
        columns = _bucket(endpoints)
        box = Rect(*sides)
        expected = np.flatnonzero(box_mask(box, columns.starts, columns.ends))
        assert np.array_equal(sweep_positions(box, columns), expected)

    def test_unbounded_and_empty_boxes(self):
        columns = _small_bucket()
        everything = Rect(-_INF, _INF, -_INF, _INF)
        assert np.array_equal(sweep_positions(everything, columns), np.arange(4))
        nothing = Rect(10.0, 20.0, -_INF, _INF)
        assert len(sweep_positions(nothing, columns)) == 0


class TestScalarWindows:
    """The scalar kernel's bisected windows return the box-mask rows."""

    @given(endpoints=_ENDPOINTS, sides=st.tuples(_BOX_SIDE, _BOX_SIDE, _BOX_SIDE, _BOX_SIDE))
    @settings(deadline=None, max_examples=300)
    def test_window_rows_match_box_mask(self, endpoints, sides):
        """Same rows in the same (insertion) order, over the same buckets
        and boxes as the sweep property."""
        columns = _bucket(endpoints)
        box = Rect(*sides)
        expected = np.flatnonzero(box_mask(box, columns.starts, columns.ends))
        rows = columns.to_intervals()
        assert _window_rows(box, columns) == [rows[p] for p in expected]

    def test_unbounded_and_empty_boxes(self):
        columns = _small_bucket()
        everything = Rect(-_INF, _INF, -_INF, _INF)
        assert _window_rows(everything, columns) == columns.to_intervals()
        nothing = Rect(10.0, 20.0, -_INF, _INF)
        assert _window_rows(nothing, columns) == []
