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
from repro.index import Rect
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.query import QueryBuilder
from repro.streaming.parity import equivalent_top_k
from repro.temporal import AttributeDiffers, Interval, IntervalCollection, PredicateParams

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

    @pytest.mark.parametrize("query_name", ["Qs,m", "Qb,b", "Qo,o", "Qo,m"])
    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_local_join_kernels_agree(
        self, tiny_collections, query_name, use_index, early_termination
    ):
        query = build_query(query_name, tiny_collections, P1, k=8)
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


class TestSweepWindows:
    """The sweep kernel's searchsorted windows == brute-force box-mask scans."""

    @given(
        endpoints=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=20),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=0,
            max_size=60,
        ),
        box_edges=st.tuples(
            st.floats(min_value=-25.0, max_value=25.0),
            st.floats(min_value=-25.0, max_value=25.0),
            st.floats(min_value=-25.0, max_value=35.0),
            st.floats(min_value=-25.0, max_value=35.0),
        ),
    )
    @settings(deadline=None, max_examples=200)
    def test_sweep_positions_match_box_mask(self, endpoints, box_edges):
        """Same candidate positions, same (insertion) order — incl. duplicates."""
        starts = np.array([float(start) for start, _ in endpoints])
        ends = np.array([float(start + length) for start, length in endpoints])
        columns = IntervalColumns(np.arange(len(endpoints)), starts, ends)
        x_lo, x_hi = sorted(box_edges[:2])
        y_lo, y_hi = sorted(box_edges[2:])
        box = Rect(x_lo, x_hi, y_lo, y_hi)
        expected = np.flatnonzero(box_mask(box, columns.starts, columns.ends))
        assert np.array_equal(sweep_positions(box, columns), expected)

    def test_unbounded_and_empty_boxes(self):
        columns = IntervalColumns(
            np.arange(4),
            np.array([0.0, 1.0, 1.0, 3.0]),
            np.array([2.0, 2.0, 5.0, 9.0]),
        )
        inf = float("inf")
        everything = Rect(-inf, inf, -inf, inf)
        assert np.array_equal(sweep_positions(everything, columns), np.arange(4))
        nothing = Rect(10.0, 20.0, -inf, inf)
        assert len(sweep_positions(nothing, columns)) == 0
