"""End-to-end integration tests: TKIJ against the naive oracle."""

import numpy as np
import pytest

from repro import TKIJ, ClusterConfig, LocalJoinConfig
from repro.baselines import naive_top_k
from repro.core import (
    FilteredDistributeOp,
    PhaseState,
    collect_statistics_mapreduce,
    collections_by_name,
    run_pipeline,
)
from repro.experiments import PARAMETERS, build_query
from repro.plan import ExecutionContext, get_algorithm
from repro.solver import BranchAndBoundSolver


def run_tkij(query, cluster=ClusterConfig(num_reducers=4, num_mappers=2), **knobs):
    """Evaluate ``query`` through the registry; returns the TKIJ report."""
    with ExecutionContext(cluster=cluster) as context:
        return get_algorithm("tkij").run(query, context, **{"num_granules": 4, **knobs}).raw


def assert_matches_naive(result, query):
    expected = naive_top_k(query)
    got_scores = [round(r.score, 9) for r in result.results]
    expected_scores = [round(r.score, 9) for r in expected]
    assert got_scores == expected_scores


class TestCorrectnessAcrossQueries:
    @pytest.mark.parametrize(
        "query_name",
        ["Qb,b", "Qo,o", "Qf,f", "Qs,s", "Qs,m", "Qo,m", "Qf,b", "Qs,f,m", "QjB,jB", "QsM,sM"],
    )
    def test_all_table1_queries(self, tiny_collections, query_name):
        query = build_query(query_name, tiny_collections, "P1", k=10)
        result = run_tkij(query)
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("params_name", ["P1", "P2", "P3", "PB"])
    def test_all_parameter_sets(self, tiny_collections, params_name):
        query = build_query("Qo,m", tiny_collections, params_name, k=8)
        result = run_tkij(query)
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("strategy", ["loose", "two-phase", "brute-force"])
    def test_all_strategies(self, tiny_collections, strategy):
        query = build_query("Qs,m", tiny_collections, "P1", k=8)
        result = run_tkij(query, strategy=strategy, solver=BranchAndBoundSolver(max_nodes=32))
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("assigner", ["dtb", "lpt", "round-robin"])
    def test_all_assigners(self, tiny_collections, assigner):
        query = build_query("Qo,o", tiny_collections, "P1", k=8)
        result = run_tkij(query, assigner=assigner)
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_various_k(self, tiny_collections, k):
        query = build_query("Qf,b", tiny_collections, "P1", k=k)
        result = run_tkij(query)
        assert_matches_naive(result, query)
        assert len(result.results) == k

    def test_binary_query(self, pair_collections):
        from repro.query import QueryBuilder

        query = (
            QueryBuilder(name="meets2", params=PARAMETERS["P1"])
            .add_collection("x", pair_collections[0])
            .add_collection("y", pair_collections[1])
            .add_predicate("x", "y", "meets")
            .top(12)
            .build()
        )
        result = run_tkij(query, num_granules=6)
        assert_matches_naive(result, query)

    def test_star_query_four_vertices(self, tiny_collections):
        from repro.experiments import star_spec

        spec = star_spec("Qb*", 4)
        collections = tiny_collections + [tiny_collections[0]]
        query = spec.build(collections, PARAMETERS["P1"], k=6)
        result = run_tkij(query, num_granules=3)
        assert_matches_naive(result, query)

    def test_cycle_query(self, tiny_collections):
        query = build_query("Qs,f,m", tiny_collections, "P1", k=6)
        result = run_tkij(query, num_granules=3)
        assert_matches_naive(result, query)

    def test_disabled_optimizations_still_exact(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=10)
        result = run_tkij(
            query, join_config=LocalJoinConfig(use_index=False, early_termination=False)
        )
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("num_granules", [1, 2, 8, 16])
    def test_granularity_does_not_affect_results(self, tiny_collections, num_granules):
        query = build_query("Qs,m", tiny_collections, "P1", k=10)
        result = run_tkij(query, num_granules=num_granules)
        assert_matches_naive(result, query)

    @pytest.mark.parametrize("num_reducers", [1, 3, 16])
    def test_reducer_count_does_not_affect_results(self, tiny_collections, num_reducers):
        query = build_query("Qo,o", tiny_collections, "P1", k=10)
        result = run_tkij(query, cluster=ClusterConfig(num_reducers=num_reducers, num_mappers=2))
        assert_matches_naive(result, query)


class TestExecutionReport:
    def test_report_structure(self, qsm_query):
        result = run_tkij(qsm_query)
        assert set(result.phase_seconds) == {
            "statistics",
            "top_buckets",
            "distribution",
            "join",
            "merge",
        }
        assert result.total_seconds > 0
        assert result.top_buckets.selected_count > 0
        assert result.join_metrics.shuffle_records > 0
        summary = result.describe()
        assert "seconds_total" in summary
        assert "pruned_results_fraction" in summary
        assert "min_kth_score" in summary

    def test_statistics_reuse(self, qsm_query):
        tkij = TKIJ(num_granules=4, cluster=ClusterConfig(num_reducers=4))
        collections = {
            qsm_query.collections[v].name: qsm_query.collections[v] for v in qsm_query.vertices
        }
        statistics = tkij.collect_statistics(collections)
        first = tkij.execute(qsm_query, statistics=statistics)
        second = tkij.execute(qsm_query, statistics=statistics)
        assert [r.score for r in first.results] == [r.score for r in second.results]

    def test_statistics_via_mapreduce(self, qsm_query):
        tkij = TKIJ(num_granules=4, cluster=ClusterConfig(num_reducers=4))
        statistics = collect_statistics_mapreduce(
            collections_by_name(qsm_query), tkij.num_granules, tkij.engine
        )
        result = tkij.execute(qsm_query, statistics=statistics)
        assert_matches_naive(result, qsm_query)

    def test_join_ships_only_assigned_buckets(self, qbb_query):
        # A one-shot run whose assignment covers only the best few combinations.
        tkij = TKIJ(num_granules=4, cluster=ClusterConfig(num_reducers=4, num_mappers=2))
        state = PhaseState(query=qbb_query, engine=tkij.engine, num_reducers=4)
        operators = tkij.operators()
        operators[2] = FilteredDistributeOp(
            tkij.assigner, keep=lambda table: np.arange(len(table)) < 3
        )
        run_pipeline(operators, state)
        counts = {
            (vertex, bucket): count
            for vertex in qbb_query.vertices
            for bucket, count in state.statistics.matrix(qbb_query.collections[vertex].name)
        }
        assigned = set().union(*state.assignment.buckets_per_reducer.values())
        shipped = sum(counts[item] for item in assigned)
        assert 0 < shipped < sum(counts.values())
        assert state.pruning["intervals_skipped"] == sum(counts.values()) - shipped
        # One map record per assigned bucket; the shuffle is its replication.
        metrics = state.join_metrics
        assert sum(task.input_records for task in metrics.map_tasks) == len(assigned)
        assert metrics.shuffle_size == state.assignment.replication_cost(counts)

    def test_per_reducer_kth_scores(self, qbb_query):
        result = run_tkij(qbb_query)
        assert result.per_reducer_kth_score
        assert 0.0 <= result.min_kth_score <= 1.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            TKIJ(strategy="nope")
        with pytest.raises(ValueError):
            TKIJ(assigner="nope")
