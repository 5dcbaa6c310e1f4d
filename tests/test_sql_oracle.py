"""Unit tests for the sqlite correctness oracle (``sql-oracle``).

The registry-wide parity probes live in test_plan.py/test_chaos_parity.py;
this file exercises the oracle's own edges: empty inputs, duplicate endpoints,
tie-heavy workloads, SQL generation, and the refusal paths (hybrid attribute
constraints, unknown aggregations, knobs).
"""

import pytest

from repro.baselines import naive_top_k
from repro.experiments import build_query
from repro.plan import ExecutionContext, get_algorithm
from repro.plan.sql_oracle import compile_query_sql
from repro.query import QueryBuilder
from repro.temporal import (
    AttributeEquals,
    Interval,
    IntervalCollection,
    MinScore,
    PredicateParams,
    SumScore,
    WeightedSum,
)
from repro.temporal.aggregation import Aggregation

P1 = PredicateParams.of(4, 16, 0, 10)


def iv(uid, start, end, **payload):
    return Interval(uid, start, end, payload=payload)


def _binary_query(left, right, k=10, aggregation=None, attributes=None):
    builder = (
        QueryBuilder(name="oracle-probe", params=P1)
        .add_collection("x", IntervalCollection("L", left))
        .add_collection("y", IntervalCollection("R", right))
        .add_predicate("x", "y", "before", attributes=attributes or [])
        .top(k)
    )
    if aggregation is not None:
        builder = builder.aggregate_with(aggregation)
    return builder.build()


def _run(query):
    with ExecutionContext() as context:
        return get_algorithm("sql-oracle").run(query, context)


def _assert_matches_naive(query):
    report = _run(query)
    expected = naive_top_k(query)
    assert len(report.results) == len(expected)
    for got, want in zip(report.results, expected):
        assert got.score == want.score  # bit-identical, not just approximate
    return report


class TestOracleEdgeCases:
    def test_empty_collections_produce_empty_results(self):
        query = _binary_query([], [], k=5)
        report = _run(query)
        assert report.results == []

    def test_one_empty_side_produces_empty_results(self):
        query = _binary_query([iv(0, 0.0, 5.0)], [], k=5)
        assert _run(query).results == []

    def test_duplicate_endpoints(self):
        """Many intervals sharing endpoints: ties broken by uid, same as naive."""
        left = [iv(uid, 10.0, 20.0) for uid in range(6)]
        right = [iv(uid, 30.0, 40.0) for uid in range(6)] + [iv(6, 30.0, 41.0)]
        query = _binary_query(left, right, k=12)
        report = _assert_matches_naive(query)
        assert len(report.results) == 12

    def test_zero_length_intervals(self):
        left = [iv(0, 5.0, 5.0), iv(1, 5.0, 5.0)]
        right = [iv(0, 9.0, 9.0), iv(1, 12.0, 12.0)]
        _assert_matches_naive(_binary_query(left, right, k=4))

    def test_self_join_same_collection(self):
        """Two vertices bound to the same collection alias one table twice."""
        shared = IntervalCollection(
            "S", [iv(uid, float(uid) * 7.0, float(uid) * 7.0 + 3.0) for uid in range(8)]
        )
        query = (
            QueryBuilder(name="self", params=P1)
            .add_collection("x", shared)
            .add_collection("y", shared)
            .add_predicate("x", "y", "before")
            .top(10)
            .build()
        )
        _assert_matches_naive(query)

    @pytest.mark.parametrize("query_name", ["Qs,m", "Qb,b", "Qo,o", "Qo,m"])
    def test_parity_on_shared_collections(self, tiny_collections, query_name):
        _assert_matches_naive(build_query(query_name, tiny_collections, P1, k=8))

    @pytest.mark.parametrize(
        "aggregation", [SumScore(), MinScore(), WeightedSum((0.25, 0.75))]
    )
    def test_non_default_aggregations(self, aggregation):
        left = [iv(uid, float(uid), float(uid) + 4.0) for uid in range(10)]
        mid = [iv(uid, float(uid) + 9.0, float(uid) + 15.0) for uid in range(10)]
        right = [iv(uid, float(uid) + 11.0, float(uid) + 18.0) for uid in range(10)]
        query = (
            QueryBuilder(name="agg", params=P1)
            .add_collection("x", IntervalCollection("L", left))
            .add_collection("y", IntervalCollection("M", mid))
            .add_collection("z", IntervalCollection("R", right))
            .add_predicate("x", "y", "before")
            .add_predicate("y", "z", "overlaps")
            .aggregate_with(aggregation)
            .top(6)
            .build()
        )
        _assert_matches_naive(query)


class _OpaqueAggregation(Aggregation):
    def combine(self, scores):
        return max(scores)

    def residual_threshold(self, target, edge_index, estimates):
        return 0.0


class TestOracleRefusals:
    def test_hybrid_attribute_constraints_are_refused(self):
        left = [iv(0, 0.0, 5.0, country="FR")]
        right = [iv(0, 20.0, 25.0, country="FR")]
        query = _binary_query(left, right, attributes=[AttributeEquals("country")])
        with ExecutionContext() as context:
            with pytest.raises(NotImplementedError, match="attribute constraints"):
                get_algorithm("sql-oracle").plan(query, context)

    def test_unknown_aggregation_is_refused(self):
        query = _binary_query(
            [iv(0, 0.0, 5.0)], [iv(0, 20.0, 25.0)], aggregation=_OpaqueAggregation()
        )
        with ExecutionContext() as context:
            with pytest.raises(NotImplementedError, match="no SQL form"):
                get_algorithm("sql-oracle").plan(query, context)

    def test_knobs_are_rejected(self):
        query = _binary_query([iv(0, 0.0, 5.0)], [iv(0, 20.0, 25.0)])
        with ExecutionContext() as context:
            with pytest.raises(ValueError, match="no knobs"):
                get_algorithm("sql-oracle").plan(query, context, kernel="sweep")


class TestSQLGeneration:
    def test_sql_shape(self):
        query = _binary_query([iv(0, 0.0, 5.0)], [iv(0, 20.0, 25.0)], k=7)
        sql = compile_query_sql(query, {"L": "c0", "R": "c1"})
        assert sql.startswith("SELECT v0.uid, v1.uid,")
        assert "FROM c0 AS v0, c1 AS v1" in sql
        assert sql.endswith("ORDER BY score DESC, v0.uid ASC, v1.uid ASC LIMIT 7")

    def test_report_phases(self):
        report = _run(_binary_query([iv(0, 0.0, 5.0)], [iv(0, 20.0, 25.0)]))
        assert set(report.phase_seconds) == {"load", "join"}
        assert report.total_seconds >= 0.0
