"""Tests for the RTJ query graph and the fluent builder."""

import pytest

from repro.query import QueryBuilder, QueryEdge, RTJQuery
from repro.query.graph import ResultTuple
from repro.temporal import (
    AverageScore,
    Interval,
    IntervalCollection,
    MinScore,
    PredicateParams,
)
from repro.temporal.predicates import before, meets, starts

P1 = PredicateParams.of(4, 16, 0, 10)


@pytest.fixture()
def three_collections():
    c1 = IntervalCollection.from_tuples("c1", [(0, 10), (5, 20)])
    c2 = IntervalCollection.from_tuples("c2", [(10, 30), (40, 50)])
    c3 = IntervalCollection.from_tuples("c3", [(30, 60), (55, 80)])
    return c1, c2, c3


def make_query(c1, c2, c3, k=5):
    return RTJQuery(
        vertices=("x", "y", "z"),
        collections={"x": c1, "y": c2, "z": c3},
        edges=(
            QueryEdge("x", "y", meets(P1)),
            QueryEdge("y", "z", meets(P1)),
        ),
        k=k,
    )


class TestValidation:
    def test_valid_query(self, three_collections):
        query = make_query(*three_collections)
        assert query.num_vertices == 3
        assert query.num_edges == 2

    def test_default_aggregation_is_average(self, three_collections):
        query = make_query(*three_collections)
        assert isinstance(query.aggregation, AverageScore)
        assert query.aggregation.num_edges == 2

    def test_k_must_be_positive(self, three_collections):
        c1, c2, c3 = three_collections
        with pytest.raises(ValueError):
            make_query(c1, c2, c3, k=0)

    def test_self_loop_rejected(self, three_collections):
        c1, c2, c3 = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y"),
                collections={"x": c1, "y": c2},
                edges=(QueryEdge("x", "x", meets(P1)),),
            )

    def test_duplicate_edge_rejected(self, three_collections):
        c1, c2, c3 = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y"),
                collections={"x": c1, "y": c2},
                edges=(QueryEdge("x", "y", meets(P1)), QueryEdge("x", "y", before(P1))),
            )

    def test_anti_parallel_edges_rejected(self, three_collections):
        c1, c2, c3 = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y"),
                collections={"x": c1, "y": c2},
                edges=(QueryEdge("x", "y", meets(P1)), QueryEdge("y", "x", before(P1))),
            )

    def test_disconnected_graph_rejected(self, three_collections):
        c1, c2, c3 = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y", "z"),
                collections={"x": c1, "y": c2, "z": c3},
                edges=(QueryEdge("x", "y", meets(P1)),),
            )

    def test_missing_collection_rejected(self, three_collections):
        c1, c2, _ = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y", "z"),
                collections={"x": c1, "y": c2},
                edges=(QueryEdge("x", "y", meets(P1)), QueryEdge("y", "z", meets(P1))),
            )

    def test_unknown_vertex_in_edge_rejected(self, three_collections):
        c1, c2, _ = three_collections
        with pytest.raises(ValueError):
            RTJQuery(
                vertices=("x", "y"),
                collections={"x": c1, "y": c2},
                edges=(QueryEdge("x", "w", meets(P1)),),
            )

    def test_single_vertex_query_refused(self, three_collections):
        # Every score aggregates edge scores: no algorithm can answer a query
        # without an edge, so validation refuses it.
        c1, _, _ = three_collections
        with pytest.raises(ValueError, match="at least one edge"):
            RTJQuery(vertices=("x",), collections={"x": c1}, edges=(), k=1)


class TestScoring:
    def test_score_assignment_uses_aggregation(self, three_collections):
        query = make_query(*three_collections)
        assignment = {
            "x": Interval(0, 0, 10),
            "y": Interval(0, 10, 30),
            "z": Interval(0, 30, 60),
        }
        assert query.score_assignment(assignment) == pytest.approx(1.0)

    def test_score_tuple_by_uids(self, three_collections):
        query = make_query(*three_collections)
        score = query.score_tuple((0, 0, 0))
        assert score == pytest.approx(1.0)

    def test_boolean_holds(self, three_collections):
        query = make_query(*three_collections)
        good = {"x": Interval(0, 0, 10), "y": Interval(0, 10, 30), "z": Interval(0, 30, 60)}
        bad = {"x": Interval(0, 0, 10), "y": Interval(0, 12, 30), "z": Interval(0, 30, 60)}
        assert query.boolean_holds(good)
        assert not query.boolean_holds(bad)

    def test_custom_aggregation(self, three_collections):
        c1, c2, c3 = three_collections
        query = RTJQuery(
            vertices=("x", "y", "z"),
            collections={"x": c1, "y": c2, "z": c3},
            edges=(QueryEdge("x", "y", meets(P1)), QueryEdge("y", "z", before(P1))),
            aggregation=MinScore(),
        )
        assignment = {
            "x": Interval(0, 0, 10),
            "y": Interval(0, 10, 30),
            "z": Interval(0, 29, 60),
        }
        assert query.score_assignment(assignment) == 0.0


class TestStructure:
    def test_join_order_is_connected_prefixes(self, three_collections):
        query = make_query(*three_collections)
        order = query.join_order()
        assert order[0] == "x"
        assert set(order) == {"x", "y", "z"}
        for position in range(1, len(order)):
            assert query.edges_between(order[:position], order[position])

    def test_edges_between(self, three_collections):
        query = make_query(*three_collections)
        connecting = query.edges_between(["x"], "y")
        assert len(connecting) == 1
        assert connecting[0].key() == ("x", "y")

    def test_with_k(self, three_collections):
        query = make_query(*three_collections)
        assert query.with_k(42).k == 42

    def test_edge_position(self, three_collections):
        query = make_query(*three_collections)
        assert query.edge_position(query.edges[1]) == 1

    def test_result_tuple_sort_key(self):
        a = ResultTuple((1, 2), 0.9)
        b = ResultTuple((0, 1), 0.5)
        c = ResultTuple((0, 0), 0.9)
        assert sorted([a, b, c], key=lambda r: r.sort_key()) == [c, a, b]


class TestBuilder:
    def test_builder_end_to_end(self, three_collections):
        c1, c2, c3 = three_collections
        query = (
            QueryBuilder(name="Qs,m", params=P1)
            .add_collection("x1", c1)
            .add_collection("x2", c2)
            .add_collection("x3", c3)
            .add_predicate("x1", "x2", "starts")
            .add_predicate("x2", "x3", "meets")
            .top(7)
            .build()
        )
        assert query.k == 7
        assert query.name == "Qs,m"
        assert [e.predicate.name for e in query.edges] == ["starts", "meets"]

    def test_builder_accepts_predicate_objects(self, three_collections):
        c1, c2, _ = three_collections
        query = (
            QueryBuilder(params=P1)
            .add_collection("x", c1)
            .add_collection("y", c2)
            .add_predicate("x", "y", starts(P1))
            .build()
        )
        assert query.edges[0].predicate.name == "starts"

    def test_builder_duplicate_vertex_rejected(self, three_collections):
        c1, _, _ = three_collections
        builder = QueryBuilder().add_collection("x", c1)
        with pytest.raises(ValueError):
            builder.add_collection("x", c1)

    def test_builder_requires_collections_before_predicates(self, three_collections):
        c1, _, _ = three_collections
        builder = QueryBuilder().add_collection("x", c1)
        with pytest.raises(ValueError):
            builder.add_predicate("x", "y", "meets")

    def test_builder_custom_aggregation(self, three_collections):
        c1, c2, _ = three_collections
        query = (
            QueryBuilder(params=P1)
            .add_collection("x", c1)
            .add_collection("y", c2)
            .add_predicate("x", "y", "before")
            .aggregate_with(MinScore())
            .build()
        )
        assert isinstance(query.aggregation, MinScore)

    def test_builder_add_collections_mapping(self, three_collections):
        c1, c2, _ = three_collections
        query = (
            QueryBuilder(params=P1)
            .add_collections({"x": c1, "y": c2})
            .add_predicate("x", "y", "before")
            .build()
        )
        assert query.vertices == ("x", "y")
