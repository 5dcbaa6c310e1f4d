"""Tests for bucket combinations, the combination space and bound estimation."""

import itertools

import pytest

from repro.core import (
    BucketMatrix,
    DatasetStatistics,
    Granularity,
    TopBucketsSelector,
    assign,
    collect_statistics,
)
from repro.core.bounds import BoundsEstimator, BucketCombination, CombinationSpace
from repro.experiments import build_query
from repro.query.graph import QueryEdge, RTJQuery
from repro.solver import BranchAndBoundSolver
from repro.temporal import Interval, IntervalCollection, PredicateParams

P1 = PredicateParams.of(4, 16, 0, 10)


@pytest.fixture()
def small_setup():
    """Two tiny collections, statistics with 3 granules, and a meets query."""
    c1 = IntervalCollection(
        "c1", [Interval(0, 0, 8), Interval(1, 5, 20), Interval(2, 22, 29), Interval(3, 25, 28)]
    )
    c2 = IntervalCollection(
        "c2", [Interval(0, 8, 12), Interval(1, 20, 25), Interval(2, 27, 30), Interval(3, 2, 4)]
    )
    query = build_query("Qs,m", [c1, c2, c1], P1, k=3)
    statistics = collect_statistics({"c1": c1, "c2": c2}, num_granules=3)
    return query, statistics


class TestBucketCombination:
    def test_accessors(self):
        combo = BucketCombination(("x1", "x2"), ((0, 1), (1, 2)), nb_res=12)
        assert combo.bucket_of("x2") == (1, 2)
        assert combo.bucket_items() == [("x1", (0, 1)), ("x2", (1, 2))]
        assert combo.key() == (("x1", (0, 1)), ("x2", (1, 2)))

    def test_with_bounds(self):
        combo = BucketCombination(("x1",), ((0, 0),), nb_res=1)
        updated = combo.with_bounds(0.2, 0.8, [(0.2, 0.8)])
        assert updated.lower_bound == 0.2
        assert updated.upper_bound == 0.8
        assert updated.edge_bounds == ((0.2, 0.8),)
        # Original is unchanged (immutability).
        assert combo.upper_bound == 1.0


class TestCombinationSpace:
    def test_enumerate_size(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        table = BoundsEstimator(query, space).loose_table()
        expected = 1
        for vertex in query.vertices:
            expected *= len(space.buckets_of(vertex))
        assert len(table) == expected == space.size()

    def test_rows_are_in_key_order(self, small_setup):
        """Enumeration order is ascending key order — the tie-break of every walk."""
        query, statistics = small_setup
        table = BoundsEstimator(query, CombinationSpace(query, statistics)).loose_table()
        keys = [combo.key() for combo in table]
        assert keys == sorted(keys)
        assert table.rank.tolist() == list(range(len(table)))

    def test_nb_res_is_product_of_counts(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        for combo in BoundsEstimator(query, space).loose_table():
            expected = 1
            for vertex, bucket in combo.bucket_items():
                expected *= space.count(vertex, bucket)
            assert combo.nb_res == expected
            assert combo.nb_res > 0

    def test_total_results_cover_cross_product(self, small_setup):
        """Summing nb_res over all combinations covers the full cross product."""
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        total = BoundsEstimator(query, space).loose_table().total_results()
        expected = 1
        for vertex in query.vertices:
            expected *= len(query.collections[vertex])
        assert total == expected

    def test_domain_set_matches_buckets(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        combo = BoundsEstimator(query, space).loose_table()[0]
        domains = space.domain_set(combo)
        for vertex, bucket in combo.bucket_items():
            assert domains.box_of(vertex) == space.box(vertex, bucket)

    def test_nb_res_beyond_int64_stays_exact(self):
        """Counts whose product overflows int64 fall back to Python ints."""
        names = ("c1", "c2", "c3", "c4")
        collections = [IntervalCollection(name, [Interval(0, 0, 1)]) for name in names]
        query = build_query("Qb,b", collections[:3], P1, k=3)
        chain = RTJQuery(
            vertices=("x1", "x2", "x3", "x4"),
            collections=dict(zip(("x1", "x2", "x3", "x4"), collections)),
            edges=query.edges + (QueryEdge("x3", "x4", query.edges[0].predicate),),
            k=3,
        )
        granularity = Granularity(0.0, 10.0, 2)
        statistics = DatasetStatistics(
            {
                name: BucketMatrix(name, granularity, {(0, 0): 10**5, (0, 1): 10**5})
                for name in names
            },
            num_granules=2,
        )
        result = TopBucketsSelector("loose").run(chain, statistics)
        assert result.total_combinations == 16
        assert result.total_results == (2 * 10**5) ** 4
        assert all(combo.nb_res == 10**20 for combo in result.selected)
        assignment = assign("dtb", result.selected, num_reducers=3)
        assert sum(assignment.results_per_reducer().values()) == result.selected_results


class TestBoundsEstimator:
    def test_loose_bounds_bracket_actual_scores(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        for bounded in BoundsEstimator(query, space).loose_table():
            assert 0.0 <= bounded.lower_bound <= bounded.upper_bound <= 1.0
            # Every concrete tuple of this combination scores within the bounds.
            pools = []
            for vertex, bucket in bounded.bucket_items():
                matrix = statistics.matrix(query.collections[vertex].name)
                members = [
                    x
                    for x in query.collections[vertex]
                    if matrix.granularity.bucket_of(x) == bucket
                ]
                pools.append(members)
            for tuple_ in itertools.product(*pools):
                score = query.score_assignment(dict(zip(query.vertices, tuple_)))
                assert bounded.lower_bound - 1e-9 <= score <= bounded.upper_bound + 1e-9

    def test_tight_bounds_never_looser_than_loose(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space, solver=BranchAndBoundSolver(max_nodes=128))
        table = estimator.loose_table()
        for loose, tight in zip(table, estimator.tighten(table)):
            assert tight == estimator.tight_bounds(loose)
            assert tight.upper_bound <= loose.upper_bound + 1e-9
            assert tight.lower_bound >= loose.lower_bound - 1e-9
            assert tight.edge_bounds == loose.edge_bounds

    def test_precompute_all_pairs_counts(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        expected = 0
        for e, edge in enumerate(query.edges):
            lows, highs = estimator.pair_bounds(e)
            sources, targets = space.buckets_of(edge.source), space.buckets_of(edge.target)
            assert lows.shape == highs.shape == (len(sources), len(targets))
            expected += lows.size
        assert space.pair_count() == expected

    def test_edge_bounds_align_with_query_edges(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        combo = BoundsEstimator(query, space).loose_table()[0]
        assert len(combo.edge_bounds) == query.num_edges
