"""Parity of the columnar phases (b)+(c) with the per-object implementations.

``CombinationTable`` replaced lists of ``BucketCombination`` objects from the
bounds code to the reducers.  The contract is *bit for bit*: same floats, same
selection in the same order, same per-reducer lists and bucket sets.  The
object implementations of Algorithms 1, 3 and 4 (and of the loose bounds) live
on here as the references the table code is compared against.
"""

from __future__ import annotations

import itertools
import pickle
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import score_range_v
from repro.core import (
    BoundsEstimator,
    BucketCombination,
    CombinationSpace,
    CombinationTable,
    FilteredDistributeOp,
    TopBucketsSelector,
    assign,
    collect_statistics,
    distribute_top_buckets,
    get_top_buckets,
    lpt_assignment,
    round_robin_assignment,
)
from repro.experiments import PARAMETERS, build_query
from repro.query import QueryBuilder
from repro.solver import BranchAndBoundSolver, DomainSet, EdgeObjective
from repro.temporal import ALLEN_PREDICATES, Interval, IntervalCollection, predicate_by_name
from repro.temporal.attributes import AttributeDiffers
from repro.temporal.terms import EndpointVar

_SETTINGS = settings(max_examples=60, deadline=None)


# ------------------------------------------------------- reference: Algorithm 1
def reference_get_top_buckets(combinations, k):
    combos = [c for c in combinations if c.nb_res > 0]
    if not combos:
        return []
    by_lower = sorted(combos, key=lambda c: (-c.lower_bound, c.key()))
    collected = 0
    kth_res_lb = by_lower[-1].lower_bound
    for combo in by_lower:
        collected += combo.nb_res
        kth_res_lb = combo.lower_bound
        if collected >= k:
            break
    by_upper = sorted(combos, key=lambda c: (-c.upper_bound, c.key()))
    selected = []
    collected = 0
    for combo in by_upper:
        if collected >= k and combo.upper_bound < kth_res_lb:
            break
        selected.append(combo)
        collected += combo.nb_res
    return selected


# -------------------------------------------------- reference: Algorithms 3 and 4
class ReferenceAssignment:
    def __init__(self, num_reducers):
        self.combinations = {reducer: [] for reducer in range(num_reducers)}
        self.buckets = {reducer: set() for reducer in range(num_reducers)}

    def assign(self, combination, reducer):
        self.combinations[reducer].append(combination)
        self.buckets[reducer].update(combination.bucket_items())


def reference_dtb(combinations, num_reducers):
    assignment = ReferenceAssignment(num_reducers)
    ordered = sorted(combinations, key=lambda c: (-c.upper_bound, c.key()))
    avg_results = sum(c.nb_res for c in ordered) / num_reducers
    results_assigned = {reducer: 0 for reducer in range(num_reducers)}
    for combination in ordered:
        reducer = _reference_get_reducer(combination, assignment, results_assigned, avg_results)
        assignment.assign(combination, reducer)
        results_assigned[reducer] += combination.nb_res
    return assignment


def _reference_get_reducer(combination, assignment, results_assigned, avg_results):
    cap = 2.0 * avg_results
    candidates = [r for r in results_assigned if results_assigned[r] < cap or cap == 0.0]
    if not candidates:
        candidates = list(results_assigned)
    min_combos = min(len(assignment.combinations[r]) for r in candidates)
    tied = [r for r in candidates if len(assignment.combinations[r]) == min_combos]
    best_reducer, best_cost = tied[0], None
    for reducer in tied:
        held = assignment.buckets[reducer]
        cost = sum(1 for item in combination.bucket_items() if item not in held)
        if best_cost is None or cost < best_cost:
            best_cost, best_reducer = cost, reducer
    return best_reducer


def reference_lpt(combinations, num_reducers):
    assignment = ReferenceAssignment(num_reducers)
    load = {reducer: 0 for reducer in range(num_reducers)}
    for combination in sorted(combinations, key=lambda c: (-c.nb_res, c.key())):
        reducer = min(load, key=lambda r: (load[r], r))
        assignment.assign(combination, reducer)
        load[reducer] += combination.nb_res
    return assignment


def reference_round_robin(combinations, num_reducers):
    assignment = ReferenceAssignment(num_reducers)
    for index, combination in enumerate(combinations):
        assignment.assign(combination, index % num_reducers)
    return assignment


ASSIGNER_PAIRS = [
    (distribute_top_buckets, reference_dtb),
    (lpt_assignment, reference_lpt),
    (round_robin_assignment, reference_round_robin),
]


def assert_same_assignment(actual, reference):
    assert {r: list(c) for r, c in actual.combinations_per_reducer.items()} == (
        reference.combinations
    )
    assert actual.buckets_per_reducer == reference.buckets


# ------------------------------------------------ reference: loose bounds, selector
def reference_loose_combinations(query, space):
    """Per-object enumeration and bounding, through the scalar ``score_range``."""
    objectives = [
        EdgeObjective.from_edge(edge.source, edge.target, edge.predicate) for edge in query.edges
    ]
    combos = []
    for buckets in itertools.product(*(space.buckets_of(v) for v in query.vertices)):
        chosen = dict(zip(query.vertices, buckets))
        nb_res = 1
        for vertex, bucket in chosen.items():
            nb_res *= space.count(vertex, bucket)
        edge_bounds = []
        for edge, objective in zip(query.edges, objectives):
            domains = DomainSet.from_mapping(
                {
                    edge.source: space.box(edge.source, chosen[edge.source]),
                    edge.target: space.box(edge.target, chosen[edge.target]),
                }
            )
            edge_bounds.append(objective.score_range(domains.endpoint_domains()))
        combos.append(
            BucketCombination(
                query.vertices,
                tuple(buckets),
                nb_res,
                query.aggregation.lower_bound([b[0] for b in edge_bounds]),
                query.aggregation.upper_bound([b[1] for b in edge_bounds]),
                tuple(edge_bounds),
            )
        )
    return combos


def reference_select(query, statistics, strategy, solver):
    space = CombinationSpace(query, statistics)
    estimator = BoundsEstimator(query, space, solver=solver)
    combos = reference_loose_combinations(query, space)
    if query.has_attribute_constraints:
        return combos
    if strategy == "two-phase":
        combos = reference_get_top_buckets(combos, query.k)
    if strategy != "loose":
        combos = [estimator.tight_bounds(c) for c in combos]
    return reference_get_top_buckets(combos, query.k)


# ------------------------------------------------------------ (i) pair bounds
def _boxes(rng, count):
    """``(count, 4)`` start-low/start-high/end-low/end-high rows, a third degenerate."""
    low = rng.uniform(-10.0, 50.0, count)
    width = (rng.integers(0, 3, count) > 0) * rng.uniform(0.0, 9.0, count)  # a third zero-width
    end_low = low + (rng.integers(0, 3, count) > 0) * rng.uniform(0.0, 25.0, count)
    boxes = np.stack([low, low + width, end_low, end_low + width], axis=1)
    boxes[0] = boxes[-1]  # identical boxes on both sides once the sides are paired
    boxes[1, 0] = -1e6  # border-widened outer edges
    boxes[2, 3] = 1e6
    return boxes


PREDICATE_NAMES = [*ALLEN_PREDICATES, "justBefore", "shiftMeets", "sparks"]


@pytest.mark.parametrize("params_name", ["P1", "P2", "P3", "PB"])
@pytest.mark.parametrize("predicate_name", PREDICATE_NAMES)
@pytest.mark.parametrize("source,target", [("x1", "x2"), ("x2", "x1")])
def test_vectorised_pair_bounds_equal_scalar_score_range(
    predicate_name, params_name, source, target
):
    """``==``, not ``approx``: pruning compares these floats against thresholds."""
    predicate = predicate_by_name(predicate_name, PARAMETERS[params_name], avg_length=17.5)
    objective = EdgeObjective.from_edge(source, target, predicate)
    rng = np.random.default_rng(len(predicate_name) * 7 + len(params_name))
    left, right = _boxes(rng, 9), _boxes(rng, 9)
    right[0] = left[0]
    shape = (len(left), len(right))
    lows, highs = score_range_v(
        objective.predicate, {source: left.T[:, :, None], target: right.T[:, None, :]}
    )
    assert lows.shape == highs.shape == shape
    for i, j in itertools.product(range(shape[0]), range(shape[1])):
        scalar = objective.score_range(
            {
                EndpointVar(source, "start"): (left[i, 0], left[i, 1]),
                EndpointVar(source, "end"): (left[i, 2], left[i, 3]),
                EndpointVar(target, "start"): (right[j, 0], right[j, 1]),
                EndpointVar(target, "end"): (right[j, 2], right[j, 3]),
            }
        )
        assert (lows[i, j], highs[i, j]) == scalar


# -------------------------------------------- (ii) Algorithm 1 and the assigners
combo_strategy = st.builds(
    lambda first, second, nb_res, lower, spread: BucketCombination(
        ("x1", "x2"),
        ((first, first), (second, second + 1)),
        nb_res=nb_res,
        lower_bound=lower / 4,
        upper_bound=min(4, lower + spread) / 4,
    ),
    first=st.integers(0, 4),
    second=st.integers(0, 4),
    # Zero and huge counts: empty combinations, and skew that trips the 2*avg cap.
    nb_res=st.sampled_from([0, 1, 1, 2, 3, 50, 10**6]),
    # Bounds on a grid of five values: ties everywhere.
    lower=st.integers(0, 4),
    spread=st.integers(0, 4),
)
combos_strategy = st.lists(combo_strategy, max_size=40).map(
    lambda combos: list({c.key(): c for c in combos}.values())
)


class TestAlgorithmParity:
    @_SETTINGS
    @given(combos=combos_strategy, k=st.sampled_from([1, 2, 5, 60, 10**7]))
    @example(combos=[], k=3)
    @example(combos=[BucketCombination(("x1",), ((0, 0),), 10**9, 0.0, 1.0)], k=1)
    def test_get_top_buckets_matches_reference(self, combos, k):
        selected = get_top_buckets(combos, k)
        assert isinstance(selected, CombinationTable)
        assert list(selected) == reference_get_top_buckets(combos, k)
        # Selecting from a table gives what selecting from the objects gives.
        assert list(get_top_buckets(CombinationTable.of(combos), k)) == list(selected)

    @_SETTINGS
    @given(combos=combos_strategy, num_reducers=st.integers(1, 6), seed=st.integers(0, 9))
    @example(combos=[], num_reducers=3, seed=0)
    @example(
        combos=[
            BucketCombination(("x1", "x2"), ((0, 0), (1, 1)), 10**9, 0.0, 1.0),
            BucketCombination(("x1", "x2"), ((0, 0), (2, 2)), 1, 0.0, 1.0),
            BucketCombination(("x1", "x2"), ((1, 1), (2, 2)), 1, 0.0, 0.5),
        ],
        num_reducers=2,
        seed=1,
    )
    def test_assigners_match_reference(self, combos, num_reducers, seed):
        # A shuffled slice of a table: the key-order tie-break must survive take().
        rows = np.random.default_rng(seed).permutation(len(combos))
        shuffled = [combos[row] for row in rows]
        table = CombinationTable.of(combos).take(rows)
        assert list(table) == shuffled
        for assigner, reference in ASSIGNER_PAIRS:
            expected = reference(shuffled, num_reducers)
            assert_same_assignment(assigner(shuffled, num_reducers), expected)
            assert_same_assignment(assigner(table, num_reducers), expected)

    def test_selection_order_feeds_the_assigners_unchanged(self):
        """The selection is already in (-upper, key) order: DTB's walk is the identity."""
        combos = [
            BucketCombination(("x",), ((i, i),), nb_res=1 + i % 3, upper_bound=(i % 4) / 4)
            for i in range(20)
        ]
        selected = get_top_buckets(combos, k=10**6)
        assert selected.descending(selected.upper).tolist() == list(range(len(selected)))


# ------------------------------------------------ (iii) strategies on real queries
def _country(uid, start, end, country):
    return Interval(uid, start, end, payload={"country": country})


@pytest.fixture(scope="module")
def parity_queries(tiny_collections):
    first, second, third = tiny_collections
    rng = np.random.default_rng(3)
    tagged = [
        IntervalCollection(
            name,
            [
                _country(uid, float(start), float(start + length), "FR" if uid % 2 else "DE")
                for uid, (start, length) in enumerate(
                    zip(rng.uniform(0, 500, 30), rng.uniform(1, 40, 30))
                )
            ],
        )
        for name in ("A", "B")
    ]
    hybrid = (
        QueryBuilder(name="hybrid", params=PARAMETERS["P1"])
        .add_collection("x", tagged[0])
        .add_collection("y", tagged[1])
        .add_predicate("x", "y", "before", attributes=[AttributeDiffers("country")])
        .top(7)
        .build()
    )
    return {
        "chain": build_query("Qo,m", tiny_collections, "P1", k=9),
        "cycle": build_query("Qs,f,m", tiny_collections, "P2", k=9),
        "extended": build_query("QjB,jB", tiny_collections, "P3", k=9),
        "self-join": build_query("Qs,m", [first, second, first], "P1", k=9),
        "boolean": build_query("Qb,b", [first, second, third], "PB", k=9),
        "hybrid": hybrid,
    }


@pytest.mark.parametrize("strategy", ["loose", "two-phase", "brute-force"])
@pytest.mark.parametrize(
    "query_name", ["chain", "cycle", "extended", "self-join", "boolean", "hybrid"]
)
def test_strategies_select_what_the_object_pipeline_selected(
    parity_queries, query_name, strategy
):
    query = parity_queries[query_name]
    collections = {query.collections[v].name: query.collections[v] for v in query.vertices}
    # Joint bounds cost a solver run per combination: keep those spaces small.
    statistics = collect_statistics(collections, num_granules=6 if strategy == "loose" else 3)
    solver = BranchAndBoundSolver(max_nodes=64)
    result = TopBucketsSelector(strategy, solver).run(query, statistics)
    expected = reference_select(query, statistics, strategy, solver)
    assert list(result.selected) == expected
    assert result.selected_results == sum(c.nb_res for c in expected)
    assert isinstance(result.total_results, int) and isinstance(result.selected_results, int)
    for assigner, reference in ASSIGNER_PAIRS:
        assert_same_assignment(assigner(result.selected, 4), reference(expected, 4))


# ------------------------------------------------------------- (iv) the shuffle
def test_assignment_pickles_as_columns(tiny_collections):
    query = build_query("Qo,m", tiny_collections, "P1", k=9)
    statistics = collect_statistics({c.name: c for c in tiny_collections}, num_granules=6)
    selected = TopBucketsSelector("loose").run(query, statistics).selected
    assignment = assign("dtb", selected, num_reducers=4)
    blob = pickle.dumps(assignment)
    assert b"BucketCombination" not in blob
    assert b"numpy" in blob
    restored = pickle.loads(blob)
    assert restored == assignment
    assert sum(len(c) for c in restored.combinations_per_reducer.values()) == len(selected)


def test_filtered_distribute_op_annotations_resolve():
    hints = typing.get_type_hints(FilteredDistributeOp)
    assert "keep" in hints
