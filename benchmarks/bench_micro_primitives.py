"""Micro-benchmarks of the substrate primitives (timed with real pytest-benchmark rounds).

These are not paper figures; they document the per-operation costs that the
laptop-scale experiment parameters are derived from: predicate scoring, R-tree
threshold lookups, pairwise bound computation, and joint branch-and-bound bounds.
"""

import numpy as np

from repro.columnar import score_range_v
from repro.index import CompiledPredicateQuery, ThresholdIndex
from repro.solver import AggregateObjective, BranchAndBoundSolver, DomainSet, EdgeObjective, VariableBox
from repro.temporal import AverageScore, Interval, PredicateParams
from repro.temporal.predicates import meets, overlaps, starts

P1 = PredicateParams.of(4, 16, 0, 10)


def _intervals(n, seed=0):
    rng = np.random.default_rng(seed)
    starts_arr = rng.uniform(0, 10_000, n)
    lengths = rng.uniform(1, 100, n)
    return [
        Interval(i, float(s), float(s + l)) for i, (s, l) in enumerate(zip(starts_arr, lengths))
    ]


def bench_predicate_scoring_compiled(benchmark):
    scorer = overlaps(P1).compile()
    xs = _intervals(200, seed=1)
    ys = _intervals(200, seed=2)

    def run():
        total = 0.0
        for x in xs[:100]:
            for y in ys[:100]:
                total += scorer(x, y)
        return total

    benchmark(run)


def bench_rtree_threshold_lookup(benchmark):
    pool = _intervals(5_000, seed=3)
    index = ThresholdIndex.build(pool)
    predicate = meets(P1).rename("x", "y")
    compiled = CompiledPredicateQuery(predicate, "x", "y")
    probes = _intervals(200, seed=4)

    def run():
        found = 0
        for probe in probes:
            found += len(index.candidates_compiled(compiled, probe, 0.5))
        return found

    benchmark(run)


def _pair_boxes():
    """The 20 boxes each side of the pairwise-bounds arms draws its 400 pairs from."""
    return [VariableBox(i * 10.0, i * 10.0 + 50.0, i * 10.0, i * 10.0 + 120.0) for i in range(20)]


def bench_pairwise_bounds(benchmark):
    """Scalar arm: one ``score_range`` call per box pair (what the solver still pays)."""
    objective = EdgeObjective.from_edge("x", "y", starts(P1))
    boxes = [
        DomainSet.from_mapping({"x": x_box, "y": y_box})
        for x_box in _pair_boxes()
        for y_box in _pair_boxes()
    ]

    def run():
        total = 0.0
        for domains in boxes:
            lo, hi = objective.score_range(domains.endpoint_domains())
            total += hi - lo
        return total

    benchmark(run)


def bench_pairwise_bounds_vectorised(benchmark):
    """Vector arm: the same 400 pairs in one broadcast (what a query's phase (b) pays)."""
    objective = EdgeObjective.from_edge("x", "y", starts(P1))
    boxes = _pair_boxes()
    sides = np.array([(b.start_low, b.start_high, b.end_low, b.end_high) for b in boxes]).T
    pairs = {"x": sides[:, :, None], "y": sides[:, None, :]}

    def run():
        lo, hi = score_range_v(objective.predicate, pairs)
        return float((hi - lo).sum())

    benchmark(run)


def bench_joint_branch_and_bound(benchmark):
    objective = AggregateObjective(
        edges=(
            EdgeObjective.from_edge("x", "y", starts(P1)),
            EdgeObjective.from_edge("y", "z", meets(P1)),
        ),
        aggregation=AverageScore(num_edges=2),
    )
    domains = DomainSet.from_mapping(
        {
            "x": VariableBox(0, 100, 0, 200),
            "y": VariableBox(50, 150, 100, 300),
            "z": VariableBox(200, 300, 250, 400),
        }
    )
    solver = BranchAndBoundSolver(max_nodes=64)

    benchmark(lambda: solver.bounds(objective, domains))
