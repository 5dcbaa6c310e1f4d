"""Micro-benchmarks of the substrate primitives (timed with real pytest-benchmark rounds).

These are not paper figures; they document the per-operation costs that the
laptop-scale experiment parameters are derived from: predicate scoring, the
kernels' threshold box -> candidate rows resolvers, pairwise bound computation,
and joint branch-and-bound bounds.
"""

import time

import numpy as np

from repro.columnar import IntervalColumns, score_range_v, sweep_positions
from repro.core import (
    KERNELS,
    BoundsEstimator,
    CombinationSpace,
    LocalJoinConfig,
    LocalTopKJoin,
    assign,
    collect_statistics,
    get_top_buckets,
)
from repro.core.local_join import _mask_positions, _window_rows
from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.index import CompiledPredicateQuery
from repro.solver import AggregateObjective, BranchAndBoundSolver, DomainSet, EdgeObjective, VariableBox
from repro.temporal import AverageScore, Interval, IntervalCollection, PredicateParams
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


def bench_box_resolvers(benchmark):
    """The three kernels' threshold box -> candidate rows resolvers on the same
    boxes over one bucket: the scalar kernel's bisected window, the vector
    kernel's full-column mask and the sweep kernel's searchsorted window.
    They must return the same rows; ``extra_info`` holds each arm's seconds."""
    columns = IntervalColumns.from_intervals(_intervals(5_000, seed=3))
    compiled = CompiledPredicateQuery(meets(P1).rename("x", "y"), "x", "y")
    boxes = [compiled.box(probe, 0.5) for probe in _intervals(200, seed=4)]
    resolvers = {
        "scalar": lambda box: [row.uid for row in _window_rows(box, columns)],
        "vector": lambda box: columns.uids[_mask_positions(box, columns)].tolist(),
        "sweep": lambda box: columns.uids[sweep_positions(box, columns)].tolist(),
    }
    answers = {name: [resolve(box) for box in boxes] for name, resolve in resolvers.items()}
    assert answers["scalar"] == answers["vector"] == answers["sweep"]
    assert any(answers["scalar"])

    def run():
        return {
            name: _best_of(lambda: [resolve(box) for box in boxes])[0]
            for name, resolve in resolvers.items()
        }

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, reading in seconds.items():
        print(f"resolver {name} = {reading:.3g}")
    benchmark.extra_info.update(seconds)


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


# ----------------------------------------------------------------- unit costs
# The arms below measure the constants of ``repro.plan.planner.UNIT_COSTS``: what
# one bucket combination costs phases (b) and (c), what one extension step /
# examined candidate costs each local-join kernel, and what the kernels pay around
# their candidate loops.  Each arm prints its readings as
# ``unit <name> = <seconds>`` — the names the planner's table cites — and stores
# them in ``extra_info``.  The planner relies on the ratios between readings, not
# on this host's absolute speed.

UNIT_ROUNDS = 5
KERNEL_LENGTHS = (8, 64, 512)
SCAN_LENGTH = 32_768


def _best_of(function, rounds=UNIT_ROUNDS):
    """Minimum wall clock of ``function`` over ``rounds`` calls (and its last result)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def _report(benchmark, run):
    units = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, seconds in units.items():
        print(f"unit {name} = {seconds:.3g}")
    benchmark.extra_info.update(units)


def _uniform(count, size, start_max, seed):
    """The paper's uniform workload (integer starts, lengths 1-100)."""
    config = SyntheticConfig(size=size, start_max=start_max)
    return list(generate_collections(count, config, seed=seed).values())


def _table1_estimator(shape, granules):
    collections = _uniform(3, 200, 100_000.0, seed=5)
    query = build_query(shape, collections, "P1", k=20)
    statistics = collect_statistics({c.name: c for c in collections}, granules)
    return query, BoundsEstimator(query, CombinationSpace(query, statistics))


def bench_unit_bounds_and_dtb(benchmark):
    """Phases (b)+(c) per combination: the vectorised loose table with Algorithm 1,
    and DTB (Algorithms 3-4) over the selected rows."""
    query, estimator = _table1_estimator("Qo,m", granules=20)

    def run():
        loose_seconds, table = _best_of(estimator.loose_table)
        select_seconds, selected = _best_of(lambda: get_top_buckets(table, query.k))
        dtb_seconds, _ = _best_of(lambda: assign("dtb", selected, 8))
        return {
            "loose_per_combination": (loose_seconds + select_seconds) / len(table),
            "dtb_per_combination": dtb_seconds / len(selected),
        }

    _report(benchmark, run)


def _one_combination(left_length, right_length):
    """One combination of a binary ``overlaps`` query over the uniform workload:
    a ``left_length``-interval bucket joined with a ``right_length``-interval one."""
    span = 10.0 * max(left_length, right_length)
    (left,) = _uniform(1, left_length, span, seed=9)
    (right,) = _uniform(1, right_length, span, seed=10)
    right = IntervalCollection("R", list(right))
    query = build_query("Qo*", [left, right], "P1", k=20, num_vertices=2)
    statistics = collect_statistics({left.name: left, right.name: right}, 1)
    table = BoundsEstimator(query, CombinationSpace(query, statistics)).loose_table()
    intervals = {
        (vertex, (0, 0)): IntervalColumns.from_intervals(list(query.collections[vertex]))
        for vertex in query.vertices
    }
    return query, table, intervals


def _kernel_readings():
    """``{kernel: [(steps, candidates, scanned, seconds), ...]}`` over lengths and regimes.

    Square buckets of each length run twice: with early termination (the pruned
    regime real joins are in once their heap is full: every step resolves a
    threshold box — a bisected sorted window, a full-column mask over the
    ``scanned`` bucket, or a searchsorted window) and without (every step
    scores its whole bucket, which separates the per-candidate cost from the
    per-step one).  One
    pruned run against a long right bucket shows the vector kernel's scan.
    """
    shapes = [(length, length, pruned) for length in KERNEL_LENGTHS for pruned in (True, False)]
    shapes.append((max(KERNEL_LENGTHS), SCAN_LENGTH, True))
    readings = {kernel: [] for kernel in KERNELS}
    for left_length, right_length, pruned in shapes:
        query, table, intervals = _one_combination(left_length, right_length)
        for kernel in KERNELS:
            join = LocalTopKJoin(query, LocalJoinConfig(kernel=kernel, early_termination=pruned))
            seconds, (_, stats) = _best_of(
                lambda: join.run(table, intervals), rounds=3 if left_length <= 64 else 1
            )
            # A binary query takes one extension step per left interval.
            scanned = left_length * right_length if pruned and kernel == "vector" else 0
            readings[kernel].append((left_length, stats.candidates_examined, scanned, seconds))
    return readings


def _fit(rows, names):
    """Relative least squares of ``seconds = sum(term * unit)`` (no length dominates)."""
    seconds = np.array([row[-1] for row in rows])
    terms = np.array([row[: len(names)] for row in rows], dtype=float)
    fitted, *_ = np.linalg.lstsq(terms / seconds[:, None], np.ones(len(rows)), rcond=None)
    return dict(zip(names, map(float, fitted)))


def bench_unit_kernels(benchmark):
    """Each kernel per examined candidate at bucket lengths 8 / 64 / 512 (pruned
    regime), and the split the planner prices with: per extension step and per
    candidate for the scalar kernel and for the columnar pair (vector and sweep
    share their extension body, so they are fitted together), plus what the
    vector kernel pays per scanned bucket element."""

    def run():
        readings = _kernel_readings()
        units = {}
        for kernel, rows in readings.items():
            for steps, candidates, _, seconds in rows[: 2 * len(KERNEL_LENGTHS) : 2]:
                units[f"{kernel}_per_candidate_at_{steps}"] = seconds / candidates
        scalar = _fit(readings["scalar"], ("step", "candidate"))
        columnar = _fit(readings["vector"] + readings["sweep"], ("step", "candidate", "scan"))
        units.update(
            scalar_step=scalar["step"],
            scalar_candidate=scalar["candidate"],
            columnar_step=columnar["step"],
            columnar_candidate=columnar["candidate"],
            vector_scan=columnar["scan"],
        )
        return units

    _report(benchmark, run)


def bench_unit_shuffle_and_sort(benchmark):
    """What the sweep join pays around its candidate loops: it sorts every
    bucket's endpoints map-side (all kernels ship the same bucket batches)."""
    collections = _uniform(2, 2_000, 20_000.0, seed=13)

    def run():
        batch = IntervalColumns.from_intervals(list(collections[0]))
        sort_seconds, _ = _best_of(
            lambda: IntervalColumns(batch.uids, batch.starts, batch.ends).sorted_views()
        )
        return {"sweep_sort": sort_seconds / len(batch)}

    _report(benchmark, run)
