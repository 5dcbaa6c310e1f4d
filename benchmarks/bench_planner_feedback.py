"""Planner feedback loop — plan-cache hit latency, and auto plans against manual ones.

The feedback tentpole's measurable promise: a warm repeat of the same auto
query must skip the planner's counting and pricing entirely, returning the
memoized plan in a small fraction of the cold planning time.  The benchmark
times both paths over the same query and context — cold rounds clear the plan
cache and lazily invalidate the statistics cache (``bump_generation``), warm
rounds replay the exact (query, dataset state) pair — and gates on the warm
path being at least ``MIN_SPEEDUP``× faster.  ``extra_info`` carries
``plan_cold_seconds`` / ``plan_warm_seconds`` (ratio-watched) and
``plan_cache_speedup`` (bigger-is-better) for the regression gate.

The second arm holds the planner to the plan a user would type: over the perf
ledger's two ``scale_auto`` jobs and its five Table-1 shapes, a warm
``mode="auto"`` run may take at most ``MAX_AUTO_OVER_MANUAL``× the manual
default's time (planning included).
"""

from __future__ import annotations

import statistics
import time

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import ResultTable, build_query
from repro.mapreduce import ClusterConfig
from repro.plan import (
    CostStore,
    ExecutionContext,
    PlanCache,
    PlanFeedback,
    get_algorithm,
)

SIZE = 6_000
QUERY = "Qo,m"
K = 20
ROUNDS = 5
MIN_SPEEDUP = 3.0

# (shape, collections, |Ci|, start range, k): scale_auto's J1 and J2, then
# table1_mix's five shapes at its size.
AUTO_WORKLOADS = {
    "J1": ("Qb*", 2, 2_000, 20_000.0, 100),
    "J2": ("Qo,m", 3, 150, 100_000.0, 20),
    **{
        shape: (shape, 3, 200, 100_000.0, 10)
        for shape in ("Qb,b", "QjB,jB", "Qo,m", "Qs,f,m", "Qf,b")
    },
}
AUTO_ROUNDS = 3
MAX_AUTO_OVER_MANUAL = 1.5


def run_matrix():
    """Median cold (counted and priced) and warm (memoized) auto-plan latencies."""
    config = SyntheticConfig(size=SIZE, start_max=20_000.0)
    collections = list(generate_collections(3, config, seed=17).values())
    context = ExecutionContext(
        cluster=ClusterConfig(num_reducers=8, num_mappers=4, backend="serial")
    )
    feedback = PlanFeedback(plan_cache=PlanCache(max_entries=16), cost_store=CostStore())
    context.feedback = feedback
    query = build_query(QUERY, collections, "P1", k=K)
    algorithm = get_algorithm("tkij")

    cold, warm = [], []
    with context:
        for _ in range(ROUNDS):
            feedback.plan_cache.clear()
            context.statistics.bump_generation()  # the next plan's fetch recollects
            started = time.perf_counter()
            algorithm.plan(query, context, mode="auto")
            cold.append(time.perf_counter() - started)

            started = time.perf_counter()
            plan = algorithm.plan(query, context, mode="auto")
            warm.append(time.perf_counter() - started)
            assert any("plan cache" in reason for reason in plan.explanation.reasons)

    summary = feedback.plan_cache.describe()
    assert summary["hits"] == ROUNDS
    assert summary["misses"] == ROUNDS
    return statistics.median(cold), statistics.median(warm)


def bench_planner_feedback(benchmark):
    cold_seconds, warm_seconds = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    # The gate: a memoized plan must skip counting and pricing, not merely shave them.
    assert speedup >= MIN_SPEEDUP, (
        f"plan-cache hit only {speedup:.1f}x faster than a cold plan "
        f"(cold={cold_seconds:.6f}s warm={warm_seconds:.6f}s); expected >= {MIN_SPEEDUP}x"
    )

    benchmark.extra_info.update(
        workload="planner_feedback",
        backend="serial",
        size=SIZE,
        query=QUERY,
        k=K,
        plan_cold_seconds=cold_seconds,
        plan_warm_seconds=warm_seconds,
        plan_cache_speedup=speedup,
    )


def auto_over_manual_table() -> ResultTable:
    """Best-of-``AUTO_ROUNDS`` warm wall clock of ``mode="auto"`` and the manual default."""
    table = ResultTable(
        title="Auto plans against the manual default (serial backend, 8 reducers)",
        columns=["workload", "auto_plan", "auto_seconds", "manual_seconds", "auto_over_manual"],
    )
    algorithm = get_algorithm("tkij")
    for name, (shape, count, size, start_max, k) in AUTO_WORKLOADS.items():
        config = SyntheticConfig(size=size, start_max=start_max)
        collections = list(generate_collections(count, config, seed=17).values())
        query = build_query(shape, collections, "P1", k=k, num_vertices=count)
        seconds = {}
        with ExecutionContext(cluster=ClusterConfig(num_reducers=8)) as context:
            for mode in ("manual", "auto"):
                report = algorithm.run(query, context, mode=mode)  # warms the statistics
                rounds = []
                for _ in range(AUTO_ROUNDS):
                    started = time.perf_counter()
                    algorithm.run(query, context, mode=mode)
                    rounds.append(time.perf_counter() - started)
                seconds[mode] = min(rounds)
        chosen = report.explanation
        table.add_row(
            workload=name,
            auto_plan=f"g={chosen.num_granules}/{chosen.strategy}/{chosen.kernel}",
            auto_seconds=seconds["auto"],
            manual_seconds=seconds["manual"],
            auto_over_manual=seconds["auto"] / seconds["manual"],
        )
    return table


def bench_auto_over_manual(benchmark, record_table):
    table = benchmark.pedantic(auto_over_manual_table, rounds=1, iterations=1)
    record_table("planner_auto_over_manual", table)
    ratios = {row["workload"]: row["auto_over_manual"] for row in table.rows}
    assert max(ratios.values()) <= MAX_AUTO_OVER_MANUAL, ratios
    benchmark.extra_info.update(
        workload="planner_auto_over_manual",
        backend="serial",
        **{f"auto_over_manual_{name}": ratio for name, ratio in ratios.items()},
    )
