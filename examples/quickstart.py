"""Quickstart: evaluate a Ranked Temporal Join query through the algorithm registry.

The example builds two small synthetic interval collections, asks for the top-10
(x, y) pairs where ``x`` *almost meets* ``y`` (the motivating example of the
paper's introduction), and evaluates the query through ``repro.plan``:

* the **registry** (`get_algorithm`) dispatches to TKIJ without touching its
  internals — the same call runs `naive`, `allmatrix` or `rccis`;
* ``mode="auto"`` lets the cost-based **AutoPlanner** price granularity and
  join kernel from exact bucket counts, and the report carries the priced
  candidates and one reason per knob;
* the shared **ExecutionContext** caches the query-independent statistics phase,
  so the second query on the same dataset fetches its granularity from the cache.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ClusterConfig, ExecutionContext, PredicateParams, QueryBuilder, get_algorithm
from repro.datagen import SyntheticConfig, generate_uniform_collection


def main() -> None:
    # Two collections of intervals: e.g. traffic requests from two countries.
    config = SyntheticConfig(size=600, start_max=6_000.0)
    requests_a = generate_uniform_collection("country_A", config, seed=1)
    requests_b = generate_uniform_collection("country_B", config, seed=2)

    # Scored predicates: a tolerance of 4 time units counts as "meets", with the
    # score decreasing linearly over the next 16 units (parameter set P1).
    params = PredicateParams.of(
        lambda_equals=4, rho_equals=16, lambda_greater=0, rho_greater=10
    )

    query = (
        QueryBuilder(name="almost-meets", params=params)
        .add_collection("x", requests_a)
        .add_collection("y", requests_b)
        .add_predicate("x", "y", "meets")
        .top(10)
        .build()
    )

    # A simulated 8-reducer cluster plus the reusable statistics cache; every
    # registered algorithm runs inside this context.
    with ExecutionContext(cluster=ClusterConfig(num_reducers=8)) as context:
        tkij = get_algorithm("tkij")

        # First run: the cost-based planner chooses the configuration.
        report = tkij.run(query, context, mode="auto")

        # Second run on the same dataset: phase (a) comes from the cache.
        second = tkij.run(query, context, mode="auto")
        assert second.statistics_cached, "second query must reuse cached statistics"

        # The naive oracle, through the very same interface.  (Scores are
        # compared: ties at the k-th score may resolve to different tuples.)
        oracle = get_algorithm("naive").run(query, context)
        assert [round(r.score, 9) for r in report.results] == [
            round(r.score, 9) for r in oracle.results
        ], "TKIJ must return exactly the naive top-k scores"

    print(f"Top-{query.k} pairs where x almost meets y")
    print("-" * 46)
    for rank, result in enumerate(report.results, start=1):
        x = requests_a.get(result.uids[0])
        y = requests_b.get(result.uids[1])
        print(
            f"{rank:>2}. score={result.score:.3f}  "
            f"x=[{x.start:.0f}, {x.end:.0f}]  y=[{y.start:.0f}, {y.end:.0f}]"
        )

    print()
    print("Execution report")
    print("-" * 46)
    for phase, seconds in report.phase_seconds.items():
        print(f"{phase:>14}: {seconds * 1000:8.1f} ms")
    tkij_result = report.raw  # the full TKIJResult, phase by phase
    print(f"{'pruned':>14}: {tkij_result.top_buckets.pruned_results_fraction:8.1%} of candidate results")
    print(f"{'shuffled':>14}: {tkij_result.join_metrics.shuffle_size:8d} intervals")
    print(f"{'imbalance':>14}: {tkij_result.join_metrics.imbalance:8.2f} (max / avg reducer time)")

    print()
    print("Plan (priced by the AutoPlanner from exact bucket counts)")
    print("-" * 46)
    explanation = report.explanation
    print(
        f"g={explanation.num_granules} strategy={explanation.strategy} "
        f"assigner={explanation.assigner} kernel={explanation.kernel}"
    )
    for reason in explanation.reasons:
        print(f"  - {reason}")
    print()
    print("Priced candidates, cheapest first")
    print(explanation.priced_table(limit=5))
    print()
    print(
        f"second query hit the statistics cache at its planned granularity: phase (a), "
        f"the planner re-counting its other candidates included, took "
        f"{second.phase_seconds['statistics'] * 1000:.2f} ms "
        f"(first: {report.phase_seconds['statistics'] * 1000:.2f} ms)"
    )


if __name__ == "__main__":
    main()
