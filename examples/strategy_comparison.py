"""Compare TKIJ's TopBuckets strategies and workload-assignment policies.

This example mirrors the design-choice experiments of the paper (Figures 8 and 9)
at laptop scale: the same 3-way query is evaluated with the three TopBuckets
strategies (brute-force, two-phase, loose) and, separately, with the DTB and LPT
workload assigners, printing where the time goes in each case.

Run with:  python examples/strategy_comparison.py
"""

from __future__ import annotations

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import PARAMETERS, build_query
from repro.plan import ExecutionContext, get_algorithm


def main() -> None:
    collections = list(
        generate_collections(3, SyntheticConfig(size=600), seed=3).values()
    )
    tkij = get_algorithm("tkij")
    with ExecutionContext() as context:
        print("TopBuckets strategies on Qo,m (overlaps, meets), k=100")
        print("-" * 78)
        header = f"{'strategy':<12} {'topbuckets':>11} {'join':>8} {'total':>8} {'|Omega_k,S|':>12} {'pruned':>8}"
        print(header)
        for strategy in ("brute-force", "two-phase", "loose"):
            query = build_query("Qo,m", collections, PARAMETERS["P1"], k=100)
            report = tkij.run(query, context, num_granules=8, strategy=strategy).raw
            print(
                f"{strategy:<12} {report.phase_seconds['top_buckets']:>10.2f}s "
                f"{report.phase_seconds['join']:>7.2f}s {report.total_seconds:>7.2f}s "
                f"{report.top_buckets.selected_count:>12d} "
                f"{report.top_buckets.pruned_results_fraction:>7.0%}"
            )
        print()

        print("Workload assignment on Qs,s (starts, starts), k=100")
        print("-" * 78)
        header = f"{'assigner':<12} {'join':>8} {'max reducer':>12} {'imbalance':>10} {'min kth score':>14}"
        print(header)
        for assigner in ("dtb", "lpt", "round-robin"):
            query = build_query("Qs,s", collections, PARAMETERS["P2"], k=100)
            report = tkij.run(query, context, num_granules=10, assigner=assigner).raw
            print(
                f"{assigner:<12} {report.phase_seconds['join']:>7.2f}s "
                f"{report.join_metrics.max_reduce_seconds:>11.2f}s "
                f"{report.join_metrics.imbalance:>10.2f} {report.min_kth_score:>14.3f}"
            )


if __name__ == "__main__":
    main()
