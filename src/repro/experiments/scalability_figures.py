"""Scalability experiments against the Boolean baselines (Figure 11) and the
statistics-collection timing reported in Section 4 of the paper.

Baseline arms dispatch through the algorithm registry — the driver holds only a
query -> algorithm-name table (the paper's protocol), never per-algorithm code.
"""

from __future__ import annotations

from typing import Sequence

from ..core.statistics import collect_statistics_mapreduce
from ..datagen.synthetic import SyntheticConfig, generate_collections
from ..mapreduce import ClusterConfig, MapReduceEngine
from ..plan import get_algorithm
from .harness import ResultTable, TKIJRunConfig, run_algorithm, run_tkij
from .workloads import build_query

__all__ = ["figure11_scalability", "statistics_collection_times"]

# Baseline used per query, as in the paper: All-Matrix for the sequence query Qb,b,
# RCCIS for the colocation queries Qo,o and Qs,m.
_BASELINE_FOR_QUERY = {
    "Qb,b": "allmatrix",
    "Qo,o": "rccis",
    "Qs,m": "rccis",
}


def figure11_scalability(
    sizes: Sequence[int] = (500, 1_000, 2_000),
    queries: Sequence[str] = ("Qb,b", "Qo,o", "Qs,m"),
    k: int = 100,
    num_granules: int = 10,
    num_reducers: int = 8,
    seed: int = 7,
    backend: str = "serial",
    max_workers: int | None = None,
    plan: str = "manual",
    kernel: str | None = None,
    transfer: str | None = None,
    memory_budget_bytes: int | None = None,
) -> ResultTable:
    """TKIJ (scored P1 and Boolean PB) against All-Matrix / RCCIS while |Ci| grows."""
    table = ResultTable(
        title=f"Figure 11 — scalability (g={num_granules}, k={k})",
        columns=["query", "size", "system", "total_seconds", "shuffle_records", "results"],
    )
    base = TKIJRunConfig(
        num_reducers=num_reducers,
        backend=backend,
        max_workers=max_workers,
        transfer=transfer,
        memory_budget_bytes=memory_budget_bytes,
    )
    with base.make_context() as context:
        for query_name in queries:
            baseline_name = _BASELINE_FOR_QUERY.get(query_name, "rccis")
            baseline = get_algorithm(baseline_name)
            for size in sizes:
                collections = list(
                    generate_collections(3, SyntheticConfig(size=size), seed=seed).values()
                )

                for params_name in ("P1", "PB"):
                    query = build_query(query_name, collections, params_name, k=k)
                    config = TKIJRunConfig(
                        num_granules=num_granules,
                        num_reducers=num_reducers,
                        plan=plan,
                        kernel=kernel,
                        transfer=transfer,
                        memory_budget_bytes=memory_budget_bytes,
                    )
                    result = run_tkij(query, config, context=context)
                    table.add_row(
                        query=query_name,
                        size=size,
                        system=f"TKIJ-{params_name}",
                        total_seconds=result.total_seconds,
                        # Replicated intervals, like the baselines' per-interval
                        # records (the engine's record count is bucket batches).
                        shuffle_records=result.join_metrics.shuffle_size,
                        results=len(result.results),
                    )

                boolean_query = build_query(query_name, collections, "PB", k=k)
                report = run_algorithm(baseline_name, boolean_query, context)
                table.add_row(
                    query=query_name,
                    size=size,
                    system=f"{baseline.title}-PB",
                    total_seconds=report.total_seconds,
                    shuffle_records=report.shuffle_records,
                    results=len(report.results),
                )
    return table


def statistics_collection_times(
    sizes: Sequence[int] = (1_000, 5_000, 20_000),
    num_granules: int = 20,
    num_collections: int = 3,
    seed: int = 7,
    backend: str = "serial",
    max_workers: int | None = None,
    transfer: str | None = None,
    memory_budget_bytes: int | None = None,
) -> ResultTable:
    """Statistics-collection time versus collection size (Section 4, "Statistics collection")."""
    table = ResultTable(
        title=f"Statistics collection (g={num_granules}, {num_collections} collections)",
        columns=["size", "seconds", "shuffle_records", "nonempty_buckets"],
    )
    cluster = ClusterConfig(
        backend=backend,
        max_workers=max_workers,
        transfer=transfer,
        memory_budget_bytes=memory_budget_bytes,
    )
    with MapReduceEngine(cluster) as engine:
        for size in sizes:
            collections = generate_collections(
                num_collections, SyntheticConfig(size=size), seed=seed
            )
            statistics = collect_statistics_mapreduce(collections, num_granules, engine)
            metrics = statistics.collection_metrics
            first = next(iter(collections))
            table.add_row(
                size=size,
                seconds=metrics.elapsed_seconds if metrics else 0.0,
                shuffle_records=metrics.shuffle_records if metrics else 0,
                nonempty_buckets=statistics.nonempty_bucket_count(first),
            )
    return table
