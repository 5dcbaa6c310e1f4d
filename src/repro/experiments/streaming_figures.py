"""Streaming experiment: incremental evaluation vs. full recomputation per batch.

``figure_streaming`` replays a synthetic workload as an append-only stream:
each collection is chopped into batches, one batch per collection is ingested
per tick, and ``tkij-streaming`` is evaluated after every tick.  Optionally the
static ``tkij`` algorithm re-evaluates a snapshot of the accumulated data at
the same tick (the "full recompute" arm the streaming layer is measured
against).  The sweep crosses batch count × batch size; rows are per batch,
reporting the incremental latency, the pruning counters (candidate
combinations kept vs. clean- or bound-pruned) and — when the comparison arm
runs — the full-recompute latency, join work, speedup and a tie-aware parity
check (:func:`repro.streaming.equivalent_top_k`).
"""

from __future__ import annotations

from typing import Sequence

from ..datagen.synthetic import SyntheticConfig, generate_collections
from ..mapreduce import ClusterConfig
from ..plan import ExecutionContext, get_algorithm
from ..streaming import StreamingCollection, equivalent_top_k
from .harness import ResultTable
from .workloads import build_query

__all__ = ["figure_streaming"]


def figure_streaming(
    batch_counts: Sequence[int] = (5, 10),
    batch_sizes: Sequence[int] = (40,),
    query_name: str = "Qo,m",
    params_name: str = "P1",
    k: int = 50,
    num_granules: int = 8,
    plan: str = "manual",
    kernel: str | None = None,
    compare_full: bool = True,
    seed: int = 7,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Per-batch streaming evaluation across a batch-count × batch-size sweep.

    A ``cluster`` with a fault plan makes this the streaming chaos demo:
    injected task faults are retried inside every tick and the per-batch
    series stays identical to a fault-free sweep (only latencies move).
    """
    cluster = cluster or ClusterConfig()
    table = ResultTable(
        title=(
            f"Streaming — {query_name} ({params_name}), k={k}, g={num_granules}, "
            f"plan={plan}, backend={cluster.backend}"
        ),
        columns=[
            "batches", "batch_size", "batch", "inserted", "replanned",
            "seconds", "candidates", "pruned_pairs", "pruning_ratio",
            "intervals_skipped", "tuples_scored",
            "full_seconds", "full_tuples_scored", "speedup", "matches_full",
        ],
    )
    streaming_algorithm = get_algorithm("tkij-streaming")
    static_algorithm = get_algorithm("tkij")
    for num_batches in batch_counts:
        for batch_size in batch_sizes:
            total = num_batches * batch_size
            collections = list(
                generate_collections(
                    3, SyntheticConfig(size=total, start_max=10.0 * total), seed=seed
                ).values()
            )
            chunks = {
                collection.name: [
                    collection.intervals[start : start + batch_size]
                    for start in range(0, total, batch_size)
                ]
                for collection in collections
            }
            streams = [
                StreamingCollection(collection.name) for collection in collections
            ]
            query = build_query(query_name, streams, params_name, k=k)
            context = ExecutionContext(cluster=cluster)
            # The comparison arm gets its own context: its statistics cache
            # misses on every batch (the dataset grew), which is exactly the
            # from-scratch recomputation being measured.
            full_context = ExecutionContext(cluster=cluster) if compare_full else None
            try:
                for tick in range(num_batches):
                    for stream in streams:
                        stream.ingest(chunks[stream.name][tick])
                    report = streaming_algorithm.run(
                        query, context, mode=plan, num_granules=num_granules,
                        kernel=kernel,
                    )
                    batch = report.raw.batches[-1]
                    row = {
                        "batches": num_batches,
                        "batch_size": batch_size,
                        **batch.describe(),
                        "replanned": batch.replanned,
                    }
                    del row["kth_score"]
                    if full_context is not None:
                        # Same query object: the static algorithm sees the
                        # committed snapshot of the streaming collections.
                        full = static_algorithm.run(
                            query, full_context, num_granules=num_granules,
                            kernel=kernel,
                        )
                        row["full_seconds"] = full.total_seconds
                        row["full_tuples_scored"] = float(
                            full.raw.local_join_stats.tuples_scored
                        )
                        row["speedup"] = full.total_seconds / max(batch.seconds, 1e-9)
                        row["matches_full"] = equivalent_top_k(
                            report.results, full.results
                        )
                    table.add_row(**row)
            finally:
                context.close()
                if full_context is not None:
                    full_context.close()
    return table
