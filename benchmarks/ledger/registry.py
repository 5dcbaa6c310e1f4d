"""The ledger's metric registry: every name it can emit, with unit and direction.

``END_TO_END`` is measured with tracing off, on every workload; all of it but
``latency_p90_ms`` (too few samples in a window to bound, see the README) is
the ``end_to_end`` list of ``BENCHMARK.json``.  ``PER_LAYER``
comes from the traced pass; ``UNIVERSAL`` marks the layer metrics every
workload passes through (those are the ``per_layer`` list of
``BENCHMARK.json``), the rest belong to the workloads that traverse the layer
(``serving.*`` to the served ones, ``streaming.*`` to ``stream_durable``, the
ablation arms to the workload whose regime they probe) and appear only in the
ledger file.  ``EXACT`` metrics are counts that must repeat ``==`` for a seed.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "UNIVERSAL", "EXACT", "unit_of"]

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    # serving (served workloads)
    "serving.wire_ms": ("ms", "lower"),
    "serving.queue_ms": ("ms", "lower"),
    "serving.plan_ms": ("ms", "lower"),
    "serving.execute_ms": ("ms", "lower"),
    "serving.codec_query_us": ("us", "lower"),
    "serving.codec_ingest_us_per_interval": ("us", "lower"),
    "serving.ingest_ms": ("ms", "lower"),
    "serving.checkpoint_ms": ("ms", "lower"),
    "serving.checkpoint_bytes": ("bytes", "lower"),
    "serving.concurrency_speedup": ("ratio", "higher"),
    "serving.busy_rejected": ("count", "lower"),
    # plan
    "plan.plan_ms": ("ms", "lower"),
    "plan.fingerprint_us": ("us", "lower"),
    "plan.plan_cache_hit_ratio": ("ratio", "higher"),
    "plan.stats_cache_hit_ratio": ("ratio", "higher"),
    "plan.auto_over_manual": ("ratio", "lower"),
    # core phases (a)-(e)
    "core.statistics_ms": ("ms", "lower"),
    "core.top_buckets_ms": ("ms", "lower"),
    "core.distribution_ms": ("ms", "lower"),
    "core.join_ms": ("ms", "lower"),
    "core.merge_ms": ("ms", "lower"),
    "core.combinations_total": ("count", "lower"),
    "core.combinations_selected": ("count", "lower"),
    "core.pruned_fraction": ("ratio", "higher"),
    "core.replication_cost": ("count", "lower"),
    # mapreduce engine
    "mapreduce.job_ms": ("ms", "lower"),
    "mapreduce.map_busy_ms": ("ms", "lower"),
    "mapreduce.reduce_busy_ms": ("ms", "lower"),
    "mapreduce.driver_ms": ("ms", "lower"),
    "mapreduce.shuffle_records": ("count", "lower"),
    "mapreduce.shuffle_bytes": ("bytes", "lower"),
    "mapreduce.bytes_spilled": ("bytes", "lower"),
    "mapreduce.shm_segments": ("count", "lower"),
    "mapreduce.failed_attempts": ("count", "lower"),
    "mapreduce.reduce_imbalance": ("ratio", "lower"),
    "mapreduce.parallel_efficiency": ("ratio", "higher"),
    "mapreduce.backend_s.serial": ("s", "lower"),
    "mapreduce.backend_s.thread": ("s", "lower"),
    "mapreduce.backend_s.process": ("s", "lower"),
    "mapreduce.transfer_s.pickle": ("s", "lower"),
    "mapreduce.transfer_s.shm": ("s", "lower"),
    # local join kernels
    "local_join.tuples_scored": ("count", "lower"),
    "local_join.candidates_examined": ("count", "lower"),
    "local_join.combinations_processed": ("count", "lower"),
    "local_join.combinations_skipped": ("count", "higher"),
    "local_join.useful_ratio": ("ratio", "higher"),
    "local_join.ns_per_candidate": ("ns", "lower"),
    "local_join.kernel_s.scalar": ("s", "lower"),
    "local_join.kernel_s.vector": ("s", "lower"),
    "local_join.kernel_s.sweep": ("s", "lower"),
    # streaming
    "streaming.tick_incremental_ms": ("ms", "lower"),
    "streaming.tick_replan_ms": ("ms", "lower"),
    "streaming.replans": ("count", "lower"),
    "streaming.kept_ratio": ("ratio", "lower"),
    "streaming.intervals_skipped": ("count", "higher"),
    # the instrument itself
    "host.calibration_ms_before": ("ms", "lower"),
    "host.calibration_ms_after": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

UNIVERSAL: tuple[str, ...] = tuple(
    name
    for name in PER_LAYER
    if name.startswith(("core.", "host.", "trace."))
    or name in ("plan.plan_ms", "plan.fingerprint_us", "plan.stats_cache_hit_ratio")
    or (name.startswith("mapreduce.") and "_s." not in name)
    or (name.startswith("local_join.") and "_s." not in name)
)

EXACT: frozenset[str] = frozenset(
    {
        "core.combinations_total",
        "core.combinations_selected",
        "core.pruned_fraction",
        "core.replication_cost",
        "mapreduce.shuffle_records",
        "mapreduce.shuffle_bytes",
        "mapreduce.bytes_spilled",
        "mapreduce.failed_attempts",
        "local_join.tuples_scored",
        "local_join.candidates_examined",
        "local_join.combinations_processed",
        "local_join.combinations_skipped",
        "local_join.useful_ratio",
        "streaming.replans",
    }
)


def unit_of(name: str) -> str:
    """Unit of any metric the ledger emits."""
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
