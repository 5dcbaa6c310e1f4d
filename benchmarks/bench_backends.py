"""Execution backends — serial vs. thread vs. process on the join workload.

Runs the Figure 11 scalability workload (Qo,o, the join-heavy colocation
query) through TKIJ once per execution backend at increasing collection
sizes, recording join-phase and end-to-end wall-clock plus the speedup over
the serial backend.  The join phase is CPU-bound (local top-k joins on every
reducer), so on a multi-core machine the process backend's speedup should
exceed 1x once the per-task compute dominates pickling overhead; the thread
backend stays near 1x because the join is pure Python under the GIL.

All backends must return identical results — that parity is asserted here on
every run.  The speedup assertion is only enforced when the machine actually
has more than one usable core (a single-core container cannot physically
demonstrate parallel speedup; the table still records the measured ratios).
"""

from __future__ import annotations

import os

from repro.core import TKIJ
from repro.datagen.synthetic import SyntheticConfig, generate_collections
from repro.experiments import ResultTable, build_query
from repro.mapreduce import ClusterConfig

SIZES = (400, 800)
BACKENDS = ("serial", "thread", "process")
QUERY = "Qo,o"
K = 100
GRANULES = 10
NUM_REDUCERS = 8
MAX_WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def backend_speedup_table(
    sizes=SIZES, backends=BACKENDS, query_name=QUERY, seed=7
) -> ResultTable:
    """Join-phase wall-clock and speedup per backend at increasing sizes."""
    table = ResultTable(
        title=f"Execution backends — {query_name}, g={GRANULES}, k={K}, "
        f"workers={MAX_WORKERS}, cores={_usable_cores()}",
        columns=["size", "backend", "join_seconds", "total_seconds", "join_speedup"],
    )
    for size in sizes:
        collections = list(
            generate_collections(3, SyntheticConfig(size=size), seed=seed).values()
        )
        query = build_query(query_name, collections, "P1", k=K)
        reports = {}
        for backend in backends:
            cluster = ClusterConfig(
                num_reducers=NUM_REDUCERS,
                backend=backend,
                max_workers=MAX_WORKERS,
            )
            with TKIJ(num_granules=GRANULES, cluster=cluster) as tkij:
                reports[backend] = tkij.execute(query)

        reference = reports["serial"]
        for backend in backends:
            report = reports[backend]
            # Parity: every backend returns byte-identical results, shuffle
            # accounting, local-join work and per-reducer k-th scores.
            label = f"{backend} diverges from serial at size {size}"
            assert [(r.uids, r.score) for r in report.results] == [
                (r.uids, r.score) for r in reference.results
            ], label
            for metric in ("shuffle_records", "shuffle_bytes"):
                assert getattr(report.join_metrics, metric) == getattr(
                    reference.join_metrics, metric
                ), (label, metric)
            assert report.local_join_stats == reference.local_join_stats, label
            assert report.per_reducer_kth_score == reference.per_reducer_kth_score, label
            table.add_row(
                size=size,
                backend=backend,
                join_seconds=report.phase_seconds["join"],
                total_seconds=report.total_seconds,
                join_speedup=reference.phase_seconds["join"]
                / max(report.phase_seconds["join"], 1e-9),
            )
    return table


def bench_backend_speedup(benchmark, record_table):
    benchmark.extra_info.update(
        workload="fig11", kernel="scalar", backend="serial+thread+process"
    )
    table = benchmark.pedantic(backend_speedup_table, rounds=1, iterations=1)
    record_table("backends_speedup", table)

    largest = max(SIZES)
    speedups = {
        row["backend"]: row["join_speedup"]
        for row in table.rows
        if row["size"] == largest
    }
    # On a multi-core machine the CPU-bound join must get faster on processes.
    if _usable_cores() > 1:
        assert speedups["process"] > 1.0, speedups
    # Parallel overhead must stay bounded even on a single core.
    assert speedups["process"] > 0.5, speedups
    assert speedups["thread"] > 0.5, speedups
