"""Out-of-core shuffle — memory budget, disk spill and transfer strategies.

Three claims of DESIGN.md §10 are measured and enforced here:

1. **Flat peak RSS under a budget.**  A columnar workload ~9x the budget is
   pushed through the engine twice — unbounded and with
   ``memory_budget_bytes`` — in *fresh child processes* (``ru_maxrss`` is a
   per-process high-water mark, so each arm must own its process).  The
   mappers generate their batches, so the only driver-resident data is the
   shuffle itself: unbounded, the peak tracks the working set; budgeted, it
   must stay within 1.5x of the budget plus one streamed reducer's runs.
2. **Spilling never changes an answer.**  Both the synthetic arms and a
   Figure 11-style top-k join (network trace, vector kernel) must return
   byte-identical outputs and shuffle counters with and without a budget.
3. **Shared-memory beats pickling across the process boundary.**  The same
   join on the process backend under ``transfer=shm`` vs ``transfer=pickle``.
   Like the backend benchmark, the wall-clock ratio is advisory on a
   single-core runner; the parity and segment-hygiene assertions always hold.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.columnar import IntervalColumns
from repro.columnar.shm import SEGMENT_PREFIX
from repro.datagen.network import NetworkTraceConfig, generate_network_collection
from repro.experiments import ResultTable, build_query
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    Reducer,
)
from repro.mapreduce.spill import SPILL_DIR_PREFIX
from repro.plan import ExecutionContext, get_algorithm
from repro.temporal import IntervalCollection

# Synthetic out-of-core workload: mappers *generate* their columnar batches,
# so the dataset never exists up front and the driver's footprint is the
# shuffle itself — the quantity the budget is supposed to bound.
N_BATCHES = 384
ROWS_PER_BATCH = 8192
NUM_KEYS = 32
NUM_REDUCERS = 8
WORKING_SET_BYTES = N_BATCHES * ROWS_PER_BATCH * 24  # transfer_nbytes per row
MEMORY_BUDGET_BYTES = 8 << 20  # ~1/9 of the working set

# Figure 11-style join arms (network trace, vector kernel).
TKIJ_SESSIONS = 400
TKIJ_BUDGET_BYTES = 32 << 10
QUERY = "Qo,o"
K = 20
GRANULES = 10


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _assert_no_litter() -> None:
    assert glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*") == []
    assert glob.glob(os.path.join(tempfile.gettempdir(), f"{SPILL_DIR_PREFIX}*")) == []


# ------------------------------------------------------- out-of-core workload
class BatchGenMapper(Mapper):
    """Generates one deterministic columnar batch per input record."""

    def map(self, key, value):
        uids = np.arange(ROWS_PER_BATCH, dtype=np.int64) + value * ROWS_PER_BATCH
        starts = uids.astype(float)
        yield value % NUM_KEYS, IntervalColumns(uids, starts, starts + 1.0)


class ChecksumReducer(Reducer):
    """Collapses each key's batches to (row count, float checksum)."""

    def reduce(self, key, values):
        total = 0.0
        count = 0
        for batch in values:
            total += float(batch.uids.sum()) + float(batch.starts.sum())
            count += len(batch)
        yield key, (count, total)


def _run_out_of_core(memory_budget_bytes: int | None) -> dict:
    """One arm of the RSS experiment; runs inside a fresh child process."""
    cluster = ClusterConfig(
        num_mappers=N_BATCHES,
        num_reducers=NUM_REDUCERS,
        backend="serial",
        memory_budget_bytes=memory_budget_bytes,
    )
    job = MapReduceJob(
        name="out-of-core",
        mapper_factory=BatchGenMapper,
        reducer_factory=ChecksumReducer,
        num_reducers=NUM_REDUCERS,
    )
    records = [(index, index) for index in range(N_BATCHES)]
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    with MapReduceEngine(cluster) as engine:
        result = engine.run(job, records)
    seconds = time.perf_counter() - started
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256(repr(sorted(result.outputs)).encode()).hexdigest()
    return {
        # ru_maxrss is KiB on Linux; the delta over the pre-job high-water
        # mark is what the job itself added.
        "peak_rss_delta_bytes": (rss_after - rss_before) * 1024,
        "digest": digest,
        "seconds": seconds,
        "shuffle_records": result.metrics.shuffle_records,
        "shuffle_bytes": result.metrics.shuffle_bytes,
        "bytes_spilled": result.metrics.bytes_spilled,
        "spill_runs": result.metrics.spill_runs,
    }


def _run_out_of_core_in_child(memory_budget_bytes: int | None) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(memory_budget_bytes)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def out_of_core_table() -> ResultTable:
    """Unbounded vs budgeted shuffle of a working set ~9x the budget."""
    assert 4 * MEMORY_BUDGET_BYTES <= WORKING_SET_BYTES
    table = ResultTable(
        title=(
            f"Out-of-core shuffle — {N_BATCHES} generated batches, "
            f"working set {WORKING_SET_BYTES / 2**20:.0f} MiB, "
            f"budget {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB"
        ),
        columns=[
            "arm", "seconds", "peak_rss_delta_mib", "shuffle_mib",
            "spilled_mib", "spill_runs",
        ],
    )
    arms = {
        "unbounded": _run_out_of_core_in_child(None),
        "budgeted": _run_out_of_core_in_child(MEMORY_BUDGET_BYTES),
    }
    for arm, data in arms.items():
        table.add_row(
            arm=arm,
            seconds=data["seconds"],
            peak_rss_delta_mib=data["peak_rss_delta_bytes"] / 2**20,
            shuffle_mib=data["shuffle_bytes"] / 2**20,
            spilled_mib=data["bytes_spilled"] / 2**20,
            spill_runs=data["spill_runs"],
        )

    unbounded, budgeted = arms["unbounded"], arms["budgeted"]
    # Spilling must be exercised — and must not change a single byte.
    assert budgeted["digest"] == unbounded["digest"]
    assert budgeted["shuffle_records"] == unbounded["shuffle_records"]
    assert budgeted["shuffle_bytes"] == unbounded["shuffle_bytes"]
    assert budgeted["bytes_spilled"] > 0 and budgeted["spill_runs"] > 0
    assert unbounded["bytes_spilled"] == 0 and unbounded["spill_runs"] == 0

    # The unbounded arm must actually see the working set (measurement sanity).
    assert unbounded["peak_rss_delta_bytes"] >= 0.5 * WORKING_SET_BYTES
    # The budgeted peak is bounded by the budget plus one streamed reducer's
    # memmapped runs — not by the dataset.  1.5x headroom absorbs allocator
    # and page-cache noise.
    budgeted_target = MEMORY_BUDGET_BYTES + WORKING_SET_BYTES / NUM_REDUCERS
    assert budgeted["peak_rss_delta_bytes"] <= 1.5 * budgeted_target
    assert budgeted["peak_rss_delta_bytes"] <= 0.5 * unbounded["peak_rss_delta_bytes"]
    _assert_no_litter()
    return table


def bench_shuffle_out_of_core(benchmark, record_table):
    benchmark.extra_info.update(
        workload="out_of_core", kernel="columnar", backend="serial"
    )
    table = benchmark.pedantic(out_of_core_table, rounds=1, iterations=1)
    record_table("shuffle_out_of_core", table)
    by_arm = {row["arm"]: row for row in table.rows}
    # Measurement keys, recorded beside the workload metadata.
    benchmark.extra_info.update(
        peak_rss_bytes=int(by_arm["budgeted"]["peak_rss_delta_mib"] * 2**20),
        bytes_spilled=int(by_arm["budgeted"]["spilled_mib"] * 2**20),
    )


# ------------------------------------------------------------- top-k parity
def _network_query():
    base = generate_network_collection(
        NetworkTraceConfig(num_sessions=TKIJ_SESSIONS), seed=13
    )
    collections = [
        IntervalCollection(f"{base.name}-{index + 1}", list(base.intervals))
        for index in range(3)
    ]
    return build_query(QUERY, collections, "P3", k=K)


def _run_tkij(query, backend, transfer=None, memory_budget_bytes=None, max_workers=2):
    cluster = ClusterConfig(
        num_reducers=NUM_REDUCERS,
        backend=backend,
        max_workers=max_workers,
        transfer=transfer,
        memory_budget_bytes=memory_budget_bytes,
    )
    with ExecutionContext(cluster=cluster) as context:
        report = get_algorithm("tkij").run(
            query, context, num_granules=GRANULES, kernel="vector"
        )
    return report.raw


def topk_parity_table() -> ResultTable:
    """Budgeted top-k join must match the in-memory run byte for byte."""
    query = _network_query()
    table = ResultTable(
        title=(
            f"Budgeted top-k join — {QUERY} (P3), k={K}, g={GRANULES}, "
            f"budget {TKIJ_BUDGET_BYTES >> 10} KiB"
        ),
        columns=[
            "arm", "total_seconds", "join_seconds", "shuffle_mib",
            "spilled_mib", "spill_runs",
        ],
    )
    reports = {
        "unbounded": _run_tkij(query, "serial"),
        "budgeted": _run_tkij(query, "serial", memory_budget_bytes=TKIJ_BUDGET_BYTES),
    }
    for arm, report in reports.items():
        metrics = report.join_metrics
        table.add_row(
            arm=arm,
            total_seconds=report.total_seconds,
            join_seconds=report.phase_seconds["join"],
            shuffle_mib=metrics.shuffle_bytes / 2**20,
            spilled_mib=metrics.bytes_spilled / 2**20,
            spill_runs=metrics.spill_runs,
        )

    unbounded, budgeted = reports["unbounded"], reports["budgeted"]
    assert [(r.uids, r.score) for r in budgeted.results] == [
        (r.uids, r.score) for r in unbounded.results
    ]
    assert budgeted.join_metrics.shuffle_bytes == unbounded.join_metrics.shuffle_bytes
    assert budgeted.join_metrics.bytes_spilled > 0
    assert budgeted.join_metrics.spill_runs > 0
    _assert_no_litter()
    return table


def bench_shuffle_topk_parity(benchmark, record_table):
    benchmark.extra_info.update(
        workload="fig11-network", kernel="vector", backend="serial"
    )
    table = benchmark.pedantic(topk_parity_table, rounds=1, iterations=1)
    record_table("shuffle_topk_parity", table)
    by_arm = {row["arm"]: row for row in table.rows}
    benchmark.extra_info.update(
        bytes_spilled=int(by_arm["budgeted"]["spilled_mib"] * 2**20),
    )


# -------------------------------------------------------- transfer strategies
def transfer_table() -> ResultTable:
    """shm vs pickle on the process backend (serial inline as ground truth)."""
    query = _network_query()
    table = ResultTable(
        title=(
            f"Transfer strategies — {QUERY} (P3), k={K}, g={GRANULES}, "
            f"process backend, cores={_usable_cores()}"
        ),
        columns=[
            "backend", "transfer", "join_seconds", "total_seconds",
            "shuffle_mib", "shm_segments", "speedup_vs_pickle",
        ],
    )
    reports = {
        ("serial", "inline"): _run_tkij(query, "serial"),
        ("process", "pickle"): _run_tkij(query, "process", transfer="pickle"),
        ("process", "shm"): _run_tkij(query, "process", transfer="shm"),
    }
    reference = reports[("serial", "inline")]
    pickle_join = reports[("process", "pickle")].phase_seconds["join"]
    for (backend, transfer), report in reports.items():
        assert [(r.uids, r.score) for r in report.results] == [
            (r.uids, r.score) for r in reference.results
        ], f"{backend}/{transfer} results diverge from serial"
        assert (
            report.join_metrics.shuffle_bytes == reference.join_metrics.shuffle_bytes
        ), f"{backend}/{transfer} shuffle accounting diverges from serial"
        segments = report.join_metrics.shm_segments
        assert (segments > 0) == (transfer == "shm"), (transfer, segments)
        table.add_row(
            backend=backend,
            transfer=transfer,
            join_seconds=report.phase_seconds["join"],
            total_seconds=report.total_seconds,
            shuffle_mib=report.join_metrics.shuffle_bytes / 2**20,
            shm_segments=segments,
            speedup_vs_pickle=pickle_join / max(report.phase_seconds["join"], 1e-9),
        )
    _assert_no_litter()
    return table


def bench_shuffle_transfer(benchmark, record_table):
    benchmark.extra_info.update(
        workload="fig11-network", kernel="vector", backend="process"
    )
    table = benchmark.pedantic(transfer_table, rounds=1, iterations=1)
    record_table("shuffle_transfer", table)
    speedups = {
        row["transfer"]: row["speedup_vs_pickle"]
        for row in table.rows
        if row["backend"] == "process"
    }
    # Descriptor-sized pickles should beat payload-sized ones; the wall-clock
    # ratio is only enforced where the machine can show it (like the backend
    # speedup gate, single-core runners record the ratio without gating).
    if _usable_cores() > 1:
        assert speedups["shm"] > 1.0, speedups
    # Even a single-core run must keep the shm overhead bounded.
    assert speedups["shm"] > 0.5, speedups


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(_run_out_of_core(json.loads(sys.argv[2]))))
    else:  # pragma: no cover - manual invocation guard
        sys.exit("usage: bench_shuffle.py --child <memory-budget-json>")
