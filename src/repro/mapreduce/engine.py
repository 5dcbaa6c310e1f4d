"""In-process Map-Reduce engine.

This is the execution substrate that stands in for Hadoop (see DESIGN.md §2).  The
engine runs a :class:`~repro.mapreduce.job.MapReduceJob` over an in-memory input,
reproducing the dataflow of a real cluster:

1. the input is split into ``num_mappers`` splits and each split becomes one
   :class:`~repro.mapreduce.backends.MapTask` (fresh mapper instance, per-task
   timing and counters);
2. intermediate pairs are shuffled to ``num_reducers`` partitions according to the
   job's partitioner, counting shuffled records and their estimated size; under a
   ``ClusterConfig.memory_budget_bytes`` the map tasks are dispatched in waves of
   ``backend.parallelism`` with each wave's outputs routed into the shuffle before
   the next wave launches, and the shuffle spills oversized partitions to sorted
   on-disk runs (:mod:`repro.mapreduce.spill`) — the driver's resident footprint
   stays bounded by the budget plus one wave, not the dataset;
3. each partition becomes one :class:`~repro.mapreduce.backends.ReduceTask`
   grouping values by key (per-task timing recorded — the quantity behind the
   paper's "max time reducer" and imbalance plots); spilled partitions stream a
   k-way merge of their runs instead of a materialised dict.

How task inputs reach the backend is the job of a
:class:`~repro.mapreduce.transfer.TransferStrategy` (``inline``, ``pickle`` or
``shm``), resolved per engine from ``ClusterConfig.transfer``, else from the
backend's ``requires_pickling`` flag — see DESIGN.md §10.  The ``shm``
strategy ships columnar batches through shared-memory segments; the engine
releases them in a job-level ``finally``, so failed and retried jobs never
leak ``/dev/shm`` entries.

Tasks execute on a pluggable :class:`~repro.mapreduce.backends.ExecutionBackend`
selected through :class:`~repro.mapreduce.cluster.ClusterConfig`: serially (the
default, fully deterministic), on a thread pool, or on a process pool for real
CPU parallelism.  Backends return task results in task order and the engine
merges outputs and counters from that order, so all parallelism-sensitive
quantities (replication, balance, query results) are identical across backends —
only wall-clock timings differ.

The engine is fault-tolerant at the task level (DESIGN.md §9): every task is
wrapped in a :class:`~repro.mapreduce.backends.GuardedTask` so a failing
attempt comes back as a :class:`~repro.mapreduce.backends.TaskFailure` value
instead of an exception, is retried with a fresh attempt number up to
``ClusterConfig.max_task_attempts``, and only the winning attempt's outputs
and counters are merged — failed attempts are recorded separately in
:class:`~repro.mapreduce.cluster.JobMetrics`, keeping every user-visible
figure byte-identical to a fault-free run.  A task that exhausts its budget
raises :class:`~repro.mapreduce.backends.TaskFailedError` with the full
attempt history.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .backends import (
    ExecutionBackend,
    GuardedTask,
    MapTask,
    ReduceTask,
    TaskFailedError,
    TaskFailure,
    TaskResult,
    create_backend,
)
from .cancellation import check_cancelled
from .cluster import ClusterConfig, JobMetrics
from .counters import Counters
from .faults import FaultInjectingBackend
from .job import KeyValue, MapReduceJob
from .spill import SpilledPartition, SpillManager
from .transfer import TransferStrategy, create_transfer, record_nbytes

__all__ = ["JobResult", "MapReduceEngine", "create_cluster_backend"]


def create_cluster_backend(cluster: ClusterConfig) -> ExecutionBackend:
    """Build the execution backend a cluster config describes.

    One construction path for everyone (the engine, the plan
    :class:`~repro.plan.ExecutionContext`): backend by name, speculation knobs
    applied, and — when the config carries a fault plan — wrapped in a
    :class:`~repro.mapreduce.faults.FaultInjectingBackend` so injected chaos
    flows through the same retry machinery everywhere.
    """
    backend = create_backend(
        cluster.backend,
        cluster.max_workers,
        speculative_slowdown=cluster.speculative_slowdown,
    )
    if cluster.fault_plan is not None:
        backend = FaultInjectingBackend(backend, cluster.fault_plan)
    return backend


@dataclass
class JobResult:
    """Output pairs and metrics of one executed job."""

    outputs: list[KeyValue]
    metrics: JobMetrics
    reducer_outputs: list[list[KeyValue]] = field(default_factory=list)

    @property
    def counters(self) -> Counters:
        return self.metrics.counters


class _ShuffleSink:
    """Routes intermediate pairs into reduce partitions, spilling under a budget.

    The sink is the streaming half of the shuffle: the map phase feeds it one
    result's outputs at a time and each output list is consumed destructively
    (slots nulled as they are routed) so that spilling actually frees driver
    memory — otherwise the flat output lists would pin every value the
    partitions reference.  ``finish`` returns one payload per reducer: a
    ``defaultdict`` for fully-resident partitions, a
    :class:`~repro.mapreduce.spill.SpilledPartition` once a partition has runs
    on disk.  Freezing/sharing for the backend happens lazily per task in
    ``MapReduceEngine._run_reduce_phase``.
    """

    def __init__(
        self,
        job: MapReduceJob,
        cluster: ClusterConfig,
        spill: SpillManager | None,
        metrics: JobMetrics,
    ) -> None:
        self.job = job
        self.metrics = metrics
        self.budget = cluster.memory_budget_bytes
        self.spill = spill
        self.num_reducers = job.num_reducers or cluster.num_reducers
        self.partitioner = job.make_partitioner()
        self.partitions: list[dict[Any, list[Any]]] = [
            defaultdict(list) for _ in range(self.num_reducers)
        ]
        self.runs: list[list[Any]] = [[] for _ in range(self.num_reducers)]
        self.partition_bytes = [0] * self.num_reducers
        self.resident_bytes = 0

    def route(self, outputs: list[KeyValue]) -> None:
        for index in range(len(outputs)):
            key, value = outputs[index]
            outputs[index] = None  # type: ignore[call-overload]
            reducer_index = self.partitioner.partition(key, self.num_reducers)
            self.partitions[reducer_index][key].append(value)
            self.metrics.shuffle_records += 1
            self.metrics.shuffle_size += self.job.record_size(key, value)
            nbytes = record_nbytes(key, value)
            self.metrics.shuffle_bytes += nbytes
            if self.budget is None:
                continue
            self.partition_bytes[reducer_index] += nbytes
            self.resident_bytes += nbytes
            while self.resident_bytes > self.budget:
                # Spill the largest resident partition; repeat until back under
                # budget (one giant record can only leave its own partition).
                victim = max(range(self.num_reducers), key=self.partition_bytes.__getitem__)
                if self.partition_bytes[victim] <= 0:
                    break
                self.runs[victim].append(self.spill.spill(victim, self.partitions[victim]))
                self.resident_bytes -= self.partition_bytes[victim]
                self.partition_bytes[victim] = 0
                self.partitions[victim] = defaultdict(list)

    def finish(self) -> list[Any]:
        return [
            SpilledPartition(runs=tuple(partition_runs), resident=partition)
            if partition_runs
            else partition
            for partition, partition_runs in zip(self.partitions, self.runs)
        ]


class MapReduceEngine:
    """Executes Map-Reduce jobs on the simulated cluster.

    The engine keeps one execution backend for its lifetime (so thread/process
    pools are reused across jobs); ``close()`` — or using the engine as a
    context manager — releases the backend's workers.  An injected ``backend``
    may be shared between several engines; the engine only closes a backend it
    created itself, the caller stays responsible for an injected one.
    """

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        self._owns_backend = backend is None
        self.backend = backend or create_cluster_backend(self.cluster)
        self.transfer = self._resolve_transfer()
        self._spill: SpillManager | None = None
        self.history: list[JobMetrics] = []

    def _resolve_transfer(self) -> TransferStrategy:
        """The transfer strategy this engine moves task inputs with.

        The cluster config wins when it names one; otherwise the backend's
        ``requires_pickling`` flag decides: ``pickle`` across processes,
        zero-copy ``inline`` at home.
        """
        name = self.cluster.transfer
        if name is None:
            name = "pickle" if self.backend.requires_pickling else "inline"
        return create_transfer(name)

    # ------------------------------------------------------------------ public
    def run(self, job: MapReduceJob, input_pairs: Iterable[KeyValue]) -> JobResult:
        """Run ``job`` over ``input_pairs`` and return outputs plus metrics."""
        check_cancelled()
        started = time.perf_counter()
        metrics = JobMetrics(job_name=job.name)
        records = list(input_pairs)
        if self.cluster.memory_budget_bytes is not None:
            self._spill = SpillManager(job.name)
        segments_before = self.transfer.segments_created
        try:
            partitions = self._run_map_phase(job, records, metrics)
            del records  # splits are dispatched; drop the driver's extra copy
            outputs, per_reducer = self._run_reduce_phase(job, partitions, metrics)
        finally:
            # Job close: runs on success, on TaskFailedError after exhausted
            # retries, and on any crash in between — spill files and shared
            # segments never outlive the job.
            metrics.shm_segments = self.transfer.segments_created - segments_before
            self.transfer.release_job()
            if self._spill is not None:
                metrics.bytes_spilled = self._spill.bytes_spilled
                metrics.spill_runs = self._spill.runs_written
                self._spill.cleanup()
                self._spill = None

        metrics.elapsed_seconds = time.perf_counter() - started
        self.history.append(metrics)
        return JobResult(outputs=outputs, metrics=metrics, reducer_outputs=per_reducer)

    def close(self) -> None:
        """Release the engine's own backend workers (idempotent).

        Safe to call any number of times, including after a job raised (a
        failed job never leaves the backend in an unclosable state — worker
        pools shut down regardless), and the engine stays usable afterwards:
        pool backends lazily recreate their workers on the next job.  Injected
        backends are left running — whoever created them closes them.
        """
        if self._owns_backend:
            self.backend.close()
        self.transfer.close()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------- phases
    def _run_tasks_reliably(
        self,
        job: MapReduceJob,
        tasks: "Sequence[MapTask | ReduceTask]",
        phase: str,
        metrics: JobMetrics,
    ) -> list[TaskResult]:
        """Execute one phase's tasks with retries; results come back in task order.

        Every task is wrapped in a :class:`GuardedTask` carrying its attempt
        number; failed attempts (returned as :class:`TaskFailure` values) are
        recorded in ``metrics.failed_attempts`` — outputs and counters of the
        failed attempt discarded, exactly-once — and the task is re-dispatched
        with the next attempt number until it succeeds or the cluster's
        ``max_task_attempts`` budget is exhausted, which raises a
        :class:`TaskFailedError` carrying the attempt history.  Retry waves
        preserve task order, so merges stay deterministic under any fault
        schedule.  Speculation statistics are drained from the backend into the
        job metrics per phase.
        """
        budget = self.cluster.max_task_attempts
        outcomes: list[TaskResult | None] = [None] * len(tasks)
        attempt = [0] * len(tasks)
        history: dict[int, list[TaskFailure]] = defaultdict(list)
        pending = list(range(len(tasks)))
        spec_launches = self.backend.speculative_launches
        spec_wins = self.backend.speculative_wins
        while pending:
            # Task-boundary cancellation point: a deadline set by the serving
            # layer stops the job before the next wave launches, never mid-task.
            check_cancelled()
            wave = [GuardedTask(task=tasks[index], attempt=attempt[index]) for index in pending]
            retry: list[int] = []
            for index, outcome in zip(pending, self.backend.run_tasks(wave)):
                if isinstance(outcome, TaskFailure):
                    outcome.phase = phase
                    history[index].append(outcome)
                    metrics.failed_attempts.append(outcome)
                    if attempt[index] + 1 >= budget:
                        raise TaskFailedError(
                            job.name, phase, tasks[index].task_id, history[index]
                        )
                    attempt[index] += 1
                    retry.append(index)
                else:
                    outcome.metrics.attempt = attempt[index]
                    outcomes[index] = outcome
            pending = retry
        metrics.speculative_launches += self.backend.speculative_launches - spec_launches
        metrics.speculative_wins += self.backend.speculative_wins - spec_wins
        return outcomes  # type: ignore[return-value] - every slot is filled

    def _run_map_phase(
        self, job: MapReduceJob, records: Sequence[KeyValue], metrics: JobMetrics
    ) -> list[Any]:
        """Run the map tasks and shuffle their outputs into reduce partitions.

        Without a memory budget every task goes out in one wave and the sink
        routes the collected outputs afterwards — the classic barrier.  Under a
        ``ClusterConfig.memory_budget_bytes`` the tasks are dispatched in waves
        of ``backend.parallelism`` and each wave's outputs are routed (and
        possibly spilled) before the next wave launches, so the driver never
        holds more than one wave of unrouted map outputs plus the budgeted
        resident partitions.  Results are consumed in task order either way,
        so outputs, counters and shuffle accounting stay byte-identical.
        """
        splits = self._split(records, self.cluster.num_mappers)
        # The transfer strategy decides the split's form: inline hands tasks
        # the engine's own lists, pickle freezes compact tuples, shm converts
        # columnar values to shared-segment descriptors.
        tasks = [
            MapTask(job.name, job.mapper_factory, task_id, self.transfer.prepare_split(split))
            for task_id, split in enumerate(splits)
        ]
        sink = _ShuffleSink(job, self.cluster, self._spill, metrics)
        if self.cluster.memory_budget_bytes is None:
            wave = max(1, len(tasks))
        else:
            wave = max(1, self.backend.parallelism)
        for start in range(0, len(tasks), wave):
            for result in self._run_tasks_reliably(job, tasks[start : start + wave], "map", metrics):
                metrics.map_tasks.append(result.metrics)
                metrics.counters.merge(result.counters)
                sink.route(result.outputs)
                result.outputs = []  # routed; drop the task's reference
        return sink.finish()

    def _run_reduce_phase(
        self,
        job: MapReduceJob,
        partitions: list[Any],
        metrics: JobMetrics,
    ) -> tuple[list[KeyValue], list[list[KeyValue]]]:
        tasks = []
        for task_id in range(len(partitions)):
            # Lazy per-task preparation: drop the engine's partition slot
            # before freezing, so the driver never holds both the defaultdict
            # and the frozen/shared copy of more than one partition at a time.
            payload = partitions[task_id]
            partitions[task_id] = None
            tasks.append(
                ReduceTask(
                    job.name,
                    job.reducer_factory_for(task_id),
                    task_id,
                    self.transfer.prepare_partition(payload),
                )
            )
        outputs: list[KeyValue] = []
        per_reducer: list[list[KeyValue]] = []
        for result in self._run_tasks_reliably(job, tasks, "reduce", metrics):
            metrics.reduce_tasks.append(result.metrics)
            metrics.counters.merge(result.counters)
            outputs.extend(result.outputs)
            per_reducer.append(result.outputs)
        return outputs, per_reducer

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _split(records: Sequence[KeyValue], num_splits: int) -> list[list[KeyValue]]:
        """Round-robin the input into at most ``num_splits`` non-empty splits.

        Fewer records than splits yield one single-record split per record, and
        an empty input yields no splits at all — small streaming batches would
        otherwise dispatch (and, on the process backend, pickle) map tasks that
        carry no work.
        """
        num_splits = min(num_splits, len(records))
        splits: list[list[KeyValue]] = [[] for _ in range(num_splits)]
        for index, record in enumerate(records):
            splits[index % num_splits].append(record)
        return splits
