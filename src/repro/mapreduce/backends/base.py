"""Execution-backend contract: tasks, task results and the backend interface.

The engine decomposes every job into independent *tasks* — one
:class:`MapTask` per input split and one :class:`ReduceTask` per shuffle
partition — and hands them to an :class:`ExecutionBackend` for execution.
Tasks are plain picklable callables (see DESIGN.md §3): everything a worker
needs travels inside the task, and nothing else — a map task carries the job
name, the mapper factory and its split; a reduce task the job name, the
factory of *its* partition's reducer (``MapReduceJob.reducer_factory_for``)
and its partition.  Everything the engine needs back (outputs, per-task
timing, counters) travels inside the :class:`TaskResult`.  Backends MUST
return results in task order; the engine merges outputs and counters
deterministically from that order, which is what makes every backend produce
byte-identical results.

For the process backend the pickling requirement is real: job factories must
be module-level classes or :func:`functools.partial` objects over them —
never lambdas or closures (see :mod:`repro.mapreduce.job`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from ..cluster import TaskMetrics
from ..counters import Counters
from ..job import KeyValue, Mapper, Reducer

__all__ = [
    "TaskResult",
    "TaskFailure",
    "TaskFailedError",
    "MapTask",
    "ReduceTask",
    "Task",
    "GuardedTask",
    "ExecutionBackend",
    "execute_task",
    "partition_sort_key",
    "iter_partition",
    "partition_input_records",
]


@dataclass
class TaskResult:
    """Everything one executed task sends back to the engine."""

    task_id: int
    outputs: list[KeyValue]
    metrics: TaskMetrics
    counters: Counters


@dataclass
class TaskFailure:
    """One failed task attempt: what died, when, and with which error.

    Failures travel through the same channel as results (backends return them
    in task order like any :class:`TaskResult`), so every backend — including
    the process pool, where a raised exception would poison the whole
    ``Executor.map`` batch — reports per-task failures the engine can retry.
    ``counters`` carries the discarded attempt's counters when they are known
    (an injected post-execution fault); they are recorded in
    :class:`~repro.mapreduce.cluster.JobMetrics` for observability but NEVER
    merged into the job's counters, keeping fault runs byte-identical to
    fault-free ones.
    """

    task_id: int
    attempt: int
    error_type: str
    message: str
    elapsed_seconds: float = 0.0
    phase: str = ""
    counters: Counters | None = None


class TaskFailedError(RuntimeError):
    """A task exhausted its attempt budget; carries the full attempt history."""

    def __init__(self, job_name: str, phase: str, task_id: int, attempts: list[TaskFailure]):
        self.job_name = job_name
        self.phase = phase
        self.task_id = task_id
        self.attempts = list(attempts)
        last = attempts[-1]
        super().__init__(
            f"{phase} task {task_id} of job {job_name!r} failed "
            f"{len(attempts)} attempt(s); last error: {last.error_type}: {last.message}"
        )


@dataclass(frozen=True)
class MapTask:
    """One map task: a fresh mapper applied to one input split.

    ``split`` is a tuple on pickling backends; non-pickling backends may pass
    the engine's own split list directly (tasks only iterate it).
    """

    phase = "map"

    job_name: str
    mapper_factory: Callable[[], Mapper]
    task_id: int
    split: Sequence[KeyValue]

    def __call__(self) -> TaskResult:
        mapper = self.mapper_factory()
        counters = Counters()
        mapper.setup(counters)
        metrics = TaskMetrics(task_id=self.task_id, input_records=len(self.split))
        outputs: list[KeyValue] = []
        started = time.perf_counter()
        for key, value in self.split:
            for pair in mapper.map(key, value):
                outputs.append(pair)
        metrics.elapsed_seconds = time.perf_counter() - started
        metrics.output_records = len(outputs)
        return TaskResult(self.task_id, outputs, metrics, counters)


def iter_partition(partition: Any):
    """Stream one partition's ``(key, values)`` groups in canonical key order.

    An in-memory partition (any mapping of key → value list) iterates its keys
    sorted by :func:`partition_sort_key`.  A spilled partition (anything
    exposing ``sorted_items``, see :class:`~repro.mapreduce.spill.SpilledPartition`)
    streams a k-way merge of its on-disk runs and resident remainder — in the
    *same* canonical order, which is what keeps budgeted runs byte-identical
    to unbounded ones.
    """
    sorted_items = getattr(partition, "sorted_items", None)
    if sorted_items is not None:
        return sorted_items()
    return ((key, partition[key]) for key in sorted(partition, key=partition_sort_key))


def partition_input_records(partition: Any) -> int:
    """Total shuffled values in one partition, without materialising runs."""
    input_records = getattr(partition, "input_records", None)
    if input_records is not None:
        return int(input_records)
    return sum(len(values) for values in partition.values())


@dataclass(frozen=True)
class ReduceTask:
    """One reduce task: a fresh reducer folded over one shuffle partition.

    Keys are reduced in a deterministic order independent of insertion order,
    so that all backends emit identical output sequences.  ``partition`` is
    either an in-memory mapping or a spilled partition streaming its groups
    from sorted on-disk runs; the reducer never sees the difference.
    """

    phase = "reduce"

    job_name: str
    reducer_factory: Callable[[], Reducer]
    task_id: int
    partition: Any

    def __call__(self) -> TaskResult:
        reducer = self.reducer_factory()
        counters = Counters()
        reducer.setup(counters)
        metrics = TaskMetrics(
            task_id=self.task_id,
            input_records=partition_input_records(self.partition),
        )
        outputs: list[KeyValue] = []
        started = time.perf_counter()
        for key, values in iter_partition(self.partition):
            for pair in reducer.reduce(key, values):
                outputs.append(pair)
        for pair in reducer.cleanup():
            outputs.append(pair)
        metrics.elapsed_seconds = time.perf_counter() - started
        metrics.output_records = len(outputs)
        return TaskResult(self.task_id, outputs, metrics, counters)


@dataclass(frozen=True)
class GuardedTask:
    """A task plus its attempt number, with failures captured as values.

    The engine wraps every map/reduce task in one of these before handing the
    batch to the backend: a raised exception (a mapper bug, an
    :class:`~repro.mapreduce.faults.InjectedFault`) becomes a
    :class:`TaskFailure` in the result list instead of killing the whole batch,
    which is what makes task-level retries possible on every backend.  The
    failed attempt's outputs and counters are dropped here — exactly-once
    semantics are enforced at the capture point, not by the merge.

    Attribute access falls through to the wrapped task (``job_name``, ``task_id``,
    ``split``/``partition``, ``phase``), so backends and fault plans can
    introspect a guarded task exactly like a raw one.
    """

    task: "MapTask | ReduceTask"
    attempt: int = 0

    def __call__(self) -> "TaskResult | TaskFailure":
        started = time.perf_counter()
        try:
            return self.task()
        except Exception as error:  # noqa: BLE001 - the capture point for retries
            return TaskFailure(
                task_id=self.task.task_id,
                attempt=self.attempt,
                error_type=type(error).__name__,
                message=str(error),
                elapsed_seconds=time.perf_counter() - started,
                phase=self.task.phase,
            )

    def __getattr__(self, name: str) -> Any:
        # Delegate everything the dataclass itself does not define; guard the
        # underscore space so pickling a half-restored instance cannot recurse.
        if name.startswith("_") or name == "task":
            raise AttributeError(name)
        return getattr(self.task, name)


Task = Union[MapTask, ReduceTask, GuardedTask]


def execute_task(task: Task) -> "TaskResult | TaskFailure":
    """Run one task (module-level so executors can ship it to workers)."""
    return task()


def partition_sort_key(key: Any) -> Any:
    """Deterministic ordering of heterogeneous keys inside a partition."""
    return (str(type(key)), repr(key))


class ExecutionBackend(ABC):
    """Executes a batch of independent tasks and returns results in task order.

    Backends own whatever worker state they need (thread/process pools are
    created lazily on first use) and release it in :meth:`close`.  They are
    reusable across jobs: the engine keeps one backend for its lifetime so
    pool start-up cost is amortised over many jobs.

    ``requires_pickling`` declares whether tasks cross a process boundary.
    It is the legacy form of the transfer contract: the engine now resolves a
    full :class:`~repro.mapreduce.transfer.TransferStrategy` per job — from
    ``ClusterConfig.transfer`` when set, else from the backend's ``transfer``
    default, else ``"pickle"``/``"inline"`` according to this flag — so
    backends written against the old boolean keep their exact behaviour:
    ``False`` (serial/thread) yields the zero-copy ``inline`` strategy whose
    tasks read the very containers the engine built, ``True`` (process) the
    ``pickle`` strategy with its defensive ``tuple``/``dict`` freezes.
    ``transfer`` lets a backend prefer a specific strategy by name instead
    (e.g. ``"shm"`` to ship columnar batches through shared memory).

    ``speculative_slowdown`` opts a pool backend into speculative execution of
    straggler tasks: once a task has run longer than ``slowdown × median`` of
    the completed tasks of its batch (and at least ``speculative_min_seconds``),
    a duplicate is launched and the first finisher wins — the loser is
    cancelled, or its result discarded if already running.  Tasks are pure, so
    whichever copy wins, outputs and counters are identical; only wall-clock
    changes.  The serial backend ignores the knob (there is nothing to overlap).
    ``speculative_launches``/``speculative_wins`` count duplicate launches and
    the races a backup actually won.
    """

    name: str = "abstract"
    requires_pickling: bool = False
    transfer: str | None = None
    """Preferred transfer-strategy name (``None``: derive from the flag above)."""

    def __init__(
        self,
        max_workers: int | None = None,
        speculative_slowdown: float | None = None,
        speculative_min_seconds: float = 0.05,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if speculative_slowdown is not None and speculative_slowdown <= 1.0:
            raise ValueError("speculative_slowdown must exceed 1.0 (a straggler factor)")
        if speculative_min_seconds < 0:
            raise ValueError("speculative_min_seconds must be non-negative")
        self.max_workers = max_workers
        self.speculative_slowdown = speculative_slowdown
        self.speculative_min_seconds = speculative_min_seconds
        self.speculative_launches = 0
        self.speculative_wins = 0

    @property
    def parallelism(self) -> int:
        """How many tasks this backend genuinely runs at once.

        A dispatch hint, not a limit: under a shuffle memory budget the engine
        sizes its map waves to this, so pipelining map results into the
        shuffle never starves a pool of runnable tasks.  The base answer is
        ``max_workers`` (or 1); pool backends override it with their actual
        lazy default so an unconfigured pool still reports its real width.
        """
        return self.max_workers or 1

    @abstractmethod
    def run_tasks(self, tasks: Sequence[Task]) -> "list[TaskResult | TaskFailure]":
        """Execute every task; result ``i`` corresponds to ``tasks[i]``.

        A :class:`TaskFailure` entry reports a captured failed attempt (tasks
        wrapped in :class:`GuardedTask` never raise); the engine decides
        whether to retry it.
        """

    def close(self) -> None:
        """Release worker resources (idempotent; the backend stays usable)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"
