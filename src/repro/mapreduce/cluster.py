"""Cluster configuration and job metrics.

The paper's experiments run on an 8-node Hadoop cluster with 6 workers and 24
reducers.  The engine keeps the same bookkeeping a real cluster would expose —
per-task wall-clock time, shuffle volume and counters, so that load imbalance
and replication cost can be measured the way the paper measures them — and
executes tasks on a pluggable backend: sequentially in-process by default, or
on a thread/process pool (see :mod:`repro.mapreduce.backends`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .counters import Counters

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycle-free)
    from .backends.base import TaskFailure
    from .faults import FaultPlan

__all__ = ["BACKEND_NAMES", "TRANSFER_NAMES", "ClusterConfig", "TaskMetrics", "JobMetrics"]

BACKEND_NAMES = ("serial", "thread", "process")
"""Valid ``ClusterConfig.backend`` values (the execution-backend registry keys)."""

TRANSFER_NAMES = ("inline", "pickle", "shm")
"""Valid ``ClusterConfig.transfer`` values (the transfer-strategy registry keys)."""


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    ``num_reducers`` mirrors the paper's 24 reducers (scaled down by default);
    ``num_mappers`` controls how input splits are formed in the map phase.
    ``backend`` selects how tasks execute (``serial``, ``thread`` or
    ``process``) and ``max_workers`` caps the worker pool of the parallel
    backends (``None`` lets the backend pick, typically the CPU count).

    The fault-tolerance knobs mirror Hadoop's: ``max_task_attempts`` is the
    total attempt budget per task (4, like ``mapreduce.map.maxattempts``; a
    task whose every attempt fails raises
    :class:`~repro.mapreduce.TaskFailedError`); ``speculative_slowdown`` opts
    the pool backends into speculative re-execution of stragglers (``None``
    disables it, a factor > 1 launches a backup once a task runs that many
    times longer than the batch median); ``fault_plan`` injects a declarative
    :class:`~repro.mapreduce.FaultPlan` into every backend the cluster creates
    — the deterministic chaos hook the fault tests are built on.
    """

    num_reducers: int = 8
    num_mappers: int = 4
    backend: str = "serial"
    max_workers: int | None = None
    max_task_attempts: int = 4
    speculative_slowdown: float | None = None
    fault_plan: "FaultPlan | None" = None
    transfer: str | None = None
    """Transfer strategy for task inputs (``inline``, ``pickle`` or ``shm``;
    see :mod:`repro.mapreduce.transfer`).  ``None`` defers to the backend's
    ``requires_pickling`` flag: zero-copy ``inline`` in-process, ``pickle``
    across processes."""
    memory_budget_bytes: int | None = None
    """Shuffle memory budget.  ``None`` keeps every partition resident (the
    historical behaviour); a positive value makes the shuffle spill partitions
    to sorted on-disk runs whenever the resident estimate crosses the budget,
    and reduce tasks stream a k-way merge of the runs (DESIGN.md §10)."""

    def __post_init__(self) -> None:
        if self.num_reducers <= 0 or self.num_mappers <= 0:
            raise ValueError("cluster sizes must be positive")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {sorted(BACKEND_NAMES)}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.max_task_attempts <= 0:
            raise ValueError("max_task_attempts must be positive")
        if self.speculative_slowdown is not None and self.speculative_slowdown <= 1.0:
            raise ValueError("speculative_slowdown must exceed 1.0")
        if self.fault_plan is not None and not hasattr(self.fault_plan, "rule_for"):
            raise ValueError("fault_plan must be a FaultPlan (or expose rule_for)")
        if self.transfer is not None and self.transfer not in TRANSFER_NAMES:
            raise ValueError(
                f"unknown transfer {self.transfer!r}; expected one of {sorted(TRANSFER_NAMES)}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")


@dataclass
class TaskMetrics:
    """Wall-clock time and record counts of one map or reduce task.

    ``attempt`` is the attempt number that actually produced the task's output
    (0 in a fault-free run; failed attempts are recorded separately in
    :attr:`JobMetrics.failed_attempts`).
    """

    task_id: int
    elapsed_seconds: float = 0.0
    input_records: int = 0
    output_records: int = 0
    attempt: int = 0


@dataclass
class JobMetrics:
    """Aggregate metrics of one executed Map-Reduce job.

    ``failed_attempts`` records every discarded task attempt (retried or not)
    and ``speculative_launches``/``speculative_wins`` the straggler
    duplications — all *separate* from ``counters`` and the per-task lists, so
    the user-visible replication/balance figures of a faulty run stay
    byte-identical to a fault-free one.
    """

    job_name: str
    map_tasks: list[TaskMetrics] = field(default_factory=list)
    reduce_tasks: list[TaskMetrics] = field(default_factory=list)
    shuffle_records: int = 0
    shuffle_size: int = 0
    shuffle_bytes: int = 0
    """Estimated bytes shuffled (every strategy; see
    :func:`repro.mapreduce.transfer.record_nbytes`) — ``shuffle_size`` keeps
    the job-defined record-size units the paper's replication figures use."""
    bytes_spilled: int = 0
    spill_runs: int = 0
    shm_segments: int = 0
    counters: Counters = field(default_factory=Counters)
    elapsed_seconds: float = 0.0
    failed_attempts: "list[TaskFailure]" = field(default_factory=list)
    speculative_launches: int = 0
    speculative_wins: int = 0

    @property
    def retried_tasks(self) -> int:
        """Number of distinct (phase, task) slots that lost at least one attempt."""
        return len({(failure.phase, failure.task_id) for failure in self.failed_attempts})

    # -------------------------------------------------------------- summaries
    @property
    def max_reduce_seconds(self) -> float:
        """Running time of the slowest reduce task (Figure 8b)."""
        if not self.reduce_tasks:
            return 0.0
        return max(task.elapsed_seconds for task in self.reduce_tasks)

    @property
    def avg_reduce_seconds(self) -> float:
        """Mean reduce-task running time."""
        if not self.reduce_tasks:
            return 0.0
        return sum(task.elapsed_seconds for task in self.reduce_tasks) / len(self.reduce_tasks)

    @property
    def imbalance(self) -> float:
        """``max / avg`` reduce-task time, the imbalance metric of Figure 10b."""
        avg = self.avg_reduce_seconds
        if avg == 0.0:
            return 1.0
        return self.max_reduce_seconds / avg

    def describe(self) -> dict[str, float]:
        """Flat summary used by the experiment reports."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "shuffle_records": float(self.shuffle_records),
            "shuffle_size": float(self.shuffle_size),
            "shuffle_bytes": float(self.shuffle_bytes),
            "bytes_spilled": float(self.bytes_spilled),
            "spill_runs": float(self.spill_runs),
            "shm_segments": float(self.shm_segments),
            "max_reduce_seconds": self.max_reduce_seconds,
            "avg_reduce_seconds": self.avg_reduce_seconds,
            "imbalance": self.imbalance,
            "num_reduce_tasks": float(len(self.reduce_tasks)),
        }
