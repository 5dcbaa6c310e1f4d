"""Transfer strategies: how map splits and shuffle partitions reach tasks.

Historically the engine keyed its copy behaviour off one backend flag
(``ExecutionBackend.requires_pickling``): serial/thread tasks received the
engine's own containers, the process backend got defensive ``tuple``/``dict``
freezes and paid a full pickle of every record.  This module promotes that
flag into a :class:`TransferStrategy` object with three implementations
(DESIGN.md §10):

``inline``
    Today's zero-copy fast path.  Splits and partitions are handed to tasks
    exactly as the engine built them; correct only when tasks run in the
    engine's own address space (serial/thread).

``pickle``
    Today's process fallback.  Splits freeze to tuples and partitions to plain
    dicts — the smallest honest pickles — and every record crosses the process
    boundary by value.

``shm``
    Columnar zero-copy across processes.  Any
    :class:`~repro.columnar.IntervalColumns` value in a split or partition is
    converted (once per source batch, deduplicated by a
    :class:`~repro.columnar.SharedMemoryPool`) into a
    :class:`~repro.columnar.SharedIntervalColumns` whose pickle is a segment
    descriptor, so the process backend ships names instead of column bytes.
    Scalar records still travel by value, which makes the strategy safe for
    every job mix.

The engine resolves its strategy from ``ClusterConfig.transfer`` when set,
else from the backend's ``requires_pickling`` flag (``pickle`` across
processes, ``inline`` otherwise).

The module also owns the shuffle byte estimator used for
``JobMetrics.shuffle_bytes`` and the spill budget: cheap structural estimates
for the hot types (intervals, columns, numbers, strings), a pickle-size probe
only for exotic values.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

import numpy as np

from .cluster import TRANSFER_NAMES
from .job import KeyValue

__all__ = [
    "TransferStrategy",
    "InlineTransfer",
    "PickleTransfer",
    "SharedMemoryTransfer",
    "TRANSFERS",
    "create_transfer",
    "estimate_nbytes",
    "record_nbytes",
]


# ------------------------------------------------------------------ accounting
_PICKLE_FALLBACK_BYTES = 64


def estimate_nbytes(value: Any) -> int:
    """Cheap, deterministic size estimate of one shuffled key or value.

    This is accounting, not serialisation: identical across strategies and
    backends (so ``shuffle_bytes`` is byte-identical everywhere) and O(1) for
    the types the join actually shuffles.  Columnar batches answer through
    ``transfer_nbytes``; interval-like records (``uid``/``start``/``end``) are
    charged their three fixed fields; containers recurse; anything else pays a
    one-off pickle probe.
    """
    probe = getattr(value, "transfer_nbytes", None)
    if probe is not None:
        return int(probe())
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (bytes, bytearray)):
        return 33 + len(value)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if hasattr(value, "uid") and hasattr(value, "start") and hasattr(value, "end"):
        payload = getattr(value, "payload", None)
        return 32 if payload is None else 32 + estimate_nbytes(payload)
    if isinstance(value, (tuple, list)):
        return 56 + 8 * len(value) + sum(estimate_nbytes(item) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in value.items()
        )
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - estimation must never fail a job
        return _PICKLE_FALLBACK_BYTES


def record_nbytes(key: Any, value: Any) -> int:
    """Estimated bytes of one shuffled ``(key, value)`` record."""
    return estimate_nbytes(key) + estimate_nbytes(value)


# ------------------------------------------------------------------ strategies
class TransferStrategy(ABC):
    """How task inputs cross the engine/worker boundary for one backend.

    ``prepare_split``/``prepare_partition`` run on the driver just before task
    construction; whatever they return is what the task object carries (and,
    on a process backend, what gets pickled).  ``release_job`` runs in the
    engine's job-level ``finally`` — success, :class:`TaskFailedError` and
    retry paths alike — and must drop any cross-process resources the job
    acquired.  ``requires_pickling`` keeps the old backend contract observable
    (tests and the fault-injection wrapper read it).
    """

    name: str = "abstract"
    requires_pickling: bool = False

    @abstractmethod
    def prepare_split(self, split: Sequence[KeyValue]) -> Sequence[KeyValue]:
        """The form of one map split handed to its task."""

    def prepare_partition(self, partition: Any) -> Any:
        """The form of one reduce partition handed to its task.

        Spilled partitions (anything exposing ``with_resident``) keep their
        on-disk runs untouched — runs are already compact and picklable — and
        have only their resident remainder prepared.
        """
        if hasattr(partition, "with_resident"):
            return partition.with_resident(self._prepare_mapping(partition.resident))
        return self._prepare_mapping(partition)

    @abstractmethod
    def _prepare_mapping(self, partition: Mapping[Any, list[Any]]) -> Any:
        """Prepare one in-memory key→values mapping."""

    # ------------------------------------------------------------- lifecycle
    def release_job(self) -> None:
        """Release per-job resources (called on job close, even on failure)."""

    def close(self) -> None:
        """Release everything (called when the engine closes)."""
        self.release_job()

    # --------------------------------------------------------------- metrics
    @property
    def segments_created(self) -> int:
        """Shared-memory segments created so far (0 for non-shm strategies)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InlineTransfer(TransferStrategy):
    """Zero-copy within one address space: tasks read the engine's containers."""

    name = "inline"
    requires_pickling = False

    def prepare_split(self, split: Sequence[KeyValue]) -> Sequence[KeyValue]:
        return split

    def _prepare_mapping(self, partition: Mapping[Any, list[Any]]) -> Any:
        return partition


class PickleTransfer(TransferStrategy):
    """Freeze to the smallest honest pickles: tuples for splits, dicts for partitions."""

    name = "pickle"
    requires_pickling = True

    def prepare_split(self, split: Sequence[KeyValue]) -> Sequence[KeyValue]:
        return tuple(split)

    def _prepare_mapping(self, partition: Mapping[Any, list[Any]]) -> Any:
        return dict(partition)


class SharedMemoryTransfer(TransferStrategy):
    """Ship columnar batches through shared memory, everything else by value."""

    name = "shm"
    requires_pickling = True

    def __init__(self) -> None:
        # Imported here (not at module top) to keep repro.mapreduce importable
        # without pulling the columnar package in for non-shm users.
        from ..columnar.shm import SharedMemoryPool

        self.pool = SharedMemoryPool()

    def _share(self, value: Any) -> Any:
        from ..columnar.columns import IntervalColumns

        if isinstance(value, IntervalColumns):
            return self.pool.share(value)
        return value

    def prepare_split(self, split: Sequence[KeyValue]) -> Sequence[KeyValue]:
        return tuple((key, self._share(value)) for key, value in split)

    def _prepare_mapping(self, partition: Mapping[Any, list[Any]]) -> Any:
        return {
            key: [self._share(value) for value in values]
            for key, values in partition.items()
        }

    def release_job(self) -> None:
        self.pool.release_job()

    def close(self) -> None:
        self.pool.close()

    @property
    def segments_created(self) -> int:
        return self.pool.segments_created


TRANSFERS: dict[str, type[TransferStrategy]] = {
    InlineTransfer.name: InlineTransfer,
    PickleTransfer.name: PickleTransfer,
    SharedMemoryTransfer.name: SharedMemoryTransfer,
}
"""Strategy name -> class, keyed by the names ``ClusterConfig`` validates against."""

assert set(TRANSFERS) == set(TRANSFER_NAMES), "transfer registry out of sync with ClusterConfig"


def create_transfer(name: str) -> TransferStrategy:
    """Instantiate a transfer strategy by name (``inline``, ``pickle`` or ``shm``)."""
    if name not in TRANSFERS:
        raise ValueError(f"unknown transfer {name!r}; expected one of {sorted(TRANSFERS)}")
    return TRANSFERS[name]()
