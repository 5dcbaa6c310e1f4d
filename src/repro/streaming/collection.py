"""Append-only streaming collections.

The paper evaluates TKIJ over static interval collections; the streaming layer
models the production setting where intervals *arrive over time*.  A
:class:`StreamingCollection` is a normal :class:`IntervalCollection` (so every
existing query, oracle and statistics path works on it unchanged) plus an
ingestion side: batches staged with :meth:`ingest` stay invisible to queries
until the streaming evaluator *commits* them, and every committed batch is
recorded in an :class:`AppendLog` so the evaluator knows exactly which
intervals are new since the last evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..temporal.interval import Interval, IntervalCollection

__all__ = ["AppendBatch", "AppendLog", "StreamingCollection", "replay_batches"]


@dataclass(frozen=True)
class AppendBatch:
    """One committed batch of appended intervals (possibly empty)."""

    index: int
    intervals: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.intervals)


class AppendLog:
    """The ordered history of committed batches of one streaming collection.

    Only each batch's size is kept: the intervals themselves live in the
    collection, in commit order, so the log never holds a second reference
    to them.
    """

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def record(self, intervals: Sequence[Interval]) -> AppendBatch:
        """Append one batch to the log and return it."""
        batch = AppendBatch(index=len(self.sizes), intervals=tuple(intervals))
        self.sizes.append(len(batch))
        return batch

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def total_appended(self) -> int:
        """Total number of intervals across every committed batch."""
        return sum(self.sizes)


class StreamingCollection(IntervalCollection):
    """An :class:`IntervalCollection` that grows by explicitly committed batches.

    ``ingest`` *stages* a batch; the intervals become part of the collection —
    and therefore visible to queries and statistics — only when
    :meth:`commit_next` pops the batch from the pending queue.  The streaming
    evaluator commits exactly one pending batch per evaluation tick, which
    keeps "what is new" well-defined however the producer chops up the stream.
    Interval uids must stay unique across the whole stream (duplicates are
    rejected at ingest time: result tuples identify intervals by uid), and
    fit in an int64: the stream keeps them as one sorted int64 array.
    """

    def __init__(self, name: str, intervals: Iterable[Interval] | None = None) -> None:
        super().__init__(name, list(intervals or []))
        self.log = AppendLog()
        self._pending: deque[Sequence[Interval]] = deque()
        self._uids = _uid_array(self.intervals)
        self._uids.sort()
        if (self._uids[1:] == self._uids[:-1]).any():
            raise ValueError(f"collection {name!r} has duplicate interval uids")

    # --------------------------------------------------------------- ingestion
    def ingest(self, intervals: Iterable[Interval]) -> int:
        """Stage one batch for the next commit; returns its size.

        The whole batch is validated before any state changes, so a rejected
        ingest leaves the stream exactly as it was and can be retried.
        """
        batch = list(intervals)
        uids = _uid_array(batch)
        uids.sort()
        present = np.isin(uids, self._uids)
        if present.any() or (uids[1:] == uids[:-1]).any():
            # Name the first offender in batch order.
            known = set(uids[present].tolist())
            for interval in batch:
                if interval.uid in known:
                    raise ValueError(
                        f"interval uid {interval.uid} already present in {self.name!r}"
                    )
                known.add(interval.uid)
        self._uids = np.insert(self._uids, np.searchsorted(self._uids, uids), uids)
        self._pending.append(batch)
        return len(batch)

    @property
    def pending_batches(self) -> int:
        """Number of staged batches not yet committed."""
        return len(self._pending)

    def staged_batches(self) -> list[Sequence[Interval]]:
        """The staged batches not yet committed, oldest first."""
        return list(self._pending)

    def commit_next(self) -> AppendBatch | None:
        """Make the oldest staged batch part of the collection (``None`` if idle)."""
        if not self._pending:
            return None
        staged = self._pending.popleft()
        self.extend(staged)
        return self.log.record(staged)

    # --------------------------------------------------------------- factories
    @classmethod
    def from_collection(cls, collection: IntervalCollection) -> "StreamingCollection":
        """A streaming collection seeded with a static collection's contents."""
        return cls(collection.name, collection.intervals)


def _uid_array(intervals: Sequence[Interval]) -> np.ndarray:
    """The uids of ``intervals`` as an int64 array (:class:`ValueError` past int64)."""
    try:
        return np.fromiter((x.uid for x in intervals), dtype=np.int64, count=len(intervals))
    except OverflowError as error:
        raise ValueError(f"interval uids must fit in an int64: {error}") from None


def replay_batches(
    collection: IntervalCollection, num_batches: int
) -> StreamingCollection:
    """Stage a static collection as ``num_batches`` contiguous pending batches.

    The returned collection starts empty; committing every batch reproduces the
    original contents (same intervals, same uids, same order), which is what
    the streaming drivers and the parity tests replay.
    """
    if num_batches <= 0:
        raise ValueError("num_batches must be positive")
    stream = StreamingCollection(collection.name)
    intervals = collection.intervals
    size = len(intervals)
    chunk = max(1, -(-size // num_batches))  # ceil division
    for start in range(0, size, chunk):
        stream.ingest(intervals[start : start + chunk])
    return stream
