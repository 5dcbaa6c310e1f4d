"""Columnar record batches of intervals.

An :class:`IntervalColumns` is the columnar (structure-of-arrays) counterpart of
a ``list[Interval]``: parallel numpy arrays of uids, starts and ends, built once
per bucket and shared by every vectorized kernel that scores the bucket.  The
payloads column is materialised only when some interval actually carries a
payload (hybrid queries), so the common case ships three dense arrays and
nothing else — which is also what makes the batch cheap to pickle to the
process backend, compared to a list of ``Interval`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..temporal.interval import Interval

__all__ = [
    "IntervalColumns",
    "FixedInterval",
    "SortedEndpointViews",
    "as_columns",
    "as_intervals",
]


@dataclass(frozen=True, slots=True)
class FixedInterval:
    """A lightweight interval record handed to kernels as the *fixed* join side.

    Duck-types the subset of :class:`~repro.temporal.interval.Interval` the hot
    path reads (``uid``/``start``/``end``/``payload``) without re-running the
    dataclass validation when rebuilding records from columns.
    """

    uid: int
    start: float
    end: float
    payload: object = None


@dataclass(frozen=True)
class SortedEndpointViews:
    """Endpoint-sorted projections of one :class:`IntervalColumns` batch.

    The sweep kernel resolves a threshold box to a *window* over these arrays
    with ``np.searchsorted`` instead of scanning the whole bucket; the stable
    permutations map window slots back to insertion-order positions, which is
    what keeps candidate enumeration order (and therefore every pruning
    decision) identical to the scalar and vector kernels.
    """

    start_order: np.ndarray
    """Stable argsort of the batch's starts (insertion-order positions)."""
    starts_sorted: np.ndarray
    """``starts[start_order]`` — non-decreasing."""
    end_order: np.ndarray
    """Stable argsort of the batch's ends (insertion-order positions)."""
    ends_sorted: np.ndarray
    """``ends[end_order]`` — non-decreasing."""


@dataclass(frozen=True)
class IntervalColumns:
    """Parallel columns of one batch of intervals (insertion order preserved)."""

    uids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    payloads: tuple | None = None
    _intervals: list[Interval] | None = field(
        default=None, repr=False, compare=False
    )
    """Row-wise view, kept only when the batch was built from ``Interval``
    objects in-process; deliberately dropped from pickles (see ``__getstate__``)
    so the process backend ships arrays, not object graphs."""
    _by_start: tuple[list[float], list[int], list[float]] | None = field(
        default=None, repr=False, compare=False
    )
    """List twin of the start-sorted view, built lazily by :meth:`by_start`
    for the scalar kernel's bisected windows; never pickled."""
    _sorted: SortedEndpointViews | None = field(
        default=None, repr=False, compare=False
    )
    """Endpoint-sorted views, built lazily by :meth:`sorted_views`.  Unlike the
    row-wise view these *are* pickled once built: the sweep join sorts each
    bucket map-side and ships the views with the batch, so reducers never
    re-sort (DESIGN.md §11)."""

    def __len__(self) -> int:
        return len(self.uids)

    @property
    def nbytes(self) -> int:
        """Bytes of dense column data (what a shuffle or spill must move)."""
        return int(self.uids.nbytes + self.starts.nbytes + self.ends.nbytes)

    def transfer_nbytes(self) -> int:
        """Estimated transfer size: the columns plus a nominal payload charge.

        Payloads are arbitrary Python objects; 16 bytes each is the same
        order-of-magnitude charge the scalar estimator uses, which keeps the
        shuffle-byte accounting identical across kernels and strategies.
        """
        payload_bytes = 16 * len(self.payloads) if self.payloads is not None else 0
        return self.nbytes + payload_bytes

    # -------------------------------------------------------------- factories
    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalColumns":
        """Build columns from interval objects, keeping payloads only if any."""
        rows = intervals if isinstance(intervals, list) else list(intervals)
        uids = np.fromiter((x.uid for x in rows), dtype=np.int64, count=len(rows))
        starts = np.fromiter((x.start for x in rows), dtype=float, count=len(rows))
        ends = np.fromiter((x.end for x in rows), dtype=float, count=len(rows))
        payloads = tuple(x.payload for x in rows)
        if all(payload is None for payload in payloads):
            payloads = None
        return cls(uids, starts, ends, payloads, rows)

    @classmethod
    def concat(cls, batches: Sequence["IntervalColumns"]) -> "IntervalColumns":
        """Concatenate batches in order (used when a bucket arrives in pieces)."""
        if len(batches) == 1:
            return batches[0]
        payloads: tuple | None = None
        if any(batch.payloads is not None for batch in batches):
            payloads = tuple(
                payload
                for batch in batches
                for payload in (batch.payloads or (None,) * len(batch))
            )
        return cls(
            np.concatenate([batch.uids for batch in batches]),
            np.concatenate([batch.starts for batch in batches]),
            np.concatenate([batch.ends for batch in batches]),
            payloads,
        )

    def sort_by_uid(self) -> "IntervalColumns":
        """Rows reordered by ascending uid (the canonical bucket order)."""
        order = np.argsort(self.uids, kind="stable")
        payloads = (
            tuple(self.payloads[int(position)] for position in order)
            if self.payloads is not None
            else None
        )
        return IntervalColumns(
            self.uids[order], self.starts[order], self.ends[order], payloads
        )

    # ------------------------------------------------------------------ views
    def record(self, position: int) -> FixedInterval:
        """Row ``position`` as a lightweight record (no Interval validation)."""
        payload = self.payloads[position] if self.payloads is not None else None
        return FixedInterval(
            int(self.uids[position]),
            float(self.starts[position]),
            float(self.ends[position]),
            payload,
        )

    def sorted_views(self) -> SortedEndpointViews:
        """Endpoint-sorted views of the batch (built once and memoised).

        Stable sorts, so equal endpoints keep their insertion order — the
        property the sweep kernel's window/permutation parity proof relies on.
        """
        if self._sorted is not None:
            return self._sorted
        start_order = np.argsort(self.starts, kind="stable")
        end_order = np.argsort(self.ends, kind="stable")
        views = SortedEndpointViews(
            start_order,
            self.starts[start_order],
            end_order,
            self.ends[end_order],
        )
        object.__setattr__(self, "_sorted", views)
        return views

    def by_start(self) -> tuple[list[float], list[int], list[float]]:
        """Sorted starts, the stable start order and the ends in that order, as
        Python lists (built once and memoised): the scalar kernel bisects them
        without a numpy round trip per probe."""
        if self._by_start is not None:
            return self._by_start
        order = np.argsort(self.starts, kind="stable")
        lists = (self.starts[order].tolist(), order.tolist(), self.ends[order].tolist())
        object.__setattr__(self, "_by_start", lists)
        return lists

    def to_intervals(self) -> list[Interval]:
        """Row-wise :class:`Interval` objects (rebuilt once and memoised)."""
        if self._intervals is not None:
            return self._intervals
        payloads = self.payloads or (None,) * len(self)
        rows = [
            Interval(int(uid), float(start), float(end), payload)
            for uid, start, end, payload in zip(
                self.uids, self.starts, self.ends, payloads
            )
        ]
        object.__setattr__(self, "_intervals", rows)
        return rows

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Ship the columns plus any built sorted views; the row-wise view is
        rebuilt on demand (sorted views are dense arrays — cheap to pickle,
        expensive to recompute per reducer)."""
        return {
            "uids": self.uids,
            "starts": self.starts,
            "ends": self.ends,
            "payloads": self.payloads,
            "_sorted": self._sorted,
        }

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "_sorted", None)
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_intervals", None)
        object.__setattr__(self, "_by_start", None)


def as_columns(batch: "IntervalColumns | Sequence[Interval]") -> IntervalColumns:
    """Coerce a reducer input batch (either representation) to columns."""
    if isinstance(batch, IntervalColumns):
        return batch
    return IntervalColumns.from_intervals(batch)


def as_intervals(batch: "IntervalColumns | Sequence[Interval]") -> Sequence[Interval]:
    """Coerce a reducer input batch (either representation) to interval rows."""
    if isinstance(batch, IntervalColumns):
        return batch.to_intervals()
    return batch
