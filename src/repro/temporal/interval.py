"""Interval data model.

The paper represents every tuple of the input relations as a time interval with a
start and an end timestamp plus an opaque payload (IP address, hashtag, ...).  This
module provides the two basic containers used throughout the library:

* :class:`Interval` -- a single immutable interval.
* :class:`IntervalCollection` -- a named collection of intervals corresponding to
  one join input (a vertex of an RTJ query graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Interval", "IntervalCollection"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed time interval ``[start, end]`` with a unique identifier.

    Parameters
    ----------
    uid:
        Identifier, unique within its collection.
    start, end:
        Interval endpoints.  ``start <= end`` is enforced.
    payload:
        Optional application data carried along (e.g. client/server of a network
        connection, or a hashtag).  Not interpreted by the join algorithms.
    """

    uid: int
    start: float
    end: float
    payload: Any = None

    def __post_init__(self) -> None:
        if not self.start <= self.end:
            raise ValueError(
                f"interval {self.uid}: end ({self.end}) precedes start ({self.start})"
            )

    @property
    def length(self) -> float:
        """Duration of the interval (``end - start``)."""
        return self.end - self.start

    def endpoint(self, which: str) -> float:
        """Return the ``'start'`` or ``'end'`` endpoint by name."""
        if which == "start":
            return self.start
        if which == "end":
            return self.end
        raise ValueError(f"unknown endpoint {which!r}")

    def shift(self, delta: float) -> "Interval":
        """Return a copy translated by ``delta``."""
        return Interval(self.uid, self.start + delta, self.end + delta, self.payload)

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one time point."""
        return self.start <= other.end and other.start <= self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.uid}, [{self.start}, {self.end}])"


@dataclass
class IntervalCollection:
    """A named, ordered collection of :class:`Interval` objects.

    One collection corresponds to one vertex of an RTJ query.  The collection keeps
    intervals in insertion order and lazily materialises numpy views of the start
    and end coordinates, which the statistics and index layers use for bulk
    operations.
    """

    name: str
    intervals: list[Interval] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self._by_uid: dict[int, Interval] | None = None

    # ------------------------------------------------------------------ basics
    def add(self, interval: Interval) -> None:
        """Append an interval and invalidate cached views."""
        self.intervals.append(interval)
        self._invalidate()

    def extend(self, intervals: Iterable[Interval]) -> None:
        """Append several intervals and invalidate cached views."""
        self.intervals.extend(intervals)
        self._invalidate()

    def _invalidate(self) -> None:
        self._starts = None
        self._ends = None
        self._by_uid = None

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, index: int) -> Interval:
        return self.intervals[index]

    def get(self, uid: int) -> Interval:
        """Return the interval with identifier ``uid``."""
        if self._by_uid is None:
            self._by_uid = {x.uid: x for x in self.intervals}
        return self._by_uid[uid]

    # --------------------------------------------------------------- factories
    @classmethod
    def from_tuples(
        cls,
        name: str,
        tuples: Iterable[tuple[float, float]] | Sequence[tuple[float, float]],
    ) -> "IntervalCollection":
        """Build a collection from ``(start, end)`` pairs, assigning sequential ids."""
        intervals = [Interval(i, s, e) for i, (s, e) in enumerate(tuples)]
        return cls(name, intervals)

    @classmethod
    def from_arrays(
        cls, name: str, starts: Sequence[float], ends: Sequence[float]
    ) -> "IntervalCollection":
        """Build a collection from parallel arrays of starts and ends."""
        if len(starts) != len(ends):
            raise ValueError("starts and ends must have the same length")
        intervals = [Interval(i, float(s), float(e)) for i, (s, e) in enumerate(zip(starts, ends))]
        return cls(name, intervals)

    # ------------------------------------------------------------------- views
    @property
    def starts(self) -> np.ndarray:
        """Numpy array of start timestamps, in insertion order."""
        if self._starts is None:
            self._starts = np.array([x.start for x in self.intervals], dtype=float)
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        """Numpy array of end timestamps, in insertion order."""
        if self._ends is None:
            self._ends = np.array([x.end for x in self.intervals], dtype=float)
        return self._ends

    # --------------------------------------------------------------- summaries
    def time_range(self) -> tuple[float, float]:
        """Smallest ``(min start, max end)`` window containing every interval."""
        if not self.intervals:
            raise ValueError(f"collection {self.name!r} is empty")
        return float(self.starts.min()), float(self.ends.max())

    def average_length(self) -> float:
        """Mean interval duration (the ``avg`` constant of justBefore/shiftMeets)."""
        if not self.intervals:
            raise ValueError(f"collection {self.name!r} is empty")
        return float((self.ends - self.starts).mean())

    def total_span(self) -> float:
        """Width of :meth:`time_range`."""
        lo, hi = self.time_range()
        return hi - lo

    def describe(self) -> dict[str, float]:
        """Summary statistics used by the experiment reports."""
        lengths = self.ends - self.starts
        lo, hi = self.time_range()
        return {
            "count": float(len(self)),
            "time_min": lo,
            "time_max": hi,
            "length_min": float(lengths.min()),
            "length_max": float(lengths.max()),
            "length_avg": float(lengths.mean()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalCollection({self.name!r}, n={len(self)})"
