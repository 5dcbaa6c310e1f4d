"""Statistics collection (TKIJ phase a).

Time is partitioned into ``g`` contiguous, uniform granules per collection and a
matrix ``B_i[l][l']`` counts, for every collection ``C_i``, the intervals that
start in granule ``l`` and end in granule ``l'`` (a *bucket*).  This phase is
query-independent and executed once per dataset; every later phase of TKIJ only
consults the matrices.

Two execution paths are provided: a Map-Reduce job (each mapper builds local
matrices for its split, reducers aggregate per collection — exactly the paper's
description, and the path benchmarked by ``bench_statistics_collection``) and a
direct in-process path used when the caller does not care about the job metrics.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..columnar import IntervalColumns
from ..mapreduce import ClusterConfig, MapReduceEngine, MapReduceJob, Mapper, Reducer
from ..mapreduce.cluster import JobMetrics
from ..solver.domain import VariableBox
from ..temporal.interval import Interval, IntervalCollection

__all__ = [
    "Granularity",
    "BucketKey",
    "BucketMatrix",
    "DatasetStatistics",
    "bucket_counts",
    "bucket_columns",
    "batch_arrays",
    "collect_statistics",
    "collect_statistics_mapreduce",
    "update_statistics",
]

BucketKey = tuple[int, int]
"""A bucket identifier: (start granule index, end granule index)."""


@dataclass(frozen=True)
class Granularity:
    """Uniform partitioning of a collection's time range into ``g`` granules."""

    time_min: float
    time_max: float
    num_granules: int

    def __post_init__(self) -> None:
        if self.num_granules <= 0:
            raise ValueError("num_granules must be positive")
        if self.time_max < self.time_min:
            raise ValueError("time_max must not precede time_min")

    @property
    def width(self) -> float:
        """Width of one granule (the whole range when it is degenerate)."""
        span = self.time_max - self.time_min
        return span / self.num_granules if span > 0 else 1.0

    def granule_of(self, timestamp: float) -> int:
        """Index of the granule containing ``timestamp`` (clamped to the range)."""
        if timestamp <= self.time_min:
            return 0
        if timestamp >= self.time_max:
            return self.num_granules - 1
        index = int((timestamp - self.time_min) / self.width)
        return min(index, self.num_granules - 1)

    def granules_of(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`granule_of` over an array of timestamps.

        Uses the same float expression (``int((t - time_min) / width)``, both
        clamps) so every element equals the scalar result exactly.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        indexes = ((timestamps - self.time_min) / self.width).astype(np.int64)
        np.minimum(indexes, self.num_granules - 1, out=indexes)
        # Clamp order mirrors the scalar if-cascade: on a degenerate range a
        # timestamp can satisfy both bounds and the <= time_min branch wins.
        indexes[timestamps >= self.time_max] = self.num_granules - 1
        indexes[timestamps <= self.time_min] = 0
        return indexes

    def granule_range(self, index: int) -> tuple[float, float]:
        """Time range ``[low, high]`` of granule ``index``."""
        if not 0 <= index < self.num_granules:
            raise IndexError(f"granule index {index} out of range")
        width = self.width
        low = self.time_min + index * width
        high = self.time_min + (index + 1) * width
        if index == self.num_granules - 1:
            high = max(high, self.time_max)
        return low, high

    def bucket_of(self, interval: Interval) -> BucketKey:
        """Bucket key of an interval: granules of its start and end."""
        return (self.granule_of(interval.start), self.granule_of(interval.end))

    def bucket_box(self, key: BucketKey) -> VariableBox:
        """Endpoint box of a bucket (the solver's domain for one variable)."""
        start_granule = self.granule_range(key[0])
        end_granule = self.granule_range(key[1])
        return VariableBox.from_granules(start_granule, end_granule)

    @classmethod
    def for_collection(cls, collection: IntervalCollection, num_granules: int) -> "Granularity":
        """Granularity spanning exactly the collection's time range."""
        time_min, time_max = collection.time_range()
        return cls(time_min, time_max, num_granules)


@dataclass
class BucketMatrix:
    """Bucket cardinalities of one collection: ``counts[(l, l')] = |b_{l,l'}|``."""

    collection_name: str
    granularity: Granularity
    counts: dict[BucketKey, int] = field(default_factory=dict)
    low: float = math.inf
    high: float = -math.inf
    """Smallest start and largest end of the batches folded in after collection
    (:func:`update_statistics`); deletions never shrink them.  Timestamps beyond
    the granule range clamp into the border granules, so :meth:`bucket_box`
    stretches the border boxes out to these extents."""

    def add(self, key: BucketKey, amount: int = 1) -> None:
        """Increment the cardinality of bucket ``key``."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def remove(self, key: BucketKey, amount: int = 1) -> None:
        """Decrement the cardinality of bucket ``key`` (dropping it when it reaches zero)."""
        current = self.counts.get(key, 0)
        if current < amount:
            raise ValueError(
                f"bucket {key} of {self.collection_name!r} holds {current} intervals, "
                f"cannot remove {amount}"
            )
        remaining = current - amount
        if remaining == 0:
            del self.counts[key]
        else:
            self.counts[key] = remaining

    def count(self, key: BucketKey) -> int:
        """Cardinality of bucket ``key`` (0 when empty)."""
        return self.counts.get(key, 0)

    def nonempty_buckets(self) -> list[BucketKey]:
        """Keys of buckets containing at least one interval, in sorted order."""
        return sorted(key for key, value in self.counts.items() if value > 0)

    def total(self) -> int:
        """Number of intervals accounted for (should equal the collection size)."""
        return sum(self.counts.values())

    def bucket_box(self, key: BucketKey) -> VariableBox:
        """Endpoint box of bucket ``key``, covering every interval counted in it.

        The outer edge of a border-granule box reaches the recorded extents, so
        an interval clamped into the first or last granule still lies inside
        its bucket's box and every bound derived from the box stays sound.
        """
        box = self.granularity.bucket_box(key)
        if self.low == math.inf and self.high == -math.inf:
            return box  # nothing folded in since collection: no border to widen
        last = self.granularity.num_granules - 1
        return VariableBox(
            min(box.start_low, self.low) if key[0] == 0 else box.start_low,
            max(box.start_high, self.high) if key[0] == last else box.start_high,
            min(box.end_low, self.low) if key[1] == 0 else box.end_low,
            max(box.end_high, self.high) if key[1] == last else box.end_high,
        )

    def __iter__(self) -> Iterator[tuple[BucketKey, int]]:
        return iter(sorted(self.counts.items()))


@dataclass
class DatasetStatistics:
    """Bucket matrices of every collection of a dataset, plus collection metadata."""

    matrices: dict[str, BucketMatrix]
    num_granules: int
    average_lengths: dict[str, float] = field(default_factory=dict)
    collection_metrics: JobMetrics | None = None

    def matrix(self, collection_name: str) -> BucketMatrix:
        """Bucket matrix of one collection."""
        return self.matrices[collection_name]

    def bucket_of(self, collection_name: str, interval: Interval) -> BucketKey:
        """Bucket key an interval of ``collection_name`` falls into."""
        return self.matrices[collection_name].granularity.bucket_of(interval)

    def nonempty_bucket_count(self, collection_name: str) -> int:
        """Number of non-empty buckets of one collection (reported in §4.3.2)."""
        return len(self.matrices[collection_name].nonempty_buckets())


def _flat_buckets(granularity: Granularity, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Bucket of every ``(start, end)`` pair, flattened to ``start granule * g + end granule``."""
    start_granules, end_granules = granularity.granules_of(starts), granularity.granules_of(ends)
    return start_granules * granularity.num_granules + end_granules


def bucket_counts(
    granularity: Granularity, starts: np.ndarray, ends: np.ndarray
) -> dict[BucketKey, int]:
    """Bucket histogram of a batch: one ``bincount`` instead of a Python loop.

    Start and end granule indexes are computed with the vectorized
    :meth:`Granularity.granules_of` (elementwise-identical to the scalar path),
    flattened to ``start * g + end`` and counted in one pass; only non-empty
    buckets appear in the returned mapping, like incremental accumulation.
    """
    if len(starts) == 0:
        return {}
    num_granules = granularity.num_granules
    counts = np.bincount(
        _flat_buckets(granularity, starts, ends), minlength=num_granules * num_granules
    )
    return {
        (int(key) // num_granules, int(key) % num_granules): int(counts[key])
        for key in np.flatnonzero(counts)
    }


def bucket_columns(
    granularity: Granularity, collection: IntervalCollection
) -> dict[BucketKey, IntervalColumns]:
    """Split a collection into one uid-ordered record batch per non-empty bucket.

    The same flattened granule expression as :func:`bucket_counts` (so a batch
    holds exactly the intervals the matrix counts in its bucket, clamped
    out-of-range ones included), one stable sort by ``(bucket, uid)`` and one
    slice per bucket.  Uid order is the canonical bucket order every join kernel
    and cluster shape relies on; batches keep their ``Interval`` rows in process.
    """
    rows = collection.intervals
    if not rows:
        return {}
    num_granules = granularity.num_granules
    uids = np.fromiter((x.uid for x in rows), dtype=np.int64, count=len(rows))
    flat = _flat_buckets(granularity, collection.starts, collection.ends)
    order = np.lexsort((uids, flat))
    keys, first = np.unique(flat[order], return_index=True)
    edges = [*first.tolist(), len(rows)]
    batches: dict[BucketKey, IntervalColumns] = {}
    for key, low, high in zip(keys.tolist(), edges, edges[1:]):
        batches[key // num_granules, key % num_granules] = IntervalColumns.from_intervals(
            [rows[position] for position in order[low:high].tolist()]
        )
    return batches


def batch_arrays(intervals: Iterable[Interval]) -> tuple[np.ndarray, np.ndarray]:
    """Start/end columns of an interval batch (materialising iterators once)."""
    batch: Sequence[Interval] = (
        intervals if isinstance(intervals, (list, tuple)) else list(intervals)
    )
    starts = np.fromiter((x.start for x in batch), dtype=float, count=len(batch))
    ends = np.fromiter((x.end for x in batch), dtype=float, count=len(batch))
    return starts, ends


def update_statistics(
    statistics: DatasetStatistics,
    inserted: Mapping[str, Iterable[Interval]] | None = None,
    deleted: Mapping[str, Iterable[Interval]] | None = None,
) -> DatasetStatistics:
    """Incrementally maintain statistics after insertions/deletions (paper §3.2).

    The paper notes that updates are handled "by applying the same process on the
    inserted/deleted data": new intervals are bucketed with the existing granule
    boundaries and added to the matrices, deleted ones are subtracted.  Granule
    boundaries are kept fixed (timestamps outside the original range clamp to the
    first/last granule, like any out-of-range timestamp, and the matrix records
    how far they reach so its border boxes keep covering them).  The statistics object is
    updated in place and returned; average lengths are not recomputed because they
    only parameterise the extended predicates built from the *collections*.

    Batches are bucketed with the vectorized histogram (one ``bincount`` per
    collection), applying whole per-bucket amounts at once.
    """
    for name, intervals in (inserted or {}).items():
        matrix = statistics.matrix(name)
        starts, ends = batch_arrays(intervals)
        for key, amount in bucket_counts(matrix.granularity, starts, ends).items():
            matrix.add(key, amount)
        if len(starts):
            matrix.low = min(matrix.low, float(starts.min()))
            matrix.high = max(matrix.high, float(ends.max()))
    for name, intervals in (deleted or {}).items():
        matrix = statistics.matrix(name)
        starts, ends = batch_arrays(intervals)
        for key, amount in bucket_counts(matrix.granularity, starts, ends).items():
            matrix.remove(key, amount)
    return statistics


def collect_statistics(
    collections: Mapping[str, IntervalCollection], num_granules: int
) -> DatasetStatistics:
    """Direct in-process statistics collection (no Map-Reduce job).

    The per-granule accumulation is batched: the collection's cached start/end
    columns go through one vectorized histogram per collection instead of one
    ``granule_of`` pair per interval.
    """
    matrices: dict[str, BucketMatrix] = {}
    average_lengths: dict[str, float] = {}
    for name, collection in collections.items():
        granularity = Granularity.for_collection(collection, num_granules)
        matrices[name] = BucketMatrix(
            name, granularity, bucket_counts(granularity, collection.starts, collection.ends)
        )
        average_lengths[name] = collection.average_length()
    return DatasetStatistics(matrices, num_granules, average_lengths)


class _StatisticsMapper(Mapper):
    """Maps each interval to a partial count for its (collection, bucket)."""

    def __init__(self, granularities: dict[str, Granularity]) -> None:
        self._granularities = granularities

    def map(self, key, value):
        collection_name, interval = key, value
        bucket = self._granularities[collection_name].bucket_of(interval)
        self.counters.increment("statistics.intervals_read")
        yield (collection_name, bucket), 1


class _StatisticsReducer(Reducer):
    """Sums partial counts; one output record per (collection, bucket)."""

    def reduce(self, key, values):
        yield key, sum(values)


def collect_statistics_mapreduce(
    collections: Mapping[str, IntervalCollection],
    num_granules: int,
    engine: MapReduceEngine | None = None,
) -> DatasetStatistics:
    """Statistics collection as a Map-Reduce job (the paper's phase a).

    Mappers read a fraction of every collection and emit per-bucket partial counts;
    reducers aggregate them.  Granule boundaries are derived from the collection
    time ranges (broadcast to mappers, as a real deployment would do through the
    distributed cache).
    """
    engine = engine or MapReduceEngine(ClusterConfig())
    granularities = {
        name: Granularity.for_collection(collection, num_granules)
        for name, collection in collections.items()
    }
    input_pairs = [
        (name, interval) for name, collection in collections.items() for interval in collection
    ]
    job = MapReduceJob(
        name="tkij-statistics",
        mapper_factory=partial(_StatisticsMapper, granularities),
        reducer_factory=_StatisticsReducer,
        num_reducers=min(len(collections), engine.cluster.num_reducers) or 1,
    )
    result = engine.run(job, input_pairs)

    matrices = {
        name: BucketMatrix(name, granularity) for name, granularity in granularities.items()
    }
    grouped: dict[str, dict[BucketKey, int]] = defaultdict(dict)
    for (collection_name, bucket), count in result.outputs:
        grouped[collection_name][bucket] = count
    for name, buckets in grouped.items():
        matrices[name].counts.update(buckets)
    average_lengths = {
        name: collection.average_length() for name, collection in collections.items()
    }
    return DatasetStatistics(
        matrices, num_granules, average_lengths, collection_metrics=result.metrics
    )
