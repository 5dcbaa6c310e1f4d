"""RCCIS: the Boolean colocation-join baseline of Chawda et al. (EDBT 2014).

RCCIS targets *colocation* queries where all predicates require the intervals to
intersect (``overlaps``, ``meets``, ``starts``, ...).  It range-partitions the
global time axis into as many granules as reducers and proceeds in two Map-Reduce
phases:

1. a replication-planning phase that computes, for every interval, the granules it
   spans (its replication list) — this is the phase whose cost grows with the
   collection size and that TKIJ's statistics-driven TopBuckets sidesteps
   (Figure 11b/c);
2. a join phase where each interval is shuffled to every granule it spans and each
   reducer evaluates the Boolean query over its colocated intervals, reporting a
   result only in the granule containing the latest start among the joined
   intervals (so no result is produced twice), stopping at ``k`` results.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from ..mapreduce import (
    ClusterConfig,
    ExecutionBackend,
    FirstElementPartitioner,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    Reducer,
)
from ..query.graph import ResultTuple, RTJQuery
from ..temporal.comparators import PredicateParams
from .common import (
    BaselineResult,
    boolean_query,
    compile_boolean_checker,
    iter_batch_matches,
    top_k_matches,
)

__all__ = ["RCCISConfig", "RCCISJoin"]


@dataclass(frozen=True)
class RCCISConfig:
    """Knobs of the RCCIS baseline."""

    num_granules: int = 8
    # Intersection slack: colocation queries under scored semantics tolerate small
    # gaps; the Boolean baseline uses zero slack.
    boolean_params: PredicateParams = field(default_factory=PredicateParams.boolean)


@dataclass(frozen=True)
class _GranuleMap:
    """Uniform time-axis granulation, as a picklable callable (workers need it)."""

    low: float
    high: float
    width: float
    num_granules: int

    def __call__(self, timestamp: float) -> int:
        if timestamp >= self.high:
            return self.num_granules - 1
        return min(int((timestamp - self.low) / self.width), self.num_granules - 1)

    def batch(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized ``__call__`` (same expression, elementwise-identical)."""
        timestamps = np.asarray(timestamps, dtype=float)
        indexes = ((timestamps - self.low) / self.width).astype(np.int64)
        np.minimum(indexes, self.num_granules - 1, out=indexes)
        indexes[timestamps >= self.high] = self.num_granules - 1
        return indexes


class _ReplicationMapper(Mapper):
    """Phase 1 map: compute the granules spanned by each interval."""

    def __init__(self, granule_of) -> None:
        self._granule_of = granule_of

    def map(self, key, value):
        vertex, interval = key, value
        first = self._granule_of(interval.start)
        last = self._granule_of(interval.end)
        self.counters.increment("rccis.replication_entries", last - first + 1)
        yield (vertex, interval.uid), (interval, tuple(range(first, last + 1)))


class _ReplicationReducer(Reducer):
    """Phase 1 reduce: pass the replication lists through (identity aggregation)."""

    def reduce(self, key, values):
        for value in values:
            yield key, value


class _JoinMapper(Mapper):
    """Phase 2 map: replicate each interval to every granule it spans."""

    def map(self, key, value):
        vertex, _ = key
        interval, granules = value
        for granule in granules:
            self.counters.increment("rccis.intervals_shuffled")
            yield (granule, vertex), interval


class _JoinReducer(Reducer):
    """Phase 2 reduce: Boolean join of colocated intervals, deduplicated, capped at k."""

    def __init__(self, query: RTJQuery, k: int, granule_of) -> None:
        self._query = query
        self._k = k
        self._granule_of = granule_of
        self._granule: int | None = None
        self._intervals: dict[str, list] = {}

    def reduce(self, key, values):
        granule, vertex = key
        self._granule = granule
        self._intervals.setdefault(vertex, []).extend(values)
        return iter(())

    def cleanup(self) -> Iterator:
        if self._granule is None or len(self._intervals) < len(self._query.vertices):
            return
        vertices = self._query.vertices
        pools = [self._intervals[vertex] for vertex in vertices]
        if self._query.has_attribute_constraints:
            yield from self._cleanup_scalar(pools)
            return
        granule_map, granule = self._granule_of, self._granule

        def dedup_mask(prefix, columns):
            # Deduplication: only the granule of the latest start reports the
            # result; the latest start of (prefix + candidate) is elementwise
            # max of the prefix maximum and the candidate start column.
            latest = np.maximum(
                max(interval.start for interval in prefix), columns.starts
            )
            return granule_map.batch(latest) == granule

        for result in iter_batch_matches(
            self._query, pools, self._k, self.counters, "rccis.tuples_checked",
            extra_mask=dedup_mask,
        ):
            yield "match", result

    def _cleanup_scalar(self, pools) -> Iterator:
        """Scalar nested loop, kept for hybrid queries with attribute filters."""
        check = compile_boolean_checker(self._query)
        found = 0
        for combo in itertools.product(*pools):
            self.counters.increment("rccis.tuples_checked")
            latest_start = max(interval.start for interval in combo)
            if self._granule_of(latest_start) != self._granule:
                continue
            if check(combo):
                found += 1
                yield "match", ResultTuple(tuple(i.uid for i in combo), 1.0)
                if found >= self._k:
                    return


@dataclass
class RCCISJoin:
    """Runs the RCCIS baseline for a query on the simulated cluster.

    ``backend`` optionally shares an already-created execution backend (the
    caller keeps ownership); otherwise the engine creates its own, released by
    ``close()`` or by using the baseline as a context manager.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    config: RCCISConfig = field(default_factory=RCCISConfig)
    backend: "ExecutionBackend | None" = None

    def __post_init__(self) -> None:
        self.engine = MapReduceEngine(self.cluster, self.backend)

    def close(self) -> None:
        """Release the engine's own backend workers (injected backends stay up)."""
        self.engine.close()

    def __enter__(self) -> "RCCISJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def execute(self, query: RTJQuery) -> BaselineResult:
        """Evaluate the Boolean interpretation of ``query`` and return up to ``k`` matches."""
        started = time.perf_counter()
        bool_query = boolean_query(query, self.config.boolean_params)

        low = min(
            bool_query.collections[v].time_range()[0] for v in bool_query.vertices
        )
        high = max(
            bool_query.collections[v].time_range()[1] for v in bool_query.vertices
        )
        width = (high - low) / self.config.num_granules or 1.0
        granule_of = _GranuleMap(low, high, width, self.config.num_granules)

        input_pairs = [
            (vertex, interval)
            for vertex in bool_query.vertices
            for interval in bool_query.collections[vertex]
        ]

        # Phase 1: replication planning.
        planning_job = MapReduceJob(
            name="rccis-replication",
            mapper_factory=partial(_ReplicationMapper, granule_of),
            reducer_factory=_ReplicationReducer,
            num_reducers=self.cluster.num_reducers,
        )
        planning_result = self.engine.run(planning_job, input_pairs)

        # Phase 2: colocation join.
        join_job = MapReduceJob(
            name="rccis-join",
            mapper_factory=_JoinMapper,
            reducer_factory=partial(
                _JoinReducer, bool_query.without_data(), bool_query.k, granule_of
            ),
            partitioner=FirstElementPartitioner(),
            num_reducers=self.config.num_granules,
        )
        join_result = self.engine.run(join_job, planning_result.outputs)

        ordered = top_k_matches(join_result.outputs, bool_query.k)
        elapsed = time.perf_counter() - started
        return BaselineResult(
            name="RCCIS",
            results=ordered,
            phase_metrics=[planning_result.metrics, join_result.metrics],
            elapsed_seconds=elapsed,
        )
