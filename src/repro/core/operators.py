"""Composable phase operators of the TKIJ pipeline.

Each phase of Figure 5 — statistics (a), TopBuckets (b), DistributeTopBuckets
(c), the distributed join (d) and the merge (e) — is one :class:`PhaseOperator`
that reads and writes a shared :class:`PhaseState` blackboard.  The
:class:`~repro.core.tkij.TKIJ` facade composes the five operators into the
standard pipeline, but callers (alternative planners, partial re-runs, future
adaptive strategies) can assemble their own operator sequences:
``run_pipeline`` times every operator into ``state.phase_seconds`` under the
operator's phase name, so any composition produces the same execution report.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..columnar import IntervalColumns
from ..mapreduce import (
    FirstElementPartitioner,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    Reducer,
)
from ..mapreduce.cluster import JobMetrics
from ..query.graph import ResultTuple, RTJQuery
from ..solver import BranchAndBoundSolver
from ..temporal.interval import IntervalCollection
from .bounds import CombinationTable
from .distribution import WorkloadAssignment, assign
from .local_join import LocalJoinConfig, LocalJoinStats, LocalTopKJoin
from .merge import run_merge_job
from .statistics import (
    BucketKey,
    DatasetStatistics,
    bucket_columns,
    collect_statistics,
)
from .top_buckets import TopBucketsResult, TopBucketsSelector

__all__ = [
    "PhaseState",
    "PhaseOperator",
    "StatisticsOp",
    "TopBucketsOp",
    "DistributeOp",
    "FilteredDistributeOp",
    "JoinOp",
    "MergeOp",
    "run_pipeline",
    "collections_by_name",
]


def collections_by_name(query: RTJQuery) -> dict[str, IntervalCollection]:
    """Distinct collections referenced by the query, keyed by collection name."""
    collections: dict[str, IntervalCollection] = {}
    for vertex in query.vertices:
        collection = query.collections[vertex]
        collections[collection.name] = collection
    return collections


@dataclass
class PhaseState:
    """Mutable blackboard threaded through the phase operators of one query.

    Every operator consumes fields produced by its predecessors and fills in its
    own; after the full pipeline the state holds everything a
    :class:`~repro.core.tkij.TKIJResult` reports.
    """

    query: RTJQuery
    engine: MapReduceEngine
    num_reducers: int
    statistics: DatasetStatistics | None = None
    top_buckets: TopBucketsResult | None = None
    assignment: WorkloadAssignment | None = None
    local_results: dict[int, list[ResultTuple]] = field(default_factory=dict)
    join_metrics: JobMetrics | None = None
    merge_metrics: JobMetrics | None = None
    local_join_stats: LocalJoinStats = field(default_factory=LocalJoinStats)
    results: list[ResultTuple] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    pruning: dict[str, int] = field(default_factory=dict)
    """Work-avoidance counters: ``combinations_kept``/``combinations_pruned`` from
    :class:`FilteredDistributeOp`, ``intervals_skipped`` from every :class:`JoinOp`."""

    def per_reducer_kth_score(self) -> dict[int, float | None]:
        """Score of each reducer's local k-th result (``None`` for empty reducers)."""
        return {
            reducer: (results[-1].score if results else None)
            for reducer, results in self.local_results.items()
        }


class PhaseOperator(ABC):
    """One phase of the pipeline; mutates the shared :class:`PhaseState`.

    ``name`` is the phase key under which ``run_pipeline`` records the
    operator's wall-clock time (and therefore the key reported in
    ``TKIJResult.phase_seconds``).
    """

    name: str = "operator"

    @abstractmethod
    def run(self, state: PhaseState) -> None:
        """Execute this phase, reading and writing ``state``."""


def run_pipeline(operators: Sequence[PhaseOperator], state: PhaseState) -> PhaseState:
    """Run operators in order, timing each into ``state.phase_seconds``."""
    for operator in operators:
        started = time.perf_counter()
        operator.run(state)
        state.phase_seconds[operator.name] = time.perf_counter() - started
    return state


# ---------------------------------------------------------------- phase (a)
@dataclass
class StatisticsOp(PhaseOperator):
    """Phase (a): bucket matrices for every collection (query-independent).

    ``precollected`` short-circuits the phase with statistics obtained earlier
    (e.g. from a :class:`~repro.plan.StatisticsCache`), which is how the
    query-independent work is amortised across queries.
    """

    num_granules: int = 20
    precollected: DatasetStatistics | None = None

    name = "statistics"

    def run(self, state: PhaseState) -> None:
        if self.precollected is not None:
            state.statistics = self.precollected
            return
        state.statistics = collect_statistics(
            collections_by_name(state.query), self.num_granules
        )


# ---------------------------------------------------------------- phase (b)
@dataclass
class TopBucketsOp(PhaseOperator):
    """Phase (b): score bounds for bucket combinations and pruning to ``Ω_k,S``."""

    strategy: str = "loose"
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)

    name = "top_buckets"

    def run(self, state: PhaseState) -> None:
        assert state.statistics is not None, "StatisticsOp must run before TopBucketsOp"
        selector = TopBucketsSelector(strategy=self.strategy, solver=self.solver)
        state.top_buckets = selector.run(state.query, state.statistics)


# ---------------------------------------------------------------- phase (c)
@dataclass
class DistributeOp(PhaseOperator):
    """Phase (c): assignment of combinations (and hence buckets) to reducers."""

    assigner: str = "dtb"

    name = "distribution"

    def run(self, state: PhaseState) -> None:
        assert state.top_buckets is not None, "TopBucketsOp must run before DistributeOp"
        state.assignment = assign(
            self.assigner, state.top_buckets.selected, state.num_reducers
        )


@dataclass
class FilteredDistributeOp(DistributeOp):
    """Phase (c) over a pruned candidate subset of ``Ω_k,S``.

    ``keep`` maps the selected table to a boolean mask over its rows: whether
    each combination can still contribute results the caller does not already
    hold — the streaming evaluator passes a filter keeping only combinations
    that touch freshly-ingested buckets *and* whose score upper bound can crack
    the current top-k.  Kept/pruned counts land in ``state.pruning`` so reports
    and benchmarks can assert the avoided work.
    """

    keep: Callable[[CombinationTable], np.ndarray] | None = None

    name = "distribution"

    def run(self, state: PhaseState) -> None:
        assert state.top_buckets is not None, (
            "TopBucketsOp must run before FilteredDistributeOp"
        )
        selected = CombinationTable.of(state.top_buckets.selected)
        kept = selected if self.keep is None else selected.take(np.flatnonzero(self.keep(selected)))
        state.pruning["combinations_kept"] = len(kept)
        state.pruning["combinations_pruned"] = len(selected) - len(kept)
        state.assignment = assign(self.assigner, kept, state.num_reducers)


# ---------------------------------------------------------------- phase (d)
class _JoinMapper(Mapper):
    """Routes each bucket's record batch to every reducer that was assigned it.

    Routing is a function of the bucket, never of the interval, so the unit of
    the shuffle is one uid-ordered :class:`IntervalColumns` per ``(vertex,
    bucket)`` — on the process backend that pickles dense arrays per bucket
    (including the sweep kernel's endpoint-sorted views, when built).  The
    ``join.intervals_shuffled`` counter counts intervals, not batches.
    """

    def __init__(self, routing: Mapping[tuple[str, BucketKey], tuple[int, ...]]) -> None:
        self._routing = routing

    def map(self, key, value):
        vertex, bucket = key
        columns: IntervalColumns = value
        for reducer in self._routing[vertex, bucket]:
            self.counters.increment("join.intervals_shuffled", len(columns))
            yield (reducer, vertex, bucket), columns


def batch_record_size(key, value) -> int:
    """Shuffle size of one bucket batch: the intervals it carries.

    Module-level (picklable); keeps ``JobMetrics.shuffle_size`` the replicated
    interval volume, comparable with the baselines' per-interval jobs.
    """
    return len(value)


class _JoinReducer(Reducer):
    """Collects its buckets, then runs the local top-k join in ``cleanup``.

    One reducer's worth of state: its id, its rows of the assignment and a
    data-free query (:meth:`RTJQuery.without_data`) — all a reduce task ships.
    """

    def __init__(
        self,
        query: RTJQuery,
        config: LocalJoinConfig,
        initial_threshold: float,
        reducer_id: int,
        combinations: CombinationTable,
    ) -> None:
        self._query = query
        self._config = config
        self._initial_threshold = initial_threshold
        self._reducer_id = reducer_id
        self._combinations = combinations
        self._buckets: dict[tuple[str, BucketKey], IntervalColumns] = {}

    def reduce(self, key, values):
        # A bucket normally arrives as the one uid-ordered batch the mapper
        # shipped; spilled runs can deliver it in pieces, which are put back in
        # uid order.  The local join's pruning thresholds evolve with the
        # processing order, so a shared canonical order is what makes work
        # counters identical across kernels — and across cluster shapes.
        _, vertex, bucket = key
        pieces = list(values)
        columns = IntervalColumns.concat(pieces)
        self._buckets[vertex, bucket] = columns.sort_by_uid() if len(pieces) > 1 else columns
        return iter(())

    def cleanup(self) -> Iterator:
        if not self._buckets or not self._combinations:
            return
        join = LocalTopKJoin(self._query, self._config)
        results, stats = join.run(
            self._combinations,
            self._buckets,
            k=self._query.k,
            initial_threshold=self._initial_threshold,
        )
        self.counters.increment("join.tuples_scored", stats.tuples_scored)
        self.counters.increment("join.candidates_examined", stats.candidates_examined)
        self.counters.increment("join.combinations_processed", stats.combinations_processed)
        self.counters.increment("join.combinations_skipped", stats.combinations_skipped)
        yield "local_top_k", (self._reducer_id, results, stats)


@dataclass
class _JoinJob(MapReduceJob):
    """The join job: reducer ``r``'s factory carries ``r``'s rows only.

    ``reducer_factory`` holds what every reducer shares and takes the reducer
    id and rows as its last two arguments; the engine never ships the job, so
    the whole ``assignment`` stays on the driver.
    """

    assignment: WorkloadAssignment | None = None

    def reducer_factory_for(self, partition: int) -> Callable[[], Reducer]:
        rows = self.assignment.combinations_per_reducer[partition]
        return partial(self.reducer_factory, partition, rows)


@dataclass
class JoinOp(PhaseOperator):
    """Phase (d): each collection is split once into per-bucket record batches,
    mappers route the batches some reducer was assigned, reducers run the RTJ
    query locally and emit their top-k.

    Buckets no reducer was assigned are never shipped; the intervals they hold
    are counted in ``state.pruning["intervals_skipped"]`` (most of the data on
    a streaming tick, whose assignment covers only a small candidate subset).

    ``initial_threshold`` seeds every reducer's early-termination floor (see
    :meth:`LocalTopKJoin.run`); the streaming evaluator passes its persistent
    k-th score so reducers never enumerate tuples that cannot improve the
    carried answer.
    """

    join_config: LocalJoinConfig = field(default_factory=LocalJoinConfig)
    initial_threshold: float = 0.0

    name = "join"

    def run(self, state: PhaseState) -> None:
        assert state.statistics is not None and state.assignment is not None, (
            "StatisticsOp and DistributeOp must run before JoinOp"
        )
        assignment = state.assignment

        reducers_of: dict[tuple[str, BucketKey], list[int]] = {}
        for reducer, buckets in assignment.buckets_per_reducer.items():
            for item in buckets:
                reducers_of.setdefault(item, []).append(reducer)
        routing: dict[tuple[str, BucketKey], tuple[int, ...]] = {
            item: tuple(reducers) for item, reducers in reducers_of.items()
        }

        input_pairs: list[tuple[tuple[str, BucketKey], IntervalColumns]] = []
        skipped = 0
        for vertex in state.query.vertices:
            collection = state.query.collections[vertex]
            granularity = state.statistics.matrix(collection.name).granularity
            for bucket, columns in bucket_columns(granularity, collection).items():
                if (vertex, bucket) in routing:
                    input_pairs.append(((vertex, bucket), columns))
                else:
                    skipped += len(columns)
        state.pruning["intervals_skipped"] = skipped
        if self.join_config.kernel == "sweep":
            # Endpoint-sorted views are built once per bucket *before* the
            # shuffle and pickle with the batch (IntervalColumns ships them
            # when built), so every replica reducer resolves windows without
            # re-sorting its buckets.
            for _, columns in input_pairs:
                columns.sorted_views()

        job = _JoinJob(
            name="tkij-join",
            mapper_factory=partial(_JoinMapper, routing),
            reducer_factory=partial(
                _JoinReducer,
                state.query.without_data(),
                self.join_config,
                self.initial_threshold,
            ),
            partitioner=FirstElementPartitioner(),
            num_reducers=state.num_reducers,
            record_size=batch_record_size,
            assignment=assignment,
        )
        job_result = state.engine.run(job, input_pairs)

        local_results: dict[int, list[ResultTuple]] = {}
        merged_stats = LocalJoinStats()
        for key, value in job_result.outputs:
            if key != "local_top_k":
                continue
            reducer_id, results, stats = value
            local_results[reducer_id] = results
            merged_stats.merge(stats)
        state.local_results = local_results
        state.join_metrics = job_result.metrics
        state.local_join_stats = merged_stats


# ---------------------------------------------------------------- phase (e)
@dataclass
class MergeOp(PhaseOperator):
    """Phase (e): a final Map-Reduce job merging the local lists into the top-k."""

    name = "merge"

    def run(self, state: PhaseState) -> None:
        ordered_locals = [
            state.local_results.get(reducer, []) for reducer in range(state.num_reducers)
        ]
        results, merge_job = run_merge_job(state.engine, ordered_locals, state.query.k)
        state.results = results
        state.merge_metrics = merge_job.metrics
