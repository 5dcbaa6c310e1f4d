"""The streaming TKIJ evaluator (``tkij-streaming`` in the registry).

``StreamingTKIJ`` keeps a top-k answer fresh while interval batches arrive,
without recomputing phases (a)-(e) from scratch:

* phase (a) is maintained incrementally through the context's
  :class:`~repro.plan.StatisticsCache` (``update`` applies the paper's §3.2
  ``update_statistics`` to the cached bucket matrices);
* phase (b) re-bounds the combination space from the current bucket boxes
  (one vectorised pass; border boxes widen to cover clamped appends);
* phases (c)-(d) run only over *candidate* bucket combinations: those touching
  a bucket the current batch wrote into (all-old combinations cannot form new
  tuples) whose score upper bound can still crack the persistent top-k
  (appends never evict results, so the k-th score is non-decreasing and every
  previously pruned tuple stays pruned);
* phase (e) merges the batch's results into the persistent k-heap.

A full tick — the first one and every replan — is ``tkij``'s own
:meth:`~repro.plan.TKIJAlgorithm.plan` and ``execute`` over the current
contents, on fresh statistics at the current time range.  A replan is
triggered by :meth:`AutoPlanner.should_replan` when the stream outgrows the
granule boundaries the plan was built on (doubling schedule), or when a batch
mostly falls outside the cached granule range.

The evaluator degrades gracefully to a one-shot full evaluation on plain
static collections, so it is a drop-in registry citizen; streams are expressed
by binding the query to :class:`StreamingCollection` objects and calling
``run`` after ingesting each batch.
"""

from __future__ import annotations

import time
from inspect import signature
from typing import Any, Mapping

from ..core.merge import merge_top_k
from ..core.operators import (
    FilteredDistributeOp,
    JoinOp,
    MergeOp,
    PhaseState,
    StatisticsOp,
    TopBucketsOp,
    collections_by_name,
    run_pipeline,
)
from ..checks import string
from ..core.statistics import batch_arrays, bucket_counts
from ..mapreduce import MapReduceEngine
from ..mapreduce.cluster import JobMetrics
from ..plan.algorithm import Algorithm, ExecutionPlan, RunReport
from ..plan.algorithms import TKIJAlgorithm
from ..plan.context import ExecutionContext
from ..plan.feedback import query_fingerprint
from ..plan.planner import AutoPlanner
from ..plan.registry import get_algorithm, register
from ..query.graph import RTJQuery
from .collection import StreamingCollection
from .operators import CandidateFilter
from .state import BatchReport, StreamState, StreamingRunResult

__all__ = ["StreamingTKIJ"]


class StreamingTKIJ(Algorithm):
    """Incremental top-k temporal joins over appending collections."""

    name = "tkij-streaming"
    title = "TKIJ (streaming)"
    scored = True
    knobs = {**TKIJAlgorithm.knobs, "stream_id": string}

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        stream_id: str = "default",
        planner: AutoPlanner | None = None,
        **tkij_knobs: Any,
    ) -> ExecutionPlan:
        """``tkij_knobs`` are ``tkij``'s own plan knobs, handed to its
        :meth:`~repro.plan.TKIJAlgorithm.plan` on every full tick."""
        # Unknown keywords fail here, not on the first full tick.
        signature(get_algorithm("tkij").plan).bind(query, context, **tkij_knobs)
        self.check_knobs(stream_id=stream_id, **tkij_knobs)
        knobs = {"stream_id": stream_id, "planner": planner or AutoPlanner(), **tkij_knobs}
        return ExecutionPlan(self.name, query, context, knobs)

    # ---------------------------------------------------------------- execute
    def execute(self, plan: ExecutionPlan) -> RunReport:
        query, context, knobs = plan.query, plan.context, plan.knobs
        collections = collections_by_name(query)
        streaming = {
            name: collection
            for name, collection in collections.items()
            if isinstance(collection, StreamingCollection)
        }
        state = self._stream_state(context, query, knobs["stream_id"])
        engine = MapReduceEngine(context.cluster, context.get_backend())

        reports: list[BatchReport] = []
        metrics: list[JobMetrics] = []
        if not state.initialized:
            self._commit_tick(streaming)
            for name, collection in collections.items():
                if not len(collection):
                    raise ValueError(
                        f"collection {name!r} has no intervals yet; ingest a first "
                        "batch before evaluating the stream"
                    )
            inserted = sum(len(collection) for collection in collections.values())
            report, tick_metrics = self._full_tick(
                query, context, state, knobs,
                inserted=inserted, replanned=False, reason="initial full evaluation",
            )
            reports.append(report)
            metrics.extend(tick_metrics)
        while any(c.pending_batches for c in streaming.values()):
            committed = self._commit_tick(streaming)
            report, tick_metrics = self._incremental_tick(
                query, context, engine, state, knobs, committed
            )
            reports.append(report)
            metrics.extend(tick_metrics)

        phase_seconds: dict[str, float] = {}
        for report in reports:
            for phase, seconds in report.phase_seconds.items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        raw = StreamingRunResult(
            results=list(state.results),
            batches=reports,
            batches_ingested=state.batches_ingested,
            replans=state.replans,
            plan_explanation=state.explanation,
        )
        return RunReport(
            algorithm=self.name,
            title=self.title,
            results=list(state.results),
            phase_seconds=phase_seconds,
            metrics=metrics,
            explanation=state.explanation,
            statistics_cached=reports[-1].statistics_cached if reports else True,
            elapsed_seconds=raw.total_seconds,
            raw=raw,
        )

    # ------------------------------------------------------------------ ticks
    @staticmethod
    def _commit_tick(
        streaming: Mapping[str, StreamingCollection],
    ) -> dict[str, tuple]:
        """Commit at most one pending batch per stream; returns the batch intervals."""
        committed = {}
        for name, collection in streaming.items():
            batch = collection.commit_next()
            if batch is not None and len(batch):
                committed[name] = batch.intervals
        return committed

    def _full_tick(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        state: StreamState,
        knobs: Mapping[str, Any],
        inserted: int,
        replanned: bool,
        reason: str,
        rebuild_statistics: bool = True,
    ) -> tuple[BatchReport, list[JobMetrics]]:
        """Plan (or replan) and evaluate the whole current dataset: ``tkij``'s
        own plan + execute over the current contents.

        ``rebuild_statistics=False`` skips the cache invalidation — used when
        the caller just collected fresh statistics itself (a cache miss on the
        incremental path) and a second phase (a) pass would be pure waste.
        """
        collections = collections_by_name(query)
        if replanned:
            # A replan escapes the incrementally maintained matrices, which
            # clamp out-of-range appends into border buckets: drop every
            # granularity the new plan may fetch (under auto mode any of the
            # planner's candidates), so phase (a) rebuilds granule boundaries
            # over the *current* time range — except an entry the caller has
            # just rebuilt itself.
            if knobs.get("mode") == "auto":
                stale = set(knobs["planner"].granule_candidates)
            else:
                stale = {state.knobs["num_granules"]}
            if not rebuild_statistics:
                stale.discard(state.knobs["num_granules"])
            for num_granules in stale:
                context.statistics.invalidate(collections, num_granules)
        tkij = get_algorithm("tkij")
        plan = tkij.plan(
            query, context, **{name: value for name, value in knobs.items() if name != "stream_id"}
        )
        run = tkij.execute(plan)
        result = run.raw
        # The plan epoch's knobs drive every incremental tick until a replan.
        state.knobs = plan.knobs
        state.explanation = plan.explanation
        state.results = result.results
        state.base_size = sum(len(collection) for collection in collections.values())
        state.appended_since_plan = 0
        state.initialized = True
        report = BatchReport(
            index=state.batches_ingested,
            inserted=inserted,
            replanned=replanned,
            replan_reason=reason,
            statistics_cached=run.statistics_cached,
            phase_seconds=dict(result.phase_seconds),
            candidates=len(result.top_buckets.selected),
            tuples_scored=result.local_join_stats.tuples_scored,
            combinations_processed=result.local_join_stats.combinations_processed,
            kth_score=state.kth_score(query.k) or 0.0,
        )
        state.batches_ingested += 1
        return report, run.metrics

    def _incremental_tick(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        engine: MapReduceEngine,
        state: StreamState,
        knobs: Mapping[str, Any],
        committed: Mapping[str, tuple],
    ) -> tuple[BatchReport, list[JobMetrics]]:
        """Fold one committed batch into the persistent top-k."""
        collections = collections_by_name(query)
        batch_total = sum(len(intervals) for intervals in committed.values())
        if batch_total == 0:
            # An idle tick (every stream's batch was empty) changes nothing.
            report = BatchReport(
                index=state.batches_ingested,
                inserted=0,
                replanned=False,
                replan_reason="empty batch",
                statistics_cached=True,
                kth_score=state.kth_score(query.k) or 0.0,
            )
            state.batches_ingested += 1
            return report, []

        # Phase (a), incrementally: fold the batch into every cached matrix and
        # re-record the fingerprints (appends may extend the time range; the
        # counts stay correct — clamped to border granules, per §3.2).
        started = time.perf_counter()
        context.statistics.update(inserted=committed)
        context.statistics.refresh_fingerprints(
            {name: collections[name] for name in committed}
        )
        num_granules = state.knobs["num_granules"]
        statistics, cached = context.statistics.get_or_collect(collections, num_granules)
        statistics_seconds = time.perf_counter() - started
        state.appended_since_plan += batch_total

        if not cached:
            # The cache entry was lost (e.g. an out-of-band mutation): the
            # recollected granularity re-buckets every interval, so fall
            # back to a full evaluation of the current contents — reusing the
            # statistics get_or_collect just rebuilt, not collecting twice.
            state.replans += 1
            return self._full_tick(
                query, context, state, knobs,
                inserted=batch_total, replanned=True,
                reason="statistics cache missed; granule boundaries rebuilt",
                rebuild_statistics=False,
            )

        # Which buckets the batch wrote into and how much of it the cached
        # granule range clamps, from the batch's endpoint columns.
        dirty_buckets: dict[str, frozenset] = {}
        out_of_range = 0
        for name, intervals in committed.items():
            granularity = statistics.matrix(name).granularity
            starts, ends = batch_arrays(intervals)
            dirty_buckets[name] = frozenset(bucket_counts(granularity, starts, ends))
            out_of_range += int(
                ((starts < granularity.time_min) | (ends > granularity.time_max)).sum()
            )
        replan, reason = knobs["planner"].should_replan(
            base_size=state.base_size,
            appended_since_plan=state.appended_since_plan,
            batch_size=batch_total,
            out_of_range=out_of_range,
        )
        if replan:
            state.replans += 1
            return self._full_tick(
                query, context, state, knobs,
                inserted=batch_total, replanned=True, reason=reason,
            )

        dirty = {
            vertex: dirty_buckets[query.collections[vertex].name]
            for vertex in query.vertices
            if query.collections[vertex].name in committed
        }
        threshold = state.kth_score(query.k)
        candidate_filter = CandidateFilter(dirty, threshold)
        pstate = PhaseState(
            query=query, engine=engine, num_reducers=context.cluster.num_reducers
        )
        run_pipeline(
            [
                StatisticsOp(num_granules, statistics),
                # Always loose, whatever the plan's strategy: joint bounds
                # would be re-solved whenever a bucket's cardinality changes.
                TopBucketsOp("loose", state.knobs["solver"]),
                FilteredDistributeOp(state.knobs["assigner"], keep=candidate_filter),
                # Reducers inherit the persistent k-th score as their pruning
                # floor: tuples that cannot strictly beat it never get scored.
                JoinOp(state.knobs["join_config"], initial_threshold=threshold or 0.0),
                MergeOp(),
            ],
            pstate,
        )
        pstate.phase_seconds["statistics"] = (
            pstate.phase_seconds.get("statistics", 0.0) + statistics_seconds
        )
        state.results = merge_top_k([state.results, pstate.results], query.k)
        report = BatchReport(
            index=state.batches_ingested,
            inserted=batch_total,
            replanned=False,
            replan_reason=reason,
            statistics_cached=cached,
            phase_seconds=dict(pstate.phase_seconds),
            candidates=candidate_filter.kept,
            pruned_clean=candidate_filter.clean_skipped,
            pruned_bounds=candidate_filter.bound_pruned,
            intervals_skipped=pstate.pruning.get("intervals_skipped", 0),
            tuples_scored=pstate.local_join_stats.tuples_scored,
            combinations_processed=pstate.local_join_stats.combinations_processed,
            kth_score=state.kth_score(query.k) or 0.0,
        )
        state.batches_ingested += 1
        return report, [pstate.join_metrics, pstate.merge_metrics]

    # ----------------------------------------------------------------- helpers
    def _stream_state(
        self, context: ExecutionContext, query: RTJQuery, stream_id: str
    ) -> StreamState:
        """The per-stream state, keyed by stream id and the query fingerprint.

        The fingerprint (:func:`~repro.plan.feedback.query_fingerprint`: the
        bound collections, edges with their predicate parameters, ``k`` and the
        aggregation) keeps two different queries on one ``stream_id`` from
        trampling — or answering from — each other's persistent top-k.
        """
        key = (self.name, stream_id, query_fingerprint(query))
        return context.stream_state(key, StreamState)  # type: ignore[return-value]


register(StreamingTKIJ())
