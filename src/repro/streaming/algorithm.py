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

A full replan — fresh statistics at the current time range, full pipeline —
is triggered by :meth:`AutoPlanner.should_replan` when the stream outgrows the
granule boundaries the plan was built on (doubling schedule), or when a batch
mostly falls outside the cached granule range.

The evaluator degrades gracefully to a one-shot full evaluation on plain
static collections, so it is a drop-in registry citizen; streams are expressed
by binding the query to :class:`StreamingCollection` objects and calling
``run`` after ingesting each batch.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..core.distribution import ASSIGNERS
from ..core.local_join import LocalJoinConfig
from ..core.merge import merge_top_k
from ..core.operators import (
    DistributeOp,
    FilteredDistributeOp,
    JoinOp,
    MergeOp,
    PhaseState,
    StatisticsOp,
    TopBucketsOp,
    collections_by_name,
    run_pipeline,
)
from ..core.statistics import batch_arrays, bucket_counts
from ..core.top_buckets import STRATEGIES
from ..mapreduce import MapReduceEngine
from ..plan.algorithm import Algorithm, ExecutionPlan, RunReport, positive_int
from ..plan.algorithms import PLAN_MODES, resolve_join_config
from ..plan.context import ExecutionContext
from ..plan.planner import AutoPlanner
from ..plan.registry import register
from ..query.graph import RTJQuery
from ..solver import BranchAndBoundSolver
from .collection import StreamingCollection
from .operators import CandidateFilter
from .state import BatchReport, StreamState, StreamingRunResult

__all__ = ["StreamingTKIJ"]

_RESOLVED_KNOBS = ("num_granules", "strategy", "assigner")


class StreamingTKIJ(Algorithm):
    """Incremental top-k temporal joins over appending collections."""

    name = "tkij-streaming"
    title = "TKIJ (streaming)"
    scored = True

    def plan(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        mode: str = "manual",
        stream_id: str = "default",
        num_granules: int = 20,
        strategy: str = "loose",
        assigner: str = "dtb",
        kernel: str | None = None,
        join_config: LocalJoinConfig | None = None,
        solver: BranchAndBoundSolver | None = None,
        planner: AutoPlanner | None = None,
    ) -> ExecutionPlan:
        if mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if assigner not in ASSIGNERS:
            raise ValueError(f"unknown assigner {assigner!r}; expected one of {sorted(ASSIGNERS)}")
        knobs: dict[str, Any] = {
            "mode": mode,
            "stream_id": stream_id,
            "num_granules": positive_int("num_granules", num_granules),
            "strategy": strategy,
            "assigner": assigner,
            # The kernel is resolved per (re)plan in _full_tick: an explicit
            # value always wins, otherwise auto mode applies the planner's
            # pick and manual mode keeps the join_config's own kernel.
            "kernel": kernel,
            "join_config": join_config or LocalJoinConfig(),
            "solver": solver or BranchAndBoundSolver(),
            "planner": planner or AutoPlanner(),
        }
        # Validates an explicit kernel before a batch is committed or a task runs.
        knobs["join_config"] = resolve_join_config(knobs)
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
        metrics = []
        if not state.initialized:
            committed = self._commit_tick(streaming)
            for name, collection in collections.items():
                if not len(collection):
                    raise ValueError(
                        f"collection {name!r} has no intervals yet; ingest a first "
                        "batch before evaluating the stream"
                    )
            inserted = sum(len(collection) for collection in collections.values())
            report, pstate = self._full_tick(
                query, context, engine, state, knobs,
                inserted=inserted, replanned=False, reason="initial full evaluation",
            )
            reports.append(report)
            metrics.extend([pstate.join_metrics, pstate.merge_metrics])
        while any(c.pending_batches for c in streaming.values()):
            committed = self._commit_tick(streaming)
            report, pstate = self._incremental_tick(
                query, context, engine, state, knobs, committed
            )
            reports.append(report)
            if pstate is not None:
                metrics.extend([pstate.join_metrics, pstate.merge_metrics])

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
            metrics=[m for m in metrics if m is not None],
            explanation=state.explanation,
            statistics_cached=reports[-1].statistics_cached if reports else True,
            elapsed_seconds=raw.total_seconds,
            raw=raw,
        )

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        picked = {}
        for knob in ("mode", "num_granules", "strategy", "assigner", "kernel", "stream_id"):
            if options.get(knob) is not None:
                picked[knob] = options[knob]
        return picked

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
        engine: MapReduceEngine,
        state: StreamState,
        knobs: Mapping[str, Any],
        inserted: int,
        replanned: bool,
        reason: str,
        rebuild_statistics: bool = True,
    ) -> tuple[BatchReport, PhaseState]:
        """Plan (or replan) and evaluate the whole current dataset from scratch.

        ``rebuild_statistics=False`` skips the cache invalidation — used when
        the caller just collected fresh statistics itself (a cache miss on the
        incremental path) and a second phase (a) pass would be pure waste.
        """
        collections = collections_by_name(query)
        resolved = {knob: knobs[knob] for knob in _RESOLVED_KNOBS}
        auto = knobs["mode"] == "auto"
        if replanned:
            # A replan escapes the incrementally maintained matrices, which
            # clamp out-of-range appends into border buckets: drop every
            # granularity the new plan may fetch (under auto mode any of the
            # planner's candidates), so phase (a) rebuilds granule boundaries
            # over the *current* time range — except an entry the caller has
            # just rebuilt itself.
            stale = set(knobs["planner"].granule_candidates) if auto else {knobs["num_granules"]}
            if not rebuild_statistics:
                stale.discard(state.knobs["num_granules"])
            for num_granules in stale:
                context.statistics.invalidate(collections, num_granules)
        if auto:
            chosen, explanation = knobs["planner"].plan(query, context)
            resolved.update(chosen)
            state.explanation = explanation
        # Resolve the effective join configuration for this plan epoch: an
        # explicit kernel beats the planner's pick; the resolved config drives
        # both this full evaluation and every incremental tick until a replan.
        explicit_kernel = knobs.get("kernel")
        kernel = explicit_kernel if explicit_kernel is not None else resolved.get("kernel")
        resolved["join_config"] = resolve_join_config(
            {"join_config": knobs["join_config"], "kernel": kernel}
        )
        if explicit_kernel is not None and state.explanation is not None:
            state.explanation.kernel = explicit_kernel
        state.knobs = resolved
        num_granules = resolved["num_granules"]
        started = time.perf_counter()
        statistics, cached = context.statistics.get_or_collect(collections, num_granules)
        statistics_seconds = time.perf_counter() - started
        if auto:
            # The planner counted buckets and warmed this entry: its phase (a)
            # work belongs to the statistics phase, and the tick reads as
            # cached only if the planner's own fetch hit.
            statistics_seconds, cached = state.explanation.charge_planning(
                statistics_seconds, cached
            )

        pstate = PhaseState(
            query=query, engine=engine, num_reducers=context.cluster.num_reducers
        )
        run_pipeline(
            [
                StatisticsOp(num_granules, statistics),
                TopBucketsOp(resolved["strategy"], knobs["solver"]),
                DistributeOp(resolved["assigner"]),
                JoinOp(resolved["join_config"]),
                MergeOp(),
            ],
            pstate,
        )
        pstate.phase_seconds["statistics"] = (
            pstate.phase_seconds.get("statistics", 0.0) + statistics_seconds
        )
        state.results = pstate.results
        state.base_size = sum(len(collection) for collection in collections.values())
        state.appended_since_plan = 0
        state.initialized = True
        report = BatchReport(
            index=state.batches_ingested,
            inserted=inserted,
            replanned=replanned,
            replan_reason=reason,
            statistics_cached=cached,
            phase_seconds=dict(pstate.phase_seconds),
            candidates=len(pstate.top_buckets.selected) if pstate.top_buckets else 0,
            tuples_scored=pstate.local_join_stats.tuples_scored,
            combinations_processed=pstate.local_join_stats.combinations_processed,
            kth_score=state.kth_score(query.k) or 0.0,
        )
        state.batches_ingested += 1
        return report, pstate

    def _incremental_tick(
        self,
        query: RTJQuery,
        context: ExecutionContext,
        engine: MapReduceEngine,
        state: StreamState,
        knobs: Mapping[str, Any],
        committed: Mapping[str, tuple],
    ) -> tuple[BatchReport, PhaseState | None]:
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
            return report, None

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
                query, context, engine, state, knobs,
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
                query, context, engine, state, knobs,
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
                TopBucketsOp("loose", knobs["solver"]),
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
        return report, pstate

    # ----------------------------------------------------------------- helpers
    def _stream_state(
        self, context: ExecutionContext, query: RTJQuery, stream_id: str
    ) -> StreamState:
        """The per-stream state, keyed by stream id and the query's identity.

        Including the query fingerprint in the key keeps two different queries
        (or the same query at a different ``k``) on the same ``stream_id`` from
        trampling each other's persistent top-k.
        """
        edges = tuple(
            (edge.source, edge.target, edge.predicate.name) for edge in query.edges
        )
        names = tuple(query.collections[vertex].name for vertex in query.vertices)
        key = (self.name, stream_id, query.vertices, names, edges, query.k)
        return context.stream_state(key, StreamState)  # type: ignore[return-value]


register(StreamingTKIJ())
