"""Per-stream evaluator state and the streaming execution report.

One :class:`StreamState` lives in the :class:`~repro.plan.ExecutionContext`
(under :attr:`ExecutionContext.streams`) per evaluated stream: the persistent
top-k, the knobs resolved at the last (re)plan and the growth counters the
replan policy feeds on.  Each evaluation tick is
summarised as a :class:`BatchReport`; one :class:`StreamingRunResult` (the
``raw`` payload of the returned :class:`~repro.plan.RunReport`) aggregates the
ticks processed by a single ``execute`` call.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..plan.context import checked_snapshot, malformed_checkpoint
from ..query.graph import ResultTuple

__all__ = ["BatchReport", "StreamState", "StreamingRunResult"]

STREAM_STATE_KIND = "stream-state"
STREAM_STATE_VERSION = 1


@dataclass
class StreamState:
    """Everything the streaming evaluator carries from one batch to the next."""

    results: list[ResultTuple] = field(default_factory=list)
    """The exact top-k over everything ingested so far (sorted, score-descending)."""
    knobs: dict[str, Any] = field(default_factory=dict)
    """num_granules/strategy/assigner resolved at the last (re)plan."""
    explanation: object | None = None
    """The AutoPlanner's :class:`PlanExplanation` of the last auto (re)plan."""
    initialized: bool = False
    base_size: int = 0
    """Total intervals across collections when the current plan was built."""
    appended_since_plan: int = 0
    batches_ingested: int = 0
    replans: int = 0

    def kth_score(self, k: int) -> float | None:
        """Score of the current k-th result, or ``None`` while fewer than k exist."""
        if len(self.results) < k:
            return None
        return self.results[k - 1].score

    # ------------------------------------------------------------- checkpoints
    def to_snapshot(self, copy: bool = True) -> dict[str, Any]:
        """A self-contained, picklable snapshot of the evaluator state.

        Everything is deep-copied, so the snapshot keeps *value* semantics: the
        live state can keep evolving (or the process can die) without touching
        what was captured.  Restoring with :meth:`from_snapshot` and replaying
        the remaining batches is tie-aware-identical to never having stopped —
        the checkpoint/recovery contract tested in ``tests/test_checkpoint.py``.
        ``copy=False`` shares the live values, for a caller that pickles the
        snapshot at once.
        """
        snapshot = {
            "kind": STREAM_STATE_KIND,
            "version": STREAM_STATE_VERSION,
            "results": list(self.results),
            "knobs": dict(self.knobs),
            "explanation": self.explanation,
            "initialized": self.initialized,
            "base_size": self.base_size,
            "appended_since_plan": self.appended_since_plan,
            "batches_ingested": self.batches_ingested,
            "replans": self.replans,
        }
        return _copy.deepcopy(snapshot) if copy else snapshot

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "StreamState":
        """Rebuild a state from :meth:`to_snapshot` output (validating the format).

        Keys the state does not know are ignored: version-1 snapshots written
        before the pairwise-bounds memo was removed still carry it.
        """
        snapshot = checked_snapshot(snapshot, STREAM_STATE_KIND, STREAM_STATE_VERSION)
        with malformed_checkpoint(STREAM_STATE_KIND):
            snapshot = _copy.deepcopy(dict(snapshot))
            return cls(
                results=list(snapshot["results"]),
                knobs=dict(snapshot["knobs"]),
                explanation=snapshot.get("explanation"),
                initialized=snapshot["initialized"],
                base_size=snapshot["base_size"],
                appended_since_plan=snapshot["appended_since_plan"],
                batches_ingested=snapshot["batches_ingested"],
                replans=snapshot["replans"],
            )


@dataclass
class BatchReport:
    """Execution summary of one streaming tick (one committed batch per stream)."""

    index: int
    inserted: int
    replanned: bool
    replan_reason: str
    statistics_cached: bool
    phase_seconds: dict[str, float] = field(default_factory=dict)
    candidates: int = 0
    pruned_clean: int = 0
    """Combinations skipped because no freshly-ingested bucket touches them."""
    pruned_bounds: int = 0
    """Dirty combinations skipped because their upper bound cannot crack the top-k."""
    intervals_skipped: int = 0
    tuples_scored: int = 0
    combinations_processed: int = 0
    kth_score: float = 0.0

    @property
    def pruned_pairs(self) -> int:
        """Total bucket combinations pruned before the join (clean + bounded)."""
        return self.pruned_clean + self.pruned_bounds

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the selected combinations pruned away this tick."""
        total = self.candidates + self.pruned_pairs
        return self.pruned_pairs / total if total else 0.0

    @property
    def seconds(self) -> float:
        """Per-batch latency (statistics excluded, matching the paper's convention)."""
        return sum(
            seconds
            for phase, seconds in self.phase_seconds.items()
            if phase != "statistics"
        )

    def describe(self) -> dict[str, float]:
        """Flat summary used by the streaming figure driver."""
        return {
            "batch": float(self.index),
            "inserted": float(self.inserted),
            "seconds": self.seconds,
            "replanned": float(self.replanned),
            "candidates": float(self.candidates),
            "pruned_pairs": float(self.pruned_pairs),
            "pruning_ratio": self.pruning_ratio,
            "intervals_skipped": float(self.intervals_skipped),
            "tuples_scored": float(self.tuples_scored),
            "kth_score": self.kth_score,
        }


@dataclass
class StreamingRunResult:
    """Raw report of one ``execute`` call: the ticks it processed plus totals."""

    results: list[ResultTuple]
    batches: list[BatchReport] = field(default_factory=list)
    batches_ingested: int = 0
    replans: int = 0
    plan_explanation: object | None = None

    @property
    def total_seconds(self) -> float:
        return sum(batch.seconds for batch in self.batches)

    @property
    def pruned_pairs(self) -> int:
        return sum(batch.pruned_pairs for batch in self.batches)

    @property
    def tuples_scored(self) -> int:
        return sum(batch.tuples_scored for batch in self.batches)

    def describe(self) -> dict[str, float]:
        """Flat summary used by the experiment harness."""
        summary = {
            "batches": float(len(self.batches)),
            "batches_ingested": float(self.batches_ingested),
            "replans": float(self.replans),
            "pruned_pairs": float(self.pruned_pairs),
            "tuples_scored": float(self.tuples_scored),
            "seconds_total": self.total_seconds,
        }
        if self.batches:
            summary["last_batch_seconds"] = self.batches[-1].seconds
            summary["last_pruning_ratio"] = self.batches[-1].pruning_ratio
        return summary
