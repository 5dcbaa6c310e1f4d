"""Feedback-driven planning: observed costs, memoized plans, fingerprints.

The :class:`~repro.plan.AutoPlanner` prices plans from bucket statistics and a
table of measured unit costs; this module closes the loop with what actually happened
(DESIGN.md §14):

* :func:`workload_fingerprint` / :func:`query_fingerprint` /
  :func:`statistics_fingerprint` — deterministic blake2b identities at three
  granularities: the coarse workload *shape* observations generalise over,
  the exact planning problem, and the exact dataset state;
* :class:`CostStore` — a small append-friendly store (JSON lines, atomic
  appends) keyed by ``(workload fingerprint, knob tuple)`` accumulating
  observed :meth:`~repro.mapreduce.JobMetrics.observed_costs` outcomes per
  executed plan, from which the planner derives learned per-candidate kernel
  cost ratios (falling back to the unit-cost table cold);
* :class:`PlanCache` — a bounded LRU of whole auto plans keyed by
  ``(query fingerprint, statistics fingerprint)``, so the serving hot path
  returns a memoized plan without re-pricing.  The key deliberately excludes
  the non-deterministic ``PlanExplanation.inputs`` fields (``probe_seconds``,
  ``probe_cached``): two plannings of the same query over the same data are
  the *same* plan however long the counting took;
* :class:`PlanFeedback` — the bundle an :class:`~repro.plan.ExecutionContext`
  carries to opt its queries into both.

Everything here is thread-safe: the serving layer shares one feedback bundle
across concurrent executor threads, exactly like the statistics cache.
"""

from __future__ import annotations

import copy
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..query.graph import RTJQuery
from ..temporal.interval import IntervalCollection
from .context import _collection_checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from .planner import PlanExplanation

__all__ = [
    "CostStore",
    "PlanCache",
    "PlanFeedback",
    "query_fingerprint",
    "statistics_fingerprint",
    "workload_fingerprint",
]


def _digest(kind: str, tokens: Any) -> str:
    """Keyed blake2b hex digest of a canonical token tree (the repo's idiom)."""
    payload = repr(tokens).encode("utf-8")
    return blake2b(payload, digest_size=16, key=kind.encode("utf-8")[:16]).hexdigest()


def _edge_identity(query: RTJQuery) -> tuple[tuple[str, str, str, str, tuple[str, ...]], ...]:
    """Exact edge identities: endpoints, predicate, scoring params, attributes."""
    return tuple(
        (
            edge.source,
            edge.target,
            edge.predicate.name,
            repr(edge.predicate.params),
            tuple(attribute.describe() for attribute in edge.attributes),
        )
        for edge in query.edges
    )


def query_fingerprint(query: RTJQuery) -> str:
    """The exact identity of a planning problem (dataset contents excluded).

    Two queries share a fingerprint iff they bind the same collection names to
    the same vertices, carry the same edges (predicates, parameter sets and
    attribute constraints included), the same ``k`` and the same aggregation —
    i.e. iff a memoized plan for one is a valid plan for the other given equal
    statistics.
    """
    tokens = (
        query.vertices,
        tuple(query.collections[vertex].name for vertex in query.vertices),
        _edge_identity(query),
        query.k,
        type(query.aggregation).__name__,
    )
    return _digest("rtj-query", tokens)


def statistics_fingerprint(collections: Mapping[str, IntervalCollection]) -> str:
    """The exact identity of a dataset state, as the statistics cache sees it.

    Built from each collection's name, size, time range and endpoint checksum
    (the same drift detectors :class:`~repro.plan.StatisticsCache` validates
    entries with), so any append/delete/edit that would invalidate cached
    statistics also misses the plan cache.  Cheap: two numpy sums per
    collection, no statistics collection.
    """
    tokens = tuple(
        sorted(
            (name, len(collection), collection.time_range(), _collection_checksum(collection))
            for name, collection in collections.items()
        )
    )
    return _digest("statistics", tokens)


def _magnitude(value: float) -> int:
    """Decimal order of magnitude (>= 0) — the coarse size bucket observations pool over."""
    return int(math.log10(max(float(value), 1.0)))


def workload_fingerprint(
    query: RTJQuery, collections: Mapping[str, IntervalCollection]
) -> str:
    """The coarse *shape* of a workload, under which observations generalise.

    Deliberately coarser than :func:`query_fingerprint`: collection names and
    exact sizes are reduced to sorted size magnitudes, and ``k`` to its
    magnitude, so repeat queries over regenerated or slightly grown data feed
    the same calibration pool.  Predicates and their parameter sets stay exact
    — kernel economics differ between Boolean and scored scoring.
    """
    tokens = (
        len(query.vertices),
        tuple(sorted((e.predicate.name, repr(e.predicate.params)) for e in query.edges)),
        type(query.aggregation).__name__,
        _magnitude(query.k),
        tuple(sorted(_magnitude(len(c)) for c in collections.values())),
        query.has_attribute_constraints,
    )
    return _digest("workload", tokens)


class CostStore:
    """Observed plan outcomes keyed by (workload fingerprint, knob tuple).

    With a ``path`` the store is durable: every :meth:`record` appends one
    JSON line (a single buffered write in append mode, so concurrent writers
    interleave whole lines, not bytes) and a new store loads the log back on
    construction, skipping — and counting — any corrupt line a crash left
    behind.  Without a path it is a process-local memory.

    Calibration is deterministic: the same observation log always yields the
    same :meth:`kernel_costs` / :meth:`calibrated_kernel` answers (plain
    means, name-tie-broken argmin, no sampling).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._outcomes: dict[tuple[str, str], list[dict[str, float]]] = {}
        self._knobs: dict[str, dict[str, Any]] = {}
        self.recorded = 0
        self.loaded = 0
        self.corrupt_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------ basics
    @staticmethod
    def knob_key(knobs: Mapping[str, Any]) -> str:
        """Canonical identity of a knob tuple (sorted, compact JSON)."""
        return json.dumps(dict(knobs), sort_keys=True, separators=(",", ":"))

    def __len__(self) -> int:
        with self._lock:
            return sum(len(outcomes) for outcomes in self._outcomes.values())

    def describe(self) -> dict[str, int]:
        """Counters for reports and the serving ``stats`` verb."""
        with self._lock:
            return {
                "observations": sum(len(o) for o in self._outcomes.values()),
                "workloads": len({workload for workload, _ in self._outcomes}),
                "recorded": self.recorded,
                "loaded": self.loaded,
                "corrupt_lines": self.corrupt_lines,
            }

    # --------------------------------------------------------------- recording
    def record(
        self,
        workload: str,
        knobs: Mapping[str, Any],
        outcome: Mapping[str, float],
    ) -> None:
        """Append one observed outcome of executing ``knobs`` on ``workload``."""
        clean_knobs = dict(knobs)
        clean_outcome = {name: float(value) for name, value in outcome.items()}
        key = self.knob_key(clean_knobs)
        with self._lock:
            self._knobs.setdefault(key, clean_knobs)
            self._outcomes.setdefault((workload, key), []).append(clean_outcome)
            self.recorded += 1
            if self.path is not None:
                line = json.dumps(
                    {"workload": workload, "knobs": clean_knobs, "outcome": clean_outcome},
                    sort_keys=True,
                )
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                workload = entry["workload"]
                knobs = dict(entry["knobs"])
                outcome = {name: float(value) for name, value in entry["outcome"].items()}
            except (ValueError, KeyError, TypeError, AttributeError):
                # A crash mid-append leaves at most one torn line; tolerate any.
                self.corrupt_lines += 1
                continue
            key = self.knob_key(knobs)
            self._knobs.setdefault(key, knobs)
            self._outcomes.setdefault((workload, key), []).append(outcome)
            self.loaded += 1

    # ------------------------------------------------------------- calibration
    def observations(self, workload: str) -> dict[str, list[dict[str, float]]]:
        """Observed outcomes of ``workload``, keyed by canonical knob tuple."""
        with self._lock:
            return {
                key: [dict(outcome) for outcome in outcomes]
                for (seen, key), outcomes in self._outcomes.items()
                if seen == workload
            }

    def kernel_costs(
        self, workload: str, min_observations: int = 3
    ) -> dict[str, float]:
        """Mean observed per-candidate join cost by kernel, for ``workload``.

        Only kernels with at least ``min_observations`` usable observations
        (positive ``candidates_examined``) participate — the cold-start
        threshold below which the planner keeps pricing from its unit-cost table.
        """
        samples: dict[str, list[float]] = {}
        with self._lock:
            for (seen, key), outcomes in self._outcomes.items():
                if seen != workload:
                    continue
                kernel = self._knobs.get(key, {}).get("kernel")
                if not isinstance(kernel, str):
                    continue
                for outcome in outcomes:
                    candidates = outcome.get("candidates_examined", 0.0)
                    seconds = outcome.get("join_seconds", 0.0)
                    if candidates > 0 and seconds >= 0:
                        samples.setdefault(kernel, []).append(seconds / candidates)
        return {
            kernel: sum(costs) / len(costs)
            for kernel, costs in samples.items()
            if len(costs) >= min_observations
        }

    def calibrated_kernel(
        self, workload: str, min_observations: int = 3
    ) -> tuple[str, dict[str, float]] | None:
        """The observed-cheapest kernel for ``workload``, or ``None`` cold.

        Requires at least two kernels past the observation threshold — a
        single observed kernel carries no *ratio* to set against the unit-cost
        table's.  Ties break towards the lexicographically smaller
        kernel name, keeping calibration deterministic for a given log.
        """
        costs = self.kernel_costs(workload, min_observations)
        if len(costs) < 2:
            return None
        kernel = min(sorted(costs), key=lambda name: (costs[name], name))
        return kernel, costs


class PlanCache:
    """A bounded LRU of auto plans keyed by (query, statistics) fingerprints.

    A hit returns deep copies of the memoized ``(knobs, explanation)`` so
    callers may annotate their explanation freely; the stored explanation has
    its volatile probe inputs normalised (``probe_seconds=0``,
    ``probe_cached=1``) — a memoized plan *is* the probe-free path, and the
    cache key never includes those fields.  ``hits`` / ``misses`` /
    ``evictions`` counters feed the serving ``stats`` verb.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[
            tuple[str, str], tuple[dict[str, Any], "PlanExplanation"]
        ] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, query_fp: str, stats_fp: str
    ) -> tuple[dict[str, Any], "PlanExplanation"] | None:
        """The memoized plan of this (query, dataset state), or ``None``."""
        with self._lock:
            entry = self._entries.get((query_fp, stats_fp))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end((query_fp, stats_fp))
            self.hits += 1
            knobs, explanation = entry
            return dict(knobs), copy.deepcopy(explanation)

    def store(
        self,
        query_fp: str,
        stats_fp: str,
        knobs: Mapping[str, Any],
        explanation: "PlanExplanation",
    ) -> None:
        """Memoize a freshly planned ``(knobs, explanation)``, evicting LRU past the bound."""
        explanation = copy.deepcopy(explanation)
        if "probe_seconds" in explanation.inputs:
            explanation.inputs["probe_seconds"] = 0.0
        if "probe_cached" in explanation.inputs:
            explanation.inputs["probe_cached"] = 1.0
        with self._lock:
            self._entries[(query_fp, stats_fp)] = (dict(knobs), explanation)
            self._entries.move_to_end((query_fp, stats_fp))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, query_fp: str | None = None) -> int:
        """Drop every entry of one query fingerprint (or all), returning the count."""
        with self._lock:
            if query_fp is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            doomed = [key for key in self._entries if key[0] == query_fp]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop every memoized plan (counters are kept)."""
        self.invalidate()

    def describe(self) -> dict[str, int]:
        """Counters for reports and the serving ``stats`` verb."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }


@dataclass
class PlanFeedback:
    """The feedback bundle an :class:`~repro.plan.ExecutionContext` carries.

    ``plan_cache`` memoizes whole auto plans; ``cost_store`` (optional)
    accumulates observed outcomes and feeds planner calibration.  Shared by
    reference across :meth:`~repro.plan.ExecutionContext.session_view`s, like
    the statistics cache.
    """

    plan_cache: PlanCache = field(default_factory=PlanCache)
    cost_store: CostStore | None = None

    def describe(self) -> dict[str, Any]:
        """Nested counters for reports and the serving ``stats`` verb."""
        summary: dict[str, Any] = {"plan_cache": self.plan_cache.describe()}
        if self.cost_store is not None:
            summary["cost_store"] = self.cost_store.describe()
        return summary
