"""Plan memory: the identities of a planning problem, and memoized auto plans.

The :class:`~repro.plan.AutoPlanner` prices plans from bucket statistics and a
table of measured unit costs; the priced table is the one kernel chooser
(DESIGN.md §14).  What this module adds is memory of plans already priced:

* :func:`query_fingerprint` / :func:`statistics_fingerprint` — deterministic
  blake2b identities of the exact planning problem and of the exact dataset
  state;
* :class:`PlanCache` — a bounded LRU of whole auto plans keyed by
  ``(query fingerprint, statistics fingerprint)``, so the serving hot path
  returns a memoized plan without re-pricing.  The key deliberately excludes
  the non-deterministic ``PlanExplanation.inputs`` fields (``probe_seconds``,
  ``probe_cached``): two plannings of the same query over the same data are
  the *same* plan however long the counting took.

The plan cache is thread-safe: the serving layer shares one across concurrent
executor threads (:attr:`~repro.plan.ExecutionContext.plan_cache`), exactly
like the statistics cache.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Mapping

from ..query.graph import RTJQuery
from ..temporal.interval import IntervalCollection
from .context import _collection_checksum

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .planner import PlanExplanation

__all__ = ["PlanCache", "query_fingerprint", "statistics_fingerprint"]


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
