"""Execution context shared by every registered algorithm.

:class:`ExecutionContext` bundles what an :class:`~repro.plan.Algorithm` needs
beyond the query itself: the simulated cluster shape, a shared execution
backend (one worker pool amortised across many queries), and the
:class:`StatisticsCache` that makes TKIJ's query-independent phase (a) run once
per (dataset, granularity) and be *incrementally maintained* — via the existing
:func:`repro.core.statistics.update_statistics` — instead of recollected when
collections change.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from ..core.statistics import (
    DatasetStatistics,
    collect_statistics,
    update_statistics,
)
from ..mapreduce import ClusterConfig, ExecutionBackend, create_cluster_backend
from ..temporal.interval import Interval, IntervalCollection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (feedback imports us)
    from .feedback import PlanFeedback

__all__ = [
    "ExecutionContext",
    "StatisticsCache",
    "StatisticsKey",
    "atomic_pickle_dump",
    "checked_snapshot",
    "malformed_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_KIND = "execution-context"
CHECKPOINT_VERSION = 1
_CACHE_SNAPSHOT_KIND = "statistics-cache"

StatisticsKey = tuple[tuple[str, ...], int]
"""Cache key: (sorted collection names, number of granules)."""

Collector = Callable[[Mapping[str, IntervalCollection], int], DatasetStatistics]


@dataclass
class _CacheEntry:
    """One cached statistics object plus the dataset fingerprint it was built from."""

    statistics: DatasetStatistics
    sizes: dict[str, int]
    time_ranges: dict[str, tuple[float, float]]
    checksums: dict[str, float]
    generation: int = 0


_staging_ids = itertools.count()


def atomic_pickle_dump(path: str | Path, payload: Any) -> None:
    """Pickle ``payload`` to ``path`` via a unique staging sibling + rename.

    The staging name carries the writer's pid and a process-local counter, so
    concurrent checkpointers of the *same* path never interleave write/rename
    on a shared staging file (each rename atomically publishes one complete
    snapshot; last writer wins).  A crash mid-write leaves only a staging
    sibling behind, never a torn ``path``; a failed write cleans its staging
    file up before re-raising.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_staging_ids)}")
    try:
        with open(staging, "wb") as handle:
            pickle.dump(payload, handle)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def read_checkpoint(
    source: "Mapping[str, Any] | str | Path", kind: str, version: int
) -> Mapping[str, Any]:
    """The snapshot ``source`` holds (a mapping, or a pickle file's path),
    checked by :func:`checked_snapshot`.

    Every failure raises :class:`ValueError`.  A truncated or corrupted pickle
    can raise almost anything while loading (an unknown module, a garbage
    length, a reconstructor fed wrong arguments), so all of it is reported as
    one unreadable checkpoint.  The file is read whole first: a corrupt length
    then fails against the bytes at hand instead of allocating what it claims.
    """
    if isinstance(source, (str, Path)):
        try:
            source = pickle.loads(Path(source).read_bytes())
        except Exception as error:
            raise ValueError(f"cannot read checkpoint {str(source)!r}: {error!r}") from error
    return checked_snapshot(source, kind, version)


def checked_snapshot(snapshot: Any, kind: str, version: int) -> Mapping[str, Any]:
    """``snapshot`` itself when it is a mapping of this ``kind`` and ``version``
    (:class:`ValueError` otherwise)."""
    with malformed_checkpoint(kind):
        if not isinstance(snapshot, Mapping) or snapshot.get("kind") != kind:
            raise ValueError(f"not a {kind} checkpoint")
        if snapshot.get("version") != version:
            raise ValueError(f"unsupported {kind} checkpoint version {snapshot.get('version')!r}")
    return snapshot


@contextmanager
def malformed_checkpoint(kind: str) -> Iterator[None]:
    """Report any failure while building state from a snapshot as :class:`ValueError`.

    Wraps the build phase of a restore, which only reads the snapshot: a field
    of the wrong type or shape fails somewhere inside it, and that is a
    malformed checkpoint whatever the exception.
    """
    try:
        yield
    except ValueError:
        raise
    except Exception as error:
        raise ValueError(f"malformed {kind} checkpoint: {error!r}") from error


def _collection_checksum(collection: IntervalCollection) -> float:
    """Cheap content fingerprint: a weighted sum of every interval's endpoints.

    Catches mutations that preserve both the size and the time range (e.g. one
    interior interval replaced by another); collisions require the endpoint
    sums to cancel exactly, which no plausible edit does.
    """
    return float(collection.starts.sum() + 2.0 * collection.ends.sum())


def _intervals_checksum(intervals: Sequence[Interval]) -> float:
    """The checksum contribution of a batch of intervals."""
    return float(sum(interval.start + 2.0 * interval.end for interval in intervals))


def _checksums_match(recorded: float, current: float) -> bool:
    # Incremental maintenance accumulates float error; compare with tolerance
    # (a real content change moves the sum by whole endpoint magnitudes).
    return math.isclose(recorded, current, rel_tol=1e-9, abs_tol=1e-6)


class StatisticsCache:
    """Reusable results of TKIJ phase (a), keyed by (collection ids, granularity).

    A lookup validates the cached entry against the *current* collections: if a
    collection's size, time range or endpoint checksum drifted without a
    matching :meth:`update` call, the entry is considered stale and dropped —
    so mutated data that happens to share names is not served stale statistics
    (the checksum is a weighted endpoint sum; only an edit whose endpoint sums
    cancel exactly could slip through).  ``hits`` / ``misses`` / ``updates``
    counters let tests and reports assert that phase (a) really was skipped.

    Boundedness: ``max_entries`` (``None`` = unbounded, the historical
    behaviour) caps the cache with LRU eviction — a lookup hit or a fresh
    collection marks the entry most-recently-used, and inserting past the
    bound evicts the least-recently-used entry, counted in ``evictions``.
    This is the multi-tenant churn guard: a serving worker cycling through
    many datasets keeps only the hot ones resident.

    Staleness generations: :meth:`bump_generation` lazily invalidates every
    currently cached entry — entries are stamped with the generation they were
    collected under, and a lookup drops (and counts in ``stale_drops``)
    entries from an older generation.  Use it when collections mutate through
    a channel the per-entry fingerprints cannot see.

    Thread safety: every operation takes an internal re-entrant lock, because
    the serving layer shares one cache across concurrent executor threads.
    :meth:`get_or_collect` holds the lock *through* collection, so two
    sessions racing on the same cold dataset collect phase (a) once — the
    loser waits and hits.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self._entries: OrderedDict[StatisticsKey, _CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.updates = 0
        self.noop_updates = 0
        self.evictions = 0
        self.stale_drops = 0

    # ------------------------------------------------------------------ basics
    @staticmethod
    def key_for(
        collections: Mapping[str, IntervalCollection], num_granules: int
    ) -> StatisticsKey:
        """The cache key of a dataset at one granularity."""
        return (tuple(sorted(collections)), num_granules)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def invalidate(
        self, collections: Mapping[str, IntervalCollection], num_granules: int
    ) -> bool:
        """Drop the entry of one (dataset, granularity), returning whether it existed.

        Used when a caller *wants* phase (a) recollected — e.g. a streaming
        replan after the dataset outgrew the granule boundaries the cached
        matrices were built on.
        """
        with self._lock:
            return (
                self._entries.pop(self.key_for(collections, num_granules), None) is not None
            )

    # ------------------------------------------------------------------ lookup
    def lookup(
        self, collections: Mapping[str, IntervalCollection], num_granules: int
    ) -> DatasetStatistics | None:
        """Cached statistics for this dataset/granularity, or ``None`` (no counter side effects)."""
        with self._lock:
            key = self.key_for(collections, num_granules)
            entry = self._entries.get(key)
            if entry is None:
                return None
            if getattr(entry, "generation", 0) != self.generation:
                # Collected under an older generation; bump_generation() said
                # every such entry can no longer be trusted.
                del self._entries[key]
                self.stale_drops += 1
                return None
            for name, collection in collections.items():
                stale = (
                    entry.sizes.get(name) != len(collection)
                    or entry.time_ranges.get(name) != collection.time_range()
                    or not _checksums_match(
                        entry.checksums.get(name, math.nan), _collection_checksum(collection)
                    )
                )
                if stale:
                    # The dataset drifted without update(); drop the entry.
                    del self._entries[key]
                    self.stale_drops += 1
                    return None
            self._entries.move_to_end(key)
            return entry.statistics

    def get_or_collect(
        self,
        collections: Mapping[str, IntervalCollection],
        num_granules: int,
        collector: Collector | None = None,
    ) -> tuple[DatasetStatistics, bool]:
        """Return ``(statistics, was_cached)``, collecting phase (a) only on a miss."""
        with self._lock:
            statistics = self.lookup(collections, num_granules)
            if statistics is not None:
                self.hits += 1
                return statistics, True
            self.misses += 1
            collector = collector or collect_statistics
            statistics = collector(collections, num_granules)
            self._entries[self.key_for(collections, num_granules)] = _CacheEntry(
                statistics=statistics,
                sizes={name: len(collection) for name, collection in collections.items()},
                time_ranges={
                    name: collection.time_range() for name, collection in collections.items()
                },
                checksums={
                    name: _collection_checksum(collection)
                    for name, collection in collections.items()
                },
                generation=self.generation,
            )
            self._evict_over_bound()
            return statistics, False

    def _evict_over_bound(self) -> None:
        """Evict least-recently-used entries past ``max_entries`` (lock held)."""
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def bump_generation(self) -> int:
        """Lazily invalidate every currently cached entry; returns the new generation.

        Entries are not dropped eagerly: the next lookup of each stale entry
        drops it (counted in ``stale_drops``), so the call is O(1) no matter
        how large the cache is.
        """
        with self._lock:
            self.generation += 1
            return self.generation

    # ----------------------------------------------------------------- updates
    def update(
        self,
        inserted: Mapping[str, Sequence[Interval]] | None = None,
        deleted: Mapping[str, Sequence[Interval]] | None = None,
    ) -> int:
        """Incrementally maintain every cached entry touching the named collections.

        Applies :func:`repro.core.statistics.update_statistics` (paper §3.2) to
        each matching entry — at every cached granularity — and adjusts the
        recorded sizes so subsequent lookups of the updated collections still
        hit.  Call this *after* mutating the collections themselves (intervals
        appended/removed), passing the same interval sequences.  Returns the
        number of entries maintained.

        The ``updates`` counter counts only calls that maintained at least one
        entry; calls whose names matched nothing cached land in
        ``noop_updates`` instead, so counter-based assertions measure real
        maintenance work.

        Note: inserted intervals outside an entry's original time range clamp to
        the border granules (like any out-of-range timestamp), so lookups after
        such an update treat the entry as stale unless the collection's range is
        unchanged.
        """
        with self._lock:
            maintained = 0
            for key, entry in self._entries.items():
                names = set(key[0])
                ins = {n: v for n, v in (inserted or {}).items() if n in names}
                dels = {n: v for n, v in (deleted or {}).items() if n in names}
                if not ins and not dels:
                    continue
                update_statistics(entry.statistics, inserted=ins, deleted=dels)
                for name, intervals in ins.items():
                    entry.sizes[name] = entry.sizes.get(name, 0) + len(intervals)
                    entry.checksums[name] = entry.checksums.get(
                        name, 0.0
                    ) + _intervals_checksum(intervals)
                for name, intervals in dels.items():
                    entry.sizes[name] = entry.sizes.get(name, 0) - len(intervals)
                    entry.checksums[name] = entry.checksums.get(
                        name, 0.0
                    ) - _intervals_checksum(intervals)
                maintained += 1
            if maintained:
                self.updates += 1
            else:
                self.noop_updates += 1
            return maintained

    # ------------------------------------------------------------------ report
    def describe(self) -> dict[str, Any]:
        """Flat counter summary (the serving ``stats`` verb reports this)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "updates": self.updates,
                "noop_updates": self.noop_updates,
                "evictions": self.evictions,
                "stale_drops": self.stale_drops,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "generation": self.generation,
            }

    # ------------------------------------------------------------- checkpoints
    def to_snapshot(self) -> dict[str, Any]:
        """A deep-copied, picklable snapshot of every cached entry.

        Value semantics: incremental :meth:`update` calls on the live cache
        never leak into a snapshot already taken (entries are maintained *in
        place*, so a shallow copy would).
        """
        with self._lock:
            return {
                "kind": _CACHE_SNAPSHOT_KIND,
                "version": CHECKPOINT_VERSION,
                "entries": copy.deepcopy(dict(self._entries)),
                "generation": self.generation,
                "counters": {
                    "hits": self.hits,
                    "misses": self.misses,
                    "updates": self.updates,
                    "noop_updates": self.noop_updates,
                    "evictions": self.evictions,
                    "stale_drops": self.stale_drops,
                },
            }

    def stage_restore(self, snapshot: Mapping[str, Any]) -> Callable[[], None]:
        """Build the cache contents of a :meth:`to_snapshot` payload without
        touching the cache; returns the call that swaps them in.

        A malformed payload raises :class:`ValueError` here, before any swap.
        """
        snapshot = checked_snapshot(snapshot, _CACHE_SNAPSHOT_KIND, CHECKPOINT_VERSION)
        with malformed_checkpoint(_CACHE_SNAPSHOT_KIND):
            entries = OrderedDict(copy.deepcopy(dict(snapshot["entries"])))
            if not all(isinstance(entry, _CacheEntry) for entry in entries.values()):
                raise ValueError("statistics-cache entries must be cache entries")
            generation = int(snapshot.get("generation", 0))
            counters = {
                name: int(value) for name, value in dict(snapshot.get("counters", {})).items()
            }

        def swap() -> None:
            with self._lock:
                self._entries = entries
                self.generation = generation
                self.hits = counters.get("hits", 0)
                self.misses = counters.get("misses", 0)
                self.updates = counters.get("updates", 0)
                self.noop_updates = counters.get("noop_updates", 0)
                self.evictions = counters.get("evictions", 0)
                self.stale_drops = counters.get("stale_drops", 0)
                # A snapshot from an unbounded (or larger) cache must still
                # honour this cache's bound.
                self._evict_over_bound()

        return swap

    def refresh_fingerprints(
        self, collections: Mapping[str, IntervalCollection]
    ) -> None:
        """Re-record the fingerprints of ``collections`` on every matching entry.

        Needed after an :meth:`update` whose inserted intervals extended a
        collection's time range: the bucket counts stay correct (clamped to the
        border granules, per §3.2) but the staleness fingerprint must follow the
        collection, otherwise the next lookup recollects.
        """
        with self._lock:
            for key, entry in self._entries.items():
                for name in key[0]:
                    if name in collections:
                        entry.time_ranges[name] = collections[name].time_range()
                        entry.checksums[name] = _collection_checksum(collections[name])


@dataclass
class ExecutionContext:
    """Everything an algorithm needs to execute a plan.

    ``cluster`` describes the simulated cluster (including which execution
    backend runs map/reduce tasks); ``backend`` optionally injects an
    already-created backend (the caller keeps ownership), otherwise the context
    lazily creates — and on :meth:`close` releases — its own from the cluster
    config; ``statistics`` is the reusable phase (a) cache shared by every query
    executed in this context.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    backend: ExecutionBackend | None = None
    statistics: StatisticsCache = field(default_factory=StatisticsCache)
    streams: dict[object, object] = field(default_factory=dict)
    """Per-stream evaluator state, keyed by the owning algorithm (opaque to the
    context; see :meth:`stream_state`).  Streaming algorithms park their
    persistent top-k and incremental bookkeeping here so it lives exactly as
    long as the statistics cache it depends on."""
    feedback: "PlanFeedback | None" = None
    """Optional planner feedback bundle (:class:`~repro.plan.PlanFeedback`):
    a plan cache memoizing whole auto plans plus an observed-cost store the
    planner calibrates from.  ``None`` keeps planning purely static.  Shared
    by reference across :meth:`session_view`\\ s, like the statistics cache —
    and deliberately *not* checkpointed: memoized plans are derivable and the
    cost store persists itself (JSON-lines appends) when given a path."""
    _owned_backend: ExecutionBackend | None = field(
        default=None, repr=False, compare=False
    )
    _backend_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def stream_state(self, key: object, factory: Callable[[], object]) -> object:
        """The per-stream state stored under ``key`` (created via ``factory`` once)."""
        if key not in self.streams:
            self.streams[key] = factory()
        return self.streams[key]

    def get_backend(self) -> ExecutionBackend:
        """The shared execution backend (created from the cluster config on first use).

        Built through :func:`repro.mapreduce.create_cluster_backend`, so a
        cluster config carrying speculation knobs or a fault plan shapes every
        algorithm dispatched through this context, not just raw engines.
        Creation is locked: concurrent first callers (serving sessions racing
        on a cold context) get the same pool, never two.
        """
        if self.backend is not None:
            return self.backend
        with self._backend_lock:
            if self._owned_backend is None:
                self._owned_backend = create_cluster_backend(self.cluster)
            return self._owned_backend

    def session_view(
        self,
        cluster: ClusterConfig | None = None,
        backend: ExecutionBackend | None = None,
    ) -> "ExecutionContext":
        """A per-session context sharing this one's warm state.

        The view shares the *same* :class:`StatisticsCache` and ``streams``
        dict (warm phase (a) results and streaming top-k state are amortised
        across sessions) while letting the session override the cluster config
        and/or backend — e.g. a per-request fault plan wrapping the shared
        worker pool in a :class:`~repro.mapreduce.FaultInjectingBackend`
        without the injection leaking into sibling queries.

        With no ``backend`` override the view *borrows* the parent's backend
        (creating the parent's owned pool on demand), so closing a view never
        tears down the shared pool.
        """
        return replace(
            self,
            cluster=cluster or self.cluster,
            backend=backend if backend is not None else self.get_backend(),
            _owned_backend=None,
            _backend_lock=threading.Lock(),
        )

    # ------------------------------------------------------------- checkpoints
    def checkpoint(self, path: str | Path | None = None) -> dict[str, Any]:
        """Snapshot the context's durable query state (and optionally persist it).

        The snapshot captures the statistics cache and every per-stream
        evaluator state — everything a streaming evaluator needs to resume from
        the last committed batch after the process dies.  With ``path`` the
        snapshot is additionally pickled to disk via :func:`atomic_pickle_dump`
        (unique staging sibling, then rename), so a crash *during*
        checkpointing leaves the previous checkpoint intact and concurrent
        checkpointers of one path never tear each other's staging file.
        Cluster shape, worker pools and planner feedback are *not* captured: a
        restored context keeps its own.
        """
        snapshot: dict[str, Any] = {
            "kind": CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "statistics": self.statistics.to_snapshot(),
            "streams": {
                key: state.to_snapshot() if hasattr(state, "to_snapshot") else copy.deepcopy(state)
                for key, state in self.streams.items()
            },
        }
        if path is not None:
            atomic_pickle_dump(path, snapshot)
        return snapshot

    def restore(self, source: "Mapping[str, Any] | str | Path") -> "ExecutionContext":
        """Restore a :meth:`checkpoint` (an in-memory snapshot or a file path).

        Replaces the statistics cache contents and the per-stream states;
        stream-state payloads are rebuilt through
        :meth:`repro.streaming.StreamState.from_snapshot`.  Anything that is
        not a readable checkpoint raises :class:`ValueError` and leaves the
        context as it was.  Returns ``self`` for chaining
        (``ExecutionContext().restore(path)``).
        """
        self.stage_restore(read_checkpoint(source, CHECKPOINT_KIND, CHECKPOINT_VERSION))()
        return self

    def stage_restore(self, snapshot: Mapping[str, Any]) -> Callable[[], None]:
        """Build the state of an in-memory :meth:`checkpoint` without touching
        the context; returns the call that swaps it in (see :meth:`restore`)."""
        snapshot = checked_snapshot(snapshot, CHECKPOINT_KIND, CHECKPOINT_VERSION)
        if "statistics" not in snapshot or "streams" not in snapshot:
            raise ValueError("checkpoint is missing its statistics/streams sections")
        # Imported lazily: repro.streaming imports the plan package at load time.
        from ..streaming.state import STREAM_STATE_KIND, StreamState

        swap_statistics = self.statistics.stage_restore(snapshot["statistics"])
        with malformed_checkpoint(CHECKPOINT_KIND):
            streams = {
                key: (
                    StreamState.from_snapshot(payload)
                    if isinstance(payload, Mapping) and payload.get("kind") == STREAM_STATE_KIND
                    else copy.deepcopy(payload)
                )
                for key, payload in dict(snapshot["streams"]).items()
            }

        def swap() -> None:
            swap_statistics()
            self.streams = streams

        return swap

    def close(self) -> None:
        """Release the context's own backend workers (injected backends stay up)."""
        if self._owned_backend is not None:
            self._owned_backend.close()
            self._owned_backend = None

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
