"""The asyncio query server: many sessions, one warm ExecutionContext.

Architecture (DESIGN.md §12 has the full picture):

* a single-threaded **event loop** owns every piece of server state — the
  collection registry, admission counters, metrics — so handlers never lock;
* blocking engine work (plan + execute) runs on a **bounded thread pool**
  sized to ``max_inflight``; the admission semaphore is acquired on the loop
  before dispatch, so the pool never queues internally;
* all sessions share one :class:`~repro.plan.ExecutionContext`: a single warm
  :class:`~repro.plan.StatisticsCache` (now thread-safe) and one lazily
  created backend pool.  Per-request overrides (a fault plan) get a
  :meth:`~repro.plan.ExecutionContext.session_view` wrapping the shared pool
  in a :class:`~repro.mapreduce.FaultInjectingBackend`, so injected worker
  deaths stay scoped to one query;
* deadlines are enforced with the engine's cooperative cancellation: the loop
  arms a timer that sets the query's :class:`~repro.mapreduce.CancelToken`,
  and the engine observes it at task-wave boundaries — a timed-out query
  stops between waves and surfaces as a structured DEADLINE error.

Requests on one connection are handled sequentially (responses come back in
request order); concurrency comes from multiple connections.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from ..datagen.synthetic import SyntheticConfig, generate_uniform_collection
from ..experiments.workloads import PARAMETERS, QUERIES, build_query
from ..mapreduce import (
    CancelToken,
    FaultInjectingBackend,
    FaultPlan,
    QueryCancelledError,
    TaskFailedError,
    cancel_scope,
    check_cancelled,
)
from ..plan import ExecutionContext, REGISTRY, get_algorithm
from ..plan.algorithm import Algorithm, RunReport
from ..plan.context import atomic_pickle_dump, malformed_checkpoint, read_checkpoint
from ..plan.feedback import CostStore, PlanCache, PlanFeedback
from ..query.graph import RTJQuery
from ..streaming.collection import StreamingCollection
from ..temporal.interval import IntervalCollection
from .protocol import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DEADLINE,
    E_DRAINING,
    E_EXISTS,
    E_FAULT,
    E_INTERNAL,
    E_NOT_FOUND,
    E_UNKNOWN_VERB,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    decode_intervals,
    encode_message,
    encode_results,
    error_response,
    deterministic_metrics,
    ok_response,
)
from .session import AdmissionController, ServerMetrics

__all__ = [
    "QueryServer",
    "BackgroundServer",
    "SERVER_FLAGS",
    "ServerSettings",
    "add_server_flags",
    "server_settings",
]

SERVER_CHECKPOINT_KIND = "query-server"
SERVER_CHECKPOINT_VERSION = 1


def _count(minimum: int) -> Callable[[Any], int]:
    what = "a positive integer" if minimum else "a non-negative integer"

    def check(value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValueError(f"must be {what} (got {value!r})")
        return value

    return check


def _seconds(value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < math.inf:
        raise ValueError(f"must be a positive number of seconds (got {value!r})")
    return float(value)


def _path(value: Any) -> Path:
    if not isinstance(value, (str, os.PathLike)) or not os.fspath(value):
        raise ValueError(f"must be a path (got {value!r})")
    return Path(value)


class ServerFlag(NamedTuple):
    """One :data:`SERVER_FLAGS` row: a flag's field, text parser, check and help."""

    field: str
    parse: Callable[[str], Any]
    check: Callable[[Any], Any]
    help: str


#: Every setting of a query server; ``serve``, the worker, :class:`QueryServer`
#: and :class:`~repro.serving.supervisor.ServerSupervisor` all read this table.
SERVER_FLAGS: dict[str, ServerFlag] = {
    "--max-inflight": ServerFlag(
        "max_inflight", int, _count(1), "queries executing at once before new ones queue"
    ),
    "--max-queue": ServerFlag(
        "max_queue", int, _count(0), "queries waiting for a slot before the server answers BUSY"
    ),
    "--default-deadline-ms": ServerFlag(
        "default_deadline_ms", int, _count(1), "deadline of queries that carry none (default none)"
    ),
    "--drain-timeout": ServerFlag(
        "drain_timeout", float, _seconds, "seconds inflight queries get to finish when draining"
    ),
    "--stats-cache-entries": ServerFlag(
        "stats_cache_entries", int, _count(1), "bound the warm statistics cache (LRU eviction)"
    ),
    "--plan-cache-entries": ServerFlag(
        "plan_cache_entries", int, _count(0), "bound the auto-plan cache; 0 disables feedback"
    ),
    "--cost-store": ServerFlag(
        "cost_store_path", str, _path, "observed-cost log; in supervisor mode a directory of them"
    ),
}


@dataclass(frozen=True)
class ServerSettings:
    """A query server's settings, each checked by its :data:`SERVER_FLAGS` row.

    ``None`` means unset for the fields whose default is ``None``; any other
    bad value raises :class:`ValueError` naming its flag.
    """

    max_inflight: int = 4
    max_queue: int = 16
    default_deadline_ms: int | None = None
    drain_timeout: float = 30.0
    stats_cache_entries: int | None = None
    plan_cache_entries: int = 128
    cost_store_path: Path | None = None

    def __post_init__(self) -> None:
        for flag, row in SERVER_FLAGS.items():
            value = getattr(self, row.field)
            if value is None and getattr(ServerSettings, row.field) is None:
                continue
            try:
                object.__setattr__(self, row.field, row.check(value))
            except ValueError as error:
                raise ValueError(f"{flag} {error}") from None

    def argv(self) -> list[str]:
        """The settings as flags, for a child process's :func:`add_server_flags` parser."""
        command: list[str] = []
        for flag, row in SERVER_FLAGS.items():
            if (value := getattr(self, row.field)) is not None:
                command += [flag, str(value)]
        return command


def add_server_flags(parser: argparse.ArgumentParser) -> None:
    """Define every :data:`SERVER_FLAGS` row on ``parser``.

    Text a row cannot parse is handed on as it is, so the settings check —
    not argparse — reports every bad value, the same way at every entry point.
    """

    def lenient(parse: Callable[[str], Any]) -> Callable[[str], Any]:
        def convert(text: str) -> Any:
            try:
                return parse(text)
            except ValueError:
                return text

        return convert

    for flag, (field, parse, _, text) in SERVER_FLAGS.items():
        default = getattr(ServerSettings, field)
        parser.add_argument(flag, dest=field, type=lenient(parse), default=default, help=text)


def server_settings(args: argparse.Namespace) -> ServerSettings:
    """The checked :class:`ServerSettings` of parsed :func:`add_server_flags` flags."""
    return ServerSettings(**{row.field: getattr(args, row.field) for row in SERVER_FLAGS.values()})


@dataclass
class _QueryCall:
    """A fully-parsed, ready-to-execute query request."""

    algorithm: Algorithm
    query: RTJQuery
    context: ExecutionContext
    knobs: dict[str, Any]
    query_name: str
    k: int
    deadline_ms: int | None


def _require(request: Mapping[str, Any], field: str, kind: type, what: str) -> Any:
    """Fetch a required, typed request field (BAD_REQUEST otherwise)."""
    value = request.get(field)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(E_BAD_REQUEST, f"field {field!r} must be {what}")
    return value


def _optional(request: Mapping[str, Any], field: str, kind: type, what: str, default: Any) -> Any:
    """Fetch an optional, typed request field; absent or ``null`` gives
    ``default`` (BAD_REQUEST on any other type)."""
    value = request.get(field)
    if value is None:
        return default
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ProtocolError(E_BAD_REQUEST, f"field {field!r} must be {what}")
    return value


class QueryServer:
    """Serve registry queries over the NDJSON protocol from one warm context.

    ``context`` defaults to a fresh :class:`~repro.plan.ExecutionContext`;
    passing one in lets tests and embedders pre-warm or share it.  ``port=0``
    binds an ephemeral port (read it back from :attr:`address` after
    :meth:`start`).  The keyword ``settings`` are :class:`ServerSettings`
    fields, checked before anything is built.
    """

    #: Every verb the server accepts — docs/PROTOCOL.md must document each one
    #: (tests/test_serving.py diffs the document against this tuple).
    VERBS = (
        "ping",
        "health",
        "register",
        "load",
        "ingest",
        "query",
        "stats",
        "collections",
        "algorithms",
        "drain",
        "shutdown",
    )

    def __init__(
        self,
        context: ExecutionContext | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        worker_id: int | None = None,
        checkpoint_path: str | Path | None = None,
        **settings: Any,
    ) -> None:
        self.settings = ServerSettings(**settings)
        self.context = context if context is not None else ExecutionContext()
        if self.settings.stats_cache_entries is not None:
            # Bound the warm statistics cache: LRU eviction past this many
            # (collections, granularity) entries.
            self.context.statistics.max_entries = self.settings.stats_cache_entries
        if self.settings.plan_cache_entries and self.context.feedback is None:
            # Attach the planner feedback loop: memoized auto plans plus the
            # (optional, on-disk) observed-cost store.
            cost_store_path = self.settings.cost_store_path
            self.context.feedback = PlanFeedback(
                plan_cache=PlanCache(max_entries=self.settings.plan_cache_entries),
                cost_store=CostStore(cost_store_path) if cost_store_path else None,
            )
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.admission = AdmissionController(self.settings.max_inflight, self.settings.max_queue)
        self.metrics = ServerMetrics()
        self.collections: dict[str, IntervalCollection] = {}
        self.draining = False
        self.shutdown_requested = asyncio.Event()
        self.started_at = time.monotonic()
        self._server: asyncio.base_events.Server | None = None
        self._drain_task: asyncio.Task | None = None
        self._inflight_tokens: set[CancelToken] = set()
        self._ingest_seqs: dict[str, dict[int, dict[str, Any]]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.settings.max_inflight, thread_name_prefix="repro-serve"
        )
        self._session_ids = itertools.count(1)
        self._handlers: dict[str, Callable[..., Any]] = {
            "ping": self._handle_ping,
            "health": self._handle_health,
            "register": self._handle_register,
            "load": self._handle_load,
            "ingest": self._handle_ingest,
            "query": self._handle_query,
            "stats": self._handle_stats,
            "collections": self._handle_collections,
            "algorithms": self._handle_algorithms,
            "drain": self._handle_drain,
            "shutdown": self._handle_shutdown,
        }
        assert tuple(self._handlers) == self.VERBS

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the bound address."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close the wire, release the executor.

        The shared :class:`~repro.plan.ExecutionContext` is *not* closed: the
        caller created (or defaulted) it and may want its warm state — the
        CLI's ``serve`` closes it explicitly on exit.
        """
        if self._server is not None:
            self._server.close()
            try:
                # On 3.12+ wait_closed also waits for connection handlers; a
                # client that never disconnects must not wedge shutdown.
                await asyncio.wait_for(self._server.wait_closed(), timeout=5)
            except asyncio.TimeoutError:
                pass
            self._server = None
        if self._drain_task is not None and not self._drain_task.done():
            self._drain_task.cancel()
        # A straggler past the drain timeout must not wedge process exit: the
        # engine observes its cancelled token at the next task-wave boundary.
        for token in tuple(self._inflight_tokens):
            token.cancel("server stopping")
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.shutdown_requested.set()

    # ------------------------------------------------------- checkpoint / drain
    def checkpoint(self, path: str | Path | None = None) -> dict[str, Any]:
        """Snapshot the server's durable state (and optionally persist it).

        Wraps :meth:`ExecutionContext.checkpoint` (statistics cache + stream
        states) with the server's own registry: the collections (including
        staged-but-uncommitted streaming batches) and the ingest
        sequence-number table, so a respawned worker dedupes retried ingests
        from before the crash.  Persisted with the same atomic
        write-then-rename as the context checkpoint.
        """
        snapshot: dict[str, Any] = {
            "kind": SERVER_CHECKPOINT_KIND,
            "version": SERVER_CHECKPOINT_VERSION,
            "context": self.context.checkpoint(),
            "collections": self.collections,
            "ingest_seqs": self._ingest_seqs,
        }
        if path is not None:
            atomic_pickle_dump(path, snapshot)
        return snapshot

    def restore_state(self, source: "Mapping[str, Any] | str | Path") -> "QueryServer":
        """Restore a :meth:`checkpoint` (a snapshot dict or a pickle path).

        Returns ``self`` for chaining; raises :class:`ValueError` on anything
        that is not a readable server checkpoint, before any state is replaced
        — a worker booting from a corrupt file starts cold instead of
        crash-looping.
        """
        snapshot = read_checkpoint(source, SERVER_CHECKPOINT_KIND, SERVER_CHECKPOINT_VERSION)
        with malformed_checkpoint(SERVER_CHECKPOINT_KIND):
            swap_context = self.context.stage_restore(snapshot["context"])
            collections = dict(snapshot["collections"])
            if not all(
                isinstance(name, str) and isinstance(collection, IntervalCollection)
                for name, collection in collections.items()
            ):
                raise ValueError("checkpoint collections must map names to collections")
            ingest_seqs = {
                name: dict(table) for name, table in dict(snapshot["ingest_seqs"]).items()
            }
        swap_context()
        self.collections = collections
        self._ingest_seqs = ingest_seqs
        return self

    def _maybe_checkpoint(self) -> None:
        """Persist durable state after a mutation, when a checkpoint path is set."""
        if self.checkpoint_path is not None:
            self.checkpoint(self.checkpoint_path)

    def begin_drain(self, timeout: float | None = None) -> None:
        """Flip to DRAINING: reject new work, finish inflight, checkpoint, exit.

        Idempotent; must be called on the event loop (the ``drain`` verb and
        the worker's SIGTERM handler both are).  Inflight queries get up to
        ``timeout`` seconds (default ``settings.drain_timeout``) to finish; past
        that their cancel tokens fire and the engine stops them at the next
        task-wave boundary.  Once quiescent the server checkpoints its state
        and requests shutdown.
        """
        if self.draining:
            return
        self.draining = True
        budget = self.settings.drain_timeout if timeout is None else timeout
        self._drain_task = asyncio.get_running_loop().create_task(self._drain(budget))

    async def _drain(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self.admission.inflight > 0 or self.admission.waiting > 0:
            if time.monotonic() >= deadline:
                for token in tuple(self._inflight_tokens):
                    token.cancel(f"drain timeout of {timeout} s exceeded")
                break
            await asyncio.sleep(0.01)
        # Give cancelled stragglers a moment to unwind before checkpointing.
        while self.admission.inflight > 0 and time.monotonic() < deadline + 5.0:
            await asyncio.sleep(0.01)
        self._maybe_checkpoint()
        self.shutdown_requested.set()

    def _reject_if_draining(self) -> None:
        if self.draining:
            raise ProtocolError(
                E_DRAINING,
                "server is draining; retry against a fresh worker",
                {"worker": self.worker_id, "inflight": self.admission.inflight},
            )

    # ------------------------------------------------------------ connections
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session_id = next(self._session_ids)
        try:
            while not self.shutdown_requested.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # The framed line overran MAX_LINE_BYTES; the stream is no
                    # longer in sync, so report and drop the connection.
                    oversize = ProtocolError(
                        E_BAD_REQUEST, f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                    writer.write(encode_message(error_response(None, oversize)))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line, session_id)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels handlers blocked in readline; completing
            # normally keeps asyncio's stream callback from logging the
            # cancellation as an unhandled error.
            pass
        finally:
            # A connection can outlive the event loop when BackgroundServer
            # tears down while a client lingers; closing then raises.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _dispatch(self, line: bytes, session_id: int) -> dict[str, Any]:
        """Decode, route and execute one request; always returns a response."""
        try:
            request = decode_message(line)
        except ProtocolError as error:
            return error_response(None, error)
        request_id = request.get("id")
        verb = request.get("verb")
        handler = self._handlers.get(verb) if isinstance(verb, str) else None
        if handler is None:
            return error_response(
                request_id,
                ProtocolError(
                    E_UNKNOWN_VERB,
                    f"unknown verb {verb!r}",
                    {"verbs": list(self.VERBS)},
                ),
            )
        self.metrics.record_request(verb)
        try:
            payload = await handler(request, session_id)
            return ok_response(request_id, payload)
        except ProtocolError as error:
            if verb == "query":
                self.metrics.record_query_error(error.code)
            return error_response(request_id, error)
        except Exception as error:  # noqa: BLE001 - one query must never kill the server
            if verb == "query":
                self.metrics.record_query_error(E_INTERNAL)
            return error_response(
                request_id,
                ProtocolError(E_INTERNAL, f"{type(error).__name__}: {error}"),
            )

    # ----------------------------------------------------------------- verbs
    async def _handle_ping(self, request: Mapping[str, Any], session_id: int) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "server": "repro-serve",
            "session": session_id,
        }

    async def _handle_health(self, request: Mapping[str, Any], session_id: int) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "worker": self.worker_id,
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
            "collections": len(self.collections),
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    async def _handle_drain(self, request: Mapping[str, Any], session_id: int) -> dict:
        timeout_ms = request.get("timeout_ms")
        if timeout_ms is not None and (
            not isinstance(timeout_ms, int) or isinstance(timeout_ms, bool) or timeout_ms <= 0
        ):
            raise ProtocolError(
                E_BAD_REQUEST, "field 'timeout_ms' must be a positive integer"
            )
        self.begin_drain(None if timeout_ms is None else timeout_ms / 1000.0)
        return {
            "draining": True,
            "worker": self.worker_id,
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
        }

    async def _handle_register(self, request: Mapping[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        name = _require(request, "name", str, "a string")
        if name in self.collections:
            raise ProtocolError(
                E_EXISTS, f"collection {name!r} already registered", {"name": name}
            )
        intervals = decode_intervals(request.get("intervals", []))
        streaming = _optional(request, "streaming", bool, "a boolean", False)
        try:
            if streaming:
                collection: IntervalCollection = StreamingCollection(name, intervals)
            else:
                collection = IntervalCollection(name, intervals)
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        self.collections[name] = collection
        self._maybe_checkpoint()
        return {"name": name, "size": len(collection), "streaming": streaming}

    async def _handle_load(self, request: Mapping[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        names = request.get("names")
        if (
            not isinstance(names, list)
            or not names
            or not all(isinstance(n, str) for n in names)
        ):
            raise ProtocolError(E_BAD_REQUEST, "field 'names' must be a non-empty string list")
        taken = [n for n in names if n in self.collections]
        if taken:
            raise ProtocolError(
                E_EXISTS, f"collections already registered: {taken}", {"names": taken}
            )
        size = request.get("size", 10_000)
        if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
            raise ProtocolError(E_BAD_REQUEST, "field 'size' must be a positive integer")
        seed = request.get("seed", 7)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(E_BAD_REQUEST, "field 'seed' must be an integer")
        streaming = _optional(request, "streaming", bool, "a boolean", False)
        config = SyntheticConfig(size=size)

        def generate() -> dict[str, IntervalCollection]:
            generated = {}
            for offset, name in enumerate(names):
                collection = generate_uniform_collection(name, config, seed=seed + offset)
                if streaming:
                    collection = StreamingCollection.from_collection(collection)
                generated[name] = collection
            return generated

        # Synthetic generation is CPU work; keep the loop responsive.
        loop = asyncio.get_running_loop()
        generated = await loop.run_in_executor(self._executor, generate)
        self.collections.update(generated)
        self._maybe_checkpoint()
        return {
            "collections": [
                {"name": name, "size": len(collection), "streaming": streaming}
                for name, collection in generated.items()
            ]
        }

    async def _handle_ingest(self, request: Mapping[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        name = _require(request, "name", str, "a string")
        collection = self.collections.get(name)
        if collection is None:
            raise ProtocolError(E_NOT_FOUND, f"unknown collection {name!r}", {"name": name})
        if not isinstance(collection, StreamingCollection):
            raise ProtocolError(
                E_BAD_REQUEST, f"collection {name!r} is not streaming", {"name": name}
            )
        seq = request.get("seq")
        if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
            raise ProtocolError(E_BAD_REQUEST, "field 'seq' must be an integer")
        if seq is not None:
            # Exactly-once ingestion across client retries: a replayed sequence
            # number stages nothing and gets back the original response.
            recorded = self._ingest_seqs.get(name, {}).get(seq)
            if recorded is not None:
                return {**recorded, "deduped": True}
        intervals = decode_intervals(request.get("intervals"))
        try:
            staged = collection.ingest(intervals)
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        payload = {
            "name": name,
            "staged": staged,
            "pending_batches": collection.pending_batches,
            "seq": seq,
        }
        if seq is not None:
            self._ingest_seqs.setdefault(name, {})[seq] = dict(payload)
        self._maybe_checkpoint()
        return {**payload, "deduped": False}

    async def _handle_query(self, request: Mapping[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        call = self._parse_query(request, session_id)
        if not self.admission.try_enter():
            raise ProtocolError(
                E_BUSY,
                "server at capacity; retry later",
                self.admission.describe(),
            )
        loop = asyncio.get_running_loop()
        token = CancelToken()
        self._inflight_tokens.add(token)
        deadline_handle: asyncio.TimerHandle | None = None
        if call.deadline_ms is not None:
            deadline_handle = loop.call_later(
                call.deadline_ms / 1000.0,
                token.cancel,
                f"deadline of {call.deadline_ms} ms exceeded",
            )
        queued_at = time.monotonic()
        await self.admission.acquire()
        queue_seconds = time.monotonic() - queued_at
        try:
            report, plan_seconds, execute_seconds = await loop.run_in_executor(
                self._executor, self._execute_call, call, token
            )
        except QueryCancelledError as error:
            raise ProtocolError(
                E_DEADLINE, error.reason, {"deadline_ms": call.deadline_ms}
            ) from error
        except TaskFailedError as error:
            raise ProtocolError(
                E_FAULT,
                str(error),
                {
                    "job": error.job_name,
                    "phase": error.phase,
                    "task": error.task_id,
                    "attempts": len(error.attempts),
                },
            ) from error
        except (ValueError, KeyError) as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        finally:
            self.admission.release()
            self._inflight_tokens.discard(token)
            if deadline_handle is not None:
                deadline_handle.cancel()
        metrics = deterministic_metrics(report)
        self.metrics.record_query_success(
            metrics, report.statistics_cached, queue_seconds, plan_seconds, execute_seconds
        )
        # Queries warm the statistics cache and advance streaming state; a
        # supervised worker persists both so a respawn comes back warm.
        self._maybe_checkpoint()
        return {
            "algorithm": report.algorithm,
            "query": call.query_name,
            "k": call.k,
            "results": encode_results(report.results),
            "statistics_cached": report.statistics_cached,
            "metrics": metrics,
            "timings": {
                "queue_seconds": queue_seconds,
                "plan_seconds": plan_seconds,
                "execute_seconds": execute_seconds,
            },
        }

    async def _handle_stats(self, request: Mapping[str, Any], session_id: int) -> dict:
        cache = self.context.statistics
        payload = self.metrics.describe()
        payload.update(
            {
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": time.monotonic() - self.started_at,
                "worker": self.worker_id,
                "draining": self.draining,
                "admission": self.admission.describe(),
                "statistics_cache": cache.describe(),
                "collections": len(self.collections),
            }
        )
        feedback = self.context.feedback
        if feedback is not None:
            payload["plan_cache"] = feedback.plan_cache.describe()
            if feedback.cost_store is not None:
                payload["cost_store"] = feedback.cost_store.describe()
        return payload

    async def _handle_collections(self, request: Mapping[str, Any], session_id: int) -> dict:
        return {
            "collections": [
                {
                    "name": name,
                    "size": len(collection),
                    "streaming": isinstance(collection, StreamingCollection),
                    "pending_batches": (
                        collection.pending_batches
                        if isinstance(collection, StreamingCollection)
                        else 0
                    ),
                }
                for name, collection in sorted(self.collections.items())
            ]
        }

    async def _handle_algorithms(self, request: Mapping[str, Any], session_id: int) -> dict:
        return {
            "algorithms": [
                {"name": name, "title": algo.title, "scored": algo.scored}
                for name, algo in sorted(REGISTRY.items())
            ]
        }

    async def _handle_shutdown(self, request: Mapping[str, Any], session_id: int) -> dict:
        self.shutdown_requested.set()
        return {"stopping": True}

    # ----------------------------------------------------------- query plumbing
    def _parse_query(self, request: Mapping[str, Any], session_id: int) -> _QueryCall:
        """Validate a ``query`` request against the registry and workload tables."""
        query_name = _require(request, "query", str, "a workload query name")
        names = request.get("collections")
        if (
            not isinstance(names, list)
            or not names
            or not all(isinstance(n, str) for n in names)
        ):
            raise ProtocolError(
                E_BAD_REQUEST, "field 'collections' must be a non-empty string list"
            )
        bound = []
        for name in names:
            collection = self.collections.get(name)
            if collection is None:
                raise ProtocolError(
                    E_NOT_FOUND, f"unknown collection {name!r}", {"name": name}
                )
            bound.append(collection)
        params = _optional(request, "params", str, "a parameter set name", "P1")
        if params not in PARAMETERS:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown params {params!r}; expected one of {sorted(PARAMETERS)}",
            )
        k = request.get("k", 100)
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise ProtocolError(E_BAD_REQUEST, "field 'k' must be a positive integer")
        num_vertices = _optional(request, "num_vertices", int, "an integer", None)
        algorithm_name = _optional(request, "algorithm", str, "an algorithm name", "tkij")
        try:
            algorithm = get_algorithm(algorithm_name)
        except KeyError as error:
            raise ProtocolError(
                E_NOT_FOUND, str(error.args[0]), {"algorithm": algorithm_name}
            ) from error
        try:
            query = build_query(query_name, bound, params, k, num_vertices)
        except (KeyError, ValueError) as error:
            message = str(error)
            if isinstance(error, KeyError):
                message = f"unknown query {query_name!r}; expected one of {sorted(QUERIES)}"
            raise ProtocolError(E_BAD_REQUEST, message) from error
        options = request.get("options", {})
        if not isinstance(options, dict):
            raise ProtocolError(E_BAD_REQUEST, "field 'options' must be an object")
        knobs = algorithm.plan_knobs(options)
        if "stream_id" in algorithm.knobs:
            # Per-session stream isolation by default (stream_id absent or
            # null): two sessions running the same streaming query do not share
            # persistent top-k state unless they opt into a common stream_id.
            knobs.setdefault("stream_id", f"session-{session_id}")
        deadline_ms = request.get("deadline_ms", self.settings.default_deadline_ms)
        if deadline_ms is not None and (
            not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool) or deadline_ms <= 0
        ):
            raise ProtocolError(
                E_BAD_REQUEST, "field 'deadline_ms' must be a positive integer"
            )
        context = self._session_context(request)
        return _QueryCall(
            algorithm=algorithm,
            query=query,
            context=context,
            knobs=knobs,
            query_name=query_name,
            k=k,
            deadline_ms=deadline_ms,
        )

    def _session_context(self, request: Mapping[str, Any]) -> ExecutionContext:
        """The shared context, or a per-request view carrying a fault plan.

        The view shares the warm statistics cache and stream state but wraps
        the shared backend pool in a :class:`FaultInjectingBackend`, so the
        injected worker deaths hit exactly this query's tasks.
        """
        fault = request.get("fault")
        if fault is None:
            return self.context
        if not isinstance(fault, Mapping):
            raise ProtocolError(E_BAD_REQUEST, "field 'fault' must be an object")
        try:
            plan = FaultPlan.from_json(fault.get("plan", {}))
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        attempts = fault.get("max_task_attempts", self.context.cluster.max_task_attempts)
        if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
            raise ProtocolError(
                E_BAD_REQUEST, "field 'fault.max_task_attempts' must be a positive integer"
            )
        cluster = replace(
            self.context.cluster, fault_plan=plan, max_task_attempts=attempts
        )
        backend = FaultInjectingBackend(self.context.get_backend(), plan)
        return self.context.session_view(cluster=cluster, backend=backend)

    @staticmethod
    def _execute_call(call: _QueryCall, token: CancelToken) -> tuple[RunReport, float, float]:
        """Plan and execute on an executor thread, under the query's cancel scope."""
        with cancel_scope(token):
            # A query that spent its whole deadline in the admission queue
            # stops here, before any engine work.
            check_cancelled()
            started = time.monotonic()
            plan = call.algorithm.plan(call.query, call.context, **call.knobs)
            plan_seconds = time.monotonic() - started
            check_cancelled()
            started = time.monotonic()
            report = call.algorithm.execute(plan)
            execute_seconds = time.monotonic() - started
        return report, plan_seconds, execute_seconds


class BackgroundServer:
    """Run a :class:`QueryServer` on a daemon thread with its own event loop.

    The helper tests, benchmarks and notebooks use::

        with BackgroundServer(QueryServer()) as address:
            client = QueryClient(*address)

    ``start`` returns once the server is bound; ``stop`` shuts the loop down
    and joins the thread.
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and wait until the server is accepting."""
        if self._thread is not None:
            raise RuntimeError("background server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                self.address = loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - reported to start()
                self._startup_error = error
                return
            finally:
                self._ready.set()
            loop.run_until_complete(self.server.shutdown_requested.wait())
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def run_coroutine(self, coro: Any) -> Any:
        """Run a coroutine on the server's loop and block for its result.

        Lets tests and tools drive loop-bound APIs (e.g.
        :meth:`ServerSupervisor.rolling_restart`) from the calling thread.
        """
        if self._loop is None or not self._loop.is_running():
            raise RuntimeError("background server loop is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def stop(self) -> None:
        """Request shutdown and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.shutdown_requested.set)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
