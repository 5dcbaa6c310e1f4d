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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from ..checks import (
    KnobCheck,
    boolean,
    integer,
    json_object,
    name_list,
    non_negative_int,
    one_of,
    positive_int,
    positive_seconds,
    string,
)
from ..columnar.columns import IntervalColumns
from ..datagen.synthetic import SyntheticConfig, generate_uniform_collection
from ..durable import Appender, encode, read_log, write_log
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
from ..plan import ExecutionContext, PlanCache, REGISTRY, get_algorithm
from ..plan.algorithm import Algorithm, RunReport
from ..plan.context import checked_snapshot, malformed_checkpoint
from ..query.graph import RTJQuery
from ..streaming.collection import StreamingCollection
from ..temporal.interval import Interval, IntervalCollection
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
    deterministic_metrics,
    encode_message,
    encode_results,
    error_response,
    intervals,
    ok_response,
)
from .session import AdmissionController, ServerMetrics

__all__ = [
    "QueryServer",
    "BackgroundServer",
    "REQUIRED",
    "SERVER_FLAGS",
    "ServerSettings",
    "VERB_FIELDS",
    "add_server_flags",
    "server_settings",
]

SERVER_CHECKPOINT_KIND = "query-server"
SERVER_CHECKPOINT_VERSION = 3

#: The verbs that can change durable state; a checkpointing server logs
#: what each of them changed before it replies.
JOURNALED_VERBS = frozenset({"register", "load", "ingest", "query"})


class ServerFlag(NamedTuple):
    """One :data:`SERVER_FLAGS` row: a flag's field, text parser, check and help."""

    field: str
    parse: Callable[[str], Any]
    check: KnobCheck
    help: str


#: Every setting of a query server; ``serve``, the worker, :class:`QueryServer`
#: and :class:`~repro.serving.supervisor.ServerSupervisor` all read this table.
SERVER_FLAGS: dict[str, ServerFlag] = {
    "--max-inflight": ServerFlag(
        "max_inflight", int, positive_int, "queries executing at once before new ones queue"
    ),
    "--max-queue": ServerFlag(
        "max_queue", int, non_negative_int, "queries waiting for a slot before BUSY answers"
    ),
    "--default-deadline-ms": ServerFlag(
        "default_deadline_ms", int, positive_int, "deadline of queries sent without one"
    ),
    "--drain-timeout": ServerFlag(
        "drain_timeout", float, positive_seconds, "seconds inflight queries get to drain"
    ),
    "--stats-cache-entries": ServerFlag(
        "stats_cache_entries", int, positive_int, "bound the warm statistics cache (LRU eviction)"
    ),
    "--plan-cache-entries": ServerFlag(
        "plan_cache_entries", int, non_negative_int, "bound the auto-plan cache; 0 disables it"
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

    def __post_init__(self) -> None:
        for flag, row in SERVER_FLAGS.items():
            value = getattr(self, row.field)
            if value is not None or getattr(ServerSettings, row.field) is not None:
                object.__setattr__(self, row.field, row.check(flag, value))

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


REQUIRED: Any = object()
"""The default of a request field the client must send."""

FieldTable = Mapping[str, tuple[KnobCheck, Any]]


def parse_fields(table: FieldTable, request: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Every field of ``table`` read from ``request`` and checked; ``null``
    means absent, and an absent field takes its default (a wire value, checked
    like a sent one).  A missing required field or a refused value is
    ``BAD_REQUEST`` naming the field in ``details.field``."""
    parsed = {}
    for field, (check, default) in table.items():
        name = prefix + field
        value = request.get(field)
        if value is None:
            value = default
        if value is REQUIRED:
            raise ProtocolError(E_BAD_REQUEST, f"{name} is required", {"field": name})
        try:
            parsed[field] = None if value is None else check(name, value)
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error), {"field": name}) from None
    return parsed


def _fault_plan(name: str, value: Any) -> FaultPlan:
    return FaultPlan.from_json(json_object(name, value))


#: The fields of ``query``'s ``fault`` object (a fault plan scoped to that query).
FAULT_FIELDS: FieldTable = {
    "plan": (_fault_plan, {}),
    "max_task_attempts": (positive_int, None),
}


def _fault(name: str, value: Any) -> dict[str, Any]:
    return parse_fields(FAULT_FIELDS, json_object(name, value), f"{name}.")


#: Every verb's request fields: field -> (check, default).  A default of
#: ``None`` means "unset" (the server's own setting applies, where it has one).
VERB_FIELDS: dict[str, FieldTable] = {
    "ping": {},
    "health": {},
    "register": {
        "name": (string, REQUIRED),
        "intervals": (intervals, []),
        "streaming": (boolean, False),
    },
    "load": {
        "names": (name_list, REQUIRED),
        "size": (positive_int, 10_000),
        "seed": (non_negative_int, 7),
        "streaming": (boolean, False),
    },
    "ingest": {
        "name": (string, REQUIRED),
        "intervals": (intervals, REQUIRED),
        "seq": (integer, None),
    },
    "query": {
        "query": (string, REQUIRED),
        "collections": (name_list, REQUIRED),
        "params": (one_of(*PARAMETERS, what="params"), "P1"),
        "k": (positive_int, 100),
        "num_vertices": (integer, None),
        "algorithm": (string, "tkij"),
        "options": (json_object, {}),
        "deadline_ms": (positive_int, None),
        "fault": (_fault, None),
    },
    "stats": {},
    "collections": {},
    "algorithms": {},
    "drain": {"timeout_ms": (positive_int, None)},
    "shutdown": {},
}


class QueryServer:
    """Serve registry queries over the NDJSON protocol from one warm context.

    ``context`` defaults to a fresh :class:`~repro.plan.ExecutionContext`;
    passing one in lets tests and embedders pre-warm or share it.  ``port=0``
    binds an ephemeral port (read it back from :attr:`address` after
    :meth:`start`).  The keyword ``settings`` are :class:`ServerSettings`
    fields, checked before anything is built.
    """

    #: Every verb the server accepts, each answered by ``_handle_<verb>``.
    VERBS = tuple(VERB_FIELDS)

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
        if self.settings.plan_cache_entries and self.context.plan_cache is None:
            self.context.plan_cache = PlanCache(self.settings.plan_cache_entries)
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.checkpoint_path = Path(checkpoint_path).resolve() if checkpoint_path else None
        self.admission = AdmissionController(self.settings.max_inflight, self.settings.max_queue)
        self.metrics = ServerMetrics()
        self.collections: dict[str, IntervalCollection] = {}
        self.draining = False
        self.shutdown_requested = asyncio.Event()
        self.started_at = time.monotonic()
        self._server: asyncio.base_events.Server | None = None
        self._drain_task: asyncio.Task | None = None
        self._inflight_tokens: set[CancelToken] = set()
        # collection -> seq -> (staged, pending_batches) of the ingest's reply
        self._ingest_seqs: dict[str, dict[int, tuple[int, int]]] = {}
        self._ops: list[tuple[str, str, Any]] = []
        self._log: Appender | None = None
        self._snapshot_size = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.settings.max_inflight, thread_name_prefix="repro-serve"
        )
        self._session_ids = itertools.count(1)

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
        self._close_log()
        self.shutdown_requested.set()

    # ------------------------------------------------------- checkpoint / drain
    def checkpoint(self, path: str | Path | None = None) -> dict[str, Any] | None:
        """Snapshot the server's durable state, or write it to ``path``.

        Wraps :meth:`ExecutionContext.checkpoint` (statistics cache + stream
        states) with the server's own registry: the collections in columnar
        form (staged-but-uncommitted streaming batches included) and the
        ingest sequence-number table, so a respawned worker dedupes retried
        ingests from before the crash.

        Without ``path`` it returns the snapshot, deep-copied.  With one it
        pickles the live state under the statistics lock — no copy — into a
        fresh one-record log published by an atomic write-then-rename.
        Writing to the server's own ``checkpoint_path``, however spelled, is
        a compaction (DESIGN.md §13): later changes append to that file.
        """
        if path is None:
            return self._snapshot(copy=True)
        if Path(path).resolve() == self.checkpoint_path:
            self._compact()
        else:
            with self.context.statistics.lock:
                write_log(path, self._snapshot(copy=False))
        return None

    def _snapshot(self, copy: bool) -> dict[str, Any]:
        return {
            "kind": SERVER_CHECKPOINT_KIND,
            "version": SERVER_CHECKPOINT_VERSION,
            "context": self.context.checkpoint(copy=copy),
            "collections": {
                name: collection_state(collection)
                for name, collection in list(self.collections.items())
            },
            "ingest_seqs": {name: dict(table) for name, table in self._ingest_seqs.items()},
        }

    def restore_state(self, source: "Mapping[str, Any] | str | Path") -> "QueryServer":
        """Restore a :meth:`checkpoint` (a snapshot dict or a checkpoint log's path).

        A log's changes are replayed onto its snapshot.  Returns ``self`` for
        chaining; raises :class:`ValueError` on anything that is not a
        readable server checkpoint, before any state is replaced — a worker
        booting from a corrupt file starts cold instead of crash-looping.
        """
        changes: list[Any] = []
        if isinstance(source, (str, Path)):
            source, changes = read_log(source)
        snapshot = checked_snapshot(source, SERVER_CHECKPOINT_KIND, SERVER_CHECKPOINT_VERSION)
        with malformed_checkpoint(SERVER_CHECKPOINT_KIND):
            context = snapshot["context"]
            collections = {
                name: rebuild_collection(name, state)
                for name, state in dict(snapshot["collections"]).items()
            }
            ingest_seqs = {
                name: dict(table) for name, table in dict(snapshot["ingest_seqs"]).items()
            }
            for change in changes:
                for op in change["ops"]:
                    _replay(op, collections, ingest_seqs)
                if change["context"] is not None:
                    ExecutionContext.apply_changes(context, change["context"])
            swap_context = self.context.stage_restore(context)
        swap_context()
        self.collections = collections
        self._ingest_seqs = ingest_seqs
        # The log on disk no longer describes this state: the next logged
        # verb compacts first.
        self._close_log()
        return self

    # -------------------------------------------------------------------- log
    def _record(self, kind: str, name: str, value: Any) -> None:
        """Queue one registry change for the next change record (when checkpointing)."""
        if self.checkpoint_path is not None:
            self._ops.append((kind, name, value))

    def _persist(self) -> None:
        """Make what the last verb changed durable before its reply is sent.

        Appends one record — the queued registry changes plus the context's
        :meth:`~ExecutionContext.take_changes`, whole values — to the
        checkpoint log, and compacts once the changes have grown to the
        snapshot's size.  Without an open log (first write, after a restore
        or a failed write) it compacts instead.  A failure closes the log,
        so no record is ever appended after a torn one.
        """
        if self.checkpoint_path is None:
            return
        try:
            if self._log is not None:
                ops = [_encoded(op) for op in self._ops]
                self._ops.clear()
                with self.context.statistics.lock:
                    changes = self.context.take_changes(settled=self.admission.inflight == 0)
                    body = None
                    if ops or changes is not None:
                        body = encode({"ops": ops, "context": changes})
                if body is not None:
                    self._log.append(body)
            if self._log is None or self._log.size >= 2 * self._snapshot_size:
                self._compact()
        except BaseException:
            self._close_log()
            raise

    def _compact(self) -> None:
        """Publish a fresh log holding only the snapshot, then append to it.

        Every change queued so far is in the snapshot, so the records-to-be
        are forgotten in the same critical section.  A crash before the
        rename leaves the previous log, which holds every acknowledged
        change.
        """
        self._close_log()
        with self.context.statistics.lock:
            self._ops.clear()
            self.context.take_changes(settled=self.admission.inflight == 0)
            self._snapshot_size = write_log(self.checkpoint_path, self._snapshot(copy=False))
        self._log = Appender(self.checkpoint_path)

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

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
        try:
            if self.checkpoint_path is not None:
                self._compact()
        finally:
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
        if verb not in self.VERBS:
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
            fields = parse_fields(VERB_FIELDS[verb], request)
            try:
                payload = await getattr(self, f"_handle_{verb}")(fields, session_id)
            finally:
                if verb in JOURNALED_VERBS:
                    # What the verb changed is on disk before its reply is sent.
                    self._persist()
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
    # Each handler gets its verb's VERB_FIELDS, checked; it checks only what
    # needs server state (EXISTS, NOT_FOUND, not streaming, DRAINING, BUSY).
    async def _handle_ping(self, fields: dict[str, Any], session_id: int) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "server": "repro-serve",
            "session": session_id,
        }

    async def _handle_health(self, fields: dict[str, Any], session_id: int) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "worker": self.worker_id,
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
            "collections": len(self.collections),
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    async def _handle_drain(self, fields: dict[str, Any], session_id: int) -> dict:
        timeout_ms = fields["timeout_ms"]
        self.begin_drain(None if timeout_ms is None else timeout_ms / 1000.0)
        return {
            "draining": True,
            "worker": self.worker_id,
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
        }

    async def _handle_register(self, fields: dict[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        name, streaming = fields["name"], fields["streaming"]
        if name in self.collections:
            raise ProtocolError(
                E_EXISTS, f"collection {name!r} already registered", {"name": name}
            )
        kind = StreamingCollection if streaming else IntervalCollection
        try:
            collection = kind(name, fields["intervals"])
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        self.collections[name] = collection
        self._record("new", name, collection)
        return {"name": name, "size": len(collection), "streaming": streaming}

    async def _handle_load(self, fields: dict[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        names, seed, streaming = fields["names"], fields["seed"], fields["streaming"]
        taken = [n for n in names if n in self.collections]
        if taken:
            raise ProtocolError(
                E_EXISTS, f"collections already registered: {taken}", {"names": taken}
            )
        config = SyntheticConfig(size=fields["size"])

        def generate() -> dict[str, IntervalCollection]:
            generated = {}
            for offset, name in enumerate(names):
                collection = generate_uniform_collection(name, config, seed=seed + offset)
                if streaming:
                    collection = StreamingCollection.from_collection(collection)
                generated[name] = collection
            return generated

        # Synthesising the data is CPU work; keep the loop responsive.
        loop = asyncio.get_running_loop()
        generated = await loop.run_in_executor(self._executor, generate)
        self.collections.update(generated)
        for name, collection in generated.items():
            self._record("new", name, collection)
        return {
            "collections": [
                {"name": name, "size": len(collection), "streaming": streaming}
                for name, collection in generated.items()
            ]
        }

    async def _handle_ingest(self, fields: dict[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        name, seq = fields["name"], fields["seq"]
        collection = self.collections.get(name)
        if collection is None:
            raise ProtocolError(E_NOT_FOUND, f"unknown collection {name!r}", {"name": name})
        if not isinstance(collection, StreamingCollection):
            raise ProtocolError(
                E_BAD_REQUEST, f"collection {name!r} is not streaming", {"name": name}
            )
        if seq is not None:
            # Exactly-once ingestion across client retries: a replayed sequence
            # number stages nothing and gets back the original response.
            recorded = self._ingest_seqs.get(name, {}).get(seq)
            if recorded is not None:
                return _ingested(name, seq, *recorded, deduped=True)
        try:
            staged = collection.ingest(fields["intervals"])
        except ValueError as error:
            raise ProtocolError(E_BAD_REQUEST, str(error)) from error
        self._record("stage", name, fields["intervals"])
        outcome = (staged, collection.pending_batches)
        if seq is not None:
            self._ingest_seqs.setdefault(name, {})[seq] = outcome
            self._record("seq", name, (seq, outcome))
        return _ingested(name, seq, *outcome, deduped=False)

    async def _handle_query(self, fields: dict[str, Any], session_id: int) -> dict:
        self._reject_if_draining()
        bound = self._bind_query(fields, session_id)
        streams = {
            collection.name: collection
            for collection in bound[1].collections.values()
            if isinstance(collection, StreamingCollection)
        }
        committed = {name: len(stream.log) for name, stream in streams.items()}
        deadline_ms = fields["deadline_ms"] or self.settings.default_deadline_ms
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
        if deadline_ms is not None:
            deadline_handle = loop.call_later(
                deadline_ms / 1000.0,
                token.cancel,
                f"deadline of {deadline_ms} ms exceeded",
            )
        queued_at = time.monotonic()
        await self.admission.acquire()
        queue_seconds = time.monotonic() - queued_at
        try:
            report, plan_seconds, execute_seconds = await loop.run_in_executor(
                self._executor, self._execute_call, token, *bound
            )
        except QueryCancelledError as error:
            raise ProtocolError(E_DEADLINE, error.reason, {"deadline_ms": deadline_ms}) from error
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
            for name, stream in streams.items():
                if len(stream.log) != committed[name]:
                    self._record("commit", name, len(stream.log))
        metrics = deterministic_metrics(report)
        self.metrics.record_query_success(
            metrics, report.statistics_cached, queue_seconds, plan_seconds, execute_seconds
        )
        return {
            "algorithm": report.algorithm,
            "query": fields["query"],
            "k": fields["k"],
            "results": encode_results(report.results),
            "statistics_cached": report.statistics_cached,
            "metrics": metrics,
            "timings": {
                "queue_seconds": queue_seconds,
                "plan_seconds": plan_seconds,
                "execute_seconds": execute_seconds,
            },
        }

    async def _handle_stats(self, fields: dict[str, Any], session_id: int) -> dict:
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
        if self.context.plan_cache is not None:
            payload["plan_cache"] = self.context.plan_cache.describe()
        return payload

    async def _handle_collections(self, fields: dict[str, Any], session_id: int) -> dict:
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

    async def _handle_algorithms(self, fields: dict[str, Any], session_id: int) -> dict:
        return {
            "algorithms": [
                {"name": name, "title": algo.title, "scored": algo.scored}
                for name, algo in sorted(REGISTRY.items())
            ]
        }

    async def _handle_shutdown(self, fields: dict[str, Any], session_id: int) -> dict:
        self.shutdown_requested.set()
        return {"stopping": True}

    # ----------------------------------------------------------- query plumbing
    def _bind_query(
        self, fields: dict[str, Any], session_id: int
    ) -> tuple[Algorithm, RTJQuery, ExecutionContext, dict[str, Any]]:
        """A checked ``query`` request bound to its algorithm, collections,
        context and knobs: the arguments of :meth:`_execute_call`."""
        query_name, algorithm_name = fields["query"], fields["algorithm"]
        bound = []
        for name in fields["collections"]:
            collection = self.collections.get(name)
            if collection is None:
                raise ProtocolError(
                    E_NOT_FOUND, f"unknown collection {name!r}", {"name": name}
                )
            bound.append(collection)
        try:
            algorithm = get_algorithm(algorithm_name)
        except KeyError as error:
            raise ProtocolError(
                E_NOT_FOUND, str(error.args[0]), {"algorithm": algorithm_name}
            ) from error
        try:
            query = build_query(
                query_name, bound, fields["params"], fields["k"], fields["num_vertices"]
            )
        except (KeyError, ValueError) as error:
            message = str(error)
            if isinstance(error, KeyError):
                message = f"unknown query {query_name!r}; expected one of {sorted(QUERIES)}"
            raise ProtocolError(E_BAD_REQUEST, message) from error
        knobs = algorithm.plan_knobs(fields["options"])
        if "stream_id" in algorithm.knobs:
            # Per-session stream isolation by default (stream_id absent or
            # null): two sessions running the same streaming query do not share
            # persistent top-k state unless they opt into a common stream_id.
            knobs.setdefault("stream_id", f"session-{session_id}")
        return algorithm, query, self._session_context(fields["fault"]), knobs

    def _session_context(self, fault: dict[str, Any] | None) -> ExecutionContext:
        """The shared context, or a per-request view carrying a fault plan.

        The view shares the warm statistics cache and stream state but wraps
        the shared backend pool in a :class:`FaultInjectingBackend`, so the
        injected worker deaths hit exactly this query's tasks.
        """
        if fault is None:
            return self.context
        plan = fault["plan"]
        attempts = fault["max_task_attempts"] or self.context.cluster.max_task_attempts
        cluster = replace(self.context.cluster, fault_plan=plan, max_task_attempts=attempts)
        backend = FaultInjectingBackend(self.context.get_backend(), plan)
        return self.context.session_view(cluster=cluster, backend=backend)

    @staticmethod
    def _execute_call(
        token: CancelToken,
        algorithm: Algorithm,
        query: RTJQuery,
        context: ExecutionContext,
        knobs: dict[str, Any],
    ) -> tuple[RunReport, float, float]:
        """Plan and execute on an executor thread, under the query's cancel scope."""
        with cancel_scope(token):
            # A query that spent its whole deadline in the admission queue
            # stops here, before any engine work.
            check_cancelled()
            started = time.monotonic()
            plan = algorithm.plan(query, context, **knobs)
            plan_seconds = time.monotonic() - started
            check_cancelled()
            started = time.monotonic()
            report = algorithm.execute(plan)
            execute_seconds = time.monotonic() - started
        return report, plan_seconds, execute_seconds


def _ingested(name: str, seq: int | None, staged: int, pending: int, deduped: bool) -> dict:
    """An ``ingest`` reply; a replayed ``seq`` gets its first reply back, marked deduped."""
    return {
        "name": name,
        "staged": staged,
        "pending_batches": pending,
        "seq": seq,
        "deduped": deduped,
    }


# ------------------------------------------------------------- durable form
def _columns(intervals: Sequence[Interval]) -> IntervalColumns:
    """A batch of intervals as columns (int64 uids, float64 endpoints)."""
    return IntervalColumns.from_intervals(list(intervals))


def collection_state(collection: IntervalCollection) -> dict[str, Any]:
    """A collection in columnar form: every interval — committed, then staged —
    and, for a stream, the sizes of its committed and staged batches."""
    if not isinstance(collection, StreamingCollection):
        return {"streaming": False, "intervals": _columns(collection.intervals)}
    staged = collection.staged_batches()
    rows = collection.intervals + [interval for batch in staged for interval in batch]
    return {
        "streaming": True,
        "intervals": _columns(rows),
        "committed": list(collection.log.sizes),
        "staged": [len(batch) for batch in staged],
    }


def rebuild_collection(name: str, state: dict[str, Any]) -> IntervalCollection:
    """The collection a :func:`collection_state` describes, rebuilt through
    the public ingest/commit path (so uids are re-checked)."""
    rows = state["intervals"].to_intervals()
    if not state["streaming"]:
        return IntervalCollection(name, list(rows))
    committed = len(state["committed"])
    batches = [*state["committed"], *state["staged"]]
    cursor = len(rows) - sum(batches)
    if cursor < 0:
        raise ValueError(f"collection {name!r}: batch sizes exceed its intervals")
    stream = StreamingCollection(name, rows[:cursor])
    for index, size in enumerate(batches):
        stream.ingest(rows[cursor : cursor + size])
        cursor += size
        if index < committed:
            stream.commit_next()
    return stream


def _encoded(op: tuple[str, str, Any]) -> tuple[str, str, Any]:
    """A queued registry change in its logged form (intervals as columns)."""
    kind, name, value = op
    if kind == "new":
        return kind, name, collection_state(value)
    if kind == "stage":
        return kind, name, _columns(value)
    return op


def _replay(
    op: tuple[str, str, Any],
    collections: dict[str, IntervalCollection],
    ingest_seqs: dict[str, dict[int, tuple[int, int]]],
) -> None:
    """Apply one logged registry change to state being restored."""
    kind, name, value = op
    if kind == "new":
        collections[name] = rebuild_collection(name, value)
    elif kind == "stage":
        collections[name].ingest(value.to_intervals())
    elif kind == "seq":
        seq, payload = value
        ingest_seqs.setdefault(name, {})[seq] = payload
    elif kind == "commit":
        stream = collections[name]
        while len(stream.log) < value:
            if stream.commit_next() is None:
                raise ValueError(f"a change commits a batch {name!r} never staged")
    else:
        raise ValueError(f"unknown registry change {kind!r}")


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
