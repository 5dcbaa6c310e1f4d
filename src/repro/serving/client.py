"""A blocking socket client for the query server's NDJSON protocol.

One :class:`QueryClient` owns one connection; requests are issued
sequentially (the server answers a connection's requests in order).  Protocol
failures surface as :class:`ServingError` carrying the structured error code,
so callers branch on ``error.code`` (``BUSY``, ``DEADLINE``, ``FAULT``, ...)
instead of parsing messages.  The client is intentionally dependency-free —
``docs/PROTOCOL.md`` is the contract; this class is just the reference
implementation.

Robustness: constructed with a :class:`~repro.serving.retry.RetryPolicy`, the
client reconnects and retries through worker crashes, drains and rolling
restarts — transport failures (reset, EOF, truncated frame) are retried for
idempotent verbs only, while ``BUSY`` / ``DRAINING`` / ``UNAVAILABLE``
responses are retried for every verb (the server rejects those before any
state changes).  A truncated response frame — a line arriving without its
terminating newline, including one of exactly ``MAX_LINE_BYTES`` — is never
decoded: it raises :class:`ConnectionError` instead of silently parsing a
partial frame.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Mapping

from .protocol import MAX_LINE_BYTES, ProtocolError, decode_message, encode_message
from .retry import IDEMPOTENT_VERBS, RETRYABLE_CODES, RetryPolicy

__all__ = ["QueryClient", "ServingError"]


class ServingError(Exception):
    """A server-reported error response (the wire ``error`` object, raised)."""

    def __init__(self, code: str, message: str, details: Mapping[str, Any] | None = None):
        self.code = code
        self.message = message
        self.details = dict(details or {})
        super().__init__(f"{code}: {message}")


class QueryClient:
    """Blocking protocol client: ``connect``, issue verbs, ``close``.

    Usable as a context manager.  ``timeout`` is the socket timeout in
    seconds for connect and for each response (``None`` blocks forever —
    deadline-less queries can legitimately run long).  ``retry`` enables
    automatic reconnect/retry (see the module docstring); ``affinity`` is an
    opaque token stamped on every request so a supervisor frontend routes this
    client — and its streaming sessions — to a stable worker across
    reconnects.  ``retries`` and ``reconnects`` count what the policy did.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        retry: RetryPolicy | None = None,
        affinity: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.affinity = affinity
        self.retries = 0
        self.reconnects = 0
        self._sleep = sleep
        self._socket: socket.socket | None = None
        self._reader: Any = None
        self._next_id = 0
        self._connect()

    # --------------------------------------------------------------- plumbing
    def _connect(self) -> None:
        self._socket = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._reader = self._socket.makefile("rb")

    def _disconnect(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _attempt(self, message: dict[str, Any]) -> dict[str, Any]:
        """One wire round-trip; raises ConnectionError on any transport fault."""
        if self._socket is None:
            self.reconnects += 1
            self._connect()
        try:
            self._socket.sendall(encode_message(message))
            line = self._reader.readline(MAX_LINE_BYTES)
        except (OSError, ValueError) as error:
            raise ConnectionError(f"transport failure: {error}") from error
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # Either the peer died mid-frame or the line hit MAX_LINE_BYTES
            # exactly; both leave a partial frame that must not be decoded.
            raise ConnectionError(
                f"truncated response frame ({len(line)} bytes, no terminator)"
            )
        try:
            response = decode_message(line)
        except ProtocolError as error:
            raise ConnectionError(f"unreadable server response: {error}") from error
        if response.get("ok"):
            return response
        error_payload = response.get("error") or {}
        raise ServingError(
            error_payload.get("code", "INTERNAL"),
            error_payload.get("message", "unknown server error"),
            error_payload.get("details"),
        )

    def request(self, verb: str, **fields: Any) -> dict[str, Any]:
        """Send one request and return the success payload.

        Raises :class:`ServingError` on an ``"ok": false`` response and
        :class:`ConnectionError` on transport failures (hang-up mid-request,
        truncated frame).  With a :class:`RetryPolicy`, retryable failures are
        retried under its backoff schedule before surfacing.
        """
        if self.affinity is not None:
            fields.setdefault("affinity", self.affinity)
        # Transport failures leave non-idempotent verbs ambiguous (the server
        # may or may not have executed); seq-carrying ingests are deduped
        # server-side, which makes them retry-safe.
        transport_safe = verb in IDEMPOTENT_VERBS or (
            verb == "ingest" and fields.get("seq") is not None
        )
        attempt = 0
        while True:
            self._next_id += 1
            try:
                return self._attempt({"id": self._next_id, "verb": verb, **fields})
            except (ConnectionError, socket.timeout, TimeoutError) as error:
                self._disconnect()
                failure: Exception = error
                retryable = transport_safe
            except ServingError as error:
                failure = error
                retryable = error.code in RETRYABLE_CODES
            if (
                self.retry is None
                or not retryable
                or attempt + 1 >= self.retry.max_attempts
            ):
                raise failure
            self._sleep(self.retry.delay(attempt))
            self.retries += 1
            attempt += 1

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._disconnect()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ verbs
    def ping(self) -> dict[str, Any]:
        """Server liveness + protocol version."""
        return self.request("ping")

    def health(self) -> dict[str, Any]:
        """Readiness probe: ``status`` is ``"ok"`` or ``"draining"``."""
        return self.request("health")

    def _send(self, verb: str, **fields: Any) -> dict[str, Any]:
        """:meth:`request` without the arguments left unset (``None``): the
        server's defaults apply to them."""
        return self.request(verb, **{k: v for k, v in fields.items() if v is not None})

    def register(
        self,
        name: str,
        intervals: list[list[float]],
        streaming: bool | None = None,
    ) -> dict[str, Any]:
        """Register a named collection from explicit ``[uid, start, end]`` triples."""
        return self._send("register", name=name, intervals=intervals, streaming=streaming)

    def load(
        self,
        names: list[str],
        size: int | None = None,
        seed: int | None = None,
        streaming: bool | None = None,
    ) -> dict[str, Any]:
        """Ask the server to generate synthetic collections under these names."""
        return self._send("load", names=names, size=size, seed=seed, streaming=streaming)

    def ingest(
        self, name: str, intervals: list[list[float]], seq: int | None = None
    ) -> dict[str, Any]:
        """Stage one batch on a streaming collection.

        Pass a client-chosen ``seq`` number (unique per collection) to make the
        ingest exactly-once under retries: a replayed ``seq`` stages nothing
        and returns the original response with ``"deduped": true``.
        """
        return self._send("ingest", name=name, intervals=intervals, seq=seq)

    def query(
        self,
        query: str,
        collections: list[str],
        params: str | None = None,
        k: int | None = None,
        algorithm: str | None = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """Run one registry query; extra fields pass through (options, deadline_ms, fault...)."""
        return self._send(
            "query",
            query=query,
            collections=collections,
            params=params,
            k=k,
            algorithm=algorithm,
            **fields,
        )

    def stats(self) -> dict[str, Any]:
        """The server's metrics snapshot."""
        return self.request("stats")

    def collections(self) -> dict[str, Any]:
        """The registered collections."""
        return self.request("collections")

    def algorithms(self) -> dict[str, Any]:
        """The registry contents."""
        return self.request("algorithms")

    def drain(self, timeout_ms: int | None = None) -> dict[str, Any]:
        """Ask the server to drain: finish inflight work, checkpoint, exit."""
        return self._send("drain", timeout_ms=timeout_ms)

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop (acknowledged before it goes down)."""
        return self.request("shutdown")
