"""Wire protocol of the query server: newline-delimited JSON, versioned verbs.

This module is the single codec shared by server and client; the normative,
client-facing description of every verb, field and error code lives in
``docs/PROTOCOL.md`` (a test diffs that document's verbs and request fields
against :data:`~repro.serving.server.VERB_FIELDS` so the two cannot drift).
:func:`intervals` is the wire's own request-field check, in the
``check(name, value)`` vocabulary of :mod:`repro.checks`.

Framing
-------
One request or response per line: a UTF-8 JSON object terminated by ``\\n``,
at most :data:`MAX_LINE_BYTES` long.  Requests carry ``{"id", "verb", ...}``;
responses echo the ``id`` with ``"ok": true`` plus the verb's payload, or
``"ok": false`` plus an ``error`` object ``{"code", "message", "details"}``.

Versioning rule
---------------
:data:`PROTOCOL_VERSION` is a single integer, reported by the ``ping`` verb.
It is bumped on any breaking change (a verb removed or renamed, a required
field added, a field's type or meaning changed); purely additive changes (new
verbs, new optional fields, new error ``details`` keys) do not bump it.
Clients should ``ping`` after connecting and refuse to proceed on a version
they do not know.
"""

from __future__ import annotations

import json
import math
import reprlib
from typing import Any, Iterable, Mapping, Sequence

from ..mapreduce import Counters
from ..plan.algorithm import RunReport
from ..query.graph import ResultTuple
from ..temporal.interval import Interval

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_CODES",
    "E_BAD_REQUEST",
    "E_UNKNOWN_VERB",
    "E_NOT_FOUND",
    "E_EXISTS",
    "E_BUSY",
    "E_DRAINING",
    "E_UNAVAILABLE",
    "E_DEADLINE",
    "E_FAULT",
    "E_INTERNAL",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "ok_response",
    "error_response",
    "encode_intervals",
    "decode_intervals",
    "intervals",
    "encode_results",
    "decode_results",
    "deterministic_metrics",
]

PROTOCOL_VERSION = 1
"""Bumped on breaking changes only; see the versioning rule in the module docstring."""

MAX_LINE_BYTES = 8 * 1024 * 1024
"""Upper bound on one framed line (requests and responses), ingest payloads included."""

# Error codes (the complete set; docs/PROTOCOL.md documents when each is used).
E_BAD_REQUEST = "BAD_REQUEST"
E_UNKNOWN_VERB = "UNKNOWN_VERB"
E_NOT_FOUND = "NOT_FOUND"
E_EXISTS = "EXISTS"
E_BUSY = "BUSY"
E_DRAINING = "DRAINING"
E_UNAVAILABLE = "UNAVAILABLE"
E_DEADLINE = "DEADLINE"
E_FAULT = "FAULT"
E_INTERNAL = "INTERNAL"

ERROR_CODES = (
    E_BAD_REQUEST,
    E_UNKNOWN_VERB,
    E_NOT_FOUND,
    E_EXISTS,
    E_BUSY,
    E_DRAINING,
    E_UNAVAILABLE,
    E_DEADLINE,
    E_FAULT,
    E_INTERNAL,
)


class ProtocolError(Exception):
    """A structured protocol-level failure, serialised as the ``error`` object."""

    def __init__(
        self, code: str, message: str, details: Mapping[str, Any] | None = None
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}; expected one of {ERROR_CODES}")
        self.code = code
        self.message = message
        self.details = dict(details or {})
        super().__init__(f"{code}: {message}")

    def to_payload(self) -> dict[str, Any]:
        """The wire form of this error."""
        payload: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            payload["details"] = self.details
        return payload


# --------------------------------------------------------------------- framing
def encode_message(message: Mapping[str, Any]) -> bytes:
    """One framed line: compact JSON + newline, UTF-8."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def _non_json_number(token: str) -> None:
    raise ValueError(f"{token} is not a JSON number")


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one framed line into a JSON object (BAD_REQUEST on anything else,
    including the non-JSON number tokens ``NaN``, ``Infinity`` and ``-Infinity``)."""
    try:
        message = json.loads(line.decode("utf-8"), parse_constant=_non_json_number)
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(E_BAD_REQUEST, f"malformed JSON line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: Any, payload: Mapping[str, Any]) -> dict[str, Any]:
    """A success response echoing the request id."""
    return {"id": request_id, "ok": True, **payload}


def error_response(request_id: Any, error: ProtocolError) -> dict[str, Any]:
    """A failure response echoing the request id."""
    return {"id": request_id, "ok": False, "error": error.to_payload()}


# ---------------------------------------------------------------------- fields
def encode_intervals(intervals: Iterable[Interval]) -> list[list[float]]:
    """Intervals as ``[uid, start, end]`` triples (payloads are not carried)."""
    return [[interval.uid, interval.start, interval.end] for interval in intervals]


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def intervals(name: str, value: Any) -> list[Interval]:
    """The ``[[uid, start, end], ...]`` wire form as intervals: an int64 uid
    (the width of the columns collections are joined and checkpointed in) and
    finite numeric endpoints with ``start <= end``."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of [uid, start, end], got {reprlib.repr(value)}")
    decoded = []
    for index, item in enumerate(value):
        # Exact types: a JSON bool is neither a uid nor an endpoint.
        if not (
            isinstance(item, list)
            and len(item) == 3
            and type(item[0]) is int
            and type(item[1]) in (int, float)
            and type(item[2]) in (int, float)
        ):
            raise ValueError(
                f"{name}[{index}] must be an [integer uid, start, end] triple, "
                f"got {reprlib.repr(item)}"
            )
        if not _INT64_MIN <= item[0] <= _INT64_MAX:
            raise ValueError(f"{name}[{index}]: uid {item[0]} is outside the int64 range")
        try:
            start, end = float(item[1]), float(item[2])
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError("endpoints must be finite")
            decoded.append(Interval(item[0], start, end))
        except (ValueError, OverflowError) as error:
            raise ValueError(f"{name}[{index}]: {error}") from None
    return decoded


def decode_intervals(payload: Any) -> list[Interval]:
    """:func:`intervals` for codec callers (BAD_REQUEST on a mismatch)."""
    try:
        return intervals("intervals", payload)
    except ValueError as error:
        raise ProtocolError(E_BAD_REQUEST, str(error)) from None


def encode_results(results: Sequence[ResultTuple]) -> list[dict[str, Any]]:
    """Result tuples as ``{"uids": [...], "score": float}`` objects.

    JSON round-trips Python floats exactly (``repr`` precision), so a served
    score compares ``==`` to the library's — the byte-identical contract.
    """
    return [{"uids": list(result.uids), "score": result.score} for result in results]


def decode_results(payload: Sequence[Mapping[str, Any]]) -> list[ResultTuple]:
    """The inverse of :func:`encode_results` (for clients and parity tests)."""
    return [
        ResultTuple(uids=tuple(int(uid) for uid in item["uids"]), score=float(item["score"]))
        for item in payload
    ]


def deterministic_metrics(report: RunReport) -> dict[str, Any]:
    """The deterministic slice of a :class:`RunReport` (no wall-clock keys).

    This is what the ``query`` verb returns under ``"metrics"`` and what the
    parity tests compare ``==`` between a served query and a direct library
    run: result count, shuffle and spill totals, and the merged engine
    counters (pruning, join work, ...).  Timings are reported separately under
    ``"timings"`` and excluded here on purpose.
    """
    counters = Counters()
    for metrics in report.metrics:
        counters.merge(metrics.counters)
    return {
        "results": len(report.results),
        "shuffle_records": report.shuffle_records,
        "shuffle_bytes": report.shuffle_bytes,
        "bytes_spilled": report.bytes_spilled,
        "spill_runs": report.spill_runs,
        "shm_segments": report.shm_segments,
        "counters": counters.as_dict(),
    }
