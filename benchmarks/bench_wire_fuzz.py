"""Seeded long-run wire fuzz: hostile frames against one in-process query server.

Draws :data:`FRAMES` frames at a fixed seed from the server's own field table
(``serving/server.py::VERB_FIELDS``, the nested ``fault`` rows included):
every field set to values of every JSON type, ``null`` and the non-JSON
number tokens ``NaN`` / ``Infinity`` / ``-Infinity``, plus non-UTF-8 bytes,
non-object JSON, garbage, an oversized line and a truncated final frame.
Gates, asserted inside the benchmark (a hard gate, no timing ratio):

* every response is ``ok`` or a structured error whose code is not
  ``INTERNAL``;
* a rejected frame — a refused field (``details.field``) or a line that is
  not a request — registers nothing and starts no task attempt, and no error
  response of any kind changes the registry;
* after the last (truncated) frame the server still answers ``ping``.

The frame counts per outcome land in ``extra_info``.  Run it with
``python -m pytest benchmarks/bench_wire_fuzz.py -q`` (about 10 s).
"""

from __future__ import annotations

import json
import random
import socket
from collections import Counter
from typing import Any

from repro.datagen.synthetic import SyntheticConfig, generate_uniform_collection
from repro.mapreduce import SerialBackend
from repro.plan import ExecutionContext
from repro.serving import BackgroundServer, QueryServer
from repro.serving.protocol import MAX_LINE_BYTES, encode_message
from repro.serving.server import FAULT_FIELDS, VERB_FIELDS

SEED = 38
FRAMES = 3_000
NAMES = ["R", "S", "T"]

#: JSON values of every type, ``null`` among them.
VALUES: list[Any] = [None, True, False, 0, -1, 7, 2.5, "", "x", [], ["x"], [1, 2], {}]
VALUES += [{"a": 1}, [[0, 1.0, 2.0]], [[0.5, 1.0, 2.0]], [[0, 2.0, 1.0]]]

#: A request each verb accepts; names come from small pools so that at most a
#: handful of registrations (and 10 000-interval default loads) succeed.
BASES = {
    "ping": lambda rng: {},
    "health": lambda rng: {},
    "register": lambda rng: {"name": f"Z{rng.randrange(8)}"},
    "load": lambda rng: {"names": [f"L{rng.randrange(3)}"], "size": 10},
    "ingest": lambda rng: {"name": "W", "intervals": [[rng.randrange(10**6), 0.0, 1.0]]},
    "query": lambda rng: {"query": "Qo,m", "collections": NAMES, "k": 5},
    "stats": lambda rng: {},
    "collections": lambda rng: {},
    "algorithms": lambda rng: {},
    "drain": lambda rng: {"timeout_ms": "never drained"},
}

#: (verb, path) of every table row; ``drain`` is only sent refused values
#: (a valid one would retire the server) and ``shutdown`` has no field.
ROWS = [(verb, (field,)) for verb, table in VERB_FIELDS.items() for field in table]
ROWS += [("query", ("fault", field)) for field in FAULT_FIELDS]

TOKEN = "<number token>"
"""Stands for a non-JSON number token in a drawn value."""

MALFORMED = [
    b"[1, 2]\n",
    b"3\n",
    b'"ping"\n',
    b"null\n",
    b"true\n",
    b"{not json\n",
    b'{"verb": "ping", "x": "\xff\xfe"}\n',
    b"\xff\xfe\xfd\n",
    b'{"verb": 5}\n',
    b'{"verb": "no-such-verb"}\n',
]


OVERSIZED = b'{"verb": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'


class CountingBackend(SerialBackend):
    """Serial backend that counts every task attempt handed to it."""

    def __init__(self) -> None:
        super().__init__()
        self.attempts = 0

    def run_tasks(self, tasks):
        self.attempts += len(tasks)
        return super().run_tasks(tasks)


def with_field(request: dict[str, Any], path: tuple[str, ...], value: Any) -> dict[str, Any]:
    if len(path) == 1:
        return {**request, path[0]: value}
    return {**request, path[0]: with_field(request.get(path[0]) or {}, path[1:], value)}


def draw_frame(rng: random.Random, index: int) -> bytes:
    """One frame: mostly a table field set to a drawn value (sometimes a
    non-JSON number token), now and then a line that is no request at all."""
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(MALFORMED)
    if roll < 0.09:
        # Bytes past ASCII: never a newline or blank, never UTF-8 JSON.
        return bytes(rng.randrange(128, 256) for _ in range(rng.randrange(1, 40))) + b"\n"
    verb, path = rng.choice(ROWS)
    value = rng.choice(VALUES) if roll >= 0.15 else rng.choice([TOKEN, [[0, TOKEN, 1.0]]])
    if verb == "drain" and (value is None or type(value) is int and value > 0):
        value = "x"
    request = with_field(BASES[verb](rng), path, value)
    line = encode_message({"id": index, "verb": verb, **request})
    token = rng.choice([b"NaN", b"Infinity", b"-Infinity"])
    return line.replace(json.dumps(TOKEN).encode(), token)


class Connection:
    """One raw connection: a line out, the response line back."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60)
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes) -> dict[str, Any]:
        self.sock.sendall(line)
        return json.loads(self.reader.readline())  # ValueError on a dropped connection

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def registry(server: QueryServer) -> dict[str, tuple[int, int]]:
    return {
        name: (len(collection), getattr(collection, "pending_batches", 0))
        for name, collection in server.collections.items()
    }


def fuzz() -> Counter:
    rng = random.Random(SEED)
    backend = CountingBackend()
    server = QueryServer(ExecutionContext(backend=backend))
    outcomes: Counter = Counter()
    with BackgroundServer(server) as address:
        for name in NAMES:
            collection = generate_uniform_collection(name, SyntheticConfig(size=20), seed=7)
            server.collections[name] = collection
        wire = Connection(address)
        wire.exchange(
            encode_message(
                {"verb": "register", "name": "W", "intervals": [], "streaming": True}
            )
        )
        for index in range(FRAMES):
            oversized = index % 1000 == 999
            line = OVERSIZED if oversized else draw_frame(rng, index)
            before, attempts = registry(server), backend.attempts
            try:
                response = wire.exchange(line)
            except (OSError, ValueError):
                # The server answers an oversized line and drops the
                # connection; the reset may reach the client first.
                assert oversized
                response = {"id": None, "ok": False, "error": {"code": "BAD_REQUEST"}}
            if oversized:
                wire.close()
                wire = Connection(address)
            if response["ok"]:
                outcomes["ok"] += 1
                continue
            error = response["error"]
            outcomes[error["code"]] += 1
            assert error["code"] != "INTERNAL", (line[:200], error)
            assert registry(server) == before, (line[:200], error)
            if response["id"] is None or "field" in error.get("details", {}):
                outcomes["rejected"] += 1
                assert backend.attempts == attempts, (line[:200], error)
        # A uid past int64 is refused by index, in a register and in an
        # ingest; a query over the collection then answers as if the frame
        # never came (it used to fail every later query as INTERNAL).
        hostile = [[0, 0.0, 1.0], [2**70, 0.0, 1.0]]
        opened = {"verb": "register", "name": "H", "intervals": [[0, 0.0, 1.0]], "streaming": True}
        assert wire.exchange(encode_message(opened))["ok"]
        for request, expected in (
            ({"verb": "register", "name": "H2", "streaming": True}, "NOT_FOUND"),
            ({"verb": "ingest", "name": "H"}, None),
        ):
            refused = wire.exchange(encode_message({**request, "intervals": hostile}))
            assert refused["error"]["code"] == "BAD_REQUEST", refused
            assert "intervals[1]" in refused["error"]["message"], refused
            query = {"verb": "query", "query": "Qo,m", "collections": ["R", "S", request["name"]]}
            answer = wire.exchange(encode_message({**query, "k": 5}))
            assert (answer.get("error") or {}).get("code") == expected, answer
        # A truncated final frame: half a request, then the connection closes.
        wire.sock.sendall(encode_message({"verb": "load", "names": ["T9"]})[:12])
        wire.close()
        wire = Connection(address)
        assert wire.exchange(encode_message({"verb": "ping"}))["ok"]
        wire.close()
        assert "T9" not in server.collections
    return outcomes


def bench_wire_fuzz(benchmark):
    outcomes = benchmark.pedantic(fuzz, rounds=1, iterations=1)
    assert sum(count for code, count in outcomes.items() if code != "rejected") == FRAMES
    assert outcomes["rejected"] > FRAMES // 3
    benchmark.extra_info.update(workload="wire_fuzz", seed=SEED, frames=FRAMES, **outcomes)
