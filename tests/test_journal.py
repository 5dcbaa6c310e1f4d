"""The durable server's checkpoint log: replay parity, torn tails, corruption,
compaction.

A checkpointing :class:`QueryServer` keeps one file: a log whose record 0 is
a snapshot, followed by one digest-framed record per state-changing verb; it
rewrites the file as one fresh snapshot only when the changes have grown to
the snapshot's size (DESIGN.md §13).  Restoring the log at any cut must
rebuild exactly the state the uninterrupted server held — and answer the
next queries identically.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import durable
from repro.serving import QueryServer
from repro.serving.protocol import encode_message
from repro.serving.worker import run_server
from repro.streaming import StreamingCollection

STREAMS = ["S0", "S1", "S2"]
STATIC = ["R0", "R1", "R2"]


class Wire:
    """A server's verbs called the way a connection calls them — decode,
    handle, persist, reply — on a private event loop, without a socket."""

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()

    def __call__(self, verb: str, **fields):
        line = encode_message({"verb": verb, **fields})
        return self.loop.run_until_complete(self.server._dispatch(line, 1))

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


def triples(seed, size, first_uid):
    """``size`` intervals inside [0, 100] with consecutive uids from ``first_uid``."""
    rng = random.Random(seed)
    rows = []
    for offset in range(size):
        start = rng.uniform(0.0, 90.0)
        rows.append([first_uid + offset, start, start + rng.uniform(0.0, 10.0)])
    return rows


def query(names, algorithm="tkij-streaming", num_granules=4):
    return {
        "query": "Qo,m",
        "collections": names,
        "k": 5,
        "algorithm": algorithm,
        "options": {"num_granules": num_granules},
    }


def durable_state(server):
    """Everything a restore must rebuild, in comparable form (a copy: the
    server keeps maintaining its entries in place)."""
    cache = server.context.statistics
    with cache.lock:
        entries = copy.deepcopy(list(cache._entries.items()))
        counters = cache.describe()
    collections = {}
    for name, collection in server.collections.items():
        rows = [(x.uid, x.start, x.end) for x in collection.intervals]
        if isinstance(collection, StreamingCollection):
            staged = [[x.uid for x in batch] for batch in collection.staged_batches()]
            collections[name] = ("stream", rows, list(collection.log.sizes), staged)
        else:
            collections[name] = ("static", rows)
    streams = {key: state.to_snapshot() for key, state in server.context.streams.items()}
    return collections, dict(server._ingest_seqs), entries, counters, streams


def answer(response):
    """The deterministic part of a response (timings dropped)."""
    if not response["ok"]:
        return response["error"]["code"], response["error"]["message"]
    if "results" in response:
        return response["results"], response["metrics"], response["statistics_cached"]
    return response


def next_answers(wire):
    """What a client asks after the cut: a tick of the streams, the static join."""
    answers = [answer(wire("ingest", name="S0", intervals=triples(99, 3, 10_000)))]
    answers.append(answer(wire("query", **query(STREAMS))))
    answers.append(answer(wire("query", **query(STATIC, "tkij", num_granules=3))))
    return answers


OPS = st.one_of(
    st.tuples(st.just("register"), st.integers(0, 5), st.integers(2, 10)),
    st.tuples(
        st.just("ingest"), st.integers(0, 2), st.none() | st.integers(0, 3), st.integers(0, 6)
    ),
    st.tuples(
        st.just("query"),
        st.sampled_from(["tkij", "tkij-streaming"]),
        st.booleans(),
        st.sampled_from([3, 4]),
    ),
    st.tuples(st.just("load"), st.integers(0, 1)),
    st.just(("compact",)),
)


def apply(wire, index, op, uids):
    """Send one drawn operation; ``uids`` hands out the first uid of a fresh block."""
    kind = op[0]
    if kind == "register":
        _, slot, size = op
        rows = triples(index, size, next(uids))
        wire("register", name=(STREAMS + STATIC)[slot], intervals=rows, streaming=slot < 3)
    elif kind == "ingest":
        _, slot, seq, size = op
        wire("ingest", name=STREAMS[slot], intervals=triples(index, size, next(uids)), seq=seq)
    elif kind == "query":
        _, algorithm, streams, num_granules = op
        wire("query", **query(STREAMS if streams else STATIC, algorithm, num_granules))
    elif kind == "load":
        wire("load", names=[f"L{op[1]}"], size=12, seed=3)
    else:
        wire.server.checkpoint(wire.server.checkpoint_path)


def uid_blocks(first=0):
    """First uids of disjoint blocks, each wide enough for any drawn batch."""
    return itertools.count(first, 100)


#: Every example starts from the six collections registered.
PRELUDE = [("register", slot, 8) for slot in range(6)]


def run(tmp_path, ops):
    """A checkpointing server (a small LRU bound, so evictions happen) after
    the :data:`PRELUDE` and ``ops``."""
    path = tmp_path / "server.ckpt"
    wire = Wire(QueryServer(checkpoint_path=path, stats_cache_entries=2))
    uids = uid_blocks()
    for index, op in enumerate(PRELUDE + ops):
        apply(wire, index, op, uids)
    return wire, path


def restored(path):
    return Wire(QueryServer(stats_cache_entries=2).restore_state(path))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(OPS, max_size=14))
def test_restore_at_any_cut_equals_the_uninterrupted_server(tmp_path_factory, ops):
    tmp_path = tmp_path_factory.mktemp("cut")
    live, path = run(tmp_path, ops)
    try:
        replica = restored(path)
        try:
            assert durable_state(replica.server) == durable_state(live.server)
            assert next_answers(replica) == next_answers(live)
        finally:
            replica.close()
    finally:
        live.close()


# A fixed life: every record kind, two datasets, an eviction.
LIFE = [
    ("query", "tkij-streaming", True, 4),
    ("query", "tkij", False, 3),
    ("ingest", 0, 1, 4),
    ("ingest", 1, 1, 4),
    ("ingest", 1, 1, 4),
    ("query", "tkij-streaming", True, 4),
    ("load", 0),
    ("query", "tkij-streaming", True, 3),
]


def compacted_life(tmp_path):
    """A server after :data:`LIFE`, compacted: its checkpoint holds only a snapshot."""
    wire, path = run(tmp_path, LIFE)
    wire.server.checkpoint(path)
    return wire, path


def listing(directory):
    return sorted(entry.name for entry in directory.iterdir())


class TestTornAndCorruptLogs:
    def test_a_truncated_last_record_restores_the_state_before_it(self, tmp_path):
        wire, path = compacted_life(tmp_path)
        apply(wire, 90, ("ingest", 2, 5, 3), uid_blocks(50_000))
        prefix = path.read_bytes()
        expected_before = durable_state(wire.server)
        # A query committing that batch: statistics entries and stream state.
        apply(wire, 91, ("query", "tkij-streaming", True, 4), uid_blocks(50_000))
        expected_after = durable_state(wire.server)
        wire.close()
        data = path.read_bytes()
        assert data.startswith(prefix) and len(data) > len(prefix)
        for cut in range(len(prefix), len(data)):
            path.write_bytes(data[:cut])
            replica = restored(path)
            assert durable_state(replica.server) == expected_before, cut
            replica.close()
        path.write_bytes(data)
        replica = restored(path)
        assert durable_state(replica.server) == expected_after
        replica.close()

    def test_a_flipped_byte_in_an_earlier_record_is_refused(self, tmp_path):
        wire, path = compacted_life(tmp_path)
        sizes = [path.stat().st_size]
        apply(wire, 90, ("ingest", 2, 5, 3), uid_blocks(50_000))
        sizes.append(path.stat().st_size)
        apply(wire, 91, ("query", "tkij-streaming", True, 4), uid_blocks(50_000))
        wire.close()
        data = path.read_bytes()
        assert len(durable.read_log(path)[1]) == 2
        for offset in range(*sizes):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0x5A
            path.write_bytes(bytes(corrupt))
            target = QueryServer()
            with pytest.raises(ValueError, match="record at byte"):
                target.restore_state(path)
            assert target.collections == {}

    def test_a_file_of_another_format_is_refused(self, tmp_path):
        wire, path = compacted_life(tmp_path)
        wire.close()
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="frame format"):
            QueryServer().restore_state(path)

    def test_a_snapshot_beside_a_sidecar_journal_starts_the_worker_cold(self, tmp_path, capsys):
        # The earlier two-file layout: a snapshot framed as magic, version
        # byte 1, the pickle's digest, the pickle — plus ``<path>.journal``.
        wire, path = compacted_life(tmp_path)
        snapshot = {**wire.server.checkpoint(), "version": 2, "generation": 7}
        wire.close()
        body = pickle.dumps(snapshot)
        digest = hashlib.blake2b(body, digest_size=32).digest()
        path.write_bytes(b"repro-checkpoint\n\x01" + digest + body)
        path.with_name("server.ckpt.journal").write_bytes(b"repro-journal\n\x01" + bytes(8))
        server = QueryServer(checkpoint_path=path)
        server.shutdown_requested.set()  # serve nothing: boot, then stop
        assert asyncio.run(run_server(server)) == 0
        assert "server: starting cold" in capsys.readouterr().err
        assert server.collections == {}


def test_replay_keeps_the_cache_lru_order_and_counters(tmp_path):
    # Two entries in the snapshot, then a hit that only reorders them: the
    # record carries the move, and the restored cache evicts the same entry.
    ops = [
        ("query", "tkij", False, 3),
        ("query", "tkij-streaming", True, 4),
        ("compact",),
        ("query", "tkij", False, 3),
    ]
    wire, path = run(tmp_path, ops)
    order = [key for key, _ in durable_state(wire.server)[2]]
    assert order == [(tuple(STREAMS), 4), (tuple(STATIC), 3)]
    replica = restored(path)
    assert durable_state(replica.server) == durable_state(wire.server)
    assert next_answers(replica) == next_answers(wire)
    replica.close()
    wire.close()


class TestCompaction:
    def test_changes_after_a_compaction_survive_a_restore(self, tmp_path):
        wire, path = compacted_life(tmp_path)
        snapshot_only = path.stat().st_size
        apply(wire, 90, ("ingest", 2, 5, 3), uid_blocks(50_000))
        apply(wire, 91, ("query", "tkij-streaming", True, 4), uid_blocks(50_000))
        assert path.stat().st_size > snapshot_only
        assert len(durable.read_log(path)[1]) == 2
        replica = restored(path)
        assert durable_state(replica.server) == durable_state(wire.server)
        assert next_answers(replica) == next_answers(wire)
        replica.close()
        wire.close()

    def test_a_failed_compaction_keeps_the_previous_log(self, tmp_path, monkeypatch):
        wire, path = compacted_life(tmp_path)
        apply(wire, 90, ("ingest", 2, 5, 3), uid_blocks(50_000))
        old_log = path.read_bytes()

        def full_disk(self, chunk):
            raise OSError("no space left on device")

        monkeypatch.setattr(durable._HashingWriter, "write", full_disk)
        with pytest.raises(OSError):
            wire.server.checkpoint(path)
        monkeypatch.undo()
        # The previous log, which holds every acknowledged change, stays; its
        # staging file is gone.
        assert path.read_bytes() == old_log
        assert listing(tmp_path) == ["server.ckpt"]
        replica = restored(path)
        assert durable_state(replica.server) == durable_state(wire.server)
        replica.close()
        # The failed compaction closed the log: the next write compacts.
        assert wire.server._log is None
        wire("ingest", name="S2", intervals=triples(7, 3, 20_000), seq=9)
        assert wire.server._log is not None
        assert durable.read_log(path)[1] == []
        replica = restored(path)
        assert durable_state(replica.server) == durable_state(wire.server)
        assert next_answers(replica) == next_answers(wire)
        replica.close()
        wire.close()

    def test_the_log_compacts_once_its_changes_reach_the_snapshot_size(self, tmp_path):
        path = tmp_path / "server.ckpt"
        wire = Wire(QueryServer(checkpoint_path=path, stats_cache_entries=2))
        wire("register", name="S", intervals=triples(1, 5, 0), streaming=True)
        sizes = []
        for tick in range(60):
            wire("ingest", name="S", intervals=triples(tick, 5, 100 + 5 * tick), seq=tick)
            sizes.append((path.stat().st_size, wire.server._snapshot_size))
        # Every write appended or compacted; the changes never outgrew the
        # snapshot by more than the record that tipped them.
        compactions = sum(later < earlier for (earlier, _), (later, _) in zip(sizes, sizes[1:]))
        assert compactions >= 2
        assert all(size < 3 * snapshot + 4096 for size, snapshot in sizes)
        # One file per checkpoint path, whatever the number of compactions.
        assert listing(tmp_path) == ["server.ckpt"]
        replica = restored(path)
        assert durable_state(replica.server) == durable_state(wire.server)
        replica.close()
        wire.close()

    def test_a_checkpoint_elsewhere_leaves_the_log_alone(self, tmp_path):
        wire, path = compacted_life(tmp_path)
        apply(wire, 90, ("ingest", 2, 5, 3), uid_blocks(50_000))
        data = path.read_bytes()
        copy = tmp_path / "copy.ckpt"
        wire.server.checkpoint(copy)
        assert path.read_bytes() == data
        assert durable.read_log(copy)[1] == []
        replica = restored(copy)
        assert durable_state(replica.server) == durable_state(wire.server)
        replica.close()
        # The server keeps appending to its own log.
        apply(wire, 91, ("ingest", 2, 6, 3), uid_blocks(60_000))
        assert path.read_bytes().startswith(data) and path.stat().st_size > len(data)
        wire.close()

    def test_a_checkpoint_of_its_own_path_spelled_another_way_compacts(self, tmp_path, monkeypatch):
        # The server holds an absolute path; a relative spelling of the same
        # file is still its own log, so later changes must survive a restore.
        path = tmp_path / "server.ckpt"
        wire = Wire(QueryServer(checkpoint_path=path))
        monkeypatch.chdir(tmp_path)
        wire("register", name="A", intervals=triples(1, 3, 0))
        wire.server.checkpoint("server.ckpt")
        wire("register", name="B", intervals=triples(2, 3, 100))
        assert listing(tmp_path) == ["server.ckpt"]
        replica = restored(path)
        assert sorted(replica.server.collections) == ["A", "B"]
        replica.close()
        wire.close()


def tick_bytes(tmp_path, others):
    """Log bytes of one tick (3 ingests + 1 query) of a stream opened after
    ``others`` other streams were opened and evaluated."""
    path = tmp_path / "server.ckpt"
    wire = Wire(QueryServer(checkpoint_path=path))
    for stream in [f"O{index}" for index in range(others)] + ["T"]:
        names = [f"{stream}-{vertex}" for vertex in range(3)]
        for index, name in enumerate(names):
            wire("register", name=name, intervals=triples(index, 20, 0), streaming=True)
        wire("query", **query(names))
    wire.server.checkpoint(path)  # compact: the tick's records follow a fresh snapshot
    start = path.stat().st_size
    names = [f"T-{vertex}" for vertex in range(3)]
    for index, name in enumerate(names):
        wire("ingest", name=name, intervals=triples(50 + index, 5, 10_000 + 5 * index), seq=0)
    wire("query", **query(names))
    written = path.stat().st_size - start
    wire.close()
    return written


def test_a_tick_writes_the_same_bytes_whatever_else_is_registered(tmp_path):
    alone = tick_bytes(tmp_path / "alone", 1)
    crowded = tick_bytes(tmp_path / "crowded", 12)
    assert alone == crowded > 0
