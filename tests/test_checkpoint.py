"""Streaming checkpoint/recovery: snapshots, restore, and kill-recover parity.

The recovery contract (DESIGN.md §9): a streaming evaluator killed between
ticks and restored from its last checkpoint — statistics cache entries plus
per-stream state — resumes from the last committed batch and produces results
tie-aware-identical to a run that was never interrupted, with identical
replan-policy counters and per-batch pruning/work reports (only wall-clock
times may differ).
"""

from __future__ import annotations

import pickle
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import ExecutionContext, get_algorithm
from repro.query.graph import ResultTuple
from repro.serving import QueryServer
from repro.streaming import StreamState, StreamingCollection, equivalent_top_k

NUM_BATCHES = 5


@pytest.fixture(scope="module")
def stream_source():
    config = SyntheticConfig(size=30, start_max=600.0, length_max=60.0)
    return list(generate_collections(3, config, seed=505).values())


def batch_chunks(collection, num_batches=NUM_BATCHES):
    intervals = collection.intervals
    size = max(1, -(-len(intervals) // num_batches))
    return [intervals[start : start + size] for start in range(0, len(intervals), size)]


def make_context():
    return ExecutionContext(cluster=ClusterConfig(num_reducers=4, num_mappers=2))


def evaluate(streams, context, k=10):
    query = build_query("Qs,m", streams, "P1", k=k)
    return get_algorithm("tkij-streaming").run(query, context)


def staged_streams(source, first=None, last=None, committed_prefix=0):
    """Streams seeded with the first ``committed_prefix`` batches as static
    contents and the batches of ``[first, last)`` staged for commit."""
    streams = []
    for collection in source:
        chunks = batch_chunks(collection)
        seeded = [iv for chunk in chunks[:committed_prefix] for iv in chunk]
        stream = StreamingCollection(collection.name, seeded)
        for chunk in chunks[first if first is not None else committed_prefix : last]:
            stream.ingest(chunk)
        streams.append(stream)
    return streams


def logical_batch_report(batch):
    """A batch report minus its wall-clock fields."""
    summary = batch.describe()
    summary.pop("seconds", None)
    return summary


class TestStreamStateSnapshot:
    def test_roundtrip(self):
        state = StreamState(
            results=[ResultTuple(uids=(1, 2, 3), score=0.9)],
            knobs={"num_granules": 8, "strategy": "loose", "assigner": "dtb"},
            initialized=True,
            base_size=90,
            appended_since_plan=12,
            batches_ingested=3,
            replans=1,
        )
        restored = StreamState.from_snapshot(state.to_snapshot())
        assert restored.results == state.results
        assert restored.knobs == state.knobs
        assert restored.base_size == 90
        assert restored.appended_since_plan == 12
        assert restored.batches_ingested == 3
        assert restored.replans == 1

    def test_snapshot_has_value_semantics(self):
        state = StreamState(results=[ResultTuple(uids=(1,), score=0.5)], initialized=True)
        snapshot = state.to_snapshot()
        state.results.append(ResultTuple(uids=(2,), score=0.4))
        restored = StreamState.from_snapshot(snapshot)
        assert len(restored.results) == 1

    def test_loads_version1_snapshot_with_bounds_memo(self):
        """Snapshots written while the state carried a pairwise-bounds memo
        (same version, two extra keys) still restore; the memo is ignored."""
        state = StreamState(knobs={"num_granules": 8}, initialized=True, replans=2)
        snapshot = state.to_snapshot()
        snapshot["pairwise_bounds"] = {(0, (0, 0), (1, 1)): (0.25, 0.75)}
        snapshot["bounds_fingerprint"] = (8, 1)
        restored = StreamState.from_snapshot(snapshot)
        assert restored == state
        assert set(restored.to_snapshot()) == set(snapshot) - {
            "pairwise_bounds",
            "bounds_fingerprint",
        }

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="stream-state"):
            StreamState.from_snapshot({"kind": "something-else"})
        with pytest.raises(ValueError, match="version"):
            StreamState.from_snapshot({"kind": "stream-state", "version": 99})


def corrupted(blob, count, seed):
    """``count`` seeded truncations and 1-3 byte flips of ``blob``."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            yield blob[: rng.randrange(len(blob))]
            continue
        data = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
        yield bytes(data)


def restorable_state(target):
    """What a failed restore must leave untouched, by identity and by counters."""
    context = target if isinstance(target, ExecutionContext) else target.context
    state = [id(context.streams), id(context.statistics._entries)]
    state.append(context.statistics.describe())
    if isinstance(target, QueryServer):
        state += [id(target.collections), id(target._ingest_seqs)]
    return state


class TestCorruptCheckpoints:
    """A corrupt checkpoint raises ValueError and replaces no state; a worker
    booting from one starts cold instead of crash-looping."""

    @pytest.fixture(scope="class")
    def warm(self, stream_source):
        streams = staged_streams(stream_source, first=0, last=2, committed_prefix=0)
        context = make_context()
        evaluate(streams, context)
        server = QueryServer(context)
        server.collections.update({stream.name: stream for stream in streams})
        return server

    @pytest.mark.parametrize("entry", ["context", "server"])
    def test_fuzzed_files_raise_value_error_and_keep_state(self, warm, tmp_path, entry):
        if entry == "context":
            snapshot, target = warm.context.checkpoint(), make_context()
            restore = ExecutionContext.restore
        else:
            snapshot, target = warm.checkpoint(), QueryServer(make_context())
            restore = QueryServer.restore_state
        restore(target, snapshot)
        path = tmp_path / "fuzzed.ckpt"
        rejected = 0
        for data in corrupted(pickle.dumps(snapshot), 300, seed=36):
            path.write_bytes(data)
            before = restorable_state(target)
            try:
                restore(target, path)
            except ValueError:
                rejected += 1
                assert restorable_state(target) == before
        # A flip inside a value's bytes may load as another valid checkpoint;
        # every truncation and most flips must be rejected.
        assert rejected >= 150

    def test_wrong_typed_section_replaces_nothing(self, warm):
        server = QueryServer(make_context()).restore_state(warm.checkpoint())
        before = restorable_state(server)
        with pytest.raises(ValueError, match="malformed"):
            server.restore_state({**warm.checkpoint(), "collections": 5})
        assert restorable_state(server) == before
        context = server.context
        with pytest.raises(ValueError, match="malformed"):
            context.restore({**context.checkpoint(), "streams": 5})
        assert restorable_state(server) == before


class TestContextCheckpoint:
    def test_rejects_foreign_payloads(self, tmp_path):
        context = make_context()
        with pytest.raises(ValueError, match="checkpoint"):
            context.restore({"kind": "not-a-checkpoint"})
        with pytest.raises(ValueError, match="cannot read"):
            context.restore(tmp_path / "missing.ckpt")

    def test_rejects_corrupt_checkpoint_files(self, tmp_path, stream_source):
        # Corruption surfaces as the documented ValueError, not a raw
        # UnpicklingError/EOFError (the same contract callers already catch).
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a pickle at all")
        with pytest.raises(ValueError, match="cannot read"):
            make_context().restore(garbage)

        streams = staged_streams(stream_source, first=0, last=2, committed_prefix=0)
        context = make_context()
        evaluate(streams, context)
        intact = tmp_path / "intact.ckpt"
        context.checkpoint(intact)
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes(intact.read_bytes()[: intact.stat().st_size // 2])
        with pytest.raises(ValueError, match="cannot read"):
            make_context().restore(truncated)

    def test_rejects_checkpoint_missing_sections(self):
        with pytest.raises(ValueError, match="missing"):
            make_context().restore({"kind": "execution-context", "version": 1})

    def test_checkpoint_file_written_atomically(self, tmp_path, stream_source):
        streams = staged_streams(stream_source, last=3, committed_prefix=0, first=0)
        context = make_context()
        evaluate(streams, context)
        path = tmp_path / "nested" / "state.ckpt"
        snapshot = context.checkpoint(path)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        with open(path, "rb") as handle:
            assert pickle.load(handle).keys() == snapshot.keys()

    def test_concurrent_checkpoints_never_tear_the_file(self, tmp_path, stream_source):
        # Regression: staging used to go through a fixed `<name>.tmp` sibling,
        # so two concurrent checkpointers could interleave writes and persist
        # a torn snapshot.  Per-writer staging names make every rename atomic:
        # the target is always some writer's complete snapshot.
        streams = staged_streams(stream_source, last=2, committed_prefix=0, first=0)
        context = make_context()
        evaluate(streams, context)
        path = tmp_path / "raced.ckpt"
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def checkpointer():
            try:
                barrier.wait(timeout=10)
                for _ in range(10):
                    context.checkpoint(path)
                    make_context().restore(path)  # always a complete snapshot
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=checkpointer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        make_context().restore(path)
        # No staging siblings left behind (any `raced.ckpt.tmp*` name).
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "raced.ckpt"]
        assert leftovers == []

    def test_state_keyed_without_parameters_never_answers_another_query(self, stream_source):
        # Checkpoints written before stream states were keyed by the query
        # fingerprint carry (name, stream_id, vertices, collection names,
        # edges, k) keys, with no predicate parameters.  Restored, such a state
        # is never looked up again: the query evaluates in full, exactly.
        streams = staged_streams(stream_source, first=0, last=2, committed_prefix=0)
        p1_query = build_query("Qs,m", streams, "P1", k=10)
        context = make_context()
        get_algorithm("tkij-streaming").run(p1_query, context)
        (p1_state,) = context.streams.values()
        edges = tuple((e.source, e.target, e.predicate.name) for e in p1_query.edges)
        names = tuple(p1_query.collections[vertex].name for vertex in p1_query.vertices)
        context.streams = {
            ("tkij-streaming", "default", p1_query.vertices, names, edges, 10): p1_state
        }
        restored = make_context().restore(context.checkpoint())

        p2_query = build_query("Qs,m", streams, "P2", k=10)
        report = get_algorithm("tkij-streaming").run(p2_query, restored)
        expected = get_algorithm("tkij").run(p2_query, make_context())
        assert not equivalent_top_k(p1_state.results, expected.results)
        assert equivalent_top_k(report.results, expected.results)
        assert report.raw.batches[0].replan_reason == "initial full evaluation"

    def test_statistics_cache_counters_survive(self, stream_source):
        streams = staged_streams(stream_source, last=2, committed_prefix=0, first=0)
        context = make_context()
        evaluate(streams, context)
        restored = make_context().restore(context.checkpoint())
        assert restored.statistics.hits == context.statistics.hits
        assert restored.statistics.misses == context.statistics.misses
        assert len(restored.statistics) == len(context.statistics)

    def test_snapshot_is_isolated_from_further_ticks(self, stream_source):
        # Checkpoint after 2 batches, keep running 3 more: the snapshot must
        # still describe the 2-batch state (in-place statistics maintenance
        # must not leak through the deep copies).
        streams = staged_streams(stream_source, last=NUM_BATCHES, committed_prefix=0, first=0)
        context = make_context()
        partial_streams = staged_streams(stream_source, last=2, committed_prefix=0, first=0)
        partial_context = make_context()
        evaluate(partial_streams, partial_context)
        snapshot = partial_context.checkpoint()
        frozen = pickle.dumps(snapshot)
        evaluate(streams, context)  # unrelated full run, sanity ballast
        evaluate(
            staged_streams(stream_source, first=2, last=4, committed_prefix=2),
            partial_context,
        )  # the checkpointed context keeps ticking
        assert pickle.dumps(snapshot) == frozen


class TestKillRecoverParity:
    def run_reference(self, stream_source):
        context = make_context()
        report = evaluate(
            staged_streams(stream_source, first=0, last=None, committed_prefix=0), context
        )
        state = next(iter(context.streams.values()))
        return report, state

    def test_kill_and_recover_matches_uninterrupted(self, stream_source, tmp_path):
        kill_at = 3
        reference_report, reference_state = self.run_reference(stream_source)

        # Run the first kill_at batches, checkpoint, "die".
        context = make_context()
        evaluate(staged_streams(stream_source, first=0, last=kill_at, committed_prefix=0), context)
        checkpoint = tmp_path / "tick.ckpt"
        context.checkpoint(checkpoint)
        del context

        # A new process: collections rebuilt from the committed data, context
        # restored from the checkpoint, remaining batches replayed.
        recovered_context = make_context().restore(checkpoint)
        recovered_report = evaluate(
            staged_streams(stream_source, first=kill_at, last=None, committed_prefix=kill_at),
            recovered_context,
        )
        recovered_state = next(iter(recovered_context.streams.values()))

        assert equivalent_top_k(recovered_state.results, reference_state.results)
        assert recovered_state.batches_ingested == reference_state.batches_ingested
        assert recovered_state.replans == reference_state.replans
        assert recovered_state.base_size == reference_state.base_size
        assert recovered_state.appended_since_plan == reference_state.appended_since_plan
        assert [logical_batch_report(b) for b in recovered_report.raw.batches] == [
            logical_batch_report(b) for b in reference_report.raw.batches[kill_at:]
        ]

    @settings(max_examples=6, deadline=None)
    @given(kill_at=st.integers(min_value=1, max_value=NUM_BATCHES - 1))
    def test_kill_at_any_batch_boundary(self, stream_source, kill_at):
        """Hypothesis property: recovery parity holds at every batch boundary."""
        reference_report, reference_state = self.run_reference(stream_source)

        context = make_context()
        evaluate(staged_streams(stream_source, first=0, last=kill_at, committed_prefix=0), context)
        snapshot = context.checkpoint()
        del context

        recovered_context = make_context().restore(snapshot)
        recovered_report = evaluate(
            staged_streams(stream_source, first=kill_at, last=None, committed_prefix=kill_at),
            recovered_context,
        )
        recovered_state = next(iter(recovered_context.streams.values()))

        assert equivalent_top_k(recovered_state.results, reference_state.results)
        assert recovered_state.replans == reference_state.replans
        assert recovered_state.batches_ingested == reference_state.batches_ingested
        assert recovered_state.appended_since_plan == reference_state.appended_since_plan
        assert [logical_batch_report(b) for b in recovered_report.raw.batches] == [
            logical_batch_report(b) for b in reference_report.raw.batches[kill_at:]
        ]
