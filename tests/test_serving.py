"""Tests for the query serving layer (server, protocol, admission, cancellation)."""

import json
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.datagen.synthetic import SyntheticConfig, generate_uniform_collection
from repro.experiments.workloads import build_query
from repro.mapreduce import (
    CancelToken,
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    QueryCancelledError,
    Reducer,
    SerialBackend,
    active_token,
    cancel_scope,
)
from repro.plan import ExecutionContext, REGISTRY, get_algorithm, register
from repro.plan.algorithm import Algorithm, ExecutionPlan, RunReport
from repro.serving import (
    BackgroundServer,
    ERROR_CODES,
    ProtocolError,
    QueryClient,
    QueryServer,
    RetryPolicy,
    ServingError,
    decode_results,
    deterministic_metrics,
)
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    decode_intervals,
    decode_message,
    encode_intervals,
    encode_message,
    encode_results,
)
from repro.serving.session import AdmissionController, LatencyRecorder
from repro.streaming.collection import StreamingCollection

REPO_ROOT = Path(__file__).resolve().parent.parent

SIZE = 300
NAMES = ("R", "S", "T")


def make_collections(size=SIZE, names=NAMES, seed=7):
    """The same deterministic collections on both sides of a parity check."""
    return [
        generate_uniform_collection(name, SyntheticConfig(size=size), seed=seed + offset)
        for offset, name in enumerate(names)
    ]


def register_collections(client, collections, streaming=False):
    for collection in collections:
        client.register(
            collection.name, encode_intervals(collection.intervals), streaming=streaming
        )


def roundtrip(payload):
    """Normalise Python values the way the wire does (tuples -> lists, ...)."""
    return json.loads(json.dumps(payload))


# --------------------------------------------------------------------- protocol
class TestProtocolCodec:
    def test_message_roundtrip(self):
        message = {"id": 3, "verb": "ping", "nested": {"a": [1, 2.5]}}
        assert decode_message(encode_message(message)) == message

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(b"not json\n")
        assert excinfo.value.code == "BAD_REQUEST"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(b"[1, 2]\n")
        assert excinfo.value.code == "BAD_REQUEST"

    def test_interval_roundtrip(self):
        collections = make_collections(size=20)
        triples = roundtrip(encode_intervals(collections[0].intervals))
        decoded = decode_intervals(triples)
        assert [(i.uid, i.start, i.end) for i in decoded] == [
            (i.uid, i.start, i.end) for i in collections[0].intervals
        ]

    def test_decode_intervals_rejects_malformed(self):
        for bad in ("nope", [[1, 2]], [[1, "a", 3]], [[1, 2, 3, 4]]):
            with pytest.raises(ProtocolError):
                decode_intervals(bad)

    def test_results_roundtrip_is_exact(self):
        collections = make_collections(size=80)
        query = build_query("Qo,m", collections, "P1", 10)
        report = get_algorithm("naive").run(query, ExecutionContext())
        assert decode_results(roundtrip(encode_results(report.results))) == report.results

    def test_protocol_error_requires_known_code(self):
        with pytest.raises(ValueError):
            ProtocolError("NOT_A_CODE", "nope")


# -------------------------------------------------------- cancellation plumbing
class _CountMapper(Mapper):
    def map(self, key, value):
        yield value % 3, 1


class _CancelOnFirstMapper(Mapper):
    def map(self, key, value):
        token = active_token()
        if token is not None:
            token.cancel("cancelled from inside a map task")
        yield value % 3, 1


class _SumReducer(Reducer):
    def reduce(self, key, values):
        yield key, sum(values)


def _job(mapper_factory):
    return MapReduceJob(
        name="cancellable",
        mapper_factory=mapper_factory,
        reducer_factory=_SumReducer,
        num_reducers=2,
    )


class TestCancellation:
    def test_token_is_one_shot(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"
        with pytest.raises(QueryCancelledError, match="first"):
            token.check()

    def test_engine_runs_normally_without_a_scope(self):
        engine = MapReduceEngine(ClusterConfig(num_reducers=2))
        result = engine.run(_job(_CountMapper), [(i, i) for i in range(9)])
        assert sorted(result.outputs) == [(0, 3), (1, 3), (2, 3)]

    def test_precancelled_token_stops_the_job_at_entry(self):
        engine = MapReduceEngine(ClusterConfig(num_reducers=2))
        token = CancelToken()
        token.cancel("deadline of 5 ms exceeded")
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError, match="deadline"):
                engine.run(_job(_CountMapper), [(i, i) for i in range(9)])

    def test_cancellation_is_observed_at_the_next_task_boundary(self):
        # The first map task sets the active token; the engine must stop at a
        # subsequent wave boundary instead of completing the job.
        engine = MapReduceEngine(ClusterConfig(num_reducers=2))
        token = CancelToken()
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError, match="inside a map task"):
                engine.run(_job(_CancelOnFirstMapper), [(i, i) for i in range(9)])
        assert token.cancelled

    def test_scopes_nest_and_reset(self):
        outer, inner = CancelToken(), CancelToken()
        assert active_token() is None
        with cancel_scope(outer):
            assert active_token() is outer
            with cancel_scope(inner):
                assert active_token() is inner
            assert active_token() is outer
        assert active_token() is None


# ----------------------------------------------------------- admission/metrics
class TestAdmissionController:
    def test_rejects_only_when_slots_and_queue_are_full(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        assert admission.try_enter()
        admission.inflight = 1
        assert admission.try_enter()  # queue has room
        admission.waiting = 1
        assert not admission.try_enter()
        assert admission.rejected == 1

    def test_zero_queue_rejects_at_capacity(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        admission.inflight = 2
        assert not admission.try_enter()
        assert admission.describe()["rejected"] == 1

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0, max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=1, max_queue=-1)


class TestLatencyRecorder:
    def test_percentiles_are_nearest_rank(self):
        recorder = LatencyRecorder()
        for value in [0.1, 0.2, 0.3, 0.4, 1.0]:
            recorder.add(value)
        summary = recorder.describe()
        assert summary["count"] == 5.0
        assert summary["p50_seconds"] == 0.3
        assert summary["p99_seconds"] == 1.0
        assert summary["max_seconds"] == 1.0

    def test_empty_summary_is_zero(self):
        assert LatencyRecorder().describe()["p99_seconds"] == 0.0


# ----------------------------------------------------------------- wire parity
class TestServedParity:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("algorithm", ["tkij", "naive"])
    def test_served_query_matches_direct_run(self, backend, algorithm):
        # The naive oracle enumerates the cross product, so keep it small.
        size = SIZE if algorithm == "tkij" else 60
        cluster = ClusterConfig(backend=backend, num_reducers=4)
        server = QueryServer(ExecutionContext(cluster=cluster))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=size))
            served = client.query(
                "Qo,m", list(NAMES), params="P1", k=15, algorithm=algorithm
            )

        with ExecutionContext(cluster=ClusterConfig(backend=backend, num_reducers=4)) as ctx:
            query = build_query("Qo,m", make_collections(size=size), "P1", 15)
            report = get_algorithm(algorithm).run(query, ctx)

        assert served["results"] == roundtrip(encode_results(report.results))
        assert served["metrics"] == roundtrip(deterministic_metrics(report))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_served_streaming_query_matches_direct_run(self, backend):
        full = make_collections(size=SIZE)
        initial = [c.intervals[:200] for c in full]
        batch = [c.intervals[200:] for c in full]

        cluster = ClusterConfig(backend=backend, num_reducers=4)
        server = QueryServer(ExecutionContext(cluster=cluster))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            for collection, first in zip(full, initial):
                client.register(
                    collection.name, encode_intervals(first), streaming=True
                )
            served_first = client.query(
                "Qo,m",
                list(NAMES),
                k=15,
                algorithm="tkij-streaming",
                options={"stream_id": "parity"},
            )
            for collection, appended in zip(full, batch):
                client.ingest(collection.name, encode_intervals(appended))
            served_second = client.query(
                "Qo,m",
                list(NAMES),
                k=15,
                algorithm="tkij-streaming",
                options={"stream_id": "parity"},
            )

        with ExecutionContext(cluster=ClusterConfig(backend=backend, num_reducers=4)) as ctx:
            streams = [
                StreamingCollection(c.name, first) for c, first in zip(full, initial)
            ]
            query = build_query("Qo,m", streams, "P1", 15)
            algorithm = get_algorithm("tkij-streaming")
            first_report = algorithm.run(query, ctx, stream_id="parity")
            for stream, appended in zip(streams, batch):
                stream.ingest(appended)
            second_report = algorithm.run(query, ctx, stream_id="parity")

        assert served_first["results"] == roundtrip(encode_results(first_report.results))
        assert served_first["metrics"] == roundtrip(deterministic_metrics(first_report))
        assert served_second["results"] == roundtrip(encode_results(second_report.results))
        assert served_second["metrics"] == roundtrip(deterministic_metrics(second_report))

    def test_concurrent_clients_get_identical_results(self):
        server = QueryServer(max_inflight=4)
        with BackgroundServer(server) as (host, port):
            with QueryClient(host, port) as loader:
                register_collections(loader, make_collections())
            responses = [None] * 4
            errors = []

            def worker(slot):
                try:
                    with QueryClient(host, port) as client:
                        responses[slot] = client.query("Qo,m", list(NAMES), k=15)
                except Exception as error:  # noqa: BLE001 - surfaced via the list
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        with ExecutionContext() as ctx:
            query = build_query("Qo,m", make_collections(), "P1", 15)
            report = get_algorithm("tkij").run(query, ctx)
        expected = roundtrip(encode_results(report.results))
        for response in responses:
            assert response is not None
            assert response["results"] == expected


    def test_null_stream_id_keeps_the_per_session_stream(self):
        server = QueryServer(ExecutionContext(cluster=ClusterConfig(num_reducers=4)))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=40), streaming=True)
            session = client.ping()["session"]
            client.query(
                "Qo,m",
                list(NAMES),
                params="P1",
                k=5,
                algorithm="tkij-streaming",
                options={"stream_id": None},
            )
        assert [key[1] for key in server.context.streams] == [f"session-{session}"]


# -------------------------------------------------------------- warm-cache path
class TestWarmCache:
    def test_repeat_queries_hit_the_statistics_cache(self):
        server = QueryServer()
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections())
            first = client.query("Qo,m", list(NAMES), k=10)
            second = client.query("Qo,m", list(NAMES), k=10)
            stats = client.stats()
        assert first["statistics_cached"] is False
        assert second["statistics_cached"] is True
        assert stats["statistics_cache"]["hits"] > 0
        assert stats["statistics_cache"]["entries"] >= 1
        assert stats["queries"]["ok"] == 2
        assert stats["queries"]["statistics_cache_hits"] == 1
        assert first["results"] == second["results"]

    def test_repeat_auto_queries_hit_the_plan_cache(self):
        # The ISSUE's acceptance bar: replaying the same auto-planned query N
        # times shows N-1 plan-cache hits with byte-identical results.
        repeats = 4
        server = QueryServer(plan_cache_entries=16)
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=80))
            responses = [
                client.query("Qo,m", list(NAMES), k=10, options={"mode": "auto"})
                for _ in range(repeats)
            ]
            stats = client.stats()
        assert stats["plan_cache"]["hits"] == repeats - 1
        assert stats["plan_cache"]["misses"] == 1
        assert stats["plan_cache"]["entries"] == 1
        for response in responses[1:]:
            assert response["results"] == responses[0]["results"]

    def test_statistics_drift_misses_the_plan_cache(self):
        server = QueryServer(plan_cache_entries=16)
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=80), streaming=True)
            client.query("Qo,m", list(NAMES), k=10, options={"mode": "auto"})
            # Ingest and commit (one streaming-evaluator tick): the dataset
            # state — and with it the statistics fingerprint — moves.
            client.ingest("R", [[90_000, 1.0, 2.0]], seq=1)
            client.query("Qo,m", list(NAMES), k=10, algorithm="tkij-streaming")
            client.query("Qo,m", list(NAMES), k=10, options={"mode": "auto"})
            stats = client.stats()
        # Only the two auto tkij plans consult the cache; both miss.
        assert stats["plan_cache"]["misses"] == 2
        assert stats["plan_cache"]["hits"] == 0

    def test_statistics_cache_respects_configured_bound(self):
        server = QueryServer(stats_cache_entries=2)
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            for batch in range(4):
                names = [f"b{batch}{n}" for n in NAMES]
                client.load(names, size=40, seed=batch)
                client.query("Qo,m", names, k=5)
            stats = client.stats()
        assert stats["statistics_cache"]["entries"] <= 2
        assert stats["statistics_cache"]["evictions"] >= 2
        assert stats["statistics_cache"]["max_entries"] == 2

    def test_cost_store_counters_surface_in_stats(self, tmp_path):
        server = QueryServer(
            plan_cache_entries=16, cost_store_path=tmp_path / "observed.costs"
        )
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=80))
            client.query("Qo,m", list(NAMES), k=10, options={"mode": "auto"})
            stats = client.stats()
        assert stats["cost_store"]["recorded"] == 1
        assert (tmp_path / "observed.costs").exists()


# ----------------------------------------------------------- deadline handling
class TestDeadlines:
    def test_deadline_cancels_and_server_keeps_serving(self):
        server = QueryServer()
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            # Big enough that the 1 ms deadline always expires mid-run.
            client.load(["A", "B", "C"], size=1200, seed=11)
            with pytest.raises(ServingError) as excinfo:
                client.query("Qo,m", ["A", "B", "C"], k=10, deadline_ms=1)
            assert excinfo.value.code == "DEADLINE"
            assert excinfo.value.details["deadline_ms"] == 1
            # The worker pool survives: the same query without a deadline works.
            response = client.query("Qo,m", ["A", "B", "C"], k=10)
            stats = client.stats()
        assert len(response["results"]) == 10
        assert stats["queries"]["errors"]["DEADLINE"] == 1
        assert stats["queries"]["ok"] == 1


# ------------------------------------------------------------ admission (wire)
class _BlockingAlgorithm(Algorithm):
    """Test-only algorithm that parks in execute() until released."""

    name = "test-blocking"
    title = "Blocking (test)"
    scored = True

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def plan(self, query, context, **knobs):
        return ExecutionPlan(self.name, query, context, {})

    def execute(self, plan):
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the blocking query"
        return RunReport(algorithm=self.name, title=self.title, results=[])


@pytest.fixture
def blocking_algorithm():
    algorithm = _BlockingAlgorithm()
    register(algorithm)
    try:
        yield algorithm
    finally:
        REGISTRY.pop(algorithm.name, None)


class TestAdmissionOverWire:
    def test_busy_rejection_and_recovery(self, blocking_algorithm):
        server = QueryServer(max_inflight=1, max_queue=0)
        with BackgroundServer(server) as (host, port):
            with QueryClient(host, port) as setup:
                setup.load(["A", "B", "C"], size=30, seed=3)

            holder_response = {}

            def hold_slot():
                with QueryClient(host, port) as holder:
                    holder_response["value"] = holder.query(
                        "Qo,m", ["A", "B", "C"], k=5, algorithm=blocking_algorithm.name
                    )

            thread = threading.Thread(target=hold_slot)
            thread.start()
            assert blocking_algorithm.started.wait(timeout=10)

            with QueryClient(host, port) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.query("Qo,m", ["A", "B", "C"], k=5)
                assert excinfo.value.code == "BUSY"
                assert excinfo.value.details["max_inflight"] == 1
                blocking_algorithm.release.set()
                thread.join(timeout=10)
                # Slot freed: the same query is admitted and completes.
                response = client.query("Qo,m", ["A", "B", "C"], k=5)
                stats = client.stats()

        assert holder_response["value"]["results"] == []
        assert len(response["results"]) == 5
        assert stats["admission"]["rejected"] == 1
        assert stats["queries"]["errors"]["BUSY"] == 1


# ------------------------------------------------------------- fault injection
class TestFaultsOverWire:
    def test_injected_worker_death_fails_one_query_not_the_server(self):
        server = QueryServer()
        fault = {
            "plan": {
                "rules": [
                    {"action": "fail", "job": "*", "phase": "map", "task": 0, "attempts": [0, 1]}
                ]
            },
            "max_task_attempts": 2,
        }
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections())
            with pytest.raises(ServingError) as excinfo:
                client.query("Qo,m", list(NAMES), k=10, fault=fault)
            assert excinfo.value.code == "FAULT"
            assert excinfo.value.details["phase"] == "map"
            assert excinfo.value.details["attempts"] == 2
            # Same query, no fault plan: the shared pool is intact.
            response = client.query("Qo,m", list(NAMES), k=10)
            stats = client.stats()
        assert len(response["results"]) == 10
        assert stats["queries"]["errors"]["FAULT"] == 1
        assert stats["queries"]["ok"] == 1

    def test_surviving_faults_are_retried_transparently(self):
        server = QueryServer()
        fault = {
            "plan": {
                "rules": [
                    {"action": "fail", "job": "*", "phase": "map", "task": 0, "attempts": [0]}
                ]
            },
            "max_task_attempts": 4,
        }
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections())
            faulted = client.query("Qo,m", list(NAMES), k=10, fault=fault)
            clean = client.query("Qo,m", list(NAMES), k=10)
        assert faulted["results"] == clean["results"]


# ------------------------------------------------------------ protocol surface
class TestProtocolSurface:
    def test_register_ingest_and_error_paths(self):
        server = QueryServer()
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            assert client.ping()["protocol"] == 1
            client.register("R", [[0, 1.0, 2.0], [1, 3.0, 5.0]])
            with pytest.raises(ServingError) as excinfo:
                client.register("R", [])
            assert excinfo.value.code == "EXISTS"
            with pytest.raises(ServingError) as excinfo:
                client.ingest("missing", [[9, 0.0, 1.0]])
            assert excinfo.value.code == "NOT_FOUND"
            with pytest.raises(ServingError) as excinfo:
                client.ingest("R", [[9, 0.0, 1.0]])  # not a streaming collection
            assert excinfo.value.code == "BAD_REQUEST"
            client.register("W", [[0, 0.0, 1.0]], streaming=True)
            staged = client.ingest("W", [[5, 1.0, 2.0]])
            assert staged["staged"] == 1 and staged["pending_batches"] == 1
            with pytest.raises(ServingError) as excinfo:
                client.ingest("W", [[5, 4.0, 6.0]])  # duplicate uid
            assert excinfo.value.code == "BAD_REQUEST"
            with pytest.raises(ServingError) as excinfo:
                client.query("Qo,m", ["R", "W", "nope"], k=5)
            assert excinfo.value.code == "NOT_FOUND"
            with pytest.raises(ServingError) as excinfo:
                client.query("Qo,m", ["R", "W"], k=5, algorithm="not-an-algorithm")
            assert excinfo.value.code == "NOT_FOUND"
            with pytest.raises(ServingError) as excinfo:
                client.request("query", query="Qo,m", collections=["R", "W"], k=0)
            assert excinfo.value.code == "BAD_REQUEST"
            with pytest.raises(ServingError) as excinfo:
                client.request("no-such-verb")
            assert excinfo.value.code == "UNKNOWN_VERB"
            assert sorted(excinfo.value.details["verbs"]) == sorted(QueryServer.VERBS)
            listing = client.collections()["collections"]
            assert [c["name"] for c in listing] == ["R", "W"]
            assert listing[1]["streaming"] and listing[1]["pending_batches"] == 1
            names = [a["name"] for a in client.algorithms()["algorithms"]]
            assert "tkij" in names and "tkij-streaming" in names

    def test_malformed_line_gets_bad_request_with_null_id(self):
        import socket as socket_module

        server = QueryServer()
        with BackgroundServer(server) as (host, port):
            with socket_module.create_connection((host, port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["code"] == "BAD_REQUEST"

    def test_shutdown_verb_stops_the_server(self):
        server = QueryServer()
        background = BackgroundServer(server)
        host, port = background.start()
        try:
            with QueryClient(host, port) as client:
                assert client.shutdown()["stopping"] is True
            deadline = time.monotonic() + 10
            while not server.shutdown_requested.is_set():
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            background.stop()


# ------------------------------------------------------- plan-knob validation
class _CountingBackend(SerialBackend):
    """Serial backend that counts every task attempt handed to it."""

    def __init__(self):
        super().__init__()
        self.attempts = 0

    def run_tasks(self, tasks):
        self.attempts += len(tasks)
        return super().run_tasks(tasks)


KNOB_FUZZ_VALUES = [None, True, 2.5, -1, 0, "nope", [], {}]
"""Wire values every key of every algorithm's knob table must survive."""


class TestPlanKnobValidation:
    """A bad plan knob from the wire is a ``BAD_REQUEST`` raised while planning,
    before any Map-Reduce task attempt runs."""

    @pytest.mark.parametrize(
        "algorithm, knob",
        [(name, knob) for name in sorted(REGISTRY) for knob in REGISTRY[name].knobs],
    )
    def test_any_knob_value_answers_ok_or_bad_request(self, algorithm, knob):
        backend = _CountingBackend()
        server = QueryServer(ExecutionContext(backend=backend))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(
                client, make_collections(size=40), streaming=algorithm == "tkij-streaming"
            )
            for value in KNOB_FUZZ_VALUES:
                attempts = backend.attempts
                try:
                    client.query(
                        "Qo,m",
                        list(NAMES),
                        params="PB",
                        k=5,
                        algorithm=algorithm,
                        options={knob: value},
                    )
                except ServingError as error:
                    assert error.code == "BAD_REQUEST", (value, error.code, str(error))
                    assert backend.attempts == attempts, value

    @pytest.mark.parametrize(
        "algorithm, options",
        [
            ("tkij", {"kernel": "nope"}),
            ("tkij-streaming", {"kernel": "nope"}),
            ("tkij", {"num_granules": "abc"}),
            ("tkij", {"num_granules": 2.5}),
            ("tkij", {"num_granules": True}),
            ("tkij-streaming", {"num_granules": "abc"}),
            ("tkij-streaming", {"num_granules": 2.5}),
            ("tkij-streaming", {"num_granules": True}),
            ("rccis", {"num_granules": "abc"}),
            ("allmatrix", {"num_partitions": 2.5}),
        ],
    )
    def test_bad_knob_is_rejected_before_any_task_attempt(self, algorithm, options):
        backend = _CountingBackend()
        server = QueryServer(ExecutionContext(backend=backend))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(
                client, make_collections(size=40), streaming=algorithm == "tkij-streaming"
            )
            with pytest.raises(ServingError) as excinfo:
                client.query(
                    "Qo,m", list(NAMES), params="PB", k=5, algorithm=algorithm, options=options
                )
        assert excinfo.value.code == "BAD_REQUEST"
        assert backend.attempts == 0


class TestWireFieldTypes:
    """A wrong-typed request field is a ``BAD_REQUEST`` before any task
    attempt or registration — never ``INTERNAL`` or a silent coercion — and
    ``null`` means the field is absent."""

    @pytest.mark.parametrize(
        "verb, fields",
        [
            ("query", {"params": []}),
            ("query", {"params": {}}),
            ("query", {"algorithm": []}),
            ("query", {"algorithm": 3}),
            ("query", {"query": "Qb*", "num_vertices": "x"}),
            ("query", {"query": "Qb*", "num_vertices": 2.5}),
            ("query", {"query": "Qb*", "num_vertices": []}),
            ("query", {"query": "Qb*", "num_vertices": True}),
            ("register", {"name": "Z", "streaming": "false"}),
            ("register", {"name": "Z", "streaming": 0}),
            ("load", {"names": ["Z"], "size": 10, "streaming": "no"}),
            ("load", {"names": ["Z"], "size": 10, "streaming": 1}),
        ],
    )
    def test_wrong_type_is_bad_request(self, verb, fields):
        backend = _CountingBackend()
        server = QueryServer(ExecutionContext(backend=backend))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=40))
            request = dict(fields)
            if verb == "query":
                request = {"query": "Qo,m", "collections": list(NAMES), "k": 5, **fields}
            with pytest.raises(ServingError) as excinfo:
                client.request(verb, **request)
            assert excinfo.value.code == "BAD_REQUEST", str(excinfo.value)
            names = [entry["name"] for entry in client.collections()["collections"]]
        assert backend.attempts == 0
        assert names == sorted(NAMES)

    def test_null_means_absent(self):
        server = QueryServer(ExecutionContext(backend=SerialBackend()))
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            register_collections(client, make_collections(size=40))
            assert client.request("register", name="Z", streaming=None)["streaming"] is False
            loaded = client.request("load", names=["L"], size=10, streaming=None)
            assert loaded["collections"][0]["streaming"] is False
            request = {"query": "Qo,m", "collections": list(NAMES), "k": 5}
            absent = client.request("query", **request)
            nulls = client.request(
                "query", params=None, algorithm=None, num_vertices=None, **request
            )
        assert nulls["algorithm"] == absent["algorithm"] == "tkij"
        assert nulls["results"] == absent["results"]


# ------------------------------------------------------------------- doc drift
class TestDocumentationCoverage:
    def test_protocol_doc_covers_every_verb(self):
        doc = (REPO_ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^### `([a-z]+)`$", doc, re.MULTILINE))
        assert documented == set(QueryServer.VERBS)

    def test_protocol_doc_covers_every_error_code(self):
        doc = (REPO_ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
        for code in ERROR_CODES:
            assert f"`{code}`" in doc, f"error code {code} is undocumented"

    @pytest.mark.parametrize("algorithm", sorted(REGISTRY))
    def test_protocol_doc_lists_the_options_plan_knobs_pick(self, algorithm):
        doc = (REPO_ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
        sentence = re.search(rf"`{algorithm}` accepts(.*?)(?:;|\.|\(defaulting)", doc, re.DOTALL)
        assert sentence is not None, f"no options sentence for {algorithm}"
        documented = set(re.findall(r"`([a-z_]+)`", sentence.group(1)))
        assert documented == set(get_algorithm(algorithm).knobs)

    def test_console_script_is_declared_and_importable(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'repro-serve = "repro.serving.cli:main"' in pyproject
        from repro.serving.cli import main

        assert callable(main)


# ----------------------------------------------------------- retry / robustness
class TestRetryPolicy:
    def test_delays_are_deterministic_per_seed(self):
        policy = RetryPolicy(seed=11)
        again = RetryPolicy(seed=11)
        other = RetryPolicy(seed=12)
        schedule = [policy.delay(a) for a in range(6)]
        assert schedule == [again.delay(a) for a in range(6)]
        assert schedule != [other.delay(a) for a in range(6)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0)
        assert [policy.delay(a) for a in range(5)] == [0.1, 0.2, 0.4, 0.8, 1.0]
        assert policy.delay(50) == 1.0

    def test_jitter_stays_within_the_spread(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5, seed=3)
        for attempt in range(20):
            assert 0.075 <= policy.delay(attempt) <= 0.125

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"max_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_jitter_never_pushes_a_capped_delay_past_max(self):
        # Regression: jitter used to apply *after* capping, so a delay at the
        # cap could come out up to jitter/2 above max_delay.
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=1.0, jitter=1.0)
        for seed in range(50):
            capped = RetryPolicy(
                base_delay=1.0, multiplier=2.0, max_delay=1.0, jitter=1.0, seed=seed
            )
            for attempt in range(8):
                assert capped.delay(attempt) <= capped.max_delay
        assert policy.delay(0) <= 1.0


class ScriptedServer:
    """A raw TCP server playing one scripted behaviour per accepted connection."""

    def __init__(self, *behaviors):
        self.behaviors = list(behaviors)
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen()
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for behavior in self.behaviors:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            try:
                behavior(conn)
            except (ConnectionError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


def _read_request(conn):
    reader = conn.makefile("rb")
    return reader.readline()


def _close_after_read(conn):
    _read_request(conn)


def _ok_after_read(payload):
    def behavior(conn):
        request = json.loads(_read_request(conn))
        conn.sendall(encode_message({"id": request["id"], "ok": True, **payload}))

    return behavior


NO_SLEEP = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)


class TestClientRobustness:
    def test_truncated_frame_raises_instead_of_decoding(self):
        # A syntactically complete JSON object with no trailing newline: the
        # old client decoded it silently; truncation must now surface.
        def truncate(conn):
            _read_request(conn)
            conn.sendall(b'{"id":1,"ok":true,"protocol":1}')

        with ScriptedServer(truncate) as server:
            client = QueryClient(*server.address, timeout=5)
            with pytest.raises(ConnectionError, match="truncated"):
                client.ping()
            client.close()

    def test_line_of_exactly_max_line_bytes_is_truncation(self):
        # readline(MAX_LINE_BYTES) returns a full buffer with no terminator —
        # indistinguishable from a cut frame, and refused the same way.
        def oversize(conn):
            _read_request(conn)
            conn.sendall(b"x" * MAX_LINE_BYTES)

        with ScriptedServer(oversize) as server:
            client = QueryClient(*server.address, timeout=30)
            with pytest.raises(ConnectionError, match="truncated"):
                client.ping()
            client.close()

    def test_idempotent_verb_retries_through_reconnect(self):
        with ScriptedServer(
            _close_after_read, _ok_after_read({"protocol": 1, "server": "x", "session": 1})
        ) as server:
            client = QueryClient(*server.address, retry=NO_SLEEP, sleep=lambda _: None)
            response = client.ping()
            assert response["protocol"] == 1
            assert client.retries == 1
            assert client.reconnects == 1
            assert server.connections == 2
            client.close()

    def test_non_idempotent_verb_is_not_retried_on_transport_failure(self):
        with ScriptedServer(
            _close_after_read, _ok_after_read({"name": "R", "size": 0, "streaming": False})
        ) as server:
            client = QueryClient(*server.address, retry=NO_SLEEP, sleep=lambda _: None)
            with pytest.raises(ConnectionError):
                client.register("R", [])
            assert client.retries == 0
            assert server.connections == 1
            client.close()

    def test_ingest_with_seq_is_transport_retryable(self):
        payload = {"name": "S", "staged": 1, "pending_batches": 1, "seq": 7, "deduped": False}
        with ScriptedServer(_close_after_read, _ok_after_read(payload)) as server:
            client = QueryClient(*server.address, retry=NO_SLEEP, sleep=lambda _: None)
            response = client.ingest("S", [[1, 0.0, 1.0]], seq=7)
            assert response["staged"] == 1
            assert client.retries == 1
            client.close()

    def test_ingest_without_seq_is_not_transport_retryable(self):
        with ScriptedServer(_close_after_read) as server:
            client = QueryClient(*server.address, retry=NO_SLEEP, sleep=lambda _: None)
            with pytest.raises(ConnectionError):
                client.ingest("S", [[1, 0.0, 1.0]])
            assert client.retries == 0
            client.close()

    def test_retryable_codes_retry_every_verb(self):
        # DRAINING is issued before any state changes, so even register —
        # never transport-retryable — retries through it on one connection.
        def draining_then_ok(conn):
            reader = conn.makefile("rb")
            request = json.loads(reader.readline())
            conn.sendall(
                encode_message(
                    {
                        "id": request["id"],
                        "ok": False,
                        "error": {"code": "DRAINING", "message": "draining"},
                    }
                )
            )
            request = json.loads(reader.readline())
            conn.sendall(
                encode_message(
                    {"id": request["id"], "ok": True, "name": "R", "size": 0, "streaming": False}
                )
            )

        with ScriptedServer(draining_then_ok) as server:
            client = QueryClient(*server.address, retry=NO_SLEEP, sleep=lambda _: None)
            response = client.register("R", [])
            assert response["name"] == "R"
            assert client.retries == 1
            assert server.connections == 1
            client.close()

    def test_retry_budget_exhausts_with_the_last_error(self):
        def always_draining(conn):
            reader = conn.makefile("rb")
            while True:
                line = reader.readline()
                if not line:
                    return
                request = json.loads(line)
                conn.sendall(
                    encode_message(
                        {
                            "id": request["id"],
                            "ok": False,
                            "error": {"code": "DRAINING", "message": "still draining"},
                        }
                    )
                )

        with ScriptedServer(always_draining) as server:
            client = QueryClient(
                *server.address,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
                sleep=lambda _: None,
            )
            with pytest.raises(ServingError) as excinfo:
                client.stats()
            assert excinfo.value.code == "DRAINING"
            assert client.retries == 2
            client.close()

    def test_affinity_is_stamped_on_every_request(self):
        seen = {}

        def record(conn):
            request = json.loads(_read_request(conn))
            seen.update(request)
            conn.sendall(
                encode_message({"id": request["id"], "ok": True, "protocol": 1, "session": 1})
            )

        with ScriptedServer(record) as server:
            client = QueryClient(*server.address, affinity="sticky")
            client.ping()
            client.close()
        assert seen["affinity"] == "sticky"


# ----------------------------------------------------- drain / checkpoint (wire)
class TestDrainAndCheckpoint:
    def test_drain_rejects_new_work_then_checkpoints_and_exits(
        self, tmp_path, blocking_algorithm
    ):
        checkpoint = tmp_path / "server.ckpt"
        server = QueryServer(checkpoint_path=checkpoint, drain_timeout=20)
        background = BackgroundServer(server)
        host, port = background.start()
        try:
            with QueryClient(host, port) as setup:
                setup.load(["A", "B", "C"], size=30, seed=3)

            def hold_slot():
                with QueryClient(host, port) as holder:
                    holder.query(
                        "Qo,m", ["A", "B", "C"], k=5, algorithm=blocking_algorithm.name
                    )

            thread = threading.Thread(target=hold_slot)
            thread.start()
            assert blocking_algorithm.started.wait(timeout=10)

            with QueryClient(host, port) as client:
                ack = client.drain()
                assert ack["draining"] is True
                assert client.health()["status"] == "draining"
                # Admission now rejects mutations and queries, before any state
                # changes; reads still work.
                for attempt in (
                    lambda: client.register("Z", []),
                    lambda: client.load(["Z"], size=10),
                    lambda: client.ingest("A", [[999, 0.0, 1.0]]),
                    lambda: client.query("Qo,m", ["A", "B", "C"], k=5),
                ):
                    with pytest.raises(ServingError) as excinfo:
                        attempt()
                    assert excinfo.value.code == "DRAINING"
                assert client.stats()["draining"] is True
                # Drain is idempotent.
                assert client.drain()["draining"] is True

            # The inflight query finishes; the server then checkpoints and exits.
            blocking_algorithm.release.set()
            thread.join(timeout=10)
            assert server.shutdown_requested.wait is not None
        finally:
            background.stop()
        assert checkpoint.exists()
        assert not checkpoint.with_name(checkpoint.name + ".tmp").exists()

        restored = QueryServer().restore_state(checkpoint)
        assert sorted(restored.collections) == ["A", "B", "C"]

    def test_drain_timeout_cancels_stragglers(self):
        server = QueryServer(drain_timeout=30)
        with BackgroundServer(server) as (host, port):
            with QueryClient(host, port) as setup:
                setup.load(["A", "B", "C"], size=1200, seed=11)

            failures = {}

            def slow_query():
                with QueryClient(host, port) as runner:
                    try:
                        runner.query("Qo,m", ["A", "B", "C"], k=10)
                    except ServingError as error:
                        failures["error"] = error

            thread = threading.Thread(target=slow_query)
            thread.start()
            time.sleep(0.05)  # let the query reach the engine
            with QueryClient(host, port) as client:
                client.drain(timeout_ms=1)
            thread.join(timeout=20)

        error = failures.get("error")
        assert error is not None and error.code == "DEADLINE"
        assert "drain timeout" in error.message

    def test_ingest_seq_is_exactly_once_and_survives_restore(self):
        server = QueryServer()
        with BackgroundServer(server) as (host, port), QueryClient(host, port) as client:
            client.register("S", [], streaming=True)
            first = client.ingest("S", [[1, 0.0, 1.0], [2, 1.0, 2.0]], seq=1)
            assert first["deduped"] is False and first["staged"] == 2
            replay = client.ingest("S", [[1, 0.0, 1.0], [2, 1.0, 2.0]], seq=1)
            assert replay["deduped"] is True
            assert replay["staged"] == 2 and replay["pending_batches"] == first["pending_batches"]
            fresh = client.ingest("S", [[3, 2.0, 3.0]], seq=2)
            assert fresh["deduped"] is False
            listed = client.collections()["collections"][0]
            assert listed["pending_batches"] == 2  # the replay staged nothing
            snapshot = server.checkpoint()

        restored = QueryServer().restore_state(snapshot)
        with BackgroundServer(restored) as (host, port), QueryClient(host, port) as client:
            again = client.ingest("S", [[1, 0.0, 1.0], [2, 1.0, 2.0]], seq=1)
            assert again["deduped"] is True
            listed = client.collections()["collections"][0]
            assert listed["pending_batches"] == 2

    def test_restore_rejects_corrupt_and_foreign_checkpoints(self, tmp_path):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a pickle")
        with pytest.raises(ValueError, match="cannot read"):
            QueryServer().restore_state(junk)
        with pytest.raises(ValueError, match="not a query-server checkpoint"):
            QueryServer().restore_state({"kind": "something-else"})
        with pytest.raises(ValueError, match="version"):
            QueryServer().restore_state({"kind": "query-server", "version": 99})
