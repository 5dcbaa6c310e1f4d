"""Integration tests for crash-safe serving: supervisor, chaos proxy, recovery.

Everything here runs real worker *processes* (``python -m
repro.serving.worker``) under the real supervisor, and injures them with real
SIGKILLs and wire-level chaos — the point is that the recovery paths hold
end-to-end, with answers ``==`` a fault-free library run.
"""

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datagen.synthetic import SyntheticConfig, generate_uniform_collection
from repro.experiments.workloads import build_query
from repro.plan import ExecutionContext, get_algorithm
from repro.serving import (
    BackgroundServer,
    ChaosPlan,
    ChaosProxy,
    QueryClient,
    QueryServer,
    RetryPolicy,
    ServerSupervisor,
    ServingError,
)
from repro.serving.protocol import encode_intervals, encode_results

SIZE = 150
NAMES = ("R", "S", "T")


def make_collections(size=SIZE, names=NAMES, seed=7):
    return [
        generate_uniform_collection(name, SyntheticConfig(size=size), seed=seed + offset)
        for offset, name in enumerate(names)
    ]


def library_results(size=SIZE, k=10, query_name="Qo,m"):
    """The fault-free reference answer, JSON-normalised like the wire."""
    import json

    with ExecutionContext() as ctx:
        query = build_query(query_name, make_collections(size=size), "P1", k)
        report = get_algorithm("tkij").run(query, ctx)
    return json.loads(json.dumps(encode_results(report.results)))


def fast_retry(seed=0, attempts=12):
    return RetryPolicy(max_attempts=attempts, base_delay=0.05, max_delay=0.5, seed=seed)


def start_supervisor(**overrides):
    """A running supervisor on a background thread plus its frontend address."""
    options = dict(
        num_workers=2,
        drain_timeout=10.0,
        heartbeat_interval=0.1,
        restart_base=0.05,
        restart_cap=0.5,
    )
    options.update(overrides)
    supervisor = ServerSupervisor(**options)
    background = BackgroundServer(supervisor)
    address = background.start()
    return supervisor, background, address


def affinity_pair(supervisor):
    """Two affinity tokens that route to two different workers."""
    first = "session-a"
    target = supervisor.worker_for(first)
    for i in range(64):
        other = f"session-b{i}"
        if supervisor.worker_for(other) is not target:
            return first, other
    raise AssertionError("could not find a second affinity bucket")


class TestSupervisedServing:
    def test_affinity_pins_a_session_to_one_worker(self):
        supervisor, background, address = start_supervisor()
        try:
            first, other = affinity_pair(supervisor)
            with QueryClient(*address, affinity=first) as client:
                client.register("R", [[1, 0.0, 1.0]])
                names = [c["name"] for c in client.collections()["collections"]]
                assert names == ["R"]
            # A reconnect with the same token lands on the same worker...
            with QueryClient(*address, affinity=first) as client:
                assert [c["name"] for c in client.collections()["collections"]] == ["R"]
            # ...and a different bucket sees a different worker's (empty) state.
            with QueryClient(*address, affinity=other) as client:
                assert client.collections()["collections"] == []
            # Worker ids are reported by health and differ per bucket.
            with QueryClient(*address, affinity=first) as a, QueryClient(
                *address, affinity=other
            ) as b:
                assert a.health()["worker"] != b.health()["worker"]
        finally:
            background.stop()

    def test_sigkill_mid_query_under_load_recovers_with_parity(self):
        expected = library_results()
        supervisor, background, address = start_supervisor()
        try:
            affinity = "load-session"
            with QueryClient(*address, affinity=affinity) as setup:
                for collection in make_collections():
                    setup.register(collection.name, encode_intervals(collection.intervals))

            responses = []
            errors = []
            lock = threading.Lock()

            def run_queries(seed):
                try:
                    with QueryClient(
                        *address, retry=fast_retry(seed=seed), affinity=affinity
                    ) as client:
                        for _ in range(3):
                            response = client.query("Qo,m", list(NAMES), k=10)
                            with lock:
                                responses.append(response["results"])
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=run_queries, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            # SIGKILL the session's worker while queries are in flight.
            time.sleep(0.3)
            handle = supervisor.worker_for(affinity)
            handle.process.kill()
            for thread in threads:
                thread.join(timeout=90)
            assert not errors
            assert len(responses) == 9
            for results in responses:
                assert results == expected
            assert supervisor.respawns >= 1
            assert supervisor.worker_for(affinity).state == "READY"
        finally:
            background.stop()

    def test_streaming_session_resumes_from_checkpoint_identically(self):
        full = make_collections()
        initial = [c.intervals[:100] for c in full]
        batch = [c.intervals[100:] for c in full]

        def run_sequence(client, kill_between=None):
            """register → query → ingest(seq) → query; optionally crash between."""
            outcomes = []
            for collection, first in zip(full, initial):
                client.register(collection.name, encode_intervals(first), streaming=True)
            outcomes.append(
                client.query(
                    "Qo,m",
                    list(NAMES),
                    k=10,
                    algorithm="tkij-streaming",
                    options={"stream_id": "resume-parity"},
                )
            )
            if kill_between is not None:
                kill_between()
            for seq, (collection, appended) in enumerate(zip(full, batch), start=1):
                client.ingest(collection.name, encode_intervals(appended), seq=seq)
            outcomes.append(
                client.query(
                    "Qo,m",
                    list(NAMES),
                    k=10,
                    algorithm="tkij-streaming",
                    options={"stream_id": "resume-parity"},
                )
            )
            return outcomes

        # Fault-free reference run against a plain in-process server.
        reference_server = QueryServer()
        with BackgroundServer(reference_server) as (host, port):
            with QueryClient(host, port) as client:
                reference = run_sequence(client)

        # Chaotic run: the worker is SIGKILLed between the two evaluation
        # ticks; the respawned worker restores stream state from checkpoint.
        supervisor, background, address = start_supervisor()
        try:
            affinity = "stream-session"

            def crash():
                supervisor.worker_for(affinity).process.kill()

            with QueryClient(
                *address, retry=fast_retry(seed=5), affinity=affinity
            ) as client:
                resumed = run_sequence(client, kill_between=crash)
            assert supervisor.respawns >= 1
        finally:
            background.stop()

        for before, after in zip(reference, resumed):
            assert after["results"] == before["results"]
            assert after["metrics"] == before["metrics"]
            assert after["statistics_cached"] == before["statistics_cached"]

    def test_rolling_restart_drops_no_inflight_queries(self):
        expected = library_results()
        supervisor, background, address = start_supervisor()
        try:
            first, other = affinity_pair(supervisor)
            for affinity in (first, other):
                with QueryClient(*address, affinity=affinity) as setup:
                    for collection in make_collections():
                        setup.register(
                            collection.name, encode_intervals(collection.intervals)
                        )

            responses = []
            errors = []
            lock = threading.Lock()
            stop = threading.Event()

            def run_queries(affinity, seed):
                try:
                    with QueryClient(
                        *address, retry=fast_retry(seed=seed), affinity=affinity
                    ) as client:
                        while not stop.is_set():
                            response = client.query("Qo,m", list(NAMES), k=10)
                            with lock:
                                responses.append(response["results"])
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=run_queries, args=(affinity, seed))
                for seed, affinity in enumerate((first, other))
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            cycled = background.run_coroutine(supervisor.rolling_restart())
            stop.set()
            for thread in threads:
                thread.join(timeout=90)

            assert cycled == 2
            assert not errors
            assert responses, "load threads never completed a query"
            for results in responses:
                assert results == expected
            assert all(h.state == "READY" for h in supervisor.workers)
            assert all(h.restarts >= 1 for h in supervisor.workers)
        finally:
            background.stop()

    def test_crash_loop_trips_the_circuit_breaker(self):
        supervisor, background, address = start_supervisor(
            max_crashes=2, crash_window=60.0
        )
        try:
            first, other = affinity_pair(supervisor)
            doomed = supervisor.worker_for(first)
            deadline = time.monotonic() + 30
            while doomed.state != "FAILED":
                assert time.monotonic() < deadline, "breaker never tripped"
                if doomed.alive():
                    doomed.process.kill()
                time.sleep(0.05)
            # The failed bucket is UNAVAILABLE (retries exhausted)...
            with QueryClient(
                *address,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                affinity=first,
            ) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.ping()
                assert excinfo.value.code == "UNAVAILABLE"
            # ...while the healthy worker keeps serving.
            with QueryClient(*address, affinity=other) as client:
                assert client.health()["status"] == "ok"
        finally:
            background.stop()

    def test_worker_drains_itself_when_its_supervisor_dies(self, tmp_path):
        # Spawn a worker from a short-lived intermediary process; when the
        # intermediary exits (a stand-in for a SIGKILLed supervisor), the
        # re-parented worker must notice and drain instead of lingering.
        import os
        import subprocess
        import sys as _sys

        port_file = tmp_path / "w.port"
        script = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen([sys.executable, '-m', 'repro.serving.worker',"
            f" '--worker-id', '9', '--port-file', {str(port_file)!r},"
            " '--parent-pid', str(os.getpid())])\n"
            "print(proc.pid, flush=True)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [_sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        worker_pid = int(out.stdout.strip())
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                os.kill(worker_pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            os.kill(worker_pid, 9)
            raise AssertionError("orphaned worker never drained itself")

    def test_stop_leaves_no_workers_or_checkpoints_behind(self):
        supervisor, background, address = start_supervisor()
        checkpoint_dir = supervisor.checkpoint_dir
        with QueryClient(*address, affinity="tidy") as client:
            client.register("R", [[1, 0.0, 1.0]])
        background.stop()
        assert not any(handle.alive() for handle in supervisor.workers)
        assert not checkpoint_dir.exists()


    def test_every_setting_reaches_every_worker(self):
        supervisor, background, address = start_supervisor(
            max_inflight=1,
            max_queue=0,
            stats_cache_entries=3,
            plan_cache_entries=8,
        )
        try:
            for affinity in affinity_pair(supervisor):
                with QueryClient(*address, affinity=affinity) as client:
                    for collection in make_collections(size=40):
                        client.register(collection.name, encode_intervals(collection.intervals))
                    for _ in range(2):
                        client.query("Qo,m", list(NAMES), k=5, options={"mode": "auto"})
                    stats = client.stats()
                assert stats["admission"]["max_inflight"] == 1
                assert stats["admission"]["max_queue"] == 0
                assert stats["statistics_cache"]["max_entries"] == 3
                plan_cache = stats["plan_cache"]
                assert plan_cache == {**plan_cache, "hits": 1, "misses": 1, "max_entries": 8}
        finally:
            background.stop()


def _children(pid):
    """Pids of the ``repro.serving.worker`` processes whose parent is ``pid``."""
    listing = subprocess.run(
        ["ps", "-eo", "pid=,ppid=,args="], capture_output=True, text=True, check=True
    ).stdout
    children = []
    for line in listing.splitlines():
        child, parent, args = line.split(None, 2)
        if int(parent) == pid and "-m repro.serving.worker" in args:
            children.append(int(child))
    return children


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestServeCommand:
    def test_serve_with_two_workers_end_to_end(self):
        expected = library_results()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        command = [sys.executable, "-m", "repro.experiments", "serve", "--workers", "2"]
        command += ["--port", "0", "--max-inflight", "2", "--max-queue", "4"]
        command += ["--default-deadline-ms", "60000", "--drain-timeout", "10"]
        command += ["--stats-cache-entries", "4", "--plan-cache-entries", "8"]
        process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            banner = ""
            while not banner.startswith("supervising 2 workers on "):
                remaining = deadline - time.monotonic()
                assert remaining > 0, "no supervising banner"
                assert select.select([process.stdout], [], [], remaining)[0]
                banner = process.stdout.readline()
                assert banner, "serve exited before its banner"
            host, port = banner.split()[-1].rsplit(":", 1)
            workers = _children(process.pid)
            assert len(workers) == 2
            with QueryClient(host, int(port), affinity="e2e") as client:
                client.load(list(NAMES), size=SIZE, seed=7)
                response = client.query("Qo,m", list(NAMES), k=10)
                for _ in range(2):
                    client.query("Qo,m", list(NAMES), k=10, options={"mode": "auto"})
                stats = client.stats()
            assert response["results"] == expected
            assert stats["admission"]["max_inflight"] == 2
            plan_cache = stats["plan_cache"]
            assert plan_cache == {**plan_cache, "hits": 1, "misses": 1, "max_entries": 8}
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        deadline = time.monotonic() + 10
        while not all(_gone(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(_gone(pid) for pid in workers)


class TestChaosProxy:
    def test_schedule_is_deterministic_and_seed_sensitive(self):
        plan = ChaosPlan(seed=4, drop_rate=0.2, truncate_rate=0.2, delay_rate=0.2)
        actions = [plan.action_for(c, f) for c in range(5) for f in range(20)]
        assert actions == [plan.action_for(c, f) for c in range(5) for f in range(20)]
        other = ChaosPlan(seed=5, drop_rate=0.2, truncate_rate=0.2, delay_rate=0.2)
        assert actions != [other.action_for(c, f) for c in range(5) for f in range(20)]
        assert {"drop", "truncate", "delay"} <= set(a for a in actions if a)

    def test_skip_frames_spares_the_handshake(self):
        plan = ChaosPlan(seed=0, drop_rate=1.0, skip_frames=2)
        assert plan.action_for(0, 0) is None
        assert plan.action_for(0, 1) is None
        assert plan.action_for(0, 2) == "drop"

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            ChaosPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(delay_seconds=-1.0)
        with pytest.raises(ValueError):
            ChaosPlan(skip_frames=-1)

    def test_soak_under_chaos_loses_nothing(self):
        expected = library_results()
        server = QueryServer()
        with BackgroundServer(server) as backend_address:
            plan = ChaosPlan(
                seed=3,
                drop_rate=0.15,
                truncate_rate=0.15,
                delay_rate=0.1,
                delay_seconds=0.01,
                skip_frames=1,
            )
            proxy = ChaosProxy(*backend_address, plan)
            proxy_background = BackgroundServer(proxy)
            proxied_address = proxy_background.start()
            try:
                # Setup over the clean address (register is not retryable).
                with QueryClient(*backend_address) as setup:
                    for collection in make_collections():
                        setup.register(
                            collection.name, encode_intervals(collection.intervals)
                        )
                with QueryClient(
                    *proxied_address, retry=fast_retry(seed=9, attempts=15)
                ) as client:
                    for _ in range(25):
                        assert client.query("Qo,m", list(NAMES), k=10)["results"] == expected
                    retries = client.retries
            finally:
                proxy_background.stop()
        # The chaos actually happened and the retry machinery absorbed it.
        assert proxy.stats["drops"] + proxy.stats["truncates"] > 0
        assert retries > 0
