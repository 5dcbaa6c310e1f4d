"""The ledger's four workloads: what runs, how an operation is checked, what is traced.

Each workload owns its inputs (generated here from the seed and handed to the
program through ``register`` or a constructor), starts the system under test,
issues closed-loop operations whose every answer is checked, verifies a sample
against an independent evaluation after the window, and — in the traced pass —
replays a slice of itself with a span at every layer boundary.

Why these four: see ``BENCHMARK.json`` and the README's workload table.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np
from inprocess import (
    Triples,
    bind,
    collection,
    layer_metrics,
    oracle_problem,
    probe_auto_over_manual,
    probe_checkpoint,
    probe_cluster_arms,
    probe_codec,
    probe_kernels,
    probe_plan,
    replay,
    table1_query,
    top_k_problem,
    uniform_triples,
)
from measure import median
from tracing import Tracer

from repro.mapreduce import ClusterConfig
from repro.plan import ExecutionContext, get_algorithm
from repro.serving import QueryClient, ServingError
from repro.serving.protocol import decode_intervals, encode_results
from repro.streaming import StreamingCollection

__all__ = ["ROOT", "SIZES", "WORKLOADS", "OpSample", "Workload"]

ROOT = Path(__file__).resolve().parents[2]

SIZES = {
    # Cost varies 10-20 % with the data a seed draws, far more than with the
    # host, so every workload spreads a run over many independent data sets
    # (`datasets`, a fresh one per round / suite / stream) instead of one.
    "full": {
        "datasets": 12,  # serve_warm: registered triples of collections
        "small": 200,  # |Ci| of the 3-way workloads
        "sample": 60,  # |Ci| of the oracle samples
        "big": 2000,  # |Ci| of scale_auto's J1
        "medium": 150,  # |Ci| of scale_auto's J2
        "stream_base": 100,  # |Ci| a stream is opened with
        "stream_batch": 25,  # intervals per ingest
        "trace_ops": 4,  # served operations per connection in the traced pass
        "trace_streams": 2,  # stream lives replayed in process in the traced pass
    },
    "smoke": {
        "datasets": 2,
        "small": 50,
        "sample": 24,
        "big": 200,
        "medium": 30,
        "stream_base": 40,
        "stream_batch": 10,
        "trace_ops": 2,
        "trace_streams": 1,
    },
}

TIME_RANGE = 100_000.0
"""Start points are uniform in ``[0, TIME_RANGE]`` — the paper's own range."""
NAMES = ["R", "S", "T"]


@dataclass
class OpSample:
    """One closed-loop operation as the client saw it."""

    started: float
    seconds: float
    failed: bool
    layers: dict[str, float] = field(default_factory=dict)
    """Seconds per serving stage (``queue``/``plan``/``execute``/``wire``/``ingest``)."""
    response: Any = None
    """The server's answer, for served operations."""


class ServerProcess:
    """``python -m repro.experiments serve --port 0`` as a child process."""

    def __init__(self, scratch: Path, *arguments: str) -> None:
        python_path = os.pathsep.join(
            part for part in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0", *arguments],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": python_path, "TMPDIR": str(scratch)},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.host, self.port = self._address(timeout=60.0)
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            raise

    def _address(self, timeout: float) -> tuple[str, int]:
        """Parse the ``serving on host:port`` banner."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.process.stdout], [], [], remaining)[0]:
                raise RuntimeError("the server did not announce its address in time")
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("the server exited before serving")
            if line.startswith("serving on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)

    def stop(self) -> None:
        """Ask for shutdown, wait, and kill what does not leave."""
        if self.process.poll() is None:
            try:
                with QueryClient(self.host, self.port, timeout=5.0) as client:
                    client.shutdown()
            except (OSError, ServingError):
                self.process.terminate()
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Workload:
    """Common shape of a workload; subclasses fill in the system under test."""

    name = ""
    clients = 1
    in_process = False
    """Whether the system under test lives in the harness process (its set-up
    then also pays the library import the harness already did)."""

    def __init__(self, seed: int, sizes: dict[str, int], scratch: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.problems: list[str] = []

    def rng(self, *stream: int) -> np.random.Generator:
        """An independent generator per (seed, purpose)."""
        return np.random.default_rng([self.seed, *stream])

    def note(self, problem: str | None) -> bool:
        """Record a failed check; returns whether there was one."""
        if problem is not None:
            self.problems.append(problem)
        return problem is not None

    # The steps of a measured run, in order.
    def start(self) -> None:
        """Start the system under test and get its first (cold) answer."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed operations between set-up and the window (none by default)."""

    def pid(self) -> int:
        """Root of the process tree whose CPU and memory count."""
        return os.getpid()

    def window(self, seconds: float) -> list[OpSample]:
        """Closed-loop operations for about ``seconds``."""
        raise NotImplementedError

    def verify(self) -> None:
        """Post-window checks against independent evaluations (into ``problems``)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop everything ``start`` started."""
        raise NotImplementedError

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], int]:
        """The traced pass: per-layer metrics and the number of operations traced."""
        raise NotImplementedError

    def sabotage(self) -> OpSample:
        """One deliberately malformed operation (the smoke test's failed op)."""
        raise NotImplementedError


# --------------------------------------------------------------- served helpers
def served_query(workload: Workload, client: QueryClient, k: int, **request: Any) -> OpSample:
    """One ``query`` round trip, checked."""
    started = time.perf_counter()
    try:
        response = client.query(k=k, **request)
    except (ServingError, OSError) as error:
        workload.note(f"query failed: {error}")
        return OpSample(started, time.perf_counter() - started, True)
    seconds = time.perf_counter() - started
    timings = response["timings"]
    layers = {
        "queue": timings["queue_seconds"],
        "plan": timings["plan_seconds"],
        "execute": timings["execute_seconds"],
    }
    layers["wire"] = max(0.0, seconds - sum(layers.values()))
    failed = workload.note(top_k_problem(response["results"], k))
    return OpSample(started, seconds, failed, layers, response)


def served_spans(tracer: Tracer, samples: Sequence[OpSample], label: str) -> None:
    """Spans of served operations, rebuilt from what the client and the response say.

    The server reports how long a request queued, planned and executed but not
    when; the three stages are laid end to end in the middle of the client's
    interval, which leaves the wire time as the root span's self time.
    """
    for index, sample in enumerate(samples):
        end = sample.started + sample.seconds
        root = tracer.add(f"client.{label}", sample.started, end, trace_id=f"{label}-{index}")
        cursor = sample.started + sample.layers.get("wire", 0.0) / 2.0
        for stage in ("ingest", "queue", "plan", "execute"):
            if stage in sample.layers:
                stage_end = min(end, cursor + sample.layers[stage])
                tracer.add(
                    f"serving.{stage}",
                    cursor,
                    stage_end,
                    trace_id=root.trace_id,
                    parent=root,
                    synthetic_start=True,
                )
                cursor = stage_end


def served_metrics(samples: Sequence[OpSample]) -> dict[str, float]:
    """Median milliseconds per serving stage over the traced operations."""
    metrics = {}
    for stage in ("wire", "queue", "plan", "execute"):
        seconds = median(sample.layers[stage] for sample in samples if stage in sample.layers)
        metrics[f"serving.{stage}_ms"] = seconds * 1000.0
    return metrics


def cache_ratios(stats: dict[str, Any]) -> dict[str, float]:
    """Hit ratios of the server's plan and statistics caches (``stats`` verb)."""
    ratios = {}
    for metric, key in (
        ("plan.plan_cache_hit_ratio", "plan_cache"),
        ("plan.stats_cache_hit_ratio", "statistics_cache"),
    ):
        described = stats.get(key, {})
        lookups = described.get("hits", 0) + described.get("misses", 0)
        ratios[metric] = described.get("hits", 0) / max(1, lookups)
    return ratios


def closed_loop(connections: int, operation: Any, budget: Any) -> list[OpSample]:
    """Each connection issues ``operation(connection, index)`` back to back while
    ``budget(done)`` allows, one thread per connection."""

    def loop(connection: int) -> list[OpSample]:
        samples: list[OpSample] = []
        while budget(len(samples)):
            samples.append(operation(connection, len(samples)))
        return samples

    with ThreadPoolExecutor(max_workers=connections) as pool:
        futures = [pool.submit(loop, connection) for connection in range(connections)]
        return [sample for future in futures for sample in future.result()]


# ------------------------------------------------------------------- serve_warm
class ServeWarm(Workload):
    """The ROADMAP's reference profile: warm queries served over the wire."""

    name = "serve_warm"
    clients = 2
    QUERY = "Qo,m"
    K = 20

    def __init__(self, seed: int, sizes: dict[str, int], scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        rng = self.rng(1)
        self.data = [
            {f"{name}{index}": uniform_triples(rng, sizes["small"], TIME_RANGE) for name in NAMES}
            for index in range(sizes["datasets"])
        ]
        self.sample = {
            f"V{index}": uniform_triples(rng, sizes["sample"], sizes["sample"] * 50.0)
            for index in range(3)
        }
        self.server: ServerProcess | None = None
        self.connections: list[QueryClient] = []
        self.first: dict[int, Any] = {}

    def request(self, dataset: int) -> dict[str, Any]:
        return {"query": self.QUERY, "collections": list(self.data[dataset])}

    def start(self) -> None:
        self.server = ServerProcess(self.scratch)
        self.connections = [
            QueryClient(self.server.host, self.server.port) for _ in range(self.clients)
        ]
        for dataset in self.data:
            for name, triples in dataset.items():
                self.connections[0].register(name, triples)
        self.first = {0: self.connections[0].query(k=self.K, **self.request(0))}

    def warm_up(self) -> None:
        for dataset in range(1, len(self.data)):
            self.first[dataset] = self.connections[0].query(k=self.K, **self.request(dataset))

    def pid(self) -> int:
        return self.server.process.pid

    def operation(self, connection: int, index: int) -> OpSample:
        """Query ``index`` of a connection; the two connections walk the data
        sets half a cycle apart, so they never ask for the same one at once."""
        dataset = (connection * len(self.data) // self.clients + index) % len(self.data)
        sample = served_query(self, self.connections[connection], self.K, **self.request(dataset))
        if not sample.failed and sample.response["results"] != self.first[dataset]["results"]:
            sample.failed = self.note("a repeated query answered differently")
        return sample

    def window(self, seconds: float) -> list[OpSample]:
        deadline = time.perf_counter() + seconds
        return closed_loop(
            self.clients, self.operation, lambda done: time.perf_counter() < deadline
        )

    def sabotage(self) -> OpSample:
        request = {"query": "Qx,x", "collections": list(self.data[0])}
        return served_query(self, self.connections[0], self.K, **request)

    def verify(self) -> None:
        dataset = self.seed % len(self.data)
        query = table1_query(self.QUERY, bind(self.data[dataset]), self.K)
        with ExecutionContext() as context:
            library = get_algorithm("tkij").run(query, context).results
        if encode_results(library) != self.first[dataset]["results"]:
            self.note("served results differ from an in-process library run")
        client = self.connections[0]
        for name, triples in self.sample.items():
            client.register(name, triples)
        answer = client.query(k=10, query=self.QUERY, collections=list(self.sample))
        query = table1_query(self.QUERY, bind(self.sample), 10)
        self.note(oracle_problem("oracle sample", answer["results"], query, "sql-oracle"))

    def stop(self) -> None:
        for client in self.connections:
            client.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], int]:
        ops = self.sizes["trace_ops"]
        self.data = self.data[: min(len(self.data), ops)]
        self.start()
        try:
            self.warm_up()
            started = time.perf_counter()
            both = closed_loop(self.clients, self.operation, lambda done: done < ops)
            both_rate = len(both) / (time.perf_counter() - started)
            started = time.perf_counter()
            single = closed_loop(1, self.operation, lambda done: done < ops)
            single_rate = len(single) / (time.perf_counter() - started)
            stats = self.connections[0].stats()
        finally:
            self.stop()
        served_spans(tracer, both + single, "query")
        metrics = served_metrics(both)
        metrics["serving.concurrency_speedup"] = both_rate / single_rate
        metrics["serving.busy_rejected"] = stats["admission"]["rejected"]

        bound = [bind(dataset) for dataset in self.data]
        queries = [table1_query(self.QUERY, collections, self.K) for collections in bound]
        with ExecutionContext() as context:
            runs, problems, overhead = replay(queries, context, {}, tracer, "replay")
            metrics.update(layer_metrics([[run] for run in runs]))
            metrics.update(probe_plan(queries[0], context))
            metrics.update(
                probe_checkpoint(
                    context,
                    {c.name: c for collections in bound for c in collections},
                    self.scratch / "probe.ckpt",
                )
            )
        for dataset, run in enumerate(runs):
            if run.results != self.first[dataset]["results"]:
                problems.append("served results differ from the traced library run")
        metrics.update(cache_ratios(stats))
        request = {"verb": "query", "k": self.K, **self.request(0)}
        metrics.update(probe_codec(request, self.first[0], None))
        kernel_metrics, kernel_problems = probe_kernels(runs[0])
        metrics.update(kernel_metrics)
        metrics["trace.overhead_pct"] = overhead
        self.problems.extend(problems + kernel_problems)
        return metrics, len(both) + len(single) + len(runs)


# ------------------------------------------------------------------- table1_mix
class Table1Mix(Workload):
    """Five Table-1 shapes, new data and a new k every round, through the library."""

    name = "table1_mix"
    in_process = True
    SHAPES = ("Qb,b", "QjB,jB", "Qo,m", "Qs,f,m", "Qf,b")
    DATASETS = 16

    def __init__(self, seed: int, sizes: dict[str, int], scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        rng = self.rng(2)
        self.data = [
            {f"{name}{index}": uniform_triples(rng, sizes["small"], TIME_RANGE) for name in NAMES}
            for index in range(self.DATASETS)
        ]
        self.sample = [
            collection(f"V{index}", uniform_triples(rng, sizes["sample"], sizes["sample"] * 50.0))
            for index in range(3)
        ]
        self.context: ExecutionContext | None = None

    def start(self) -> None:
        self.bound = [bind(dataset) for dataset in self.data]
        self.context = ExecutionContext()
        self.operation(self.SHAPES[0], 0, 10)

    def operation(self, shape: str, dataset: int, k: int) -> OpSample:
        started = time.perf_counter()
        try:
            report = get_algorithm("tkij").run(
                table1_query(shape, self.bound[dataset], k), self.context
            )
        except Exception as error:  # noqa: BLE001 - any failure is a failed op
            self.note(f"{shape} k={k} raised {error!r}")
            return OpSample(started, time.perf_counter() - started, True)
        seconds = time.perf_counter() - started
        self.last = encode_results(report.results)
        return OpSample(started, seconds, self.note(top_k_problem(self.last, k)))

    def window(self, seconds: float) -> list[OpSample]:
        deadline = time.perf_counter() + seconds
        samples, round_index = [], 0
        while time.perf_counter() < deadline:
            dataset, k = round_index % self.DATASETS, 10 + round_index % 20
            samples.extend(self.operation(shape, dataset, k) for shape in self.SHAPES)
            round_index += 1
        return samples

    def sabotage(self) -> OpSample:
        return self.operation("Qx,x", 0, 10)

    def verify(self) -> None:
        shape = self.SHAPES[self.seed % len(self.SHAPES)]
        dataset, k = self.seed % self.DATASETS, 10 + self.seed % 7
        self.operation(shape, dataset, k)
        self.note(
            oracle_problem(
                f"{shape} k={k}",
                self.last,
                table1_query(shape, self.bound[dataset], k),
                "tkij",
                num_granules=12,
                kernel="vector",
            )
        )
        query = table1_query(shape, self.sample, 10)
        answer = encode_results(get_algorithm("tkij").run(query, self.context).results)
        self.note(oracle_problem(f"oracle sample {shape}", answer, query, "sql-oracle"))

    def stop(self) -> None:
        if self.context is not None:
            self.context.close()
            self.context = None

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], int]:
        collections = bind(self.data[0])
        queries = [table1_query(shape, collections, 10) for shape in self.SHAPES]
        with ExecutionContext() as context:
            runs, problems, overhead = replay(queries, context, {}, tracer, "round")
            metrics = layer_metrics([[run] for run in runs])
            metrics.update(probe_plan(queries[0], context))
        for run, query in zip(runs, queries):
            self.note(top_k_problem(run.results, query.k))
        metrics["trace.overhead_pct"] = overhead
        self.problems.extend(problems)
        return metrics, len(runs)


# ------------------------------------------------------------------- scale_auto
class ScaleAuto(Workload):
    """Planner-chosen plans over large buckets on the process backend."""

    name = "scale_auto"
    in_process = True
    WORKERS = min(len(os.sched_getaffinity(0)), 2)
    DATASETS = 12

    def __init__(self, seed: int, sizes: dict[str, int], scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        rng = self.rng(3)
        # J1 is the Fig 7 large-bucket regime: two collections over a time
        # range of 10 x |Ci|, one scored predicate.
        self.data = [
            (
                {
                    f"B{name}{index}": uniform_triples(rng, sizes["big"], 10.0 * sizes["big"])
                    for name in NAMES[:2]
                },
                {
                    f"{name}{index}": uniform_triples(rng, sizes["medium"], TIME_RANGE)
                    for name in NAMES
                },
            )
            for index in range(self.DATASETS)
        ]
        self.context: ExecutionContext | None = None

    def bind(self) -> None:
        self.bound = [[bind(part) for part in dataset] for dataset in self.data]

    def jobs(self, index: int) -> list[Any]:
        """Suite ``index``: J1 (``Qb*``, 2 vertices) then J2 (``Qo,m``), on its own data."""
        big, medium = self.bound[index % self.DATASETS]
        extra = index // self.DATASETS
        return [
            table1_query("Qb*", big, 100 + extra, num_vertices=2),
            table1_query("Qo,m", medium, 20 + extra),
        ]

    def cluster(self) -> ClusterConfig:
        return ClusterConfig(num_reducers=8, backend="process", max_workers=self.WORKERS)

    def start(self) -> None:
        self.bind()
        self.context = ExecutionContext(cluster=self.cluster())
        self.operation(0)

    def operation(self, index: int, mode: str = "auto") -> OpSample:
        started = time.perf_counter()
        failed = False
        self.last = []
        try:
            for query in self.jobs(index):
                report = get_algorithm("tkij").run(query, self.context, mode=mode)
                self.last.append(encode_results(report.results))
                failed |= self.note(top_k_problem(self.last[-1], query.k))
        except Exception as error:  # noqa: BLE001 - any failure is a failed op
            failed = self.note(f"suite {index} raised {error!r}")
        return OpSample(started, time.perf_counter() - started, failed)

    def window(self, seconds: float) -> list[OpSample]:
        deadline = time.perf_counter() + seconds
        samples: list[OpSample] = []
        while time.perf_counter() < deadline:
            samples.append(self.operation(1 + len(samples)))
        return samples

    def sabotage(self) -> OpSample:
        return self.operation(0, mode="no-such-mode")

    def verify(self) -> None:
        index = self.seed % self.DATASETS
        self.operation(index)
        big, medium = self.jobs(index)
        # Independent of the planner's choice in granularity, kernel and backend.
        self.note(oracle_problem("J1", self.last[0], big, "tkij", num_granules=6, kernel="vector"))
        self.note(
            oracle_problem("J2", self.last[1], medium, "tkij", num_granules=20, kernel="scalar")
        )

    def stop(self) -> None:
        if self.context is not None:
            self.context.close()
            self.context = None

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], int]:
        self.bind()
        queries = [query for index in range(2) for query in self.jobs(index)]
        with ExecutionContext(cluster=self.cluster()) as context:
            runs, problems, overhead = replay(queries, context, {"mode": "auto"}, tracer, "job")
            metrics = layer_metrics([runs[0:2], runs[2:4]])
            metrics.update(probe_plan(queries[0], context))
            ratio, ratio_problems = probe_auto_over_manual(queries[1], context)
        for run, query in zip(runs, queries):
            self.note(top_k_problem(run.results, query.k))
        chosen = {
            knob: runs[0].knobs[knob]
            for knob in ("num_granules", "strategy", "assigner", "kernel")
            if runs[0].knobs.get(knob) is not None
        }
        arms, arm_problems = probe_cluster_arms(queries[0], chosen, self.WORKERS)
        kernels, kernel_problems = probe_kernels(runs[0])
        metrics.update({**ratio, **arms, **kernels, "trace.overhead_pct": overhead})
        self.problems.extend(problems + ratio_problems + arm_problems + kernel_problems)
        return metrics, len(runs)


# --------------------------------------------------------------- stream_durable
class StreamDurable(Workload):
    """Lives of small streams on a checkpointing server: open, tick, tick, ...

    One operation is three writes and one streaming query: *open* registers a
    stream's three collections and takes its first answer, a *tick* ingests
    one batch into each and takes the incremental answer.  A stream lives for
    ``TICKS`` ticks — long enough to outgrow its plan once, so every life
    holds incremental ticks (the median) and one replan (the tail) — and the
    window is as many whole lives as fit.
    """

    name = "stream_durable"
    QUERY = "Qo,m"
    K = 20
    TICKS = 5

    def __init__(self, seed: int, sizes: dict[str, int], scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        size = sizes["sample"]
        self.sample = {
            f"V{index}": self.opening(self.rng(4, 0, index), size, size * 50.0)
            for index in range(3)
        }
        self.server: ServerProcess | None = None
        self.client: QueryClient | None = None
        self.checkpoints: Path | None = None

    def names(self, stream: int) -> list[str]:
        return [f"{name}{stream}" for name in NAMES]

    @staticmethod
    def opening(rng: np.random.Generator, size: int, start_max: float) -> Triples:
        """The intervals a stream is opened with: uniform ones plus two anchors.

        ``tkij-streaming`` is not exact for appends that reach beyond the time
        range its plan was built on (they are clamped into border buckets whose
        score bounds then no longer cover them; found by this ledger's oracle
        check, seed 606 — see the README).  Operations must not fail, so every
        stream opens with an interval at either end of the range appends can
        reach, which keeps them inside it.
        """
        anchors = [[size - 2, 0.0, 1.0], [size - 1, start_max + 99.0, start_max + 100.0]]
        return uniform_triples(rng, size - 2, start_max) + anchors

    def request(self, collections: list[str]) -> dict[str, Any]:
        return {
            "query": self.QUERY,
            "collections": collections,
            "algorithm": "tkij-streaming",
            "options": {"num_granules": 20},
        }

    def rows(self, stream: int, tick: int, index: int) -> Triples:
        """What collection ``index`` of ``stream`` receives: its base at tick -1, then batches."""
        base, batch = self.sizes["stream_base"], self.sizes["stream_batch"]
        rng = self.rng(4, 1 + stream, 1 + tick, index)
        if tick < 0:
            return self.opening(rng, base, TIME_RANGE)
        return uniform_triples(rng, batch, TIME_RANGE, base + tick * batch)

    def start(self) -> None:
        self.checkpoints = self.scratch / f"checkpoints-{time.monotonic_ns()}"
        self.checkpoints.mkdir(parents=True)
        self.server = ServerProcess(self.scratch, "--checkpoint-dir", str(self.checkpoints))
        self.client = QueryClient(self.server.host, self.server.port)
        self.kth_score: dict[int, float] = {}
        self.done: tuple[int, int] = (0, -1)
        self.ingest_seconds: list[float] = []
        self.first = self.operation(0, -1).response

    def pid(self) -> int:
        return self.server.process.pid

    def operation(self, stream: int, tick: int) -> OpSample:
        """Open ``stream`` (``tick`` -1) or advance it by one tick."""
        started = time.perf_counter()
        problems = len(self.problems)
        writes = 0.0
        try:
            for index, name in enumerate(self.names(stream)):
                rows = self.rows(stream, tick, index)
                before = time.perf_counter()
                if tick < 0:
                    self.client.register(name, rows, streaming=True)
                else:
                    staged = self.client.ingest(name, rows, seq=tick)
                    self.ingest_seconds.append(time.perf_counter() - before)
                    if staged["staged"] != len(rows) or staged["deduped"]:
                        self.note(f"stream {stream} tick {tick}: ingest staged {staged}")
                writes += time.perf_counter() - before
        except (ServingError, OSError) as error:
            self.note(f"stream {stream} tick {tick}: write failed: {error}")
            return OpSample(started, time.perf_counter() - started, True)
        sample = served_query(self, self.client, self.K, **self.request(self.names(stream)))
        sample.started, sample.seconds = started, time.perf_counter() - started
        sample.layers["ingest"] = writes
        if not sample.failed:
            kth = sample.response["results"][-1]["score"]
            if kth < self.kth_score.get(stream, 0.0):
                self.note(f"stream {stream} tick {tick}: the k-th score fell on an append")
            self.kth_score[stream] = kth
            self.done, self.last = (stream, tick), sample.response
        sample.failed = len(self.problems) > problems
        return sample

    def life(self, stream: int) -> list[OpSample]:
        opened = [] if stream == 0 else [self.operation(stream, -1)]  # start() opened stream 0
        return opened + [self.operation(stream, tick) for tick in range(self.TICKS)]

    def window(self, seconds: float) -> list[OpSample]:
        deadline = time.perf_counter() + seconds
        samples: list[OpSample] = []
        stream = 0
        while time.perf_counter() < deadline:
            samples.extend(self.life(stream))
            stream += 1
        return samples

    def sabotage(self) -> OpSample:
        request = {**self.request(self.names(0)), "query": "Qx,x"}
        return served_query(self, self.client, self.K, **request)

    def final_collections(self) -> list[Any]:
        """Static copies of the last-touched stream as of its last completed tick."""
        stream, ticks = self.done
        return [
            collection(
                name,
                [row for tick in range(-1, ticks + 1) for row in self.rows(stream, tick, index)],
            )
            for index, name in enumerate(self.names(stream))
        ]

    def verify(self) -> None:
        query = table1_query(self.QUERY, self.final_collections(), self.K)
        self.note(oracle_problem("final answer", self.last["results"], query, "tkij"))
        # A small second stream — first evaluation, one appended batch, the
        # incremental answer — against the SQL oracle over everything appended.
        size = self.sizes["sample"]
        request = self.request(list(self.sample))
        union = []
        for name, triples in self.sample.items():
            self.client.register(name, triples, streaming=True)
        self.client.query(k=10, **request)
        for index, (name, triples) in enumerate(self.sample.items()):
            extra = uniform_triples(self.rng(4, 0, 3 + index), size // 2, size * 50.0, size)
            self.client.ingest(name, extra, seq=0)
            union.append(collection(name, triples + extra))
        answer = self.client.query(k=10, **request)
        self.note(
            oracle_problem(
                "oracle sample stream",
                answer["results"],
                table1_query(self.QUERY, union, 10),
                "sql-oracle",
            )
        )

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.checkpoints is not None:
            shutil.rmtree(self.checkpoints, ignore_errors=True)
            self.checkpoints = None

    def replay_life(self, tracer: Tracer, stream: int) -> tuple[list[Any], dict[str, float]]:
        """One stream's life in process: its tick reports and a checkpoint probe.

        In process each tick's own report (replanned, phase seconds, pruning)
        can be read, which the wire does not carry.
        """
        algorithm = get_algorithm("tkij-streaming")
        streams = [
            StreamingCollection(name, decode_intervals(self.rows(stream, -1, index)))
            for index, name in enumerate(self.names(stream))
        ]
        query = table1_query(self.QUERY, streams, self.K)
        ticks = []
        with ExecutionContext() as context:
            algorithm.run(query, context, num_granules=20)
            for tick in range(self.TICKS):
                for index, appended in enumerate(streams):
                    appended.ingest(decode_intervals(self.rows(stream, tick, index)))
                with tracer.operation(f"stream-{stream}-{tick}", "streaming.tick") as root:
                    report = algorithm.run(query, context, num_granules=20)
                batch = report.raw.batches[-1]
                cursor = root.start
                for phase, seconds in batch.phase_seconds.items():
                    end = min(root.end, cursor + seconds)
                    name = f"streaming.phase:{phase}"
                    tracer.add(name, cursor, end, parent=root, synthetic_start=True)
                    cursor = end
                ticks.append((root.seconds, batch))
            self.streamed = encode_results(report.results)
            checkpoint = probe_checkpoint(
                context, {s.name: s for s in streams}, self.scratch / "probe.ckpt"
            )
        return ticks, checkpoint

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], int]:
        # Served slice: wire, admission and ingest as the client sees them.
        self.start()
        try:
            served = [self.operation(0, tick) for tick in range(self.sizes["trace_ops"])]
            stats = self.client.stats()
        finally:
            self.stop()
        served_spans(tracer, served, "tick")
        metrics = served_metrics(served)
        metrics["serving.ingest_ms"] = median(self.ingest_seconds) * 1000.0
        metrics["serving.busy_rejected"] = stats["admission"]["rejected"]

        # Library slice: whole stream lives replayed in process.
        lives = self.sizes["trace_streams"]
        ticks = []
        for stream in range(lives):
            life, checkpoint = self.replay_life(tracer, stream)
            ticks.extend(life)
        self.done = (lives - 1, self.TICKS - 1)
        self.note(top_k_problem(self.streamed, self.K))
        incremental = [batch for _, batch in ticks if not batch.replanned]
        candidates = sum(batch.candidates for batch in incremental)
        pruned = sum(batch.pruned_pairs for batch in incremental)
        incremental_seconds = median(s for s, batch in ticks if not batch.replanned)
        replan_seconds = median(s for s, batch in ticks if batch.replanned)
        metrics.update(checkpoint)
        metrics.update(
            {
                "streaming.tick_incremental_ms": incremental_seconds * 1000.0,
                "streaming.tick_replan_ms": replan_seconds * 1000.0,
                "streaming.replans": sum(batch.replanned for _, batch in ticks),
                "streaming.kept_ratio": candidates / max(1, candidates + pruned),
                "streaming.intervals_skipped": sum(b.intervals_skipped for b in incremental),
            }
        )

        # What a replan pays: the last stream's final state evaluated from scratch.
        final = table1_query(self.QUERY, self.final_collections(), self.K)
        with ExecutionContext() as context:
            runs, problems, overhead = replay([final] * 3, context, {}, tracer, "recompute")
            metrics.update(layer_metrics([[run] for run in runs]))
            metrics.update(probe_plan(final, context))
        self.note(oracle_problem("streamed answer", self.streamed, final, "tkij", kernel="vector"))
        metrics.update(cache_ratios(stats))
        request = {"verb": "query", "k": self.K, **self.request(self.names(0))}
        metrics.update(probe_codec(request, self.first, self.rows(0, 0, 0)))
        metrics["trace.overhead_pct"] = overhead
        self.problems.extend(problems)
        return metrics, len(served) + len(ticks) + len(runs)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ServeWarm, Table1Mix, ScaleAuto, StreamDurable)
}
