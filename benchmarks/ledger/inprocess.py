"""The harness's in-process view of the library: data, checks, traced runs, probes.

Everything here calls *public* functions of ``repro`` — the registry, the
phase operators, the engine, the codecs — from the outside.  ``traced_run``
re-assembles what ``TKIJAlgorithm.run`` does (plan, cached statistics, the five
operators over a ``PhaseState``) so that a span can open and close around each
layer boundary without touching ``src/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
from measure import median
from tracing import EngineProxy, Tracer

from repro.core import TKIJ, LocalJoinConfig, LocalTopKJoin, PhaseState
from repro.core.operators import collections_by_name
from repro.experiments.workloads import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import (
    ExecutionContext,
    get_algorithm,
    query_fingerprint,
    resolve_join_config,
    statistics_fingerprint,
)
from repro.query.graph import RTJQuery
from repro.serving import QueryServer
from repro.serving.protocol import (
    decode_intervals,
    decode_message,
    decode_results,
    encode_intervals,
    encode_message,
    encode_results,
)
from repro.streaming.parity import equivalent_top_k
from repro.temporal.interval import Interval, IntervalCollection

__all__ = [
    "Triples",
    "uniform_triples",
    "collection",
    "bind",
    "top_k_problem",
    "oracle_problem",
    "TracedRun",
    "traced_run",
    "replay",
    "layer_metrics",
    "probe_plan",
    "probe_codec",
    "probe_checkpoint",
    "probe_kernels",
    "probe_cluster_arms",
    "probe_auto_over_manual",
    "table1_query",
]

Triples = list[list[float]]


# ------------------------------------------------------------------------ data
def uniform_triples(
    rng: np.random.Generator, size: int, start_max: float, first_uid: int = 0
) -> Triples:
    """``[uid, start, end]`` triples: the paper's uniform workload (Section 4.2).

    Integer start points uniform in ``[0, start_max]``, integer lengths
    uniform in ``[1, 100]`` — generated here, from the ledger's own seed, so
    the program under test only ever receives the finished inputs.
    """
    starts = np.floor(rng.uniform(0.0, start_max, size))
    lengths = np.maximum(1.0, np.round(rng.uniform(1.0, 100.0, size)))
    return [
        [first_uid + index, float(start), float(start + length)]
        for index, (start, length) in enumerate(zip(starts, lengths))
    ]


def collection(name: str, triples: Triples) -> IntervalCollection:
    """A fresh library collection over wire-form triples."""
    return IntervalCollection(name, [Interval(int(u), s, e) for u, s, e in triples])


def bind(dataset: Mapping[str, Triples]) -> list[IntervalCollection]:
    """Fresh library collections for one data set (name -> triples), in order."""
    return [collection(name, triples) for name, triples in dataset.items()]


# ---------------------------------------------------------------------- checks
def top_k_problem(results: Sequence[Mapping[str, Any]], k: int) -> str | None:
    """What is wrong with a wire-form answer: wrong count or scores out of order."""
    if len(results) != k:
        return f"expected {k} results, got {len(results)}"
    scores = [item["score"] for item in results]
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores are not non-increasing"
    return None


def oracle_problem(
    label: str, answer: Sequence[Mapping[str, Any]], query: RTJQuery, algorithm: str, **knobs: Any
) -> str | None:
    """Compare a wire-form answer with an independent evaluation of ``query``."""
    with ExecutionContext() as context:
        reference = get_algorithm(algorithm).run(query, context, **knobs).results
    if equivalent_top_k(decode_results(answer), reference):
        return None
    return f"{label}: answer differs from {algorithm} {knobs or ''}".rstrip()


# ------------------------------------------------------------------ traced run
@dataclass
class TracedRun:
    """What one harness-driven evaluation leaves behind."""

    results: list[dict[str, Any]]
    state: PhaseState
    knobs: dict[str, Any]
    jobs: list[Any]
    workers: int
    replication_cost: int
    seconds: dict[str, float]
    """Duration of each ``plan.*`` / ``core.*`` span of this run, by span name."""


def traced_run(
    query: RTJQuery,
    context: ExecutionContext,
    knobs: Mapping[str, Any],
    tracer: Tracer,
    trace_id: str,
) -> TracedRun:
    """Evaluate ``query`` like ``TKIJAlgorithm.run``, with a span per layer call."""
    algorithm = get_algorithm("tkij")
    first_span = len(tracer.spans)
    with tracer.operation(trace_id, "library.run", query=query.name, k=query.k):
        with tracer.span("plan.plan"):
            plan = algorithm.plan(query, context, **knobs)
        chosen = plan.knobs
        overrides = {
            knob: chosen[knob]
            for knob in ("transfer", "memory_budget_bytes")
            if chosen.get(knob) is not None
        }
        cluster = replace(context.cluster, **overrides)
        backend = context.get_backend()
        evaluator = TKIJ(
            num_granules=chosen["num_granules"],
            strategy=chosen["strategy"],
            assigner=chosen["assigner"],
            cluster=cluster,
            join_config=resolve_join_config(chosen),
            solver=chosen["solver"],
            backend=backend,
        )
        with evaluator:
            collections = collections_by_name(query)
            with tracer.span("core.statistics"):
                statistics, _ = context.statistics.get_or_collect(
                    collections, chosen["num_granules"]
                )
            engine = EngineProxy(evaluator.engine, tracer, backend.parallelism)
            state = PhaseState(query=query, engine=engine, num_reducers=cluster.num_reducers)
            for operator in evaluator.operators(statistics):
                if operator.name == "statistics":
                    operator.run(state)  # precollected: hands the statistics over
                    continue
                with tracer.span(f"core.{operator.name}"):
                    operator.run(state)
    bucket_counts = {
        (vertex, key): count
        for vertex in query.vertices
        for key, count in statistics.matrix(query.collections[vertex].name).counts.items()
    }
    return TracedRun(
        results=encode_results(state.results),
        state=state,
        knobs=chosen,
        jobs=engine.jobs,
        workers=backend.parallelism,
        replication_cost=state.assignment.replication_cost(bucket_counts),
        seconds={
            span.name: span.seconds
            for span in tracer.spans[first_span:]
            if span.name.startswith(("plan.", "core."))
        },
    )


def replay(
    queries: Sequence[RTJQuery],
    context: ExecutionContext,
    knobs: Mapping[str, Any],
    tracer: Tracer,
    label: str,
) -> tuple[list[TracedRun], list[str], float]:
    """Run every query untraced then traced; returns runs, problems, overhead %.

    The untraced twin (``Algorithm.run``) is what end-to-end numbers pay; the
    pairwise alternation keeps host drift out of the overhead figure, and the
    two answers must agree.
    """
    algorithm = get_algorithm("tkij")
    runs, problems, plain, traced = [], [], [], []
    for index, query in enumerate(queries):
        started = time.perf_counter()
        report = algorithm.run(query, context, **knobs)
        plain.append(time.perf_counter() - started)
        started = time.perf_counter()
        run = traced_run(query, context, knobs, tracer, f"{label}-{index}")
        traced.append(time.perf_counter() - started)
        runs.append(run)
        if run.results != encode_results(report.results):
            problems.append(f"{label}-{index}: traced and untraced answers differ")
    overhead = (median(traced) / median(plain) - 1.0) * 100.0
    return runs, problems, overhead


def layer_metrics(ops: Sequence[Sequence[TracedRun]]) -> dict[str, float]:
    """``plan``/``core``/``mapreduce``/``local_join`` metrics of harness-driven runs.

    ``ops`` groups the runs of one operation (a suite is two jobs, a query is
    one).  Timings add up within an operation and are medians across
    operations; counts add up over the *last* operation, so a fixed query
    sequence reports the same counts on every pass.
    """

    def per_op(value: Any) -> float:
        return median(sum(value(run) for run in runs) for runs in ops)

    def join_job(run: TracedRun) -> Any:
        return run.jobs[0]  # the phase (d) job; jobs[1] is the phase (e) merge

    def busy(tasks: Sequence[Any]) -> float:
        return sum(task.elapsed_seconds for task in tasks)

    def critical_path(run: TracedRun) -> float:
        # Tasks of a phase run `workers` at a time: the job can finish no
        # sooner than its slowest map plus its slowest reduce task, nor sooner
        # than all task time spread over the workers.  What the job took
        # beyond that is the driver's (splitting, shuffling, moving inputs).
        job = join_job(run)
        slowest = max((t.elapsed_seconds for t in job.map_tasks), default=0.0) + max(
            (t.elapsed_seconds for t in job.reduce_tasks), default=0.0
        )
        return max(slowest, (busy(job.map_tasks) + busy(job.reduce_tasks)) / run.workers)

    metrics = {
        f"{name}_ms": per_op(lambda run, name=name: run.seconds[name]) * 1000.0
        for name in (
            "plan.plan",
            "core.statistics",
            "core.top_buckets",
            "core.distribution",
            "core.join",
            "core.merge",
        )
    }
    job_seconds = per_op(lambda run: join_job(run).elapsed_seconds)
    map_seconds = per_op(lambda run: busy(join_job(run).map_tasks))
    reduce_seconds = per_op(lambda run: busy(join_job(run).reduce_tasks))
    driver_seconds = per_op(
        lambda run: max(0.0, join_job(run).elapsed_seconds - critical_path(run))
    )
    imbalance = median(max(join_job(run).imbalance for run in runs) for runs in ops)
    last = ops[-1]
    efficiency = (map_seconds + reduce_seconds) / (last[0].workers * job_seconds)
    jobs = [job for run in last for job in run.jobs]
    stats = [run.state.local_join_stats for run in last]
    buckets = [run.state.top_buckets for run in last]
    candidates = sum(item.candidates_examined for item in stats)
    scored = sum(item.tuples_scored for item in stats)
    selected_results = sum(item.selected_results for item in buckets)
    possible_results = sum(item.total_results for item in buckets)
    metrics.update(
        {
            "core.combinations_total": sum(item.total_combinations for item in buckets),
            "core.combinations_selected": sum(item.selected_count for item in buckets),
            "core.pruned_fraction": 1.0 - selected_results / max(1, possible_results),
            "core.replication_cost": sum(run.replication_cost for run in last),
            "mapreduce.job_ms": job_seconds * 1000.0,
            "mapreduce.map_busy_ms": map_seconds * 1000.0,
            "mapreduce.reduce_busy_ms": reduce_seconds * 1000.0,
            "mapreduce.driver_ms": driver_seconds * 1000.0,
            "mapreduce.parallel_efficiency": efficiency,
            "mapreduce.reduce_imbalance": imbalance,
            "mapreduce.shuffle_records": sum(job.shuffle_records for job in jobs),
            "mapreduce.shuffle_bytes": sum(job.shuffle_bytes for job in jobs),
            "mapreduce.bytes_spilled": sum(job.bytes_spilled for job in jobs),
            "mapreduce.shm_segments": sum(job.shm_segments for job in jobs),
            "mapreduce.failed_attempts": sum(len(job.failed_attempts) for job in jobs),
            "local_join.tuples_scored": scored,
            "local_join.candidates_examined": candidates,
            "local_join.combinations_processed": sum(i.combinations_processed for i in stats),
            "local_join.combinations_skipped": sum(i.combinations_skipped for i in stats),
            "local_join.useful_ratio": scored / max(1, candidates),
            "local_join.ns_per_candidate": reduce_seconds * 1e9 / max(1, candidates),
        }
    )
    return metrics


# ---------------------------------------------------------------------- probes
def probe_plan(query: RTJQuery, context: ExecutionContext) -> dict[str, float]:
    """Cost of the two fingerprints a plan-cache lookup is keyed on."""
    collections = collections_by_name(query)
    samples = []
    for _ in range(20):
        started = time.perf_counter()
        query_fingerprint(query)
        statistics_fingerprint(collections)
        samples.append(time.perf_counter() - started)
    described = context.statistics.describe()
    lookups = described["hits"] + described["misses"]
    return {
        "plan.fingerprint_us": median(samples) * 1e6,
        "plan.stats_cache_hit_ratio": described["hits"] / max(1, lookups),
    }


def probe_codec(
    request: Mapping[str, Any], response: Mapping[str, Any], batch: Triples | None
) -> dict[str, float]:
    """Wire-codec cost of the workload's real frames (both directions, both ends)."""
    samples = []
    for _ in range(50):
        started = time.perf_counter()
        decode_message(encode_message(request))
        decode_results(decode_message(encode_message(response))["results"])
        samples.append(time.perf_counter() - started)
    metrics = {"serving.codec_query_us": median(samples) * 1e6}
    if batch is not None:
        samples = []
        for _ in range(50):
            started = time.perf_counter()
            frame = encode_message({"verb": "ingest", "intervals": batch})
            encode_intervals(decode_intervals(decode_message(frame)["intervals"]))
            samples.append(time.perf_counter() - started)
        metrics["serving.codec_ingest_us_per_interval"] = median(samples) * 1e6 / len(batch)
    return metrics


def probe_checkpoint(
    context: ExecutionContext, collections: Mapping[str, IntervalCollection], path: Path
) -> dict[str, float]:
    """What one synchronous server checkpoint of the workload's final state costs."""
    server = QueryServer(context)
    server.collections.update(collections)
    samples = []
    try:
        for _ in range(5):
            started = time.perf_counter()
            server.checkpoint(path)
            samples.append(time.perf_counter() - started)
        size = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    return {
        "serving.checkpoint_ms": median(samples) * 1000.0,
        "serving.checkpoint_bytes": size,
    }


def probe_kernels(run: TracedRun) -> tuple[dict[str, float], list[str]]:
    """The three local-join kernels over one run's selected combinations and buckets.

    Same inputs, same query, kernel the only thing varied; the answers and the
    work counters must agree (the parity contract), the seconds say which
    kernel earns its keep at this bucket size.
    """
    state = run.state
    query = state.query
    buckets: dict[tuple[str, Any], list[Interval]] = {}
    for vertex in query.vertices:
        granularity = state.statistics.matrix(query.collections[vertex].name).granularity
        for interval in query.collections[vertex]:
            buckets.setdefault((vertex, granularity.bucket_of(interval)), []).append(interval)
    metrics, problems, answers = {}, [], {}
    for kernel in ("scalar", "vector", "sweep"):
        join = LocalTopKJoin(query, LocalJoinConfig(kernel=kernel))
        started = time.perf_counter()
        results, stats = join.run(state.top_buckets.selected, buckets)
        metrics[f"local_join.kernel_s.{kernel}"] = time.perf_counter() - started
        answers[kernel] = (results, stats)
    reference, reference_stats = answers["scalar"]
    for kernel in ("vector", "sweep"):
        results, stats = answers[kernel]
        if not equivalent_top_k(results, reference) or stats != reference_stats:
            problems.append(f"kernel {kernel} disagrees with scalar")
    return metrics, problems


def probe_cluster_arms(
    query: RTJQuery, knobs: Mapping[str, Any], workers: int
) -> tuple[dict[str, float], list[str]]:
    """The same job once per backend and per transfer, everything else fixed.

    Each arm gets its own context and one unmeasured warm-up run (pool spawn,
    statistics) before the timed one; answers must agree across arms.
    """
    arms = {
        "mapreduce.backend_s.serial": {"backend": "serial"},
        "mapreduce.backend_s.thread": {"backend": "thread"},
        "mapreduce.backend_s.process": {"backend": "process"},
        "mapreduce.transfer_s.pickle": {"backend": "process", "transfer": "pickle"},
        "mapreduce.transfer_s.shm": {"backend": "process", "transfer": "shm"},
    }
    algorithm = get_algorithm("tkij")
    metrics, problems, reference = {}, [], None
    for name, shape in arms.items():
        cluster = ClusterConfig(num_reducers=8, max_workers=workers, **shape)
        with ExecutionContext(cluster=cluster) as context:
            algorithm.run(query, context, **knobs)
            started = time.perf_counter()
            results = algorithm.run(query, context, **knobs).results
            metrics[name] = time.perf_counter() - started
        reference = reference or results
        if not equivalent_top_k(results, reference):
            problems.append(f"{name}: answer differs from the serial arm")
    return metrics, problems


def probe_auto_over_manual(
    query: RTJQuery, context: ExecutionContext
) -> tuple[dict[str, float], list[str]]:
    """The reference query planned by ``mode="auto"`` against the manual default."""
    algorithm = get_algorithm("tkij")
    seconds, answers = {}, {}
    for mode in ("manual", "auto"):
        algorithm.run(query, context, mode=mode)  # statistics at this granularity
        started = time.perf_counter()
        answers[mode] = algorithm.run(query, context, mode=mode).results
        seconds[mode] = time.perf_counter() - started
    problems = []
    if not equivalent_top_k(answers["auto"], answers["manual"]):
        problems.append("auto and manual plans disagree")
    return {"plan.auto_over_manual": seconds["auto"] / seconds["manual"]}, problems


def table1_query(
    name: str, collections: Sequence[IntervalCollection], k: int, num_vertices: int | None = None
) -> RTJQuery:
    """A Table 1 query with the P1 parameter set."""
    return build_query(name, collections, "P1", k, num_vertices)
