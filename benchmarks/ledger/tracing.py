"""In-memory spans recorded around the calls into each layer's public functions.

The ledger traces from its own files: a :class:`Tracer` wraps the harness's
calls into ``plan``, each phase operator, and — through :class:`EngineProxy`,
a delegating stand-in placed in ``PhaseState.engine`` — every Map-Reduce job
the phases launch.  Task spans are rebuilt from the ``TaskMetrics`` a job
returns (durations are measured by the engine; start offsets are not exposed,
so tasks are packed into worker lanes and flagged ``synthetic_start``).
Spans stay in memory until :meth:`Tracer.dump` writes them at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "EngineProxy", "self_seconds", "check_spans"]


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    span_id: int
    trace_id: str
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one ``trace_id`` per operation, nesting via a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_id = "untraced"

    @contextmanager
    def operation(self, trace_id: str, name: str, **attributes: Any) -> Iterator[Span]:
        """The root span of one operation; every span inside shares ``trace_id``."""
        self._trace_id = trace_id
        with self.span(name, **attributes) as root:
            yield root

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), self._trace_id, parent, name, time.perf_counter())
        span.attributes.update(attributes)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Record a span whose interval was measured elsewhere (server timings, tasks).

        Without an explicit ``parent`` the span hangs under the open span, if any.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self._trace_id
        parent_id = parent.span_id if parent is not None else None
        span = Span(len(self.spans), trace_id, parent_id, name, start, end, attributes)
        self.spans.append(span)
        return span

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_seconds(self.spans)
        payload = [{**asdict(span), "self_seconds": selfs[span.span_id]} for span in self.spans]
        path.write_text(json.dumps(payload, indent=1) + "\n")


class EngineProxy:
    """Delegates to a ``MapReduceEngine`` and records one span per job it runs.

    Phase operators only call ``engine.run`` (everything else is forwarded
    untouched), so handing the proxy to ``PhaseState`` attributes each job —
    and its map and reduce tasks — to the phase span that is open meanwhile.
    """

    def __init__(self, engine: Any, tracer: Tracer, workers: int) -> None:
        self._engine = engine
        self._tracer = tracer
        self._workers = max(1, workers)
        self.jobs: list[Any] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run(self, job: Any, input_pairs: Any) -> Any:
        with self._tracer.span(f"mapreduce.job:{job.name}") as span:
            result = self._engine.run(job, input_pairs)
            metrics = result.metrics
            self.jobs.append(metrics)
            self._task_spans(span, "map", metrics.map_tasks, from_start=True)
            self._task_spans(span, "reduce", metrics.reduce_tasks, from_start=False)
        return result

    def _task_spans(self, job: Span, phase: str, tasks: list[Any], from_start: bool) -> None:
        """Pack task durations into worker lanes inside the job's interval.

        Map lanes grow forward from the job's start, reduce lanes backward
        from its end (reducers run last); what lies between is driver time.
        """
        now = time.perf_counter()
        lanes = [0.0] * self._workers
        for task in tasks:
            lane = lanes.index(min(lanes))
            offset, lanes[lane] = lanes[lane], lanes[lane] + task.elapsed_seconds
            if from_start:
                start = job.start + offset
                end = min(start + task.elapsed_seconds, now)
            else:
                end = now - offset
                start = max(end - task.elapsed_seconds, job.start)
            self._tracer.add(
                f"mapreduce.{phase}_task",
                min(start, end),
                end,
                task_id=task.task_id,
                attempt=task.attempt,
                task_seconds=task.elapsed_seconds,
                synthetic_start=True,
            )


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time per span: its duration minus what its children's intervals cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        covered, edge = 0.0, span.start
        for child in sorted(children.get(span.span_id, []), key=lambda c: c.start):
            start, end = max(child.start, edge), min(child.end, span.end)
            if end > start:
                covered += end - start
                edge = end
        result[span.span_id] = max(0.0, span.seconds - covered)
    return result


def check_spans(spans: list[Span]) -> list[str]:
    """Well-formedness problems: missing parent, child outside parent, mixed trace ids."""
    by_id = {span.span_id: span for span in spans}
    problems = []
    slack = 1e-6
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.span_id} ({span.name}) ends before it starts")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"span {span.span_id} ({span.name}) names a missing parent")
        elif span.start < parent.start - slack or span.end > parent.end + slack:
            problems.append(f"span {span.span_id} ({span.name}) leaves its parent {parent.name}")
        elif span.trace_id != parent.trace_id:
            problems.append(f"span {span.span_id} ({span.name}) changes trace id")
    return problems
