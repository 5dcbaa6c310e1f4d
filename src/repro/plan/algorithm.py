"""The ``Algorithm`` protocol: plan an execution, then execute the plan.

Every evaluation strategy in the repository — TKIJ and the three baselines —
implements the same two-step interface so that the experiment harness, figure
drivers and CLI can dispatch through the registry without per-algorithm
branches:

* :meth:`Algorithm.plan` turns a query plus an :class:`ExecutionContext` (and
  optional knobs) into an :class:`ExecutionPlan`, possibly consulting the
  cost-based :class:`~repro.plan.AutoPlanner`;
* :meth:`Algorithm.execute` runs the plan and returns a :class:`RunReport`, the
  algorithm-agnostic execution summary.
"""

from __future__ import annotations

import math
import os
import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..mapreduce.cluster import JobMetrics
from ..query.graph import ResultTuple, RTJQuery
from .context import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .planner import PlanExplanation

__all__ = [
    "Algorithm",
    "ExecutionPlan",
    "KnobCheck",
    "RunReport",
    "boolean",
    "integer",
    "json_object",
    "name_list",
    "non_negative_int",
    "one_of",
    "path",
    "positive_int",
    "positive_seconds",
    "string",
    "value_check",
]

KnobCheck = Callable[[str, Any], Any]
"""Checks one value: ``check(name, value)`` returns the (normalised) value or
raises ``ValueError`` reading "<name> must be ..., got ...".  Plan knobs,
server settings and wire request fields all check through this vocabulary;
values may arrive from the wire as any JSON value."""


def value_check(
    what: str, accepts: Callable[[Any], bool], convert: Callable[[Any], Any] | None = None
) -> KnobCheck:
    """The check passing each value ``accepts`` holds for (``convert``-ed, when
    given) and refusing the rest: "<name> must be <what>, got <value>"."""

    def check(name: str, value: Any) -> Any:
        if not accepts(value):
            raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
        return value if convert is None else convert(value)

    return check


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # a bool is no integer


integer = value_check("an integer", _is_int)
positive_int = value_check("a positive integer", lambda v: _is_int(v) and v > 0)
non_negative_int = value_check("a non-negative integer", lambda v: _is_int(v) and v >= 0)
positive_seconds = value_check(
    "a positive number of seconds",
    lambda v: (_is_int(v) or isinstance(v, float)) and 0 < v < math.inf,
    float,
)
string = value_check("a string", lambda v: isinstance(v, str))
boolean = value_check("a boolean", lambda v: isinstance(v, bool))
json_object = value_check("an object", lambda v: isinstance(v, dict))
name_list = value_check(
    "a non-empty list of strings",
    lambda v: isinstance(v, list) and bool(v) and all(isinstance(n, str) for n in v),
)
path = value_check(
    "a path", lambda v: isinstance(v, (str, os.PathLike)) and bool(os.fspath(v)), Path
)


def one_of(*choices: str, what: str | None = None) -> KnobCheck:
    """A check accepting exactly ``choices``; errors read "unknown <what> ..."
    (``what`` defaults to the knob's name).  Non-strings are rejected before
    the membership test, so an unhashable wire value never reaches it."""

    def check(name: str, value: Any) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"unknown {what or name} {value!r}; expected one of {choices}")
        return value

    return check


@dataclass
class ExecutionPlan:
    """A fully-resolved execution: which algorithm, on what, with which knobs."""

    algorithm: str
    query: RTJQuery
    context: ExecutionContext
    knobs: dict[str, Any] = field(default_factory=dict)
    explanation: "PlanExplanation | None" = None


@dataclass
class RunReport:
    """Algorithm-agnostic execution report (the registry's common currency).

    ``raw`` keeps the algorithm-specific report (a
    :class:`~repro.core.TKIJResult` or a
    :class:`~repro.baselines.BaselineResult`) for callers that need the full
    detail; everything the harness tabulates is available uniformly here.
    """

    algorithm: str
    title: str
    results: list[ResultTuple]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    metrics: list[JobMetrics] = field(default_factory=list)
    explanation: "PlanExplanation | None" = None
    statistics_cached: bool | None = None
    elapsed_seconds: float | None = None
    raw: object | None = None

    @property
    def total_seconds(self) -> float:
        """End-to-end query time (statistics excluded, as in the paper)."""
        if self.elapsed_seconds is not None:
            return self.elapsed_seconds
        return sum(
            seconds for phase, seconds in self.phase_seconds.items() if phase != "statistics"
        )

    @property
    def shuffle_records(self) -> int:
        """Total engine records shuffled across all Map-Reduce phases (TKIJ's join
        ships one record per bucket batch; interval volume is ``shuffle_size``)."""
        return sum(metrics.shuffle_records for metrics in self.metrics)

    @property
    def shuffle_bytes(self) -> int:
        """Total estimated shuffle bytes across all Map-Reduce phases."""
        return sum(metrics.shuffle_bytes for metrics in self.metrics)

    @property
    def bytes_spilled(self) -> int:
        """Total bytes written to on-disk spill runs across all phases."""
        return sum(metrics.bytes_spilled for metrics in self.metrics)

    @property
    def spill_runs(self) -> int:
        """Total sorted runs spilled to disk across all phases."""
        return sum(metrics.spill_runs for metrics in self.metrics)

    @property
    def shm_segments(self) -> int:
        """Total shared-memory segments created across all phases."""
        return sum(metrics.shm_segments for metrics in self.metrics)

    def describe(self) -> dict[str, Any]:
        """Flat summary used by the experiment reports."""
        summary: dict[str, Any] = {
            "algorithm": self.algorithm,
            "results": float(len(self.results)),
            "total_seconds": self.total_seconds,
            "shuffle_records": float(self.shuffle_records),
            "shuffle_bytes": float(self.shuffle_bytes),
            "bytes_spilled": float(self.bytes_spilled),
            "spill_runs": float(self.spill_runs),
            "shm_segments": float(self.shm_segments),
        }
        summary.update(
            {f"seconds_{phase}": seconds for phase, seconds in self.phase_seconds.items()}
        )
        if self.statistics_cached is not None:
            summary["statistics_cached"] = self.statistics_cached
        if self.explanation is not None:
            summary.update(
                {f"plan_{key}": value for key, value in self.explanation.describe().items()}
            )
        return summary


class Algorithm(ABC):
    """One registered evaluation strategy (see :mod:`repro.plan.registry`).

    Class attributes describe the algorithm to generic callers: ``name`` is the
    registry key, ``title`` the display name used in result tables, ``scored``
    whether the algorithm evaluates the scored semantics of a query (``False``
    for the Boolean baselines, which force parameter set PB).
    """

    name: str = "algorithm"
    title: str = "Algorithm"
    scored: bool = True
    knobs: Mapping[str, KnobCheck] = {}
    """The plan knobs a generic caller (CLI, wire ``options``) may set, each
    with its value check — the one place a knob is declared and checked."""

    @abstractmethod
    def plan(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> ExecutionPlan:
        """Resolve a query into an executable plan (validating the knobs)."""

    @abstractmethod
    def execute(self, plan: ExecutionPlan) -> RunReport:
        """Run a plan produced by :meth:`plan` and report the execution."""

    def run(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> RunReport:
        """Convenience: plan then execute in one call."""
        return self.execute(self.plan(query, context, **knobs))

    def plan_knobs(self, options: Mapping[str, Any]) -> dict[str, Any]:
        """The options this algorithm understands: every key of :attr:`knobs`
        that ``options`` sets to a non-``None`` value (``None`` means absent).

        Generic dispatchers (the CLI's ``run`` experiment, the query server)
        collect options that not every algorithm accepts; this only picks —
        :meth:`check_knobs`, called by :meth:`plan`, checks the values.
        """
        return {name: options[name] for name in self.knobs if options.get(name) is not None}

    def check_knobs(self, **values: Any) -> None:
        """Check each non-``None`` value of a :attr:`knobs` entry (other
        keywords — Python-only objects such as a join config — pass through)."""
        for name, value in values.items():
            if name in self.knobs and value is not None:
                self.knobs[name](name, value)
