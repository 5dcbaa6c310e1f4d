"""Deterministic fault injection for the Map-Reduce substrate.

Real clusters lose tasks: workers crash, JVMs die mid-write, a node straggles
ten times past the median.  Hadoop answers with task retries and speculative
execution; this module provides the *test half* of that story — a way to make
chaos reproducible so the retry/speculation machinery can be proven correct:

* a :class:`FaultPlan` is a declarative, serialisable schedule of faults keyed
  by (job name, phase, task index, attempt number) — explicit :class:`FaultRule`
  entries, plus an optional *seeded* random component whose decisions depend
  only on the key (never on execution order or timing), so the same plan
  injects the same faults on every backend and every run;
* a :class:`FaultInjectingBackend` wraps any
  :class:`~repro.mapreduce.backends.ExecutionBackend` and applies the plan to
  the tasks flowing through it: a matching task attempt fails before execution
  (``fail``), fails after execution with its outputs discarded
  (``fail_after`` — exercising exactly-once output semantics), or is delayed
  (``delay`` — the straggler generator for speculation tests).

The engine retries failed attempts up to
:attr:`~repro.mapreduce.ClusterConfig.max_task_attempts`; as long as every
injected failure count stays below that budget, a chaotic run is
observationally identical to a fault-free one — results, counters, shuffle
volumes, everything but wall-clock time.  That invariant is enforced by the
chaos parity matrix in ``tests/test_chaos_parity.py``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from hashlib import blake2b
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..checks import (
    KnobCheck,
    boolean,
    is_int,
    is_number,
    one_of,
    positive_int,
    string,
    value_check,
)
from .backends.base import ExecutionBackend, Task, TaskFailure, TaskResult

__all__ = ["FAULT_ACTIONS", "InjectedFault", "FaultRule", "FaultPlan", "FaultInjectingBackend"]

FAULT_ACTIONS = ("fail", "fail_after", "delay")
"""Valid ``FaultRule.action`` values."""

_PHASES = ("map", "reduce", "*")


class InjectedFault(RuntimeError):
    """The synthetic failure raised/recorded by fault injection."""


def _check_fields(instance: Any, checks: Mapping[str, KnobCheck]) -> None:
    """Check (and normalise) every field of a frozen dataclass by its table row."""
    for name, check in checks.items():
        object.__setattr__(instance, name, check(name, getattr(instance, name)))


def _is_index_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(is_int(v) and v >= 0 for v in value)


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where it strikes and what it does.

    ``job`` is an ``fnmatch`` pattern over job names (``"tkij-join*"``),
    ``phase`` is ``"map"``, ``"reduce"`` or ``"*"``, ``task`` pins one task
    index (``None`` matches all) and ``attempts`` lists the attempt numbers the
    rule fires on — injecting on attempts ``(0, 1)`` under a budget of 4 means
    two failures, then a clean third attempt.

    ``delay`` sleeps ``delay_seconds`` before running the task; with
    ``delay_once`` (the default) only the *first launch* of a given attempt
    sleeps, so a speculative duplicate of the straggler runs at full speed and
    can win the race — which is exactly the scenario speculation exists for.
    (Launch-scoped state lives in the wrapper object, so it is shared on the
    thread backend; a process-pool duplicate is pickled afresh and re-fires.)
    """

    action: str
    job: str = "*"
    phase: str = "*"
    task: int | None = None
    attempts: tuple[int, ...] = (0,)
    delay_seconds: float = 0.0
    delay_once: bool = True

    def __post_init__(self) -> None:
        _check_fields(self, _RULE_FIELDS)
        if self.action == "delay" and self.delay_seconds == 0:
            raise ValueError("a delay rule needs delay_seconds > 0")

    def matches(self, job: str, phase: str, task: int, attempt: int) -> bool:
        """Whether this rule fires on one (job, phase, task, attempt) key."""
        return (
            fnmatchcase(job, self.job)
            and self.phase in ("*", phase)
            and (self.task is None or self.task == task)
            and attempt in self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, serialisable schedule of task faults.

    Explicit ``rules`` are checked first (first match wins).  The seeded random
    component then fails a pseudo-random ``failure_rate`` fraction of tasks on
    their first ``max_failures_per_task`` attempts: the decision is a keyed
    hash of ``(seed, job, phase, task)``, so it is identical across runs,
    backends and arrival orders — seeded chaos, not flaky chaos.  Keep
    ``max_failures_per_task`` below the cluster's attempt budget and every
    injected failure is retried away.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int | None = None
    failure_rate: float = 0.0
    max_failures_per_task: int = 1

    def __post_init__(self) -> None:
        _check_fields(self, _PLAN_FIELDS)
        if self.failure_rate > 0 and self.seed is None:
            raise ValueError("a random failure_rate needs a seed to stay deterministic")

    # ------------------------------------------------------------------ lookup
    def rule_for(self, job: str, phase: str, task: int, attempt: int) -> FaultRule | None:
        """The fault to inject on one task attempt, or ``None`` to run it clean."""
        for rule in self.rules:
            if rule.matches(job, phase, task, attempt):
                return rule
        if (
            self.seed is not None
            and self.failure_rate > 0
            and attempt < self.max_failures_per_task
            and self._draw(job, phase, task) < self.failure_rate
        ):
            return _SEEDED_FAILURE
        return None

    def _draw(self, job: str, phase: str, task: int) -> float:
        """Uniform [0, 1) draw keyed by (seed, job, phase, task) — order-free."""
        key = f"{self.seed}:{job}:{phase}:{task}".encode()
        digest = blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    # --------------------------------------------------------------- serialise
    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict (the ``--fault-plan`` file format)."""
        payload = asdict(self)
        payload["rules"] = [asdict(rule) for rule in self.rules]
        for rule in payload["rules"]:
            rule["attempts"] = list(rule["attempts"])
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Parse the dict form, with actionable errors on malformed input."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"fault plan must be a JSON object, got {type(payload).__name__}")
        known = {"rules", "seed", "failure_rate", "max_failures_per_task"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys {sorted(unknown)}; expected {sorted(known)}")
        rules_payload = payload.get("rules", [])
        if not isinstance(rules_payload, Sequence) or isinstance(rules_payload, (str, bytes)):
            raise ValueError("fault-plan 'rules' must be a list of rule objects")
        rules = []
        for index, rule in enumerate(rules_payload):
            if not isinstance(rule, Mapping):
                raise ValueError(f"fault-plan rule #{index} must be an object")
            try:
                rules.append(FaultRule(**rule))
            except (TypeError, ValueError) as error:
                raise ValueError(f"fault-plan rule #{index}: {error}") from None
        return cls(
            rules=tuple(rules),
            seed=payload.get("seed"),
            failure_rate=payload.get("failure_rate", 0.0),
            max_failures_per_task=payload.get("max_failures_per_task", 1),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--fault-plan``)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ValueError(f"cannot read fault plan {str(path)!r}: {error}") from error
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan {str(path)!r} is not valid JSON: {error}") from error
        return cls.from_json(payload)

    def dump(self, path: str | Path) -> Path:
        """Write the plan as JSON and return the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")
        return path


#: Each :class:`FaultRule` field's check.
_RULE_FIELDS: dict[str, KnobCheck] = {
    "action": one_of(*FAULT_ACTIONS, what="fault action"),
    "job": string,
    "phase": one_of(*_PHASES),
    "task": value_check(
        "a non-negative integer or null", lambda v: v is None or (is_int(v) and v >= 0)
    ),
    "attempts": value_check("a list of non-negative integers", _is_index_list, tuple),
    "delay_seconds": value_check(
        "a non-negative number of seconds", lambda v: is_number(v) and v >= 0, float
    ),
    "delay_once": boolean,
}

#: Each :class:`FaultPlan` field's check.
_PLAN_FIELDS: dict[str, KnobCheck] = {
    "rules": value_check(
        "a list of fault rules",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(r, FaultRule) for r in v),
        tuple,
    ),
    "seed": value_check("an integer or null", lambda v: v is None or is_int(v)),
    "failure_rate": value_check(
        "a number in [0, 1]", lambda v: is_number(v) and 0 <= v <= 1, float
    ),
    "max_failures_per_task": positive_int,
}

_SEEDED_FAILURE = FaultRule(action="fail", job="*", phase="*", task=None, attempts=())
"""Sentinel rule applied by the seeded random component (attempt gating is done
by ``rule_for``, so the sentinel's own ``attempts`` tuple is never consulted)."""


class _FaultTask:
    """One task wrapped with the fault action chosen for its attempt key.

    Fire-once delay state is launch-scoped: shared across speculative
    duplicates on the thread backend (same object), reset by pickling on the
    process backend (fresh copy per worker).
    """

    def __init__(self, task: Task, rule: FaultRule):
        self.task = task
        self.rule = rule
        self._lock = threading.Lock()
        self._delay_fired = False

    def __getstate__(self) -> dict[str, Any]:
        return {"task": self.task, "rule": self.rule}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._delay_fired = False

    def _failure(self, message: str, elapsed: float, counters=None) -> TaskFailure:
        return TaskFailure(
            task_id=self.task.task_id,
            attempt=getattr(self.task, "attempt", 0),
            error_type=InjectedFault.__name__,
            message=message,
            elapsed_seconds=elapsed,
            phase=self.task.phase,
            counters=counters,
        )

    def __call__(self) -> "TaskResult | TaskFailure":
        rule = self.rule
        if rule.action == "fail":
            return self._failure("injected fault before task execution", 0.0)
        if rule.action == "delay":
            fire = True
            if rule.delay_once:
                with self._lock:
                    fire = not self._delay_fired
                    self._delay_fired = True
            if fire:
                time.sleep(rule.delay_seconds)
            return self.task()
        # fail_after: run to completion, then discard the outputs — the
        # worker "died" after the work but before committing it.
        started = time.perf_counter()
        result = self.task()
        elapsed = time.perf_counter() - started
        if isinstance(result, TaskFailure):
            return result  # the task already failed on its own; report that
        return self._failure(
            "injected fault after task execution (outputs discarded)",
            elapsed,
            counters=result.counters,
        )


class FaultInjectingBackend(ExecutionBackend):
    """Wraps any execution backend and applies a :class:`FaultPlan` to its tasks.

    Sits *between* the engine and the real backend, so injected faults flow
    through the genuine retry and speculation machinery: the engine sees
    ordinary :class:`TaskFailure` results, the inner backend executes (and may
    speculatively duplicate) the wrapped tasks.  Everything else — pickling
    contract, worker pools, speculation counters — delegates to the inner
    backend.  ``injected_faults`` counts the rule applications for tests.
    """

    name = "fault-injecting"

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan) -> None:
        # ``inner`` must exist before the base initialiser runs: it assigns the
        # speculation counters, whose setters delegate to the inner backend.
        self.inner = inner
        self.plan = plan
        self.injected_faults = 0
        super().__init__(inner.max_workers)

    # ----------------------------------------------------------- delegation
    @property
    def requires_pickling(self) -> bool:  # type: ignore[override]
        return self.inner.requires_pickling

    @property
    def parallelism(self) -> int:
        return self.inner.parallelism

    @property
    def speculative_launches(self) -> int:  # type: ignore[override]
        return self.inner.speculative_launches

    @speculative_launches.setter
    def speculative_launches(self, value: int) -> None:
        self.inner.speculative_launches = value

    @property
    def speculative_wins(self) -> int:  # type: ignore[override]
        return self.inner.speculative_wins

    @speculative_wins.setter
    def speculative_wins(self, value: int) -> None:
        self.inner.speculative_wins = value

    # ------------------------------------------------------------ execution
    def run_tasks(self, tasks: Sequence[Task]) -> "list[TaskResult | TaskFailure]":
        wrapped: list[Task] = []
        for task in tasks:
            rule = self.plan.rule_for(
                task.job_name,
                task.phase,
                task.task_id,
                getattr(task, "attempt", 0),
            )
            if rule is None:
                wrapped.append(task)
            else:
                self.injected_faults += 1
                wrapped.append(_FaultTask(task, rule))  # type: ignore[arg-type]
        return self.inner.run_tasks(wrapped)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjectingBackend({self.inner!r}, plan={self.plan!r})"
