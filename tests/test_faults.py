"""Fault-tolerance tests: fault plans, retries, speculation, idempotent close.

The contract under test (DESIGN.md §9): as long as injected failures stay
within the per-task attempt budget, a chaotic run is observationally identical
to a fault-free one — outputs, counters, shuffle volumes — with the chaos
visible only in the separate ``JobMetrics.failed_attempts`` /
``speculative_*`` accounting; an exhausted budget raises a structured
:class:`TaskFailedError` carrying the attempt history.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.mapreduce import (
    ClusterConfig,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    GuardedTask,
    InjectedFault,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    Reducer,
    SerialBackend,
    TaskFailedError,
    TaskFailure,
    ThreadPoolBackend,
    create_backend,
    create_cluster_backend,
)
from repro.mapreduce.backends import MapTask
from repro.plan import ExecutionContext


class CountingMapper(Mapper):
    def map(self, key, value):
        for word in value.split():
            self.counters.increment("words_seen")
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values):
        yield key, sum(values)


class ExplodingMapper(Mapper):
    """A genuinely buggy mapper: raises on one specific record."""

    def map(self, key, value):
        if key == 3:
            raise RuntimeError("mapper bug on record 3")
        yield value, 1


def wordcount_job(num_reducers: int = 3) -> MapReduceJob:
    return MapReduceJob(
        name="wordcount",
        mapper_factory=CountingMapper,
        reducer_factory=SumReducer,
        num_reducers=num_reducers,
    )


def wordcount_input(num_docs: int = 12):
    corpus = ["alpha beta", "beta gamma delta", "gamma alpha"]
    return [(i, corpus[i % len(corpus)]) for i in range(num_docs)]


def run_job(cluster: ClusterConfig):
    with MapReduceEngine(cluster) as engine:
        return engine.run(wordcount_job(), wordcount_input())


REFERENCE = None


def reference_result():
    global REFERENCE
    if REFERENCE is None:
        REFERENCE = run_job(ClusterConfig(num_mappers=3))
    return REFERENCE


class TestFaultRule:
    def test_matching(self):
        rule = FaultRule(action="fail", job="tkij-*", phase="map", task=2, attempts=(0, 1))
        assert rule.matches("tkij-join", "map", 2, 0)
        assert rule.matches("tkij-join", "map", 2, 1)
        assert not rule.matches("tkij-join", "map", 2, 2)
        assert not rule.matches("tkij-join", "reduce", 2, 0)
        assert not rule.matches("tkij-join", "map", 1, 0)
        assert not rule.matches("wordcount", "map", 2, 0)

    def test_wildcards(self):
        rule = FaultRule(action="fail")
        assert rule.matches("anything", "map", 99, 0)
        assert rule.matches("anything", "reduce", 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(action="explode")
        with pytest.raises(ValueError, match="unknown phase"):
            FaultRule(action="fail", phase="shuffle")
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultRule(action="delay")
        with pytest.raises(ValueError, match="non-negative"):
            FaultRule(action="fail", attempts=(-1,))


class TestFaultPlan:
    def test_explicit_rule_first_match_wins(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action="fail", phase="map", task=0),
                FaultRule(action="fail_after", phase="map"),
            )
        )
        assert plan.rule_for("j", "map", 0, 0).action == "fail"
        assert plan.rule_for("j", "map", 1, 0).action == "fail_after"
        assert plan.rule_for("j", "reduce", 0, 0) is None

    def test_seeded_draws_are_deterministic_and_order_free(self):
        plan = FaultPlan(seed=42, failure_rate=0.5, max_failures_per_task=2)
        keys = [("job", "map", task) for task in range(40)]
        first = [plan.rule_for(j, p, t, 0) is not None for j, p, t in keys]
        second = [plan.rule_for(j, p, t, 0) is not None for j, p, t in reversed(keys)]
        assert first == list(reversed(second))
        assert any(first) and not all(first)  # rate 0.5 hits some, not all

    def test_seeded_failures_respect_the_per_task_cap(self):
        plan = FaultPlan(seed=42, failure_rate=1.0, max_failures_per_task=2)
        assert plan.rule_for("j", "map", 0, 0) is not None
        assert plan.rule_for("j", "map", 0, 1) is not None
        assert plan.rule_for("j", "map", 0, 2) is None

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, failure_rate=0.5)
        b = FaultPlan(seed=2, failure_rate=0.5)
        decisions_a = [a.rule_for("j", "map", t, 0) is not None for t in range(64)]
        decisions_b = [b.rule_for("j", "map", t, 0) is not None for t in range(64)]
        assert decisions_a != decisions_b

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_rate"):
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(failure_rate=0.5)
        with pytest.raises(ValueError, match="max_failures_per_task"):
            FaultPlan(seed=1, failure_rate=0.5, max_failures_per_task=0)

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(action="delay", job="tkij-*", delay_seconds=0.5, delay_once=False),
                FaultRule(action="fail", phase="reduce", task=1, attempts=(0, 2)),
            ),
            seed=9,
            failure_rate=0.25,
            max_failures_per_task=2,
        )
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.load(garbled)
        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text('{"rules": "nope"}')
        with pytest.raises(ValueError, match="list of rule objects"):
            FaultPlan.load(wrong_shape)
        bad_rule = tmp_path / "rule.json"
        bad_rule.write_text('{"rules": [{"action": "fail", "oops": 1}]}')
        with pytest.raises(ValueError, match="rule #0"):
            FaultPlan.load(bad_rule)
        unknown_key = tmp_path / "key.json"
        unknown_key.write_text('{"sseed": 3}')
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.load(unknown_key)


class TestRetries:
    def test_injected_failures_are_retried_with_identical_results(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action="fail", phase="map", task=0, attempts=(0, 1)),
                FaultRule(action="fail_after", phase="reduce", task=1, attempts=(0,)),
            )
        )
        result = run_job(ClusterConfig(num_mappers=3, fault_plan=plan, max_task_attempts=4))
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.reducer_outputs == reference.reducer_outputs
        assert result.counters.as_dict() == reference.counters.as_dict()
        assert result.metrics.shuffle_records == reference.metrics.shuffle_records
        assert result.metrics.shuffle_size == reference.metrics.shuffle_size
        # The chaos is visible only in the separate failure accounting.
        assert len(result.metrics.failed_attempts) == 3
        assert result.metrics.retried_tasks == 2
        assert reference.metrics.failed_attempts == []

    def test_winning_attempt_number_is_recorded(self):
        plan = FaultPlan(rules=(FaultRule(action="fail", phase="map", task=1, attempts=(0, 1)),))
        result = run_job(ClusterConfig(num_mappers=3, fault_plan=plan))
        assert [task.attempt for task in result.metrics.map_tasks] == [0, 2, 0]
        assert [task.task_id for task in result.metrics.map_tasks] == [0, 1, 2]

    def test_fail_after_discards_outputs_and_counters_exactly_once(self):
        # The attempt runs to completion (so its counters exist) but its
        # outputs and counters must not leak into the job.
        plan = FaultPlan(rules=(FaultRule(action="fail_after", phase="map", attempts=(0,)),))
        result = run_job(ClusterConfig(num_mappers=3, fault_plan=plan))
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.counters.as_dict() == reference.counters.as_dict()
        # Every map task lost its first attempt; the discarded counters are
        # preserved on the failure records for observability.
        assert len(result.metrics.failed_attempts) == 3
        discarded = sum(
            failure.counters.get("words_seen") for failure in result.metrics.failed_attempts
        )
        assert discarded == reference.counters.get("words_seen")

    def test_exhausted_budget_raises_structured_error(self):
        plan = FaultPlan(rules=(FaultRule(action="fail", phase="map", task=0, attempts=(0, 1, 2)),))
        engine = MapReduceEngine(ClusterConfig(num_mappers=3, fault_plan=plan, max_task_attempts=3))
        with pytest.raises(TaskFailedError) as excinfo:
            engine.run(wordcount_job(), wordcount_input())
        error = excinfo.value
        assert error.job_name == "wordcount"
        assert error.phase == "map"
        assert error.task_id == 0
        assert [failure.attempt for failure in error.attempts] == [0, 1, 2]
        assert all(failure.error_type == "InjectedFault" for failure in error.attempts)
        assert "failed 3 attempt(s)" in str(error)

    def test_user_exceptions_are_captured_and_retried_to_exhaustion(self):
        # A deterministic mapper bug fails every attempt: the engine must
        # surface it as TaskFailedError with the real error type, not hang.
        job = MapReduceJob(
            name="buggy",
            mapper_factory=ExplodingMapper,
            reducer_factory=SumReducer,
            num_reducers=2,
        )
        engine = MapReduceEngine(ClusterConfig(num_mappers=2, max_task_attempts=2))
        with pytest.raises(TaskFailedError) as excinfo:
            engine.run(job, [(i, f"w{i}") for i in range(6)])
        assert len(excinfo.value.attempts) == 2
        assert excinfo.value.attempts[0].error_type == "RuntimeError"
        assert "mapper bug on record 3" in excinfo.value.attempts[0].message

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_retries_on_pool_backends_match_serial(self, backend_name):
        plan = FaultPlan(seed=5, failure_rate=0.4, max_failures_per_task=2)
        chaotic = ClusterConfig(
            num_mappers=3,
            backend=backend_name,
            max_workers=2,
            fault_plan=plan,
            max_task_attempts=4,
        )
        result = run_job(chaotic)
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.counters.as_dict() == reference.counters.as_dict()
        assert len(result.metrics.failed_attempts) > 0
        # The seeded plan injects the same faults on every backend.
        serial = run_job(
            ClusterConfig(num_mappers=3, fault_plan=plan, max_task_attempts=4)
        )
        assert [
            (failure.phase, failure.task_id, failure.attempt)
            for failure in result.metrics.failed_attempts
        ] == [
            (failure.phase, failure.task_id, failure.attempt)
            for failure in serial.metrics.failed_attempts
        ]


class TestGuardedTask:
    def test_success_passes_through(self):
        task = MapTask("wordcount", CountingMapper, task_id=0, split=((0, "a b"),))
        outcome = GuardedTask(task=task, attempt=0)()
        assert outcome.outputs == [("a", 1), ("b", 1)]

    def test_attribute_passthrough(self):
        task = MapTask("wordcount", CountingMapper, task_id=7, split=())
        guarded = GuardedTask(task=task, attempt=2)
        assert guarded.task_id == 7
        assert guarded.phase == "map"
        assert guarded.job_name == "wordcount"
        assert guarded.mapper_factory is CountingMapper
        assert guarded.attempt == 2
        with pytest.raises(AttributeError):
            guarded.partition  # noqa: B018 - map tasks have no partition
        with pytest.raises(AttributeError):
            guarded.reducer_factory  # noqa: B018 - nor a reducer

    def test_pickle_roundtrip(self):
        task = MapTask("wordcount", CountingMapper, task_id=1, split=((0, "x"),))
        guarded = pickle.loads(pickle.dumps(GuardedTask(task=task, attempt=1)))
        assert guarded.attempt == 1
        assert guarded().outputs == [("x", 1)]

    def test_injected_fault_raised_inside_a_task_is_captured(self):
        class Raises(Mapper):
            def map(self, key, value):
                raise InjectedFault("synthetic")
                yield  # pragma: no cover

        outcome = GuardedTask(task=MapTask("j", Raises, task_id=0, split=((0, "x"),)), attempt=3)()
        assert isinstance(outcome, TaskFailure)
        assert outcome.error_type == "InjectedFault"
        assert outcome.attempt == 3
        assert outcome.phase == "map"


class TestSpeculation:
    def test_backup_beats_a_delayed_straggler_on_threads(self):
        # Task 0's first launch sleeps 0.6s; with three workers the other
        # tasks finish fast, the watcher launches a backup (which skips the
        # fire-once delay) and the job completes well before the straggler.
        plan = FaultPlan(
            rules=(FaultRule(action="delay", phase="map", task=0, delay_seconds=0.6),)
        )
        cluster = ClusterConfig(
            num_mappers=4,
            backend="thread",
            max_workers=3,
            fault_plan=plan,
            speculative_slowdown=3.0,
        )
        engine = MapReduceEngine(cluster)
        started = time.perf_counter()
        result = engine.run(wordcount_job(), wordcount_input())
        elapsed = time.perf_counter() - started
        engine.close()
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.counters.as_dict() == reference.counters.as_dict()
        assert result.metrics.speculative_launches >= 1
        assert result.metrics.speculative_wins >= 1
        assert elapsed < 0.55, f"speculation should beat the 0.6s straggler, took {elapsed:.2f}s"

    def test_speculation_on_processes_preserves_results(self):
        # The pickled duplicate re-fires the injected delay, so the backup
        # rarely wins here — but results and counters must stay identical.
        plan = FaultPlan(
            rules=(FaultRule(action="delay", phase="map", task=0, delay_seconds=0.3),)
        )
        cluster = ClusterConfig(
            num_mappers=4,
            backend="process",
            max_workers=2,
            fault_plan=plan,
            speculative_slowdown=3.0,
        )
        with MapReduceEngine(cluster) as engine:
            result = engine.run(wordcount_job(), wordcount_input())
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_speculation_without_stragglers_changes_nothing(self):
        cluster = ClusterConfig(
            num_mappers=3, backend="thread", max_workers=2, speculative_slowdown=50.0
        )
        with MapReduceEngine(cluster) as engine:
            result = engine.run(wordcount_job(), wordcount_input())
        reference = reference_result()
        assert result.outputs == reference.outputs
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_failed_attempts_do_not_poison_the_straggler_median(self):
        # An injected "fail" settles near-instantly; if its duration entered
        # the median, every healthy 0.1s task would look like a straggler and
        # get a pointless duplicate launch.
        class SleepyMapper(Mapper):
            def map(self, key, value):
                time.sleep(0.1)
                yield value, 1

        plan = FaultPlan(rules=(FaultRule(action="fail", phase="map", task=0, attempts=(0,)),))
        job = MapReduceJob(
            name="sleepy",
            mapper_factory=SleepyMapper,
            reducer_factory=SumReducer,
            num_reducers=2,
        )
        cluster = ClusterConfig(
            num_mappers=4,
            num_reducers=2,
            backend="thread",
            max_workers=4,
            fault_plan=plan,
            speculative_slowdown=3.0,
        )
        with MapReduceEngine(cluster) as engine:
            result = engine.run(job, [(i, f"w{i}") for i in range(4)])
        assert len(result.metrics.failed_attempts) == 1
        assert result.metrics.speculative_launches == 0

    def test_invalid_slowdown_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(speculative_slowdown=0.9)
        with pytest.raises(ValueError):
            create_backend("thread", speculative_slowdown=1.0)


class TestFaultInjectingBackend:
    def test_delegates_pickling_contract_and_counts_injections(self):
        plan = FaultPlan(rules=(FaultRule(action="fail", phase="map", task=0, attempts=(0,)),))
        backend = FaultInjectingBackend(SerialBackend(), plan)
        assert backend.requires_pickling is False
        engine = MapReduceEngine(ClusterConfig(num_mappers=3), backend=backend)
        result = engine.run(wordcount_job(), wordcount_input())
        assert backend.injected_faults == 1
        assert result.outputs == reference_result().outputs

    def test_cluster_config_builds_the_wrapped_backend(self):
        plan = FaultPlan(rules=(FaultRule(action="fail", task=0, attempts=(0,)),))
        backend = create_cluster_backend(ClusterConfig(fault_plan=plan))
        assert isinstance(backend, FaultInjectingBackend)
        assert isinstance(backend.inner, SerialBackend)
        backend.close()

    def test_rejects_non_plan(self):
        with pytest.raises(ValueError, match="fault_plan"):
            ClusterConfig(fault_plan="not-a-plan")


class TestIdempotentClose:
    """Regression tests: close() is safe to repeat and safe after failures."""

    def test_engine_double_close(self):
        engine = MapReduceEngine(ClusterConfig(backend="thread", max_workers=2))
        engine.run(wordcount_job(), wordcount_input(4))
        engine.close()
        engine.close()  # must not raise

    def test_engine_close_after_failed_job(self):
        plan = FaultPlan(rules=(FaultRule(action="fail", attempts=(0,)),))
        engine = MapReduceEngine(
            ClusterConfig(backend="thread", max_workers=2, fault_plan=plan, max_task_attempts=1)
        )
        with pytest.raises(TaskFailedError):
            engine.run(wordcount_job(), wordcount_input(4))
        engine.close()
        engine.close()

    def test_engine_context_manager_then_explicit_close(self):
        with MapReduceEngine(ClusterConfig(backend="thread", max_workers=2)) as engine:
            engine.run(wordcount_job(), wordcount_input(4))
        engine.close()  # __exit__ already closed once

    def test_engine_stays_usable_after_close(self):
        engine = MapReduceEngine(ClusterConfig(backend="thread", max_workers=2))
        first = engine.run(wordcount_job(), wordcount_input(4))
        engine.close()
        second = engine.run(wordcount_job(), wordcount_input(4))
        engine.close()
        assert first.outputs == second.outputs

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_backend_double_close_and_reuse(self, backend_name):
        backend = create_backend(backend_name, max_workers=2)
        backend.close()
        backend.close()
        engine = MapReduceEngine(ClusterConfig(num_mappers=2), backend=backend)
        result = engine.run(wordcount_job(), wordcount_input(4))
        assert result.outputs
        backend.close()
        backend.close()

    def test_fault_backend_close_is_idempotent_and_closes_inner(self):
        inner = ThreadPoolBackend(max_workers=2)
        backend = FaultInjectingBackend(inner, FaultPlan())
        engine = MapReduceEngine(ClusterConfig(num_mappers=2), backend=backend)
        engine.run(wordcount_job(), wordcount_input(4))
        backend.close()
        backend.close()
        assert inner._executor is None

    def test_injected_backend_not_closed_by_engine(self):
        backend = ThreadPoolBackend(max_workers=2)
        engine = MapReduceEngine(ClusterConfig(num_mappers=2), backend=backend)
        engine.run(wordcount_job(), wordcount_input(4))
        engine.close()
        assert backend._executor is not None  # caller still owns the pool
        backend.close()

    def test_execution_context_double_close(self):
        context = ExecutionContext(cluster=ClusterConfig(backend="thread", max_workers=2))
        context.get_backend()
        context.close()
        context.close()
        with ExecutionContext() as inner_context:
            inner_context.get_backend()
        inner_context.close()
