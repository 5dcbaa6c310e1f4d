"""What a task carries across the process boundary.

A map task ships the job name, the mapper factory and its split; a reduce task
the job name, its own partition's reducer factory and its partition — never
the whole job.  For the TKIJ join that means no interval objects (the query a
reducer gets is bound to empty collections) and, per reducer, exactly its own
rows of the workload assignment.  The spy pickles every task the way the
process backend would, without a worker pool or a wall clock.
"""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.baselines import AllMatrixJoin
from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.mapreduce import (
    ClusterConfig,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    SerialBackend,
)
from repro.mapreduce.backends import MapTask, ReduceTask
from repro.plan import ExecutionContext, get_algorithm

INTERVAL = "repro.temporal.interval Interval"
COLLECTION = "repro.temporal.interval IntervalCollection"
ASSIGNMENT = "repro.core.distribution WorkloadAssignment"


class PicklingSpy(SerialBackend):
    """Serial execution of tasks that first go through ``pickle``, as on a pool."""

    requires_pickling = True

    def __init__(self) -> None:
        super().__init__()
        self.tasks: list[MapTask | ReduceTask] = []

    def run_tasks(self, tasks):
        shipped = [pickle.loads(pickle.dumps(task)) for task in tasks]
        for inner in shipped:
            while not isinstance(inner, (MapTask, ReduceTask)):
                inner = inner.task  # a GuardedTask, maybe inside a fault wrapper
            self.tasks.append(inner)
        return super().run_tasks(shipped)

    def of(self, job_name: str, phase: str) -> list:
        return [t for t in self.tasks if t.job_name == job_name and t.phase == phase]


def referenced_globals(obj) -> set[str]:
    """Every ``module name`` global a pickle of ``obj`` references."""
    blob = pickle.dumps(obj, protocol=2)  # protocol 2 names each global inline
    return {arg for op, arg, _ in pickletools.genops(blob) if op.name == "GLOBAL"}


def assert_data_free(query) -> None:
    assert query.collections and all(len(c) == 0 for c in query.collections.values())


def run_tkij(query, kernel: str, granules: int, plan: FaultPlan | None = None):
    spy = PicklingSpy()
    backend = spy if plan is None else FaultInjectingBackend(spy, plan)
    cluster = ClusterConfig(num_reducers=6, num_mappers=3)
    with ExecutionContext(cluster=cluster, backend=backend) as context:
        report = get_algorithm("tkij").run(query, context, num_granules=granules, kernel=kernel)
    return report.raw, spy


@pytest.fixture(scope="module")
def j1_query():
    """J1-shaped: a two-vertex ``Qb*`` star over large buckets."""
    config = SyntheticConfig(size=300, start_max=3_000.0)
    return build_query("Qb*", list(generate_collections(2, config, seed=11).values()), "P1", 30, 2)


@pytest.fixture(scope="module")
def j2_query(small_collections):
    """J2-shaped: ``Qo,m`` over three medium collections."""
    return build_query("Qo,m", small_collections, "P1", k=20)


SHAPES = (("j1_query", "vector", 12), ("j2_query", "scalar", 8))


@pytest.mark.parametrize("fixture, kernel, granules", SHAPES)
def test_join_tasks_carry_no_interval_and_only_their_rows(request, fixture, kernel, granules):
    query = request.getfixturevalue(fixture)
    report, spy = run_tkij(query, kernel, granules)
    maps, reduces = spy.of("tkij-join", "map"), spy.of("tkij-join", "reduce")
    assert maps and len(reduces) == 6
    for task in maps + reduces:
        names = referenced_globals(task)
        assert INTERVAL not in names and ASSIGNMENT not in names, task.phase
    for task in maps:
        assert not hasattr(task, "reducer_factory")
        assert COLLECTION not in referenced_globals(task)
    for task in reduces:
        factory = task.reducer_factory
        query_shipped, *_, reducer_id, rows = factory.args
        assert reducer_id == task.task_id
        assert_data_free(query_shipped)
        assert query_shipped.vertices == query.vertices and query_shipped.k == query.k
        mine = report.assignment.combinations_per_reducer[reducer_id]
        assert rows == mine and len(rows) == len(mine)
        # Nothing else rides along: the factory pickles to its parts' size.
        parts = len(pickle.dumps((query_shipped, rows, *factory.args[1:-2])))
        assert len(pickle.dumps(factory)) <= parts + 512


def test_a_fault_keyed_on_the_join_still_fires_and_retries_exactly(j1_query):
    clean, _ = run_tkij(j1_query, "vector", 12)
    plan = FaultPlan(rules=(FaultRule(action="fail", job="tkij-join", phase="reduce", task=2),))
    chaotic, _ = run_tkij(j1_query, "vector", 12, plan)
    failed = chaotic.join_metrics.failed_attempts
    assert [(f.phase, f.task_id, f.attempt) for f in failed] == [("reduce", 2, 0)]
    assert [(r.uids, r.score) for r in chaotic.results] == [
        (r.uids, r.score) for r in clean.results
    ]
    assert chaotic.join_metrics.counters.as_dict() == clean.join_metrics.counters.as_dict()
    assert chaotic.per_reducer_kth_score == clean.per_reducer_kth_score


def test_allmatrix_reducers_carry_a_data_free_query(tiny_collections):
    query = build_query("Qb,b", tiny_collections, "PB", k=10)
    spy = PicklingSpy()
    with AllMatrixJoin(ClusterConfig(num_mappers=3), backend=spy) as baseline:
        result = baseline.execute(query)
    assert result.results
    maps, reduces = spy.of("allmatrix-join", "map"), spy.of("allmatrix-join", "reduce")
    assert maps and reduces
    assert all(not hasattr(task, "reducer_factory") for task in maps)
    for task in reduces:
        assert INTERVAL not in referenced_globals(task.reducer_factory)
        assert_data_free(task.reducer_factory.args[0])
