"""Parity matrix for the execution backends.

The correctness contract of the backend layer (DESIGN.md §3): serial, thread
and process backends must return byte-identical job outputs, shuffle counters
and TKIJ end-to-end results — only timings may differ.  The serial backend is
the reference; every test here compares the others against it.
"""

from __future__ import annotations

import pytest

from repro.core import TKIJ
from repro.datagen.network import NetworkTraceConfig, generate_network_collection
from repro.mapreduce import (
    BACKENDS,
    ClusterConfig,
    FirstElementPartitioner,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    ProcessPoolBackend,
    Reducer,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
)
from repro.temporal import IntervalCollection
from repro.experiments import build_query

BACKEND_NAMES = ("serial", "thread", "process")
PARALLEL_BACKENDS = ("thread", "process")


class TokenCountMapper(Mapper):
    def map(self, key, value):
        for word in value.split():
            self.counters.increment("words_seen")
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values):
        yield key, sum(values)


def wordcount_job(num_reducers: int = 4) -> MapReduceJob:
    return MapReduceJob(
        name="wordcount",
        mapper_factory=TokenCountMapper,
        reducer_factory=SumReducer,
        num_reducers=num_reducers,
    )


def wordcount_input(num_docs: int = 40):
    corpus = ["alpha beta gamma", "beta beta delta", "gamma alpha", "epsilon"]
    return [(i, corpus[i % len(corpus)]) for i in range(num_docs)]


def run_wordcount(backend_name: str):
    cluster = ClusterConfig(
        num_reducers=4, num_mappers=3, backend=backend_name, max_workers=2
    )
    with MapReduceEngine(cluster) as engine:
        return engine.run(wordcount_job(), wordcount_input())


class TestBackendRegistry:
    def test_known_backends(self):
        assert set(BACKENDS) == set(BACKEND_NAMES)
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("thread", 2), ThreadPoolBackend)
        assert isinstance(create_backend("process", 2), ProcessPoolBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_backend("spark")
        with pytest.raises(ValueError):
            ClusterConfig(backend="spark")

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(max_workers=0)
        with pytest.raises(ValueError):
            create_backend("thread", max_workers=-1)

    def test_pickling_contract(self):
        """Only the process backend crosses a process boundary; the engine's
        zero-copy fast path keys off this flag."""
        assert not SerialBackend().requires_pickling
        assert not ThreadPoolBackend().requires_pickling
        assert ProcessPoolBackend().requires_pickling


class TestZeroCopyFastPath:
    def test_serial_map_splits_are_not_copied(self):
        """On non-pickling backends map tasks receive the engine's own splits."""
        seen_splits = []

        class SpyBackend(SerialBackend):
            def run_tasks(self, tasks):
                seen_splits.extend(
                    task.split for task in tasks if hasattr(task, "split")
                )
                return super().run_tasks(tasks)

        engine = MapReduceEngine(ClusterConfig(num_mappers=2), backend=SpyBackend())
        engine.run(wordcount_job(), wordcount_input(8))
        assert seen_splits and all(isinstance(split, list) for split in seen_splits)

    def test_process_map_splits_are_frozen(self):
        """A pickling backend still gets the compact tuple copies."""

        class FrozenSpy(SerialBackend):
            requires_pickling = True

            def run_tasks(self, tasks):
                for task in tasks:
                    if hasattr(task, "split"):
                        assert isinstance(task.split, tuple)
                    else:
                        assert type(task.partition) is dict
                return super().run_tasks(tasks)

        engine = MapReduceEngine(ClusterConfig(num_mappers=2), backend=FrozenSpy())
        engine.run(wordcount_job(), wordcount_input(8))


class TestFirstElementPartitioner:
    def test_integer_first_element_routes_directly(self):
        partitioner = FirstElementPartitioner()
        assert partitioner.partition((3, "x", (0, 1)), 8) == 3
        assert partitioner.partition((11, "y"), 8) == 3

    def test_non_integer_first_element_falls_back_to_hash(self):
        partitioner = FirstElementPartitioner()
        index = partitioner.partition(("granule", 4), 8)
        assert 0 <= index < 8
        assert partitioner.partition(("granule", 99), 8) == index

    def test_bool_first_element_uses_hash_not_modulo(self):
        partitioner = FirstElementPartitioner()
        assert 0 <= partitioner.partition((True, "x"), 8) < 8


class TestJobParity:
    @pytest.mark.parametrize("backend_name", PARALLEL_BACKENDS)
    def test_wordcount_outputs_and_counters_match_serial(self, backend_name):
        reference = run_wordcount("serial")
        candidate = run_wordcount(backend_name)
        assert candidate.outputs == reference.outputs
        assert candidate.reducer_outputs == reference.reducer_outputs
        assert candidate.metrics.shuffle_records == reference.metrics.shuffle_records
        assert candidate.metrics.shuffle_size == reference.metrics.shuffle_size
        assert candidate.counters.as_dict() == reference.counters.as_dict()

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_task_metrics_structure(self, backend_name):
        result = run_wordcount(backend_name)
        assert [t.task_id for t in result.metrics.map_tasks] == [0, 1, 2]
        assert [t.task_id for t in result.metrics.reduce_tasks] == [0, 1, 2, 3]
        assert all(t.elapsed_seconds >= 0 for t in result.metrics.map_tasks)

    @pytest.mark.parametrize("backend_name", PARALLEL_BACKENDS)
    def test_parallel_backend_is_deterministic_across_runs(self, backend_name):
        first = run_wordcount(backend_name)
        second = run_wordcount(backend_name)
        assert first.outputs == second.outputs
        assert first.counters.as_dict() == second.counters.as_dict()

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_empty_input(self, backend_name):
        cluster = ClusterConfig(backend=backend_name, max_workers=2)
        with MapReduceEngine(cluster) as engine:
            result = engine.run(wordcount_job(), [])
        assert result.outputs == []


def _tkij_report(query, backend_name: str, num_granules: int = 8):
    cluster = ClusterConfig(
        num_reducers=6, num_mappers=3, backend=backend_name, max_workers=2
    )
    with TKIJ(num_granules=num_granules, cluster=cluster) as tkij:
        return tkij.execute(query)


def _assert_tkij_parity(query):
    reference = _tkij_report(query, "serial")
    for backend_name in PARALLEL_BACKENDS:
        report = _tkij_report(query, backend_name)
        assert [(r.uids, r.score) for r in report.results] == [
            (r.uids, r.score) for r in reference.results
        ], backend_name
        assert (
            report.join_metrics.shuffle_records
            == reference.join_metrics.shuffle_records
        ), backend_name
        assert (
            report.join_metrics.shuffle_size == reference.join_metrics.shuffle_size
        ), backend_name
        assert (
            report.join_metrics.counters.as_dict()
            == reference.join_metrics.counters.as_dict()
        ), backend_name
        assert report.per_reducer_kth_score == reference.per_reducer_kth_score, backend_name


class TestTKIJParity:
    def test_synthetic_workload(self, tiny_collections):
        query = build_query("Qs,m", tiny_collections, "P1", k=10)
        _assert_tkij_parity(query)

    def test_synthetic_sequence_workload(self, tiny_collections):
        query = build_query("Qb,b", tiny_collections, "P1", k=10)
        _assert_tkij_parity(query)

    def test_network_workload(self):
        config = NetworkTraceConfig(num_clients=20, num_servers=5, num_sessions=120)
        base = generate_network_collection(config, seed=13)
        collections = [
            IntervalCollection(f"{base.name}-{i + 1}", list(base.intervals))
            for i in range(3)
        ]
        query = build_query("Qo,o", collections, "P3", k=10)
        _assert_tkij_parity(query)


class TestTransferParity:
    """The transfer × backend × budget matrix (DESIGN.md §10).

    Every combination of transfer strategy, execution backend and memory
    budget must reproduce the plain serial in-memory run byte for byte —
    outputs, counters and the shuffle-byte accounting alike.
    """

    TRANSFER_NAMES = ("inline", "pickle", "shm")

    @staticmethod
    def _run(backend_name, transfer=None, memory_budget_bytes=None):
        cluster = ClusterConfig(
            num_reducers=4,
            num_mappers=3,
            backend=backend_name,
            max_workers=2,
            transfer=transfer,
            memory_budget_bytes=memory_budget_bytes,
        )
        with MapReduceEngine(cluster) as engine:
            return engine.run(wordcount_job(), wordcount_input())

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(transfer="carrier-pigeon")
        with pytest.raises(ValueError):
            ClusterConfig(memory_budget_bytes=0)

    def test_engine_resolves_backend_default(self):
        for backend_name, expected in (
            ("serial", "inline"),
            ("thread", "inline"),
            ("process", "pickle"),
        ):
            cluster = ClusterConfig(backend=backend_name, max_workers=2)
            with MapReduceEngine(cluster) as engine:
                assert engine.transfer.name == expected, backend_name

    @pytest.mark.parametrize("budget", (None, 1))
    @pytest.mark.parametrize("transfer", TRANSFER_NAMES)
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_wordcount_matrix(self, backend_name, transfer, budget):
        reference = self._run("serial")
        candidate = self._run(backend_name, transfer, budget)
        label = f"{backend_name}/{transfer}/budget={budget}"
        assert candidate.outputs == reference.outputs, label
        assert candidate.counters.as_dict() == reference.counters.as_dict(), label
        assert candidate.metrics.shuffle_records == reference.metrics.shuffle_records
        assert candidate.metrics.shuffle_bytes == reference.metrics.shuffle_bytes
        if budget is None:
            assert candidate.metrics.spill_runs == 0
            assert candidate.metrics.bytes_spilled == 0
        else:
            assert candidate.metrics.spill_runs > 0, label
            assert candidate.metrics.bytes_spilled > 0, label
        # Wordcount shuffles plain ints: shm has nothing columnar to share.
        assert candidate.metrics.shm_segments == 0

    def test_unbounded_runs_report_no_shuffle_regression(self):
        result = self._run("serial")
        assert result.metrics.shuffle_bytes > 0


def _tkij_transfer_report(
    query, kernel, backend_name, transfer=None, memory_budget_bytes=None
):
    from repro.core import LocalJoinConfig

    cluster = ClusterConfig(
        num_reducers=4,
        num_mappers=3,
        backend=backend_name,
        max_workers=2,
        transfer=transfer,
        memory_budget_bytes=memory_budget_bytes,
    )
    with TKIJ(
        num_granules=6,
        cluster=cluster,
        join_config=LocalJoinConfig(kernel=kernel),
    ) as tkij:
        return tkij.execute(query)


class TestTKIJTransferParity:
    """End-to-end TKIJ across shm/spill arms: every kernel ships bucket batches,
    so a budgeted scalar run spills (and stays exact) like a columnar one."""

    ARMS = (
        ("serial", "shm", None),
        ("process", "shm", None),
        ("serial", None, 2048),
        ("process", "pickle", 2048),
        ("process", "shm", 2048),
    )

    @pytest.mark.parametrize("kernel", ["vector", "scalar"])
    def test_all_arms_match_the_inline_reference(self, tiny_collections, kernel):
        import glob

        query = build_query("Qs,m", tiny_collections, "P1", k=10)
        reference = _tkij_transfer_report(query, kernel, "serial")
        for backend_name, transfer, budget in self.ARMS:
            report = _tkij_transfer_report(query, kernel, backend_name, transfer, budget)
            label = f"{backend_name}/{transfer}/budget={budget}"
            assert [(r.uids, r.score) for r in report.results] == [
                (r.uids, r.score) for r in reference.results
            ], label
            assert (
                report.join_metrics.shuffle_bytes
                == reference.join_metrics.shuffle_bytes
            ), label
            assert (
                report.join_metrics.counters.as_dict()
                == reference.join_metrics.counters.as_dict()
            ), label
            if transfer == "shm":
                assert report.join_metrics.shm_segments > 0, label
            if budget is not None:
                assert report.join_metrics.spill_runs > 0, label
                assert report.join_metrics.bytes_spilled > 0, label
        assert glob.glob("/dev/shm/tkij-shm-*") == []
        assert glob.glob("/tmp/tkij-spill-*") == []
