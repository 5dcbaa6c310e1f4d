"""Tests for plan memory: fingerprints, the plan cache, the bounded statistics cache.

Repeated identical queries hit the plan cache, statistics drift misses it, LRU
churn never evicts the just-used entry, and the bounded statistics cache stays
within ``max_entries`` under multi-dataset churn.
"""

import threading

import pytest

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import (
    ExecutionContext,
    PlanCache,
    StatisticsCache,
    get_algorithm,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.plan.planner import PlanExplanation
from repro.temporal import Interval, IntervalCollection


def make_context(backend: str = "serial") -> ExecutionContext:
    return ExecutionContext(
        cluster=ClusterConfig(num_reducers=4, num_mappers=2, backend=backend, max_workers=2)
    )


def named(collections) -> dict:
    return {c.name: c for c in collections}


class TestFingerprints:
    def test_query_fingerprint_is_stable(self, tiny_collections, p1):
        a = build_query("Qs,m", tiny_collections, p1, k=10)
        b = build_query("Qs,m", tiny_collections, p1, k=10)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_query_fingerprint_distinguishes_k_and_shape(self, tiny_collections, p1):
        base = build_query("Qs,m", tiny_collections, p1, k=10)
        other_k = build_query("Qs,m", tiny_collections, p1, k=11)
        other_shape = build_query("Qb,b", tiny_collections, p1, k=10)
        prints = {query_fingerprint(q) for q in (base, other_k, other_shape)}
        assert len(prints) == 3

    def test_statistics_fingerprint_tracks_dataset_state(self, tiny_collections):
        before = statistics_fingerprint(named(tiny_collections))
        assert before == statistics_fingerprint(named(tiny_collections))
        drifted = list(tiny_collections)
        moved = [
            Interval(iv.uid, iv.start + 1.0, iv.end + 1.0)
            for iv in drifted[0]
        ]
        drifted[0] = IntervalCollection(drifted[0].name, moved)
        assert statistics_fingerprint(named(drifted)) != before



KNOBS_VECTOR = {"num_granules": 20, "strategy": "loose", "assigner": "dtb", "kernel": "vector"}
KNOBS_SWEEP = {"num_granules": 20, "strategy": "loose", "assigner": "dtb", "kernel": "sweep"}


def explanation(num_granules: int = 20) -> PlanExplanation:
    return PlanExplanation(
        algorithm="tkij",
        num_granules=num_granules,
        strategy="loose",
        assigner="dtb",
        kernel="vector",
        inputs={"probe_seconds": 1.25, "probe_cached": 0.0},
        reasons=["probed"],
    )


class TestPlanCache:
    def test_hit_miss_counters(self):
        cache = PlanCache(max_entries=4)
        assert cache.lookup("q1", "s1") is None
        cache.store("q1", "s1", KNOBS_VECTOR, explanation())
        hit = cache.lookup("q1", "s1")
        assert hit is not None
        knobs, exp = hit
        assert knobs == KNOBS_VECTOR
        assert cache.describe() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "max_entries": 4,
        }
        # A different dataset state misses even for the same query.
        assert cache.lookup("q1", "s2") is None

    def test_stored_explanations_are_probe_normalised_and_isolated(self):
        cache = PlanCache()
        cache.store("q1", "s1", KNOBS_VECTOR, explanation())
        _, exp = cache.lookup("q1", "s1")
        assert exp.inputs["probe_seconds"] == 0.0
        assert exp.inputs["probe_cached"] == 1.0
        # Hits hand out copies: annotating one must not leak into the cache.
        exp.reasons.append("annotated by caller")
        _, fresh = cache.lookup("q1", "s1")
        assert "annotated by caller" not in fresh.reasons

    def test_lru_eviction_never_drops_the_just_used_entry(self):
        cache = PlanCache(max_entries=2)
        cache.store("q1", "s1", KNOBS_VECTOR, explanation())
        cache.store("q2", "s1", KNOBS_SWEEP, explanation())
        for round_no in range(3, 10):
            assert cache.lookup("q1", "s1") is not None  # keep q1 hot
            cache.store(f"q{round_no}", "s1", KNOBS_VECTOR, explanation())
            assert cache.lookup("q1", "s1") is not None
            assert len(cache) <= 2
        assert cache.describe()["evictions"] == 7

    def test_invalidate_by_query(self):
        cache = PlanCache()
        cache.store("q1", "s1", KNOBS_VECTOR, explanation())
        cache.store("q1", "s2", KNOBS_VECTOR, explanation())
        cache.store("q2", "s1", KNOBS_SWEEP, explanation())
        assert cache.invalidate("q1") == 2
        assert cache.lookup("q2", "s1") is not None
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)


class TestAlgorithmIntegration:
    def test_second_auto_plan_hits_cache_with_identical_results(self, tiny_collections, p1):
        query = build_query("Qs,m", tiny_collections, p1, k=10)
        context = make_context()
        context.plan_cache = PlanCache(max_entries=8)
        algorithm = get_algorithm("tkij")
        first = algorithm.execute(algorithm.plan(query, context, mode="auto"))
        plan = algorithm.plan(query, context, mode="auto")
        second = algorithm.execute(plan)
        stats = context.plan_cache.describe()
        assert stats == {**stats, "hits": 1, "misses": 1, "entries": 1}
        assert any("plan cache" in reason for reason in plan.explanation.reasons)
        assert [(r.uids, r.score) for r in first.results] == [
            (r.uids, r.score) for r in second.results
        ]
        # A session view shares the plan cache by reference.
        view = context.session_view()
        algorithm.plan(query, view, mode="auto")
        assert view.plan_cache is context.plan_cache
        assert context.plan_cache.describe()["hits"] == 2

    def test_without_feedback_auto_mode_is_unchanged(self, tiny_collections, p1):
        query = build_query("Qs,m", tiny_collections, p1, k=10)
        context = make_context()
        algorithm = get_algorithm("tkij")
        plan = algorithm.plan(query, context, mode="auto")
        assert context.plan_cache is None
        assert all("plan cache" not in reason for reason in plan.explanation.reasons)


class TestBoundedStatisticsCache:
    def make_datasets(self, count: int) -> list[dict]:
        config = SyntheticConfig(size=12, start_max=200.0)
        datasets = []
        for seed in range(count):
            # Distinct names per dataset: each one occupies its own cache key.
            datasets.append(
                {
                    f"d{seed}-{c.name}": IntervalCollection(f"d{seed}-{c.name}", list(c))
                    for c in generate_collections(2, config, seed=seed).values()
                }
            )
        return datasets

    def collect(self, cache: StatisticsCache, collections: dict) -> None:
        from repro.core import collect_statistics

        cache.get_or_collect(collections, 5, lambda cols, g: collect_statistics(cols, g))

    def test_stays_within_bound_under_churn(self):
        cache = StatisticsCache(max_entries=3)
        for collections in self.make_datasets(10):
            self.collect(cache, collections)
            assert len(cache) <= 3
        assert cache.describe()["evictions"] == 7

    def test_lru_keeps_the_hot_entry(self):
        cache = StatisticsCache(max_entries=2)
        datasets = self.make_datasets(6)
        hot = datasets[0]
        self.collect(cache, hot)
        for cold in datasets[1:]:
            self.collect(cache, hot)  # touch: refreshes recency
            self.collect(cache, cold)
        assert cache.lookup(hot, 5) is not None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            StatisticsCache(max_entries=0)

    def test_generation_bump_lazily_invalidates(self):
        cache = StatisticsCache()
        collections = self.make_datasets(1)[0]
        self.collect(cache, collections)
        assert cache.lookup(collections, 5) is not None
        cache.bump_generation()
        assert cache.lookup(collections, 5) is None
        assert cache.describe()["stale_drops"] == 1
        # Recollected entries live in the new generation.
        self.collect(cache, collections)
        assert cache.lookup(collections, 5) is not None

    def test_update_counts_noops_separately(self):
        cache = StatisticsCache()
        collections = self.make_datasets(1)[0]
        self.collect(cache, collections)
        name = next(iter(collections))
        assert cache.update(inserted={"unrelated": [Interval(0, 1.0, 2.0)]}) == 0
        assert cache.describe()["updates"] == 0
        assert cache.describe()["noop_updates"] == 1
        maintained = cache.update(inserted={name: [Interval(999, 1.0, 2.0)]})
        assert maintained == 1
        assert cache.describe()["updates"] == 1
        assert cache.describe()["noop_updates"] == 1


class TestFeedbackThreadSafety:
    def test_concurrent_plan_cache_traffic_stays_bounded(self):
        cache = PlanCache(max_entries=8)
        errors: list[Exception] = []

        def churn(worker: int) -> None:
            try:
                for i in range(200):
                    key = f"q{worker}-{i % 12}"
                    cache.store(key, "s", KNOBS_VECTOR, explanation())
                    cache.lookup(key, "s")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
