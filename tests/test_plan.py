"""Tests for the plan layer: registry, statistics cache, auto-planner, reports."""

import itertools
import math

import pytest

from repro.baselines import naive_boolean_matches, naive_top_k
from repro.core import KERNELS, STRATEGIES, collect_statistics, collections_by_name
from repro.core.distribution import ASSIGNERS
from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import (
    REGISTRY,
    AutoPlanner,
    ExecutionContext,
    StatisticsCache,
    available_algorithms,
    get_algorithm,
)
from repro.plan.planner import UNIT_COSTS, kernel_seconds
from repro.temporal import Interval, IntervalCollection


@pytest.fixture()
def chain_collections():
    """Collections engineered so Boolean before/overlaps/meets chains have matches."""
    c1 = IntervalCollection("c1", [Interval(0, 0, 10), Interval(1, 5, 15), Interval(2, 90, 95)])
    c2 = IntervalCollection("c2", [Interval(0, 10, 20), Interval(1, 30, 40), Interval(2, 16, 25)])
    c3 = IntervalCollection("c3", [Interval(0, 20, 30), Interval(1, 50, 60), Interval(2, 41, 42)])
    return [c1, c2, c3]


def make_context(backend: str = "serial") -> ExecutionContext:
    return ExecutionContext(
        cluster=ClusterConfig(num_reducers=4, num_mappers=2, backend=backend, max_workers=2)
    )


class TestRegistry:
    def test_registry_exposes_tkij_and_three_baselines(self):
        assert {"tkij", "tkij-streaming", "naive", "allmatrix", "rccis"} <= set(REGISTRY)
        assert len(REGISTRY) >= 5

    def test_available_algorithms_sorted(self):
        assert available_algorithms() == sorted(REGISTRY)

    def test_get_algorithm_unknown_name(self):
        with pytest.raises(KeyError, match="registered"):
            get_algorithm("not-an-algorithm")

    def test_algorithm_metadata(self):
        for name, algorithm in REGISTRY.items():
            assert algorithm.name == name
            assert algorithm.title
            assert isinstance(algorithm.scored, bool)


# Query (and parameter set) each algorithm is checked against the oracle on.
# Boolean algorithms get engineered collections with known PB matches; scored
# algorithms run the P1 parameters on the shared tiny collections.
PARITY_QUERY = {
    "tkij": ("Qo,m", "P1"),
    # On static collections the streaming evaluator degrades to one full
    # evaluation, so the oracle parity probe applies to it unchanged.
    "tkij-streaming": ("Qo,m", "P1"),
    "naive": ("Qo,m", "P1"),
    # The sqlite oracle runs in-process; the backend matrix only varies the
    # (unused) engine context, which must stay harmless.
    "sql-oracle": ("Qo,m", "P1"),
    "allmatrix": ("Qb,b", "PB"),
    "rccis": ("Qo,m", "PB"),
}


class TestRegistryParity:
    """Satellite: every registered algorithm agrees with the naive oracle."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("name", sorted(PARITY_QUERY))
    def test_matches_naive_oracle(self, name, backend, tiny_collections, chain_collections):
        assert set(PARITY_QUERY) == set(REGISTRY), (
            "every registered algorithm needs a parity probe query"
        )
        algorithm = get_algorithm(name)
        query_name, params = PARITY_QUERY[name]
        collections = tiny_collections if algorithm.scored else chain_collections
        k = 10 if algorithm.scored else 50
        query = build_query(query_name, collections, params, k=k)
        with make_context(backend) as context:
            report = algorithm.run(query, context)

        if algorithm.scored:
            expected = naive_top_k(query)
            assert len(report.results) == len(expected)
            for got, want in zip(report.results, expected):
                assert got.score == pytest.approx(want.score, abs=1e-9)
        else:
            # Boolean semantics: with k above the match count, the top-k set is
            # exactly the Boolean match set and every score is 1.0.
            expected = naive_boolean_matches(query)
            assert {r.uids for r in report.results} == {r.uids for r in expected}
            for got in report.results:
                assert got.score == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(PARITY_QUERY))
    def test_serial_and_thread_backends_agree(self, name, tiny_collections, chain_collections):
        algorithm = get_algorithm(name)
        query_name, params = PARITY_QUERY[name]
        collections = tiny_collections if algorithm.scored else chain_collections
        query = build_query(query_name, collections, params, k=10)
        outcomes = []
        for backend in ("serial", "thread"):
            with make_context(backend) as context:
                report = algorithm.run(query, context)
            outcomes.append([(r.uids, round(r.score, 9)) for r in report.results])
        assert outcomes[0] == outcomes[1]


class TestStatisticsCache:
    def test_miss_then_hit(self, tiny_collections):
        cache = StatisticsCache()
        collections = {c.name: c for c in tiny_collections}
        first, cached_first = cache.get_or_collect(collections, 4)
        second, cached_second = cache.get_or_collect(collections, 4)
        assert (cached_first, cached_second) == (False, True)
        assert second is first
        assert (cache.misses, cache.hits) == (1, 1)

    def test_distinct_granularities_are_distinct_entries(self, tiny_collections):
        cache = StatisticsCache()
        collections = {c.name: c for c in tiny_collections}
        cache.get_or_collect(collections, 4)
        cache.get_or_collect(collections, 8)
        assert len(cache) == 2
        assert cache.misses == 2

    def test_content_drift_with_same_size_and_range_invalidates(self):
        intervals = [Interval(0, 0.0, 10.0), Interval(1, 3.0, 5.0), Interval(2, 6.0, 9.0)]
        collection = IntervalCollection("c", list(intervals))
        cache = StatisticsCache()
        cache.get_or_collect({"c": collection}, 4)
        # Replace an interior interval: size and time range are unchanged, but
        # the endpoint checksum moves — the entry must not be served.
        replaced = IntervalCollection(
            "c", [intervals[0], Interval(1, 4.0, 8.0), intervals[2]]
        )
        statistics, cached = cache.get_or_collect({"c": replaced}, 4)
        assert cached is False
        bucket = statistics.matrix("c").granularity.bucket_of(Interval(1, 4.0, 8.0))
        assert statistics.matrix("c").count(bucket) >= 1

    def test_size_drift_invalidates(self):
        collection = IntervalCollection("c", [Interval(0, 0.0, 10.0), Interval(1, 4.0, 8.0)])
        cache = StatisticsCache()
        cache.get_or_collect({"c": collection}, 4)
        # Mutating the collection without cache.update() must not serve stale stats.
        collection.add(Interval(2, 1.0, 9.0))
        statistics, cached = cache.get_or_collect({"c": collection}, 4)
        assert cached is False
        assert statistics.matrix("c").total() == 3

    def test_incremental_update_keeps_entries_fresh(self):
        collection = IntervalCollection("c", [Interval(0, 0.0, 10.0), Interval(1, 4.0, 8.0)])
        cache = StatisticsCache()
        cache.get_or_collect({"c": collection}, 4)
        appended = [Interval(2, 1.0, 9.0), Interval(3, 2.0, 6.0)]
        collection.extend(appended)
        maintained = cache.update(inserted={"c": appended})
        assert maintained == 1
        statistics, cached = cache.get_or_collect({"c": collection}, 4)
        assert cached is True
        scratch = collect_statistics({"c": collection}, 4)
        assert dict(statistics.matrix("c").counts) == dict(scratch.matrix("c").counts)

    def test_update_maintains_every_granularity(self):
        collection = IntervalCollection("c", [Interval(0, 0.0, 10.0), Interval(1, 4.0, 8.0)])
        cache = StatisticsCache()
        cache.get_or_collect({"c": collection}, 2)
        cache.get_or_collect({"c": collection}, 5)
        appended = [Interval(2, 3.0, 7.0)]
        collection.extend(appended)
        assert cache.update(inserted={"c": appended}) == 2
        for granules in (2, 5):
            statistics, cached = cache.get_or_collect({"c": collection}, granules)
            assert cached is True
            assert statistics.matrix("c").total() == 3

    def test_refresh_fingerprints_after_range_extension(self):
        collection = IntervalCollection("c", [Interval(0, 0.0, 10.0), Interval(1, 4.0, 8.0)])
        cache = StatisticsCache()
        cache.get_or_collect({"c": collection}, 4)
        # The appended interval extends the collection's time range: counts stay
        # correct (clamped, per §3.2) but the fingerprint must be re-recorded.
        appended = [Interval(2, 5.0, 20.0)]
        collection.extend(appended)
        cache.update(inserted={"c": appended})
        cache.refresh_fingerprints({"c": collection})
        statistics, cached = cache.get_or_collect({"c": collection}, 4)
        assert cached is True
        assert statistics.matrix("c").total() == 3


class TestPhaseASkip:
    """Acceptance: the second query on the same dataset skips phase (a)."""

    def test_second_query_reuses_statistics(self, tiny_collections):
        query_a = build_query("Qo,m", tiny_collections, "P1", k=8)
        query_b = build_query("Qb,b", tiny_collections, "P1", k=8)
        collect_calls = []

        class CountingCache(StatisticsCache):
            def get_or_collect(self, collections, num_granules, collector=None):
                def counting_collector(cols, g):
                    collect_calls.append(g)
                    return (collector or collect_statistics)(cols, g)

                return super().get_or_collect(collections, num_granules, counting_collector)

        context = make_context()
        context.statistics = CountingCache()
        with context:
            tkij = get_algorithm("tkij")
            first = tkij.run(query_a, context, num_granules=4)
            second = tkij.run(query_b, context, num_granules=4)

        # Phase (a) ran exactly once: one collection call, the second run is a
        # recorded cache hit with no further collection work.
        assert collect_calls == [4]
        assert first.statistics_cached is False
        assert second.statistics_cached is True
        assert context.statistics.hits == 1
        assert context.statistics.misses == 1
        # Both queries still return the exact answer.
        assert [round(r.score, 9) for r in second.results] == [
            round(r.score, 9) for r in naive_top_k(query_b)
        ]

    def test_updated_dataset_is_served_incrementally(self, tiny_collections):
        # Private copies: this test mutates its collections.
        collections = [
            IntervalCollection(c.name, list(c.intervals)) for c in tiny_collections
        ]
        first_collection = collections[0]
        query = build_query("Qo,m", collections, "P1", k=8)
        context = make_context()
        with context:
            tkij = get_algorithm("tkij")
            tkij.run(query, context, num_granules=4)
            low, high = first_collection.time_range()
            span = high - low
            appended = [
                Interval(2000 + i, low + 0.1 * i * span, low + (0.1 * i + 0.2) * span)
                for i in range(6)
            ]
            first_collection.extend(appended)
            context.statistics.update(inserted={first_collection.name: appended})
            report = tkij.run(query, context, num_granules=4)
            assert report.statistics_cached is True
            expected = naive_top_k(query)
            assert [round(r.score, 9) for r in report.results] == [
                round(r.score, 9) for r in expected
            ]


class TestAutoPlanner:
    def test_choices_are_valid_and_explained(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            knobs, explanation = AutoPlanner().plan(query, context)
        assert knobs["strategy"] in STRATEGIES
        assert knobs["assigner"] in ASSIGNERS
        assert knobs["num_granules"] in AutoPlanner().granule_candidates
        assert explanation.reasons
        assert explanation.inputs["k"] == 8.0
        assert explanation.inputs["num_vertices"] == 3.0
        assert "g=" in explanation.summary()

    def test_deterministic(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            first, _ = AutoPlanner().plan(query, context)
            second, _ = AutoPlanner().plan(query, context)
        assert first == second

    def test_boolean_query_gets_lpt(self, tiny_collections):
        query = build_query("Qb,b", tiny_collections, "PB", k=8)
        with make_context() as context:
            knobs, explanation = AutoPlanner().plan(query, context)
        assert knobs["assigner"] == "lpt"
        assert any("lpt" in reason for reason in explanation.reasons)

    def test_scored_query_gets_dtb(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            knobs, _ = AutoPlanner().plan(query, context)
        assert knobs["assigner"] == "dtb"

    def test_choice_visible_in_result_and_report(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            report = get_algorithm("tkij").run(query, context, mode="auto")
        assert report.explanation is not None
        assert report.raw.plan_explanation is report.explanation
        summary = report.raw.describe()
        assert summary["plan_strategy"] == report.explanation.strategy
        assert summary["plan_num_granules"] == report.explanation.num_granules
        assert report.describe()["plan_assigner"] == report.explanation.assigner

    def test_explicit_kernel_over_an_auto_plan_explains_itself(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        tkij = get_algorithm("tkij")
        with make_context() as context:
            priced = tkij.plan(query, context, mode="auto").explanation.kernel
            forced = next(kernel for kernel in KERNELS if kernel != priced)
            plan = tkij.plan(query, context, mode="auto", kernel=forced)
        assert plan.knobs["join_config"].kernel == plan.explanation.kernel == forced
        assert plan.explanation.reasons[-1] == (
            f"kernel={forced}: set explicitly; the priced pick was {priced}"
        )

    def test_auto_plan_still_exact(self, tiny_collections):
        query = build_query("Qs,f,m", tiny_collections, "P1", k=10)
        with make_context() as context:
            report = get_algorithm("tkij").run(query, context, mode="auto")
        expected = naive_top_k(query)
        assert [round(r.score, 9) for r in report.results] == [
            round(r.score, 9) for r in expected
        ]

    def test_first_auto_run_not_reported_as_cached(self, tiny_collections):
        # Even when the planner's chosen granularity equals the probe's, the
        # probe itself collected statistics — the first run must not claim a
        # cache hit, and the probe's cost must land in the statistics phase.
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            first = get_algorithm("tkij").run(query, context, mode="auto")
            second = get_algorithm("tkij").run(query, context, mode="auto")
        assert first.statistics_cached is False
        assert second.statistics_cached is True
        assert first.explanation.inputs["probe_cached"] == 0.0
        assert first.phase_seconds["statistics"] >= first.explanation.inputs["probe_seconds"]

    def test_unknown_plan_mode_rejected(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            with pytest.raises(ValueError, match="plan mode"):
                get_algorithm("tkij").plan(query, context, mode="psychic")


def uniform_query(shape, count, size, start_max, k, seed):
    """A Table-1 query over the paper's uniform workload (lengths 1-100)."""
    config = SyntheticConfig(size=size, start_max=start_max)
    collections = list(generate_collections(count, config, seed=seed).values())
    return build_query(shape, collections, "P1", k=k, num_vertices=count)


def true_combinations(query, num_granules):
    statistics = collect_statistics(collections_by_name(query), num_granules)
    return math.prod(
        statistics.nonempty_bucket_count(query.collections[vertex].name)
        for vertex in query.vertices
    )


# J2- and J1-shaped jobs of the perf ledger's scale_auto workload (the latter
# scaled down), and two Table-1 shapes on tiny collections.
REGRET_WORKLOADS = {
    "J2": ("Qo,m", 3, 150, 100_000.0, 20),
    "J1": ("Qb*", 2, 600, 6_000.0, 50),
    "Qs,f,m": ("Qs,f,m", 3, 60, 100_000.0, 10),
    "Qf,b": ("Qf,b", 3, 60, 100_000.0, 10),
}
# Where the dry run's uniform-score assumption is known to cost more than the
# bound (DESIGN.md §6): strict, so a fix has to retire its entry.
KNOWN_REGRET = {
    ("J1", 4, 3): "rows tied at a saturated upper bound count for nothing at the "
    "frontier: one reducer walks one row too many, which biases towards fine g",
    ("Qs,f,m", 4, 5): "sparse predicates: nearly every tuple of a [0, 1] row scores 0, "
    "so the walk is ~30x longer than priced at every g and the ranking is noise",
}
REGRET_CASES = [
    pytest.param(
        *case,
        marks=[pytest.mark.xfail(reason=KNOWN_REGRET[case], strict=True)]
        if case in KNOWN_REGRET
        else [],
    )
    for case in itertools.product(REGRET_WORKLOADS, (4, 8), (3, 5))
]


class TestPricedPlans:
    """The planner prices candidates from exact counts; no wall clock anywhere."""

    @pytest.mark.parametrize("name, num_reducers, seed", REGRET_CASES)
    def test_auto_pick_is_within_regret_of_the_best_manual_plan(self, name, num_reducers, seed):
        # Every granularity x {scalar, vector} runs manually and is scored from
        # its *own* counters with the planner's unit table; the plan the planner
        # picked from statistics alone must score within 1.5x of the best.
        query = uniform_query(*REGRET_WORKLOADS[name], seed=seed)
        total = sum(len(query.collections[vertex]) for vertex in query.vertices)
        algorithm = get_algorithm("tkij")
        scores = {}
        with ExecutionContext(cluster=ClusterConfig(num_reducers=num_reducers)) as context:
            for num_granules in AutoPlanner().granule_candidates:
                statistics, _ = context.statistics.get_or_collect(
                    collections_by_name(query), num_granules
                )
                buckets = sum(
                    statistics.nonempty_bucket_count(query.collections[vertex].name)
                    for vertex in query.vertices
                )
                for kernel in ("scalar", "vector"):
                    raw = algorithm.run(
                        query, context, num_granules=num_granules, kernel=kernel
                    ).raw
                    examined = raw.local_join_stats.candidates_examined
                    # Steps at the mean bucket length, each scanning that bucket.
                    score = (
                        raw.top_buckets.total_combinations * UNIT_COSTS["loose_per_combination"]
                        + raw.top_buckets.selected_count * UNIT_COSTS["dtb_per_combination"]
                        + kernel_seconds(kernel, examined * buckets / total, examined, examined)
                    )
                    scores[num_granules, kernel] = score
            knobs, _ = AutoPlanner().plan(query, context)
        # Sweep and vector examine the same candidates; they share a score.
        kernel = "scalar" if knobs["kernel"] == "scalar" else "vector"
        assert scores[knobs["num_granules"], kernel] <= 1.5 * min(scores.values())

    @pytest.mark.parametrize(
        "name, num_reducers, seed", itertools.product(REGRET_WORKLOADS, (4, 8), (3, 5))
    )
    def test_early_stopped_walk_finds_the_argmin(self, name, num_reducers, seed):
        # plan() walks the granularities finest first and stops at the first
        # dearer one; pricing every candidate on its own must find nothing cheaper.
        planner = AutoPlanner()
        query = uniform_query(*REGRET_WORKLOADS[name], seed=seed)
        with ExecutionContext(cluster=ClusterConfig(num_reducers=num_reducers)) as context:
            _, chosen = planner.plan(query, context)
            alone = [
                AutoPlanner(granule_candidates=(g,)).plan(query, context)[1].candidates[0]
                for g in planner.granule_candidates
            ]
        cheapest = min(
            (plan for plan in alone if plan.combinations <= planner.combination_budget),
            key=lambda plan: plan.seconds,
        )
        assert chosen.candidates[0].knobs() == cheapest.knobs()

    def test_estimated_combinations_are_the_true_product(self):
        for name in ("J2", "J1"):
            query = uniform_query(*REGRET_WORKLOADS[name], seed=3)
            with make_context() as context:
                knobs, explanation = AutoPlanner().plan(query, context)
            assert explanation.inputs["estimated_combinations"] == true_combinations(
                query, knobs["num_granules"]
            )
            assert explanation.candidates[0].combinations == true_combinations(
                query, knobs["num_granules"]
            )

    def test_chosen_granularity_is_a_cache_hit_for_execute(self):
        query = uniform_query(*REGRET_WORKLOADS["J2"], seed=3)
        with make_context() as context:
            knobs, _ = AutoPlanner().plan(query, context)
            # Only the winner is retained: later cache.update calls maintain one
            # entry, not one per candidate granularity.
            assert len(context.statistics) == 1
            _, cached = context.statistics.get_or_collect(
                collections_by_name(query), knobs["num_granules"]
            )
        assert cached

    def test_never_plans_a_tight_strategy(self):
        # HEAD planned brute-force for J2 (0.5 s of solver per suite) and, with
        # exact counts alone, two-phase over Qs,f,m's whole space (25 s).
        for shape, size, k in (("Qo,m", 150, 20), ("Qs,f,m", 200, 10)):
            query = uniform_query(shape, 3, size, 100_000.0, k, seed=5)
            with make_context() as context:
                knobs, explanation = AutoPlanner().plan(query, context)
            assert knobs["strategy"] == explanation.strategy == "loose"
            assert any(reason.startswith("strategy=loose") for reason in explanation.reasons)

    def test_process_backend_with_vector_kernel_leaves_transfer_unset(self):
        query = uniform_query("Qb*", 2, 2_000, 20_000.0, 100, seed=7)
        with make_context("process") as context:
            knobs, explanation = AutoPlanner().plan(query, context)
        assert knobs["kernel"] == "vector"
        assert "transfer" not in knobs

    def test_warm_repeat_prices_the_retained_entry_without_recounting(self, monkeypatch):
        from repro.plan import planner

        counted = []

        def counting(collections, num_granules):
            counted.append(num_granules)
            return collect_statistics(collections, num_granules)

        monkeypatch.setattr(planner, "collect_statistics", counting)
        query = uniform_query(*REGRET_WORKLOADS["J2"], seed=3)
        with make_context() as context:
            first, cold = AutoPlanner().plan(query, context)
            retained = context.statistics.lookup(collections_by_name(query), first["num_granules"])
            assert first["num_granules"] in counted
            assert cold.inputs["probe_cached"] == 0.0
            counted.clear()
            second, warm = AutoPlanner().plan(query, context)
            # The retained entry is priced as execute() will enumerate it: the
            # same object, not a recount of its granularity.
            assert first["num_granules"] not in counted
            assert warm.inputs["probe_cached"] == 1.0
            assert (
                context.statistics.lookup(collections_by_name(query), first["num_granules"])
                is retained
            )
        assert second == first

    def test_explanation_carries_the_priced_table(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            knobs, explanation = AutoPlanner().plan(query, context)
        best = explanation.candidates[0]
        assert best.knobs() == {k: knobs[k] for k in ("num_granules", "kernel")}
        assert explanation.candidates == sorted(
            explanation.candidates, key=lambda plan: plan.seconds
        )
        assert best.seconds == pytest.approx(
            best.bounds_seconds + best.distribution_seconds + best.join_seconds
        )
        assert explanation.margin >= 1.0
        assert str(best.num_granules) in explanation.priced_table(3).splitlines()[1]
        # describe() stays flat: chosen knobs plus scalar inputs.
        assert all(
            isinstance(value, (int, float, str)) for value in explanation.describe().values()
        )

    def test_manual_mode_never_reaches_the_planner(self, tiny_collections, monkeypatch):
        def forbidden(self, query, context):
            raise AssertionError("manual mode must not plan")

        monkeypatch.setattr(AutoPlanner, "plan", forbidden)
        query = build_query("Qo,m", tiny_collections, "P1", k=8)
        with make_context() as context:
            for name in ("tkij", "tkij-streaming"):
                report = get_algorithm(name).run(query, context, num_granules=5)
                assert report.explanation is None
                assert len(report.results) == 8


class TestRunReport:
    def test_tkij_report_contents(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=5)
        with make_context() as context:
            report = get_algorithm("tkij").run(query, context, num_granules=4)
        assert report.algorithm == "tkij"
        assert set(report.phase_seconds) == {
            "statistics", "top_buckets", "distribution", "join", "merge",
        }
        assert report.total_seconds > 0
        assert report.shuffle_records > 0
        described = report.describe()
        assert described["results"] == 5.0
        assert described["statistics_cached"] is False

    def test_baseline_report_has_phase_seconds_by_job(self, chain_collections):
        query = build_query("Qo,m", chain_collections, "PB", k=5)
        with make_context() as context:
            report = get_algorithm("rccis").run(query, context)
        assert set(report.phase_seconds) == {"rccis-replication", "rccis-join"}
        assert report.raw.name == "RCCIS"

    def test_naive_rejects_knobs(self, tiny_collections):
        query = build_query("Qo,m", tiny_collections, "P1", k=5)
        with make_context() as context:
            with pytest.raises(ValueError, match="no knobs"):
                get_algorithm("naive").plan(query, context, num_granules=4)

    def test_plan_knobs_pick_per_algorithm_options(self):
        options = {"mode": "auto", "num_granules": 40, "num_partitions": 6}
        assert get_algorithm("rccis").plan_knobs(options) == {"num_granules": 40}
        assert get_algorithm("allmatrix").plan_knobs(options) == {"num_partitions": 6}
        assert get_algorithm("naive").plan_knobs(options) == {}
        tkij_knobs = get_algorithm("tkij").plan_knobs(options)
        assert tkij_knobs["mode"] == "auto"
        assert tkij_knobs["num_granules"] == 40

    def test_rccis_granule_knob_honoured(self, chain_collections):
        query = build_query("Qo,m", chain_collections, "PB", k=5)
        with make_context() as context:
            plan = get_algorithm("rccis").plan(query, context, num_granules=6)
            report = get_algorithm("rccis").execute(plan)
        assert plan.knobs["num_granules"] == 6
        # The join phase runs one reducer per granule.
        join_metrics = report.metrics[1]
        assert len(join_metrics.reduce_tasks) == 6
