"""Property-based tests (hypothesis) for the core invariants."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import collect_statistics, get_top_buckets, merge_top_k, update_statistics
from repro.core.bounds import BucketCombination
from repro.core.distribution import distribute_top_buckets
from repro.core.statistics import Granularity, bucket_counts
from repro.core.top_buckets import validate_selection
from repro.index import Rect, RTree, threshold_difference_range
from repro.query.graph import ResultTuple
from repro.temporal import (
    ComparatorParams,
    Interval,
    IntervalCollection,
    PredicateParams,
    equals_score,
    equals_score_range,
    greater_score,
    greater_score_range,
)
from repro.temporal.predicates import ALLEN_PREDICATES
from repro.temporal.terms import EndpointVar

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params_strategy = st.builds(
    ComparatorParams,
    lam=st.floats(0, 20, allow_nan=False),
    rho=st.floats(0, 40, allow_nan=False),
)

interval_strategy = st.builds(
    lambda s, length: Interval(0, s, s + length),
    s=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    length=st.floats(0, 500, allow_nan=False, allow_infinity=False),
)


class TestComparatorProperties:
    @_SETTINGS
    @given(
        params=params_strategy,
        d_min=st.floats(-200, 200),
        width=st.floats(0, 200),
        fraction=st.floats(0, 1),
    )
    def test_score_ranges_contain_every_point(self, params, d_min, width, fraction):
        d_max = d_min + width
        d = d_min + fraction * width
        eq_lo, eq_hi = equals_score_range(d_min, d_max, params)
        gt_lo, gt_hi = greater_score_range(d_min, d_max, params)
        assert eq_lo - 1e-9 <= equals_score(d, 0.0, params) <= eq_hi + 1e-9
        assert gt_lo - 1e-9 <= greater_score(d, 0.0, params) <= gt_hi + 1e-9

    @_SETTINGS
    @given(params=params_strategy, a=st.floats(-1e4, 1e4), b=st.floats(-1e4, 1e4))
    def test_scores_in_unit_interval(self, params, a, b):
        assert 0.0 <= equals_score(a, b, params) <= 1.0
        assert 0.0 <= greater_score(a, b, params) <= 1.0

    @_SETTINGS
    @given(
        params=params_strategy,
        threshold=st.floats(0.01, 1.0),
        d=st.floats(-300, 300),
    )
    def test_threshold_ranges_are_exact(self, params, threshold, d):
        # A score within 1e-9 of the threshold is a difference within 1e-9 * rho of
        # the range's edge (the comparators have slope 1/rho); there either answer
        # is right, so a qualifying score asserts membership with that slack.
        slack = 1e-9 * (1.0 + params.rho)
        lo_eq, hi_eq = threshold_difference_range("equals", params, threshold)
        if equals_score(d, 0.0, params) >= threshold - 1e-9:
            assert lo_eq - slack <= d <= hi_eq + slack
        elif params.rho == 0.0 or params.rho > 1e-6:
            assert not lo_eq <= d <= hi_eq
        lo_gt, _ = threshold_difference_range("greater", params, threshold)
        # The greater range is a superset (exact when rho > 0; with rho = 0 the strict
        # Boolean step cannot be expressed by a closed range, so it is only a superset).
        if greater_score(d, 0.0, params) >= threshold - 1e-9:
            assert d >= lo_gt - slack
        # Exactness holds when rho is not so small that lambda + rho*threshold rounds
        # back to lambda (the box is always a superset, which is what correctness needs).
        elif params.rho > 1e-6:
            assert d < lo_gt


class TestPredicateProperties:
    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(ALLEN_PREDICATES)),
        lam_eq=st.floats(0, 10),
        rho_eq=st.floats(0, 20),
        lam_gt=st.floats(0, 10),
        rho_gt=st.floats(0, 20),
        x=interval_strategy,
        y=interval_strategy,
    )
    def test_compiled_scorer_matches_reference(self, name, lam_eq, rho_eq, lam_gt, rho_gt, x, y):
        params = PredicateParams.of(lam_eq, rho_eq, lam_gt, rho_gt)
        predicate = ALLEN_PREDICATES[name](params)
        assert abs(predicate.compile()(x, y) - predicate.score(x, y)) < 1e-9

    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(ALLEN_PREDICATES)),
        x=interval_strategy,
        y=interval_strategy,
    )
    def test_boolean_implies_perfect_score(self, name, x, y):
        boolean = ALLEN_PREDICATES[name](PredicateParams.boolean())
        assert (boolean.score(x, y) == 1.0) == boolean.holds(x, y)

    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(ALLEN_PREDICATES)),
        xs=st.floats(0, 100),
        xe_off=st.floats(0, 100),
        ys=st.floats(0, 100),
        ye_off=st.floats(0, 100),
        box_width=st.floats(1, 50),
    )
    def test_score_range_contains_member_scores(self, name, xs, xe_off, ys, ye_off, box_width):
        predicate = ALLEN_PREDICATES[name](PredicateParams.of(4, 16, 0, 10))
        x = Interval(0, xs, xs + xe_off)
        y = Interval(1, ys, ys + ye_off)
        domains = {
            EndpointVar("x", "start"): (x.start - box_width, x.start + box_width),
            EndpointVar("x", "end"): (x.end - box_width, x.end + box_width),
            EndpointVar("y", "start"): (y.start - box_width, y.start + box_width),
            EndpointVar("y", "end"): (y.end - box_width, y.end + box_width),
        }
        lo, hi = predicate.score_range(domains)
        assert lo - 1e-9 <= predicate.score(x, y) <= hi + 1e-9


combo_strategy = st.builds(
    lambda idx, nb, lb, spread: BucketCombination(
        ("x1", "x2"),
        ((idx, idx), (idx + 1, idx + 2)),
        nb_res=nb,
        lower_bound=lb,
        upper_bound=min(1.0, lb + spread),
    ),
    idx=st.integers(0, 30),
    nb=st.integers(0, 50),
    lb=st.floats(0, 1),
    spread=st.floats(0, 1),
)


class TestTopBucketsProperties:
    @_SETTINGS
    @given(combos=st.lists(combo_strategy, min_size=1, max_size=30), k=st.integers(1, 60))
    def test_selection_satisfies_definition2(self, combos, k):
        # Deduplicate combinations sharing the same key (the space never produces duplicates).
        unique = {c.key(): c for c in combos}
        combos = list(unique.values())
        selected = get_top_buckets(combos, k)
        assert validate_selection(selected, combos, k)

    @_SETTINGS
    @given(combos=st.lists(combo_strategy, min_size=1, max_size=30), k=st.integers(1, 60))
    def test_selection_covers_k_results_when_available(self, combos, k):
        unique = {c.key(): c for c in combos}
        combos = list(unique.values())
        total = sum(c.nb_res for c in combos)
        selected = get_top_buckets(combos, k)
        assert sum(c.nb_res for c in selected) >= min(k, total)


class TestDistributionProperties:
    @_SETTINGS
    @given(
        combos=st.lists(combo_strategy, min_size=1, max_size=40),
        num_reducers=st.integers(1, 10),
    )
    def test_dtb_partitions_combinations(self, combos, num_reducers):
        unique = list({c.key(): c for c in combos}.values())
        assignment = distribute_top_buckets(unique, num_reducers)
        assigned = [c.key() for cs in assignment.combinations_per_reducer.values() for c in cs]
        assert sorted(assigned) == sorted(c.key() for c in unique)
        # Every bucket of every assigned combination reaches that reducer.
        for reducer, cs in assignment.combinations_per_reducer.items():
            for combination in cs:
                for item in combination.bucket_items():
                    assert item in assignment.buckets_per_reducer[reducer]


class TestMergeProperties:
    @_SETTINGS
    @given(
        lists=st.lists(
            st.lists(
                st.builds(
                    ResultTuple,
                    uids=st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    score=st.floats(0, 1),
                ),
                max_size=20,
            ),
            max_size=5,
        ),
        k=st.integers(1, 30),
    )
    def test_merge_equals_global_sort(self, lists, k):
        merged = merge_top_k(lists, k)
        best: dict[tuple[int, ...], float] = {}
        for chunk in lists:
            for result in chunk:
                best[result.uids] = max(best.get(result.uids, -1.0), result.score)
        expected = sorted(
            (ResultTuple(uids, score) for uids, score in best.items()),
            key=lambda r: r.sort_key(),
        )[:k]
        assert [r.uids for r in merged] == [r.uids for r in expected]
        assert [r.score for r in merged] == [r.score for r in expected]


class TestIndexProperties:
    @_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 200),
        qx=st.floats(0, 1000),
        qy=st.floats(0, 1000),
        width=st.floats(0, 500),
    )
    def test_rtree_query_matches_linear_scan(self, seed, n, qx, qy, width):
        import numpy as np

        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 1000, n)
        lengths = rng.uniform(0, 100, n)
        intervals = [
            Interval(i, float(s), float(s + l)) for i, (s, l) in enumerate(zip(starts, lengths))
        ]
        tree = RTree(intervals, leaf_capacity=8)
        box = Rect(qx, qx + width, qy, qy + width)
        expected = {x.uid for x in intervals if box.contains_point(x.start, x.end)}
        assert {x.uid for x in tree.query(box)} == expected


class TestStatisticsProperties:
    @_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 100),
        num_granules=st.integers(1, 25),
    )
    def test_buckets_contain_their_intervals(self, seed, n, num_granules):
        import numpy as np

        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 500, n)
        lengths = rng.uniform(0, 80, n)
        collection = IntervalCollection(
            "c",
            [Interval(i, float(s), float(s + l)) for i, (s, l) in enumerate(zip(starts, lengths))],
        )
        statistics = collect_statistics({"c": collection}, num_granules)
        matrix = statistics.matrix("c")
        assert matrix.total() == n
        granularity = matrix.granularity
        for interval in collection:
            bucket = granularity.bucket_of(interval)
            box = granularity.bucket_box(bucket)
            assert box.start_low - 1e-9 <= interval.start <= box.start_high + 1e-9
            assert box.end_low - 1e-9 <= interval.end <= box.end_high + 1e-9

    @_SETTINGS
    @given(
        time_min=st.floats(-1000, 1000),
        span=st.floats(0, 1000),
        num_granules=st.integers(1, 40),
        fraction=st.floats(0, 1),
    )
    def test_granule_of_always_in_range(self, time_min, span, num_granules, fraction):
        granularity = Granularity(time_min, time_min + span, num_granules)
        timestamp = time_min + fraction * span
        index = granularity.granule_of(timestamp)
        assert 0 <= index < num_granules
        low, high = granularity.granule_range(index)
        assert low - 1e-6 <= timestamp <= high + 1e-6

    @_SETTINGS
    @given(
        time_min=st.floats(-1000, 1000),
        span=st.floats(0, 1000),
        num_granules=st.integers(1, 40),
        fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50),
    )
    def test_vectorized_granules_match_scalar_elementwise(
        self, time_min, span, num_granules, fractions
    ):
        """``granules_of`` is the vectorized path of phase (a); it must equal
        ``granule_of`` exactly, including out-of-range clamping."""
        import numpy as np

        granularity = Granularity(time_min, time_min + span, num_granules)
        timestamps = np.array([time_min + fraction * span for fraction in fractions])
        batch = granularity.granules_of(timestamps)
        assert list(batch) == [granularity.granule_of(t) for t in timestamps]

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 120),
        num_granules=st.integers(1, 25),
    )
    def test_vectorized_bucket_histogram_matches_per_record_loop(
        self, seed, n, num_granules
    ):
        """One ``bincount`` over the start/end columns == per-interval ``add``."""
        import numpy as np

        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 500, n)
        ends = starts + rng.uniform(0, 80, n)
        granularity = Granularity(0.0, 500.0, num_granules)
        batched = bucket_counts(granularity, starts, ends)
        reference: dict[tuple[int, int], int] = {}
        for start, end in zip(starts, ends):
            key = (granularity.granule_of(start), granularity.granule_of(end))
            reference[key] = reference.get(key, 0) + 1
        assert batched == reference

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n_base=st.integers(2, 60),
        n_appended=st.integers(1, 40),
        num_granules=st.integers(1, 25),
    )
    def test_incremental_update_equals_collection_from_scratch(
        self, seed, n_base, n_appended, num_granules
    ):
        """Appending intervals via update_statistics == collecting over the final data.

        Appended intervals are drawn inside the base collection's time range so
        that the from-scratch collection derives identical granule boundaries —
        the comparison is then exact, across every granularity.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 500, n_base)
        lengths = rng.uniform(0, 80, n_base)
        base = [
            Interval(i, float(s), float(s + l))
            for i, (s, l) in enumerate(zip(starts, lengths))
        ]
        base_collection = IntervalCollection("c", list(base))
        low, high = base_collection.time_range()

        span = high - low
        offsets = rng.uniform(0, 1, n_appended)
        fractions = rng.uniform(0, 1, n_appended)
        appended = []
        for index, (offset, fraction) in enumerate(zip(offsets, fractions)):
            start = low + offset * span
            end = start + fraction * (high - start)
            appended.append(Interval(1000 + index, float(start), float(end)))

        incremental = collect_statistics({"c": base_collection}, num_granules)
        update_statistics(incremental, inserted={"c": appended})

        final = IntervalCollection("c", base + appended)
        scratch = collect_statistics({"c": final}, num_granules)

        assert incremental.matrix("c").granularity == scratch.matrix("c").granularity
        assert dict(incremental.matrix("c").counts) == dict(scratch.matrix("c").counts)
        assert incremental.matrix("c").total() == n_base + n_appended
