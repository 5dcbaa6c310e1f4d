"""Tests for score-threshold lookups (difference ranges and threshold boxes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import CompiledPredicateQuery, threshold_difference_range
from repro.temporal import ComparatorParams, Interval, PredicateParams
from repro.temporal.predicates import (
    ALLEN_PREDICATES,
    just_before,
    meets,
    overlaps,
    shift_meets,
    sparks,
)

P1 = PredicateParams.of(4, 16, 0, 10)


def in_box(box, interval):
    return box.min_x <= interval.start <= box.max_x and box.min_y <= interval.end <= box.max_y


def make_intervals(n, seed=0, span=2000.0):
    rng = np.random.default_rng(seed)
    starts_arr = rng.uniform(0, span, n)
    lengths = rng.uniform(1, 60, n)
    return [
        Interval(i, float(s), float(s + l)) for i, (s, l) in enumerate(zip(starts_arr, lengths))
    ]


class TestThresholdDifferenceRange:
    def test_no_constraint_for_zero_threshold(self):
        lo, hi = threshold_difference_range("equals", ComparatorParams(4, 16), 0.0)
        assert lo == float("-inf") and hi == float("inf")

    def test_unsatisfiable_threshold(self):
        lo, hi = threshold_difference_range("equals", ComparatorParams(4, 16), 1.5)
        assert lo > hi

    def test_equals_range_shrinks_with_threshold(self):
        params = ComparatorParams(4, 16)
        lo_half, hi_half = threshold_difference_range("equals", params, 0.5)
        lo_one, hi_one = threshold_difference_range("equals", params, 1.0)
        assert hi_one == pytest.approx(4.0)
        assert hi_half == pytest.approx(4 + 16 * 0.5)
        assert hi_one < hi_half

    def test_greater_range(self):
        params = ComparatorParams(0, 10)
        lo, hi = threshold_difference_range("greater", params, 0.5)
        assert lo == pytest.approx(5.0)
        assert hi == float("inf")

    def test_greater_boolean(self):
        params = ComparatorParams(0, 0)
        lo, _ = threshold_difference_range("greater", params, 1.0)
        assert lo == 0.0

    def test_threshold_semantics_match_scores(self):
        """d is inside the returned range iff the comparator score at d reaches the threshold."""
        from repro.temporal import equals_score, greater_score

        params = ComparatorParams(3, 9)
        for threshold in (0.2, 0.5, 0.8, 1.0):
            lo_eq, hi_eq = threshold_difference_range("equals", params, threshold)
            lo_gt, _ = threshold_difference_range("greater", params, threshold)
            for d in np.linspace(-30, 30, 121):
                in_eq = lo_eq <= d <= hi_eq
                assert in_eq == (equals_score(d, 0.0, params) >= threshold - 1e-12)
                in_gt = d >= lo_gt
                assert in_gt == (greater_score(d, 0.0, params) >= threshold - 1e-12)


class TestThresholdBox:
    def test_meets_box_is_exact_superset(self):
        predicate = meets(P1)
        fixed = Interval(0, 100.0, 150.0)
        pool = make_intervals(400, seed=1, span=400.0)
        for threshold in (0.25, 0.5, 1.0):
            box = CompiledPredicateQuery(predicate, "x", "y").box(fixed, threshold)
            assert box is not None
            qualifying = {y.uid for y in pool if predicate.score(fixed, y) >= threshold}
            inside = {y.uid for y in pool if in_box(box, y)}
            assert qualifying <= inside

    def test_box_none_when_unreachable(self):
        predicate = meets(P1)
        assert CompiledPredicateQuery(predicate, "x", "y").box(Interval(0, 0, 10), 1.5) is None

    def test_sparks_length_conjunct_not_boxed_but_superset(self):
        predicate = sparks(P1)
        fixed = Interval(0, 10.0, 12.0)
        pool = make_intervals(300, seed=2, span=200.0)
        box = CompiledPredicateQuery(predicate, "x", "y").box(fixed, 0.5)
        assert box is not None
        qualifying = {y.uid for y in pool if predicate.score(fixed, y) >= 0.5}
        inside = {y.uid for y in pool if in_box(box, y)}
        assert qualifying <= inside

    def test_compiled_query_rejects_unknown_variable(self):
        predicate = overlaps(P1).rename("a", "b")
        with pytest.raises(ValueError):
            CompiledPredicateQuery(predicate, "a", "c")


_ENDPOINT = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
_LENGTH = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
_TEN_PREDICATES = [
    *ALLEN_PREDICATES.values(),
    lambda params: just_before(params, 7.5),
    lambda params: shift_meets(params, 7.5),
    sparks,
]


class TestSupportBox:
    @given(
        factory=st.sampled_from(_TEN_PREDICATES),
        params=st.sampled_from([P1, PredicateParams.boolean()]),
        fixed_on_left=st.booleans(),
        fixed=st.tuples(_ENDPOINT, _LENGTH),
        targets=st.lists(st.tuples(_ENDPOINT, _LENGTH), min_size=1, max_size=30),
    )
    @settings(deadline=None, max_examples=400)
    def test_every_positive_target_lies_in_the_support_box(
        self, factory, params, fixed_on_left, fixed, targets
    ):
        predicate = factory(params)
        fixed = Interval(0, fixed[0], fixed[0] + fixed[1])
        fixed_var, target_var = ("x", "y") if fixed_on_left else ("y", "x")
        box = CompiledPredicateQuery(predicate, fixed_var, target_var).support_box(fixed)
        for uid, (start, length) in enumerate(targets, start=1):
            target = Interval(uid, start, start + length)
            score = (
                predicate.score(fixed, target) if fixed_on_left else predicate.score(target, fixed)
            )
            if score > 0.0:
                assert box is not None and in_box(box, target), (predicate.name, fixed, target)
