"""Tests for Boolean and scored temporal predicates (paper Figures 2 and 4)."""

import pytest

from repro.temporal import Interval, PredicateParams
from repro.temporal.comparison_plan import python_scorer
from repro.temporal.predicates import (
    ALLEN_PREDICATES,
    before,
    contains,
    equals,
    finished_by,
    just_before,
    meets,
    overlaps,
    predicate_by_name,
    shift_meets,
    sparks,
    starts,
)
from repro.temporal.terms import EndpointVar

P1 = PredicateParams.of(4, 16, 0, 10)
PB = PredicateParams.boolean()


def iv(start, end, uid=0):
    return Interval(uid, float(start), float(end))


class TestBooleanSemantics:
    """Boolean interpretation must match the Allen algebra definitions exactly."""

    def test_before(self):
        assert before(PB).holds(iv(0, 5), iv(6, 10))
        assert not before(PB).holds(iv(0, 5), iv(5, 10))
        assert not before(PB).holds(iv(0, 5), iv(3, 10))

    def test_equals(self):
        assert equals(PB).holds(iv(1, 5), iv(1, 5))
        assert not equals(PB).holds(iv(1, 5), iv(1, 6))

    def test_meets(self):
        assert meets(PB).holds(iv(0, 5), iv(5, 10))
        assert not meets(PB).holds(iv(0, 5), iv(6, 10))

    def test_overlaps(self):
        assert overlaps(PB).holds(iv(0, 6), iv(4, 10))
        assert not overlaps(PB).holds(iv(0, 6), iv(6, 10))
        assert not overlaps(PB).holds(iv(0, 12), iv(4, 10))  # containment, not overlap

    def test_contains(self):
        assert contains(PB).holds(iv(0, 12), iv(4, 10))
        assert not contains(PB).holds(iv(0, 8), iv(4, 10))

    def test_starts(self):
        assert starts(PB).holds(iv(2, 5), iv(2, 10))
        assert not starts(PB).holds(iv(2, 10), iv(2, 5))
        assert not starts(PB).holds(iv(1, 5), iv(2, 10))

    def test_finished_by(self):
        assert finished_by(PB).holds(iv(0, 10), iv(4, 10))
        assert not finished_by(PB).holds(iv(5, 10), iv(4, 10))

    def test_just_before(self):
        predicate = just_before(PB, avg_length=10.0)
        assert predicate.holds(iv(0, 5), iv(12, 20))
        assert not predicate.holds(iv(0, 5), iv(20, 30))  # gap larger than avg

    def test_shift_meets(self):
        predicate = shift_meets(PB, avg_length=10.0)
        assert predicate.holds(iv(0, 5), iv(15, 20))
        assert not predicate.holds(iv(0, 5), iv(16, 20))

    def test_sparks(self):
        predicate = sparks(PB, factor=10.0)
        assert predicate.holds(iv(0, 1), iv(2, 20))
        assert not predicate.holds(iv(0, 1), iv(2, 8))  # not 10x longer
        assert not predicate.holds(iv(0, 1), iv(0.5, 20))  # does not come after


class TestScoredSemantics:
    def test_meets_tolerance(self):
        predicate = meets(P1)
        assert predicate.score(iv(0, 10), iv(10, 20)) == 1.0
        assert predicate.score(iv(0, 10), iv(13, 20)) == 1.0  # within lambda=4
        assert predicate.score(iv(0, 10), iv(22, 30)) == pytest.approx((4 + 16 - 12) / 16)
        assert predicate.score(iv(0, 10), iv(60, 70)) == 0.0

    def test_before_single_inequality(self):
        predicate = before(P1)
        assert predicate.score(iv(0, 10), iv(30, 40)) == 1.0
        assert predicate.score(iv(0, 10), iv(15, 40)) == pytest.approx(0.5)
        assert predicate.score(iv(0, 10), iv(5, 40)) == 0.0

    def test_starts_combines_with_min(self):
        predicate = starts(P1)
        perfect = predicate.score(iv(0, 10), iv(0, 40))
        assert perfect == 1.0
        shifted = predicate.score(iv(8, 10), iv(0, 40))
        assert 0.0 < shifted < 1.0
        # The score is the min of the two comparator scores.
        assert shifted == pytest.approx((4 + 16 - 8) / 16)

    def test_score_in_unit_interval(self):
        for factory in ALLEN_PREDICATES.values():
            predicate = factory(P1)
            for x, y in [(iv(0, 5), iv(2, 9)), (iv(10, 30), iv(0, 4)), (iv(1, 1), iv(1, 1))]:
                assert 0.0 <= predicate.score(x, y) <= 1.0

    def test_boolean_params_make_score_match_holds(self):
        for factory in ALLEN_PREDICATES.values():
            predicate = factory(PB)
            pairs = [
                (iv(0, 5), iv(5, 10)),
                (iv(0, 5), iv(6, 10)),
                (iv(0, 5), iv(0, 10)),
                (iv(0, 10), iv(2, 8)),
                (iv(3, 7), iv(3, 7)),
            ]
            for x, y in pairs:
                assert (predicate.score(x, y) == 1.0) == predicate.holds(x, y)

    def test_just_before_overrides(self):
        predicate = just_before(P1, avg_length=20.0)
        # A gap of exactly avg scores 1 on the equality part; anything up to avg does.
        assert predicate.score(iv(0, 10), iv(30, 40)) == 1.0
        assert predicate.score(iv(0, 10), iv(11, 40)) == 1.0
        # y must still start strictly after x ends (Boolean greater override).
        assert predicate.score(iv(0, 10), iv(9, 40)) == 0.0

    def test_sparks_scored(self):
        predicate = sparks(P1, factor=10.0)
        # y starts well after x ends and is more than 10x longer: both conjuncts saturate.
        assert predicate.score(iv(0, 1), iv(12, 120)) == 1.0
        # The score is the min over conjuncts: here the gap conjunct dominates.
        assert predicate.score(iv(0, 1), iv(5, 30)) == pytest.approx(0.4)
        assert predicate.score(iv(0, 2), iv(5, 15)) < 1.0


class TestPredicateUtilities:
    def test_rename(self):
        predicate = meets(P1).rename("a", "b")
        variables = predicate.variables()
        assert variables == {"a", "b"}
        # Renamed predicates cannot be evaluated with the x/y convenience API but the
        # comparisons reference the new names.
        comparison = predicate.comparisons[0]
        assert {ev.var for ev in comparison.left.endpoint_vars()} == {"a"}

    def test_with_params(self):
        predicate = meets(P1).with_params(PB)
        assert predicate.params == PB
        assert predicate.score(iv(0, 10), iv(12, 20)) == 0.0

    def test_predicate_by_name(self):
        assert predicate_by_name("before", P1).name == "before"
        assert predicate_by_name("justBefore", P1, avg_length=5.0).name == "justBefore"
        assert predicate_by_name("sparks", P1).name == "sparks"
        with pytest.raises(ValueError):
            predicate_by_name("justBefore", P1)
        with pytest.raises(KeyError):
            predicate_by_name("unknown", P1)

    def test_score_range_contains_samples(self):
        predicate = starts(P1)
        domains = {
            EndpointVar("x", "start"): (0.0, 20.0),
            EndpointVar("x", "end"): (20.0, 40.0),
            EndpointVar("y", "start"): (0.0, 20.0),
            EndpointVar("y", "end"): (40.0, 60.0),
        }
        lo, hi = predicate.score_range(domains)
        for xs in (0.0, 10.0, 20.0):
            for xe in (20.0, 30.0, 40.0):
                for ys in (0.0, 10.0, 20.0):
                    for ye in (40.0, 50.0, 60.0):
                        score = predicate.score(iv(xs, xe), iv(ys, ye))
                        assert lo - 1e-12 <= score <= hi + 1e-12

    def test_compile_matches_score(self):
        intervals = [iv(0, 5), iv(3, 9), iv(9, 12), iv(20, 40), iv(7, 7)]
        for name, factory in ALLEN_PREDICATES.items():
            predicate = factory(P1)
            fast = predicate.compile()
            for x in intervals:
                for y in intervals:
                    assert fast(x, y) == pytest.approx(predicate.score(x, y)), name

    def test_compile_extended_predicates(self):
        for predicate in (just_before(P1, 10.0), shift_meets(P1, 10.0), sparks(P1)):
            fast = predicate.compile()
            x, y = iv(0, 4), iv(12, 60)
            assert fast(x, y) == pytest.approx(predicate.score(x, y))

    def test_compile_rejects_foreign_variables(self):
        predicate = meets(P1).rename("a", "b")
        with pytest.raises(ValueError):
            predicate.compile()  # default variable names no longer match
        fast = predicate.compile("a", "b")
        assert fast(iv(0, 10), iv(10, 20)) == 1.0

    def test_compile_is_memoised_per_predicate_and_variables(self):
        predicate = overlaps(P1)
        assert predicate.compile() is predicate.compile()
        assert overlaps(P1).compile() is predicate.compile()  # equal, not identical
        assert overlaps(PredicateParams.boolean()).compile() is not predicate.compile()
        # A renamed predicate, and the same one with its variables swapped,
        # are keys of their own, each scoring in its own argument order.
        renamed = predicate.rename("a", "b")
        forward, backward = renamed.compile("a", "b"), renamed.compile("b", "a")
        assert len({forward, backward, predicate.compile()}) == 3
        x, y = iv(0, 20), iv(10, 40)
        assert forward(x, y) == predicate.score(x, y) == 1.0
        assert backward(y, x) == predicate.score(x, y)
        assert backward(x, y) == predicate.score(y, x) == 0.0

    def test_printed_scorers_hold_no_names(self):
        # Variable names pick coefficient slots; they never reach the source.
        predicate = sparks(P1).rename("x')\nimport os", "y")
        source = python_scorer(predicate.comparison_plans("x')\nimport os", "y"))
        assert "import" not in source and "'" not in source
        for plan in predicate.comparison_plans("x')\nimport os", "y"):
            assert "import" not in plan.sql_case(("v0.s", "v0.e", "v1.s", "v1.e"))
