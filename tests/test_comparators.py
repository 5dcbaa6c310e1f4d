"""Tests for the equals/greater approximation comparators (paper Figure 3)."""

import pytest

from repro.temporal import (
    ComparatorParams,
    PredicateParams,
    equals_score,
    equals_score_range,
    greater_score,
    greater_score_range,
)


class TestComparatorParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ComparatorParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            ComparatorParams(0.0, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        # The scorers print lambda and rho as literals; NaN passes `< 0`.
        with pytest.raises(ValueError, match="finite"):
            ComparatorParams(value, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ComparatorParams(1.0, value)

    def test_predicate_params_of(self):
        params = PredicateParams.of(4, 16, 0, 10)
        assert params.equals == ComparatorParams(4, 16)
        assert params.greater == ComparatorParams(0, 10)

    def test_boolean_params(self):
        params = PredicateParams.boolean()
        assert params.equals == ComparatorParams(0, 0)
        assert params.greater == ComparatorParams(0, 0)


class TestEqualsScore:
    def test_within_lambda_is_one(self):
        params = ComparatorParams(4, 16)
        assert equals_score(10, 12, params) == 1.0
        assert equals_score(10, 14, params) == 1.0

    def test_beyond_lambda_plus_rho_is_zero(self):
        params = ComparatorParams(4, 16)
        assert equals_score(10, 31, params) == 0.0
        assert equals_score(10, 200, params) == 0.0

    def test_linear_in_between(self):
        params = ComparatorParams(4, 16)
        # |d| = 12 -> (4 + 16 - 12) / 16 = 0.5
        assert equals_score(22, 10, params) == pytest.approx(0.5)
        assert equals_score(10, 22, params) == pytest.approx(0.5)

    def test_boolean_fallback(self):
        params = ComparatorParams(0, 0)
        assert equals_score(5, 5, params) == 1.0
        assert equals_score(5, 5.001, params) == 0.0

    def test_lambda_only(self):
        params = ComparatorParams(3, 0)
        assert equals_score(5, 8, params) == 1.0
        assert equals_score(5, 8.5, params) == 0.0


class TestGreaterScore:
    def test_saturation(self):
        params = ComparatorParams(0, 10)
        assert greater_score(30, 10, params) == 1.0

    def test_zero_when_not_greater(self):
        params = ComparatorParams(0, 10)
        assert greater_score(10, 30, params) == 0.0
        assert greater_score(10, 10, params) == 0.0

    def test_linear_region(self):
        params = ComparatorParams(0, 10)
        assert greater_score(15, 10, params) == pytest.approx(0.5)

    def test_lambda_shift(self):
        params = ComparatorParams(2, 8)
        assert greater_score(12, 10, params) == 0.0
        assert greater_score(16, 10, params) == pytest.approx(0.5)
        assert greater_score(20, 10, params) == 1.0

    def test_boolean_fallback_strict(self):
        params = ComparatorParams(0, 0)
        assert greater_score(10.0, 10.0, params) == 0.0
        assert greater_score(10.001, 10.0, params) == 1.0


class TestScoreRanges:
    def test_equals_range_containing_zero(self):
        params = ComparatorParams(4, 16)
        lo, hi = equals_score_range(-2.0, 30.0, params)
        assert hi == 1.0
        assert lo == equals_score(30.0, 0.0, params)

    def test_equals_range_all_positive(self):
        params = ComparatorParams(4, 16)
        lo, hi = equals_score_range(8.0, 12.0, params)
        assert hi == equals_score(8.0, 0.0, params)
        assert lo == equals_score(12.0, 0.0, params)

    def test_equals_range_all_negative(self):
        params = ComparatorParams(4, 16)
        lo, hi = equals_score_range(-12.0, -8.0, params)
        assert hi == equals_score(-8.0, 0.0, params)
        assert lo == equals_score(-12.0, 0.0, params)

    def test_greater_range_monotone(self):
        params = ComparatorParams(0, 10)
        lo, hi = greater_score_range(-5.0, 5.0, params)
        assert lo == 0.0
        assert hi == pytest.approx(0.5)

    def test_empty_ranges_rejected(self):
        params = ComparatorParams(0, 10)
        with pytest.raises(ValueError):
            equals_score_range(5.0, 4.0, params)
        with pytest.raises(ValueError):
            greater_score_range(5.0, 4.0, params)

    def test_ranges_are_exact_on_samples(self):
        params = ComparatorParams(3, 7)
        d_min, d_max = -4.0, 9.0
        samples = [d_min + i * (d_max - d_min) / 50 for i in range(51)]
        eq_values = [equals_score(d, 0.0, params) for d in samples]
        gt_values = [greater_score(d, 0.0, params) for d in samples]
        eq_lo, eq_hi = equals_score_range(d_min, d_max, params)
        gt_lo, gt_hi = greater_score_range(d_min, d_max, params)
        assert eq_lo <= min(eq_values) and max(eq_values) <= eq_hi
        assert gt_lo <= min(gt_values) and max(gt_values) <= gt_hi
        # The bounds are attained (within sampling resolution).
        assert max(eq_values) == pytest.approx(eq_hi, abs=0.05)
        assert min(gt_values) == pytest.approx(gt_lo, abs=0.05)
