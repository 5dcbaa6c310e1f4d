"""Tests for monotone aggregation functions and residual thresholds."""

import pytest

from repro.temporal import AverageScore, MinScore, SumScore, WeightedSum


class TestCombine:
    def test_sum(self):
        assert SumScore().combine([0.2, 0.3, 0.5]) == pytest.approx(1.0)

    def test_average(self):
        agg = AverageScore(num_edges=2)
        assert agg.combine([1.0, 0.0]) == pytest.approx(0.5)

    def test_average_requires_exact_arity(self):
        agg = AverageScore(num_edges=2)
        with pytest.raises(ValueError):
            agg.combine([1.0])

    def test_average_rejects_non_positive_arity(self):
        with pytest.raises(ValueError):
            AverageScore(num_edges=0)

    def test_weighted_sum(self):
        agg = WeightedSum(weights=(2.0, 1.0))
        assert agg.combine([0.5, 1.0]) == pytest.approx(2.0)

    def test_weighted_sum_validation(self):
        with pytest.raises(ValueError):
            WeightedSum(weights=())
        with pytest.raises(ValueError):
            WeightedSum(weights=(1.0, -0.5))
        with pytest.raises(ValueError):
            WeightedSum(weights=(1.0,)).combine([0.5, 0.5])

    def test_min(self):
        assert MinScore().combine([0.9, 0.2, 0.5]) == pytest.approx(0.2)

    def test_bounds_are_combines(self):
        agg = AverageScore(num_edges=3)
        assert agg.upper_bound([1.0, 1.0, 0.5]) == pytest.approx(agg.combine([1.0, 1.0, 0.5]))
        assert agg.lower_bound([0.0, 0.2, 0.4]) == pytest.approx(agg.combine([0.0, 0.2, 0.4]))


class TestResidualThreshold:
    def test_average_residual(self):
        agg = AverageScore(num_edges=2)
        # Target 0.75 with the other edge at most 1.0: this edge needs >= 0.5.
        required = agg.residual_threshold(0.75, 0, [1.0, 1.0])
        assert required == pytest.approx(0.5)

    def test_average_residual_with_known_score(self):
        agg = AverageScore(num_edges=2)
        required = agg.residual_threshold(0.75, 1, [0.6, 1.0])
        assert required == pytest.approx(0.9)

    def test_sum_residual(self):
        agg = SumScore()
        required = agg.residual_threshold(1.4, 0, [1.0, 0.9])
        assert required == pytest.approx(0.5)

    def test_weighted_residual(self):
        agg = WeightedSum(weights=(2.0, 1.0))
        required = agg.residual_threshold(1.5, 0, [1.0, 1.0])
        assert required == pytest.approx(0.25)

    def test_weighted_residual_zero_weight(self):
        agg = WeightedSum(weights=(0.0, 1.0))
        assert agg.residual_threshold(0.5, 0, [1.0, 1.0]) == 0.0
        assert agg.residual_threshold(2.0, 0, [1.0, 1.0]) == float("inf")

    def test_min_residual(self):
        agg = MinScore()
        assert agg.residual_threshold(0.5, 0, [1.0, 1.0]) == pytest.approx(0.5)
        assert agg.residual_threshold(0.5, 0, [1.0, 0.3]) == float("inf")

    def test_residual_unreachable(self):
        agg = AverageScore(num_edges=2)
        # Even with this edge at 1.0 the target cannot be met.
        required = agg.residual_threshold(0.9, 0, [1.0, 0.1])
        assert required > 1.0

    def test_residual_consistency_with_combine(self):
        """If the residual is r, then a score of exactly r reaches the target."""
        agg = AverageScore(num_edges=3)
        # Edge 1 is resolved at 0.4, edge 2 is bounded by 0.7.
        estimates = [1.0, 0.4, 0.7]
        target = 0.6
        required = agg.residual_threshold(target, 0, estimates)
        achieved = agg.combine([required, estimates[1], estimates[2]])
        assert achieved == pytest.approx(target)
