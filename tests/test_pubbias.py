"""Tests for the caliper estimate of publication bias."""
import math

import numpy as np
import pytest

from powergain import estimator, pubbias, spectrum
from powergain.estimator import TScoreSample

# Hand-checkable fixture: |t| = .5, 1, 1.8, 1.9, 1.95, 1.97, 2.1, 2.3, 2.45, 3
# With cutoff 1.96 and epsilon 0.5:
#   lower bin (1.46, 1.96]  -> 1.8, 1.9, 1.95            (3 scores)
#   upper bin (1.96, 2.46]  -> 1.97, 2.1, 2.3, 2.45      (4 scores)
FIXTURE = np.array([0.5, -1.0, 1.8, 1.90, -1.95, 1.97, 2.1, -2.3, 2.45, 3.0])


def tail_at(t, x, epsilon=0.5):
    """The EmpiricalTail of one flat sample at cutoff x."""
    return pubbias.caliper_tail(t, epsilon, x)[1]


class TestEmpiricalCdfAbs:
    """F_hat, the share of |t| <= cutoff, that caliper_tail reports."""

    def test_fixture_value(self):
        np.testing.assert_allclose(tail_at(FIXTURE, 1.96).F_hat, 0.5)

    def test_inclusive_at_the_point(self):
        assert tail_at(np.array([1.96]), 1.96).F_hat == 1.0
        assert tail_at(np.array([-1.96]), 1.96).F_hat == 1.0

    def test_uses_absolute_values(self):
        t = np.array([-0.5, -2.5, 0.5])
        np.testing.assert_allclose(tail_at(t, 1.0).F_hat, 2.0 / 3.0)


class TestEstimateTheta:
    def test_fixture_ratio(self):
        theta, tail = pubbias.caliper_tail(FIXTURE, epsilon=0.5)
        np.testing.assert_allclose(theta, 0.75)
        assert tail.count_below == 3 and tail.count_above == 4
        np.testing.assert_allclose(tail.B_minus, 0.3)
        np.testing.assert_allclose(tail.B_plus, 0.4)
        np.testing.assert_allclose(tail.F_hat, 0.5)
        assert tail.n == 10

    def test_not_clamped_above_one(self):
        t = np.array([1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1])
        theta, _ = pubbias.caliper_tail(t, epsilon=0.5)
        np.testing.assert_allclose(theta, 2.5)

    def test_empty_upper_bin_is_an_error(self):
        # caliper_tail leaves the ratio undefined; the estimators raise.
        theta, tail = pubbias.caliper_tail(np.array([0.5, 1.0, 1.8]), epsilon=0.5)
        assert np.isnan(theta) and tail.count_above == 0
        cfg = spectrum.TuningConfig(c=math.sqrt(2.0))
        b = spectrum.build_basis(cfg, 6)
        # At n = 3 the tuned epsilon is 1.39: still no |t| in (1.96, 3.35].
        sample = TScoreSample.from_scores([0.5, 1.0, 1.8])
        for run in (lambda: estimator.delta_hat_pb(sample, b, epsilon=0.5),
                    lambda: estimator.estimate(sample, cfg),
                    lambda: estimator.power_gain_curve(sample, cfg, [1.0, 2.0])):
            with pytest.raises(pubbias.CaliperError, match="caliper denominator empty"):
                run()
        # A far-out significant score does not rescue an empty bin.
        with pytest.raises(pubbias.CaliperError):
            estimator.delta_hat_pb(TScoreSample.from_scores([1.8, 3.5]), b, epsilon=0.5)

    def test_empty_lower_bin_gives_zero(self):
        theta, tail = pubbias.caliper_tail(np.array([0.5, 2.0]), epsilon=0.3)
        assert theta == 0.0
        assert tail.count_below == 0 and tail.count_above == 1

    def test_bin_edges(self):
        # Lower bin is (cv - eps, cv]; upper bin is (cv, cv + eps].
        t = np.array([1.46, 1.461, 1.96, 1.961, 2.46, 2.461])
        theta, tail = pubbias.caliper_tail(t, epsilon=0.5)
        assert tail.count_below == 2  # 1.461 and 1.96; 1.46 just misses
        assert tail.count_above == 2  # 1.961 and 2.46; 2.461 just misses
        np.testing.assert_allclose(theta, 1.0)

    def test_masks_are_the_one_bin_decision(self):
        # Scores at 0, cv - eps, cv and cv + eps and their negatives, and a
        # row with a tie at cv: the masks decide each score's bin, and
        # every count and share of the tail is a mask sum.
        cv, eps = 1.96, 0.5
        edges = [0.0, cv - eps, cv, cv + eps]
        t = np.array([edges + [-x for x in edges],
                      [cv, 0.3, 2.1, 1.8, -cv, 3.0, 2.2, 0.0]])
        theta, tail = pubbias.caliper_tail(t, eps, cv)
        for mask in (tail.insignificant, tail.lower, tail.upper):
            assert mask.shape == t.shape and mask.dtype == bool
        assert tail.insignificant[0].tolist() == [True, True, True, False] * 2
        assert tail.lower[0].tolist() == [False, False, True, False] * 2
        assert tail.upper[0].tolist() == [False, False, False, True] * 2
        assert tail.lower[1].tolist() == [True, False, False, True, True, False, False, False]
        assert not (tail.lower & ~tail.insignificant).any()
        assert not (tail.upper & tail.insignificant).any()
        np.testing.assert_array_equal(tail.count_below, tail.lower.sum(axis=1))
        np.testing.assert_array_equal(tail.count_above, tail.upper.sum(axis=1))
        np.testing.assert_array_equal(tail.F_hat, tail.insignificant.sum(axis=1) / 8)
        np.testing.assert_array_equal(theta, [1.0, 1.5])

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            pubbias.caliper_tail(FIXTURE, epsilon=0.0)

    def test_randomized_agreement_with_direct_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            t = rng.normal(0.0, 1.5, size=400)
            eps = float(rng.uniform(0.2, 0.8))
            at = np.abs(t)
            nb = int(((at > 1.96 - eps) & (at <= 1.96)).sum())
            na = int(((at > 1.96) & (at <= 1.96 + eps)).sum())
            if na == 0:
                continue
            theta, tail = pubbias.caliper_tail(t, epsilon=eps)
            np.testing.assert_allclose(theta, nb / na)
            assert (tail.count_below, tail.count_above) == (nb, na)
