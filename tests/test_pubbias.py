"""Tests for the caliper model of publication bias."""
import numpy as np
import pytest

from powergain import pubbias

# Hand-checkable fixture: |t| = .5, 1, 1.8, 1.9, 1.95, 1.97, 2.1, 2.3, 2.45, 3
# With cutoff 1.96 and epsilon 0.5:
#   lower bin (1.46, 1.96]  -> 1.8, 1.9, 1.95            (3 scores)
#   upper bin (1.96, 2.46]  -> 1.97, 2.1, 2.3, 2.45      (4 scores)
FIXTURE = np.array([0.5, -1.0, 1.8, 1.90, -1.95, 1.97, 2.1, -2.3, 2.45, 3.0])


class TestCaliperModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            pubbias.CaliperModel(theta=0.0)
        with pytest.raises(ValueError):
            pubbias.CaliperModel(theta=0.5, cutoff=-1.0)
        with pytest.raises(ValueError):
            pubbias.CaliperModel(theta=0.5, epsilon=0.0)

    def test_theta_above_one_allowed(self):
        # Favoring insignificant results is a legal model, not an error.
        assert pubbias.CaliperModel(theta=1.3).theta == 1.3


class TestWeight:
    def test_insignificant_get_theta(self):
        model = pubbias.CaliperModel(theta=0.4)
        np.testing.assert_allclose(
            pubbias.weight(np.array([0.0, 1.0, -1.5]), model), [0.4, 0.4, 0.4])

    def test_significant_get_one(self):
        model = pubbias.CaliperModel(theta=0.4)
        np.testing.assert_allclose(
            pubbias.weight(np.array([2.0, -3.5]), model), [1.0, 1.0])

    def test_boundary_counts_as_insignificant(self):
        # |t| = cv is not significant (|t| > cv is), so it gets theta.
        model = pubbias.CaliperModel(theta=0.4, cutoff=1.96)
        assert pubbias.weight(1.96, model) == 0.4
        assert pubbias.weight(-1.96, model) == 0.4


class TestEmpiricalCdfAbs:
    def test_fixture_value(self):
        np.testing.assert_allclose(pubbias.empirical_cdf_abs(FIXTURE, 1.96), 0.5)

    def test_inclusive_at_the_point(self):
        assert pubbias.empirical_cdf_abs(np.array([1.96]), 1.96) == 1.0
        assert pubbias.empirical_cdf_abs(np.array([-1.96]), 1.96) == 1.0

    def test_uses_absolute_values(self):
        t = np.array([-0.5, -2.5, 0.5])
        np.testing.assert_allclose(pubbias.empirical_cdf_abs(t, 1.0), 2.0 / 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pubbias.empirical_cdf_abs(np.array([]), 1.0)


class TestEstimateTheta:
    def test_fixture_ratio(self):
        theta, tail = pubbias.estimate_theta(FIXTURE, epsilon=0.5)
        np.testing.assert_allclose(theta, 0.75)
        assert tail.count_below == 3 and tail.count_above == 4
        np.testing.assert_allclose(tail.B_minus, 0.3)
        np.testing.assert_allclose(tail.B_plus, 0.4)
        np.testing.assert_allclose(tail.F_hat, 0.5)
        assert tail.n == 10

    def test_not_clamped_above_one(self):
        t = np.array([1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1])
        theta, _ = pubbias.estimate_theta(t, epsilon=0.5)
        np.testing.assert_allclose(theta, 2.5)

    def test_empty_upper_bin_is_an_error(self):
        with pytest.raises(pubbias.CaliperError):
            pubbias.estimate_theta(np.array([0.5, 1.0, 1.8]), epsilon=0.5)
        # A far-out significant score does not rescue an empty bin.
        with pytest.raises(pubbias.CaliperError):
            pubbias.estimate_theta(np.array([1.8, 3.5]), epsilon=0.5)

    def test_empty_lower_bin_gives_zero(self):
        theta, tail = pubbias.estimate_theta(np.array([0.5, 2.0]), epsilon=0.3)
        assert theta == 0.0
        assert tail.count_below == 0 and tail.count_above == 1

    def test_bin_edges(self):
        # Lower bin is (cv - eps, cv]; upper bin is (cv, cv + eps].
        t = np.array([1.46, 1.461, 1.96, 1.961, 2.46, 2.461])
        theta, tail = pubbias.estimate_theta(t, epsilon=0.5)
        assert tail.count_below == 2  # 1.461 and 1.96; 1.46 just misses
        assert tail.count_above == 2  # 1.961 and 2.46; 2.461 just misses
        np.testing.assert_allclose(theta, 1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            pubbias.estimate_theta(FIXTURE, epsilon=0.0)

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
            theta, tail = pubbias.estimate_theta(t, epsilon=eps)
            np.testing.assert_allclose(theta, nb / na)
            assert (tail.count_below, tail.count_above) == (nb, na)
