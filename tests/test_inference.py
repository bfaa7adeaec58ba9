"""Tests for selection weights, influence terms, and the variance estimator."""
import math

import numpy as np
import pytest

from powergain import inference, pubbias


class TestSelectionWeight:
    def test_hand_value(self):
        # theta 0.75, F 0.5: insignificant weight (0.75 + 0.25)/0.875,
        # significant weight 0.75/0.875.
        w_in = inference.selection_weight(0.5, theta=0.75, p=0.5, cutoff=1.96)
        w_out = inference.selection_weight(2.5, theta=0.75, p=0.5, cutoff=1.96)
        np.testing.assert_allclose(w_in, 1.0 / 0.875, rtol=1e-14)
        np.testing.assert_allclose(w_out, 0.75 / 0.875, rtol=1e-14)

    def test_sample_mean_is_one(self):
        # With p set to the sample share of insignificant scores the
        # weights average to exactly one — they reweight, not rescale.
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = rng.normal(0.0, 1.5, size=300)
            theta = float(rng.uniform(0.2, 1.5))
            p = float(np.mean(np.abs(t) <= 1.96))
            w = inference.selection_weight(t, theta=theta, p=p, cutoff=1.96)
            np.testing.assert_allclose(np.mean(w), 1.0, rtol=1e-12)

    def test_no_bias_means_unit_weights(self):
        t = np.linspace(-3, 3, 7)
        w = inference.selection_weight(t, theta=1.0, p=0.4, cutoff=1.96)
        np.testing.assert_allclose(w, np.ones(7))

    def test_stable_at_theta_zero(self):
        # theta = 0 with a nonzero insignificant share keeps the weight
        # finite: 1/p inside, 0 outside.
        w_in = inference.selection_weight(0.5, theta=0.0, p=0.25, cutoff=1.96)
        w_out = inference.selection_weight(2.5, theta=0.0, p=0.25, cutoff=1.96)
        np.testing.assert_allclose([w_in, w_out], [4.0, 0.0])

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError):
            inference.selection_weight(0.5, theta=0.0, p=0.0, cutoff=1.96)


class TestThetaInfluence:
    def test_mean_zero_against_own_tails(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = rng.normal(0.0, 1.5, size=500)
            eps = float(rng.uniform(0.3, 0.7))
            _, tail = pubbias.caliper_tail(t, epsilon=eps)
            if tail.count_below == 0:
                continue
            x = inference.theta_influence(t, tail.B_plus, tail.B_minus,
                                          epsilon=eps, cutoff=1.96)
            np.testing.assert_allclose(np.mean(x), 0.0, atol=1e-12)

    def test_hand_values(self):
        t = np.array([1.8, 2.1, 0.3])
        # B+ = B- = 1/3: upper row gets 1/B- = 3, lower gets -(B+/B-^2) = -3.
        x = inference.theta_influence(t, 1.0 / 3.0, 1.0 / 3.0, epsilon=0.5,
                                      cutoff=1.96)
        np.testing.assert_allclose(x, [-3.0, 3.0, 0.0])

    def test_requires_scores_below(self):
        with pytest.raises(ValueError):
            inference.theta_influence(np.array([2.0]), 0.5, 0.0, epsilon=0.5,
                                      cutoff=1.96)


class TestQhat:
    def test_zero_when_theta_zero(self):
        S = np.array([0.3, -0.1, 0.7])
        t = np.array([0.5, 2.5, 1.0])
        assert inference.q_hat(S, t, theta=0.0, F_hat=2 / 3, cutoff=1.96) == 0.0

    def test_theta_one_form(self):
        rng = np.random.default_rng(42)
        S = rng.normal(size=50)
        t = rng.normal(0.0, 1.5, size=50)
        ind = (np.abs(t) < 1.96).astype(float)
        F = float(np.mean(np.abs(t) <= 1.96))
        expected = float(np.mean(S * (ind - F)))
        np.testing.assert_allclose(
            inference.q_hat(S, t, theta=1.0, F_hat=F, cutoff=1.96), expected,
            rtol=1e-12)

    def test_scales_with_theta_squared_at_fixed_denominator(self):
        S = np.array([0.5, -0.2, 0.1, 0.9])
        t = np.array([0.5, 2.5, 1.0, 2.2])
        q1 = inference.q_hat(S, t, theta=0.3, F_hat=0.5, cutoff=1.96)
        # Doubling theta multiplies the numerator by 4 and changes the
        # denominator from (0.3 + 0.35)^2 to (0.6 + 0.2)^2.
        q2 = inference.q_hat(S, t, theta=0.6, F_hat=0.5, cutoff=1.96)
        np.testing.assert_allclose(q2 / q1, 4.0 * (0.65 / 0.8) ** 2, rtol=1e-12)


class TestInfluence:
    def test_composition(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, size=400)
        S = rng.normal(size=400)
        theta, tail = pubbias.caliper_tail(t, epsilon=0.5)
        q = inference.q_hat(S, t, theta, tail.F_hat, cutoff=1.96)
        ing = inference.InfluenceIngredients(
            theta_hat=theta, F_hat=tail.F_hat, B_plus=tail.B_plus,
            B_minus=tail.B_minus, Q_hat=q, epsilon=0.5, cutoff=1.96)
        m = inference.influence(S, t, ing)
        w = inference.selection_weight(t, theta, tail.F_hat, cutoff=1.96)
        x = inference.theta_influence(t, tail.B_plus, tail.B_minus,
                                      epsilon=0.5, cutoff=1.96)
        np.testing.assert_allclose(m, S * w + q * x, rtol=1e-12)

    def test_mean_preserves_weighted_kernel_mean(self):
        # The theta-influence part is mean zero, so the influence mean
        # equals the mean of the reweighted kernel values.
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, size=600)
        S = rng.normal(size=600)
        theta, tail = pubbias.caliper_tail(t, epsilon=0.5)
        q = inference.q_hat(S, t, theta, tail.F_hat, cutoff=1.96)
        ing = inference.InfluenceIngredients(
            theta_hat=theta, F_hat=tail.F_hat, B_plus=tail.B_plus,
            B_minus=tail.B_minus, Q_hat=q, epsilon=0.5, cutoff=1.96)
        m = inference.influence(S, t, ing)
        w = inference.selection_weight(t, theta, tail.F_hat, cutoff=1.96)
        np.testing.assert_allclose(np.mean(m), np.mean(S * w), rtol=1e-10)


class TestVarianceHat:
    def test_singleton_clusters_match_iid_form(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            v = rng.normal(size=37)
            got = inference.variance_hat(v, np.arange(37))
            iid = float(np.mean((v - v.mean()) ** 2)) / 37
            np.testing.assert_allclose(got, iid, rtol=1e-12)

    def test_single_cluster_is_zero(self):
        v = np.array([0.3, -0.4, 1.2, 0.9])
        assert inference.variance_hat(v, np.zeros(4)) == 0.0

    def test_two_cluster_hand_value(self):
        # Demeaned values: [-1, 1, -2, 2]; cluster sums 0 and 0 give 0;
        # regroup as [-1, -2] and [1, 2] for sums -3, 3 -> (9 + 9) / 16.
        v = np.array([-1.0, 1.0, -2.0, 2.0]) + 5.0
        ids = np.array(["a", "b", "a", "b"])
        np.testing.assert_allclose(inference.variance_hat(v, ids), 18.0 / 16.0)
        ids_paired = np.array(["a", "a", "b", "b"])
        np.testing.assert_allclose(inference.variance_hat(v, ids_paired), 0.0,
                                   atol=1e-16)

    def test_never_negative(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            v = rng.normal(size=n)
            ids = rng.integers(0, 5, size=n)
            assert inference.variance_hat(v, ids) >= 0.0

    def test_label_dtype_does_not_matter(self):
        v = np.array([0.5, 1.5, -0.5, 2.0])
        a = inference.variance_hat(v, np.array([1, 2, 1, 2]))
        b = inference.variance_hat(v, np.array(["s1", "s2", "s1", "s2"]))
        np.testing.assert_allclose(a, b, rtol=1e-15)


#: Labels for the factorisation tests, and whether each goes to the integer
#: keys (k code points of b bits, k * b <= 64) or to np.unique on the labels.
FACTORISE_CASES = {
    "mixed-length digits": (np.array(["9", "10", "09", "", "9", "10", "0"]), True),
    "10 digits": (np.array(["1234567890", "0123456789", "9", "1234567890"]), True),
    "11 digits": (np.array(["12345678901", "1", "12345678901", "02345678901"]), False),
    "9 lowercase": (np.array(["abcdefghi", "zz", "abcdefghi", "a"]), True),
    "10 lowercase": (np.array(["abcdefghij", "zz", "abcdefghij", "a"]), False),
    "latin-1": (np.array(["é", "ÿa", "e", "ÿ", "é", "ÿa"]), True),
    "cjk": (np.array(["中文", "中", "文中", "中文", ""]), True),
    "astral": (np.array(["😀", "😀a", "a😀😀", "😀", "\U0010ffff"]), True),
    "4 astral": (np.array(["😀😀😀😀", "😀", "a"]), False),
    "embedded nul": (np.array(["a\x00b", "a", "ab", "a\x00b", "\x00"]), True),
    "non-contiguous slice": (np.array(["b", "x", "a", "x", "b", "y", "c", "y"])[::2], True),
    "big-endian": (np.array(["中文", "é", "😀", "a", "中文"], dtype=">U2"), True),
    "integers": (np.array([30, 1, 30, 2, -5]), False),
    "objects": (np.array(["b", "a", "b", "ccc"], dtype=object), False),
}


class TestFactorise:
    @pytest.mark.parametrize("return_index", [False, True], ids=["no-index", "index"])
    @pytest.mark.parametrize("case", list(FACTORISE_CASES))
    def test_matches_unique(self, monkeypatch, case, return_index):
        labels, packed = FACTORISE_CASES[case]
        expected = np.unique(labels, return_index=return_index,
                             return_inverse=True, return_counts=True)
        sorted_dtypes = []
        real_unique = np.unique

        def recording_unique(ar, **kwargs):
            sorted_dtypes.append(np.asarray(ar).dtype)
            return real_unique(ar, **kwargs)

        monkeypatch.setattr(np, "unique", recording_unique)
        got = inference._factorise(labels, return_index=return_index)
        assert sorted_dtypes == [np.dtype(np.uint64) if packed else labels.dtype]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)


class TestConfidenceInterval:
    def test_frozen_value(self):
        lo, hi = inference.confidence_interval(0.072, 0.025 ** 2)
        np.testing.assert_allclose(lo, 0.0230009004, rtol=1e-8)
        np.testing.assert_allclose(hi, 0.1209990996, rtol=1e-8)

    def test_level_controls_width(self):
        lo90, hi90 = inference.confidence_interval(0.0, 1.0, alpha=0.10)
        lo95, hi95 = inference.confidence_interval(0.0, 1.0, alpha=0.05)
        assert hi90 < hi95 and lo90 > lo95
        np.testing.assert_allclose(hi95, 1.9599639845400540, rtol=1e-12)

    def test_zero_variance_collapses(self):
        lo, hi = inference.confidence_interval(0.3, 0.0)
        assert lo == hi == 0.3

