"""Tests for selection weights, influence terms, and the variance estimator.

W, X and Q are read off ``influence`` and ``q_hat`` on a ``caliper_tail``:
X = 0 outside both caliper bins, so m = S W there; at theta = 0, Q = 0 and
m = S W everywhere; at theta = 1, W = 1 and X = (m - S) / Q.
"""
import math

import numpy as np
import pytest

from powergain import inference, pubbias


def tail_of(t, epsilon=0.5):
    return pubbias.caliper_tail(np.asarray(t, dtype=float), epsilon)[1]


def weights(theta, tail):
    """W from its formula: (theta + (1 - theta) 1{|t| <= cv}) / (theta + (1 - theta) F)."""
    return (theta + (1 - theta) * tail.insignificant) / (theta + (1 - theta) * tail.F_hat)


class TestSelectionWeight:
    def test_hand_value(self):
        # theta 0.75, F 0.5: insignificant weight (0.75 + 0.25)/0.875,
        # significant weight 0.75/0.875.  1.8 and 2.1 fill the bins.
        tail = tail_of([0.5, 2.5, 1.8, 2.1])
        w_in, w_out = inference.influence(np.ones(4), 0.75, tail)[:2]
        np.testing.assert_allclose(w_in, 1.0 / 0.875, rtol=1e-14)
        np.testing.assert_allclose(w_out, 0.75 / 0.875, rtol=1e-14)

    def test_sample_mean_is_one(self):
        # With F the sample share of insignificant scores the weights
        # average to exactly one — they reweight, not rescale.  With S = 1
        # the X term adds Q * mean(X) = 0.
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = rng.normal(0.0, 1.5, size=300)
            theta = float(rng.uniform(0.2, 1.5))
            tail = tail_of(t)
            assert tail.count_below > 0
            w = inference.influence(np.ones(300), theta, tail)
            np.testing.assert_allclose(np.mean(w), 1.0, rtol=1e-12)

    def test_no_bias_means_unit_weights(self):
        t = np.append(np.linspace(-3, 3, 7), 1.8)
        tail = tail_of(t)
        S = np.arange(8.0) - 3.0
        m = inference.influence(S, 1.0, tail)
        out = ~(tail.lower | tail.upper)  # X = 0, so m = S W
        assert out.sum() == 5
        np.testing.assert_allclose(m[out], S[out])

    def test_stable_at_theta_zero(self):
        # theta = 0 with a nonzero insignificant share keeps the weight
        # finite: 1/F inside, 0 outside.  Q = 0, so m = W everywhere.
        tail = tail_of([0.5, 2.5, 1.8, 2.1, 3.0, 3.5, 4.0, 4.5])
        assert tail.F_hat == 0.25
        w = inference.influence(np.ones(8), 0.0, tail)
        np.testing.assert_allclose(w, [4.0, 0.0, 4.0] + [0.0] * 5)


class TestThetaInfluence:
    def test_mean_zero_against_own_tails(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = rng.normal(0.0, 1.5, size=500)
            S = rng.normal(size=500)
            eps = float(rng.uniform(0.3, 0.7))
            tail = tail_of(t, eps)
            if tail.count_below == 0:
                continue
            x = (inference.influence(S, 1.0, tail) - S) / inference.q_hat(S, 1.0, tail)
            np.testing.assert_allclose(np.mean(x), 0.0, atol=1e-12)

    def test_hand_values(self):
        t = np.array([1.8, 2.1, 0.3])
        S = np.array([1.0, 0.0, 0.0])
        tail = tail_of(t)
        # B+ = B- = 1/3: upper row gets 1/B- = 3, lower gets -(B+/B-^2) = -3.
        x = (inference.influence(S, 1.0, tail) - S) / inference.q_hat(S, 1.0, tail)
        np.testing.assert_allclose(x, [-3.0, 3.0, 0.0])


class TestQhat:
    def test_zero_when_theta_zero(self):
        S = np.array([0.3, -0.1, 0.7])
        assert inference.q_hat(S, 0.0, tail_of([0.5, 2.5, 1.0])) == 0.0

    def test_theta_one_form(self):
        rng = np.random.default_rng(42)
        S = rng.normal(size=50)
        t = rng.normal(0.0, 1.5, size=50)
        ind = (np.abs(t) < 1.96).astype(float)
        F = float(np.mean(np.abs(t) <= 1.96))
        expected = float(np.mean(S * (ind - F)))
        np.testing.assert_allclose(inference.q_hat(S, 1.0, tail_of(t)), expected, rtol=1e-12)

    def test_scales_with_theta_squared_at_fixed_denominator(self):
        S = np.array([0.5, -0.2, 0.1, 0.9])
        tail = tail_of([0.5, 2.5, 1.0, 2.2])
        q1 = inference.q_hat(S, 0.3, tail)
        # Doubling theta multiplies the numerator by 4 and changes the
        # denominator from (0.3 + 0.35)^2 to (0.6 + 0.2)^2.
        q2 = inference.q_hat(S, 0.6, tail)
        np.testing.assert_allclose(q2 / q1, 4.0 * (0.65 / 0.8) ** 2, rtol=1e-12)


class TestInfluence:
    def test_composition(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, size=400)
        S = rng.normal(size=400)
        theta, tail = pubbias.caliper_tail(t, epsilon=0.5)
        q = inference.q_hat(S, theta, tail)
        m = inference.influence(S, theta, tail)
        x = tail.upper / tail.B_minus - tail.B_plus / tail.B_minus ** 2 * tail.lower
        np.testing.assert_allclose(m, S * weights(theta, tail) + q * x, rtol=1e-12)

    def test_mean_preserves_weighted_kernel_mean(self):
        # The theta-influence part is mean zero, so the influence mean
        # equals the mean of the reweighted kernel values.
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, size=600)
        S = rng.normal(size=600)
        theta, tail = pubbias.caliper_tail(t, epsilon=0.5)
        m = inference.influence(S, theta, tail)
        np.testing.assert_allclose(np.mean(m), np.mean(S * weights(theta, tail)), rtol=1e-10)


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
        assert inference.variance_hat(v, np.zeros(4, dtype=int)) == 0.0

    def test_two_cluster_hand_value(self):
        # Demeaned values: [-1, 1, -2, 2]; cluster sums 0 and 0 give 0;
        # regroup as [-1, -2] and [1, 2] for sums -3, 3 -> (9 + 9) / 16.
        v = np.array([-1.0, 1.0, -2.0, 2.0]) + 5.0
        ids = np.unique(["a", "b", "a", "b"], return_inverse=True)[1]
        np.testing.assert_allclose(inference.variance_hat(v, ids), 18.0 / 16.0)
        ids_paired = np.unique(["a", "a", "b", "b"], return_inverse=True)[1]
        np.testing.assert_allclose(inference.variance_hat(v, ids_paired), 0.0,
                                   atol=1e-16)

    def test_never_negative(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            v = rng.normal(size=n)
            ids = np.unique(rng.integers(0, 5, size=n), return_inverse=True)[1]
            assert inference.variance_hat(v, ids) >= 0.0

    @pytest.mark.parametrize("codes", [
        np.array(["s1", "s2", "s1", "s2"]),
        np.array([0.0, 1.0, 0.0, 1.0]),
        np.array([-1, 0, 1, 2]),
        np.array([0, 1, 2, 4]),
    ], ids=["strings", "floats", "negative", "at-or-above-n"])
    def test_refuses_anything_but_codes_below_n(self, codes):
        # Labels are encoded by the sample constructors, never here.
        with pytest.raises(ValueError, match=r"integers in \[0, n\)"):
            inference.variance_hat(np.array([0.5, 1.5, -0.5, 2.0]), codes)


#: Labels for the factorisation tests, and how each is sorted: on integer
#: keys (k code points of b bits, k * b <= 64), or by np.unique on the labels
#: (None).  Where the raw code points do not fit beside the row bits, b counts
#: the offsets from the smallest code point, plus 1 (4 bits for digits, 5 for
#: lowercase).  Integer keys are sorted as (key, row) words by ``_pair_sort``
#: ("pair") where the row bits fit beside the key bits, and by np.argsort
#: ("argsort") where they do not (here "astral", whose offsets still take 21
#: bits).
FACTORISE_CASES = {
    "mixed-length digits": (np.array(["9", "10", "09", "", "9", "10", "0"]), "pair"),
    "10 digits": (np.array(["1234567890", "0123456789", "9", "1234567890"]), "pair"),
    "11 digits": (np.array(["12345678901", "1", "12345678901", "02345678901"]), "pair"),
    "17 digits": (np.array(["12345678901234567", "1", "12345678901234567"]), None),
    "9 lowercase": (np.array(["abcdefghi", "zz", "abcdefghi", "a"]), "pair"),
    "10 lowercase": (np.array(["abcdefghij", "zz", "abcdefghij", "a"]), "pair"),
    "13 lowercase": (np.array(["abcdefghijklm", "zz", "abcdefghijklm", "a"]), None),
    "latin-1": (np.array(["é", "ÿa", "e", "ÿ", "é", "ÿa"]), "pair"),
    "cjk": (np.array(["中文", "中", "文中", "中文", ""]), "pair"),
    "astral": (np.array(["😀", "😀a", "a😀😀", "😀", "\U0010ffff"]), "argsort"),
    "4 astral": (np.array(["😀😀😀😀", "😀", "a"]), None),
    "embedded nul": (np.array(["a\x00b", "a", "ab", "a\x00b", "\x00"]), "pair"),
    "non-contiguous slice": (np.array(["b", "x", "a", "x", "b", "y", "c", "y"])[::2], "pair"),
    "big-endian": (np.array(["中文", "é", "😀", "a", "中文"], dtype=">U2"), "pair"),
    "integers": (np.array([30, 1, 30, 2, -5]), None),
    "objects": (np.array(["b", "a", "b", "ccc"], dtype=object), None),
}


@pytest.fixture
def sorts(monkeypatch):
    """What each factorisation sorts, in call order: "pair" for a
    ``_pair_sort`` of uint64 words, "argsort" for an ``np.argsort`` of
    uint64 keys, else the dtype handed to ``np.unique``."""
    seen = []
    real_unique, real_argsort, real_pair_sort = np.unique, np.argsort, inference._pair_sort

    def recording_unique(ar, **kwargs):
        seen.append(np.asarray(ar).dtype)
        return real_unique(ar, **kwargs)

    def recording_argsort(a, *args, **kwargs):
        dtype = np.asarray(a).dtype
        seen.append("argsort" if dtype == np.uint64 else ("argsort", dtype))
        return real_argsort(a, *args, **kwargs)

    def recording_pair_sort(*args):
        seen.append("pair")
        return real_pair_sort(*args)

    monkeypatch.setattr(np, "unique", recording_unique)
    monkeypatch.setattr(np, "argsort", recording_argsort)
    monkeypatch.setattr(inference, "_pair_sort", recording_pair_sort)
    return seen


def assert_unique_codes(got, labels, *, stable=False):
    """``got`` is (codes, counts), equal in values and dtypes to NumPy's
    inverse and counts; ``stable`` takes them from the variant that also
    returns the first index, which sorts stably."""
    expected = np.unique(labels, return_index=stable, return_inverse=True,
                         return_counts=True)[-2:]
    assert len(got) == 2
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)


class TestFactorise:
    @pytest.mark.parametrize("stable", [False, True], ids=["no-index", "index"])
    @pytest.mark.parametrize("case", list(FACTORISE_CASES))
    def test_matches_unique(self, sorts, case, stable):
        labels, path = FACTORISE_CASES[case]
        got = inference._factorise(labels)
        assert sorts == [path or labels.dtype]
        assert_unique_codes(got, labels, stable=stable)


#: Alphabets of the random factorisation cases: code points of 6, 7, 8, 16
#: and 21 bits.
ALPHABETS = {
    "digits": "0123456789",
    "ascii with spaces": "ab yz ~!",
    "latin-1": "aéÿ\u00a0",
    "cjk": "中文日本語",
    "astral": "a😀\U0010ffff",
}


def random_labels(rng, alphabet):
    """Up to 3000 labels of 0-10 characters, drawn with ties from a pool,
    sometimes as a strided view or in big-endian byte order."""
    n = int(rng.integers(1, 3001))
    width = int(rng.integers(0, 11))
    m = int(rng.integers(1, n + 1))
    # Code points past a label's length are 0, NumPy's padding of a str.
    points = rng.choice([ord(c) for c in alphabet], (m, max(width, 1)))
    points[np.arange(points.shape[1]) >= rng.integers(0, width + 1, (m, 1))] = 0
    pool = points.astype(np.uint32).view(f"U{points.shape[1]}").ravel()
    labels = pool[rng.integers(0, m, 2 * n)]
    labels = labels.astype(f"U{max(int(np.char.str_len(labels).max()), 1)}")
    if rng.random() < 0.3:
        labels = labels.astype(labels.dtype.newbyteorder(">"))
    return labels[::2] if rng.random() < 0.3 else labels[:n]


class TestFactoriseRandom:
    @pytest.mark.parametrize("alphabet", list(ALPHABETS))
    def test_matches_unique(self, alphabet):
        rng = np.random.default_rng(sum(map(ord, alphabet)))
        for k in range(64):
            labels = random_labels(rng, ALPHABETS[alphabet])
            assert_unique_codes(inference._factorise(labels), labels, stable=bool(k % 2))

    # "17-unique" and "3000-unique" keep their earlier ids, so that test
    # histories stay comparable.
    @pytest.mark.parametrize("n, path", [(1, "pair"), (16, "pair"),
                                         pytest.param(17, "argsort", id="17-unique"),
                                         pytest.param(3000, "argsort", id="3000-unique")])
    def test_row_bits_beside_fifteen_digit_keys(self, sorts, n, path):
        # Fifteen digits, packed as offsets, take 60 key bits: up to 16 rows
        # (4 row bits) the keys go to _pair_sort, from 17 rows on to np.argsort.
        rng = np.random.default_rng(n)
        labels = np.array([f"{k:015d}" for k in rng.integers(0, 10**15, n)])[
            rng.integers(0, n, n)]
        got = inference._factorise(labels)
        assert sorts == [path]
        assert_unique_codes(got, labels)


    def test_eight_digit_ids_at_2_17_rows(self, sorts):
        # Raw code points would take 48 key bits beside 17 row bits; as
        # offsets they take 32, so the rows stay on _pair_sort.
        rng = np.random.default_rng(17)
        pool = np.array([f"{k:08d}" for k in rng.integers(0, 10**8, 2**15)])
        labels = pool[rng.integers(0, pool.size, 2**17)]
        got = inference._factorise(labels)
        assert sorts == ["pair"]
        assert_unique_codes(got, labels)


class TestPairSort:
    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_row_order_is_the_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, max(n // 4, 1), n).astype(np.uint64)
        r = (n - 1).bit_length()
        high, low = inference._pair_sort(keys, np.arange(n, dtype=np.uint64), r)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(low, order)
        np.testing.assert_array_equal(high, keys[order])

    def test_widest_keys(self):
        # Keys of 64 - r bits, ties among them, keep their rows in order.
        keys = np.array([2**60 - 1, 0, 2**60 - 1, 5, 0, 2**59], dtype=np.uint64)
        high, low = inference._pair_sort(keys, np.arange(6, dtype=np.uint64), 4)
        np.testing.assert_array_equal(low, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(high, np.sort(keys))


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

