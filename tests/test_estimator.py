"""Tests for the point estimators, the prior reconstruction, and curve/conditional APIs."""
import argparse
import dataclasses
import math

import numpy as np
import pytest

from powergain import basis, cli, estimator, inference, pubbias, simulate, spectrum
from powergain.cli import read_grouped_file
from powergain.estimator import EstimationError, GroupedEffects, TScoreSample

SQRT2 = math.sqrt(2.0)

# Repeated string study labels: 37 clusters of 10-11 scores over 400 scores,
# zero-padded so they sort in the same order as the integers i % 37.
STRING_LABELS = np.array([f"s{i % 37:02d}" for i in range(400)])


def make_config(**kw):
    kw.setdefault("c", SQRT2)
    return spectrum.TuningConfig(**kw)


def make_basis(J=14, **kw):
    return spectrum.build_basis(make_config(**kw), J)


class TestTScoreSample:
    def test_from_scores_defaults_to_singletons(self):
        s = TScoreSample.from_scores([0.5, 1.5, -2.0])
        assert s.n == 3 and s.n_clusters == 3 and s.max_cluster_size == 1

    def test_cluster_accounting(self):
        s = TScoreSample.from_scores([0.1, 0.2, 0.3, 0.4],
                                     study_id=["a", "a", "a", "b"])
        assert s.n_clusters == 2 and s.max_cluster_size == 3

    def test_labels_factorised_once(self, monkeypatch):
        calls = []
        real_factorise = inference._factorise

        def counting_factorise(*args, **kwargs):
            calls.append(1)
            return real_factorise(*args, **kwargs)

        monkeypatch.setattr(inference, "_factorise", counting_factorise)
        s = TScoreSample.from_scores([0.1, 0.2, 0.3], study_id=["b", "a", "b"])
        for _ in range(3):
            assert s.n_clusters == 2 and s.max_cluster_size == 2
        assert len(calls) == 1

        # Unlabelled scores are singleton clusters, known without sorting.
        t = np.random.default_rng(8).normal(1.0, 1.5, 300)
        unlabelled = TScoreSample.from_scores(t)
        assert len(calls) == 1
        assert unlabelled.n_clusters == 300 and unlabelled.max_cluster_size == 1
        labelled = TScoreSample.from_scores(t, study_id=np.arange(300))
        assert len(calls) == 2
        cfg = make_config()
        assert estimator.estimate(unlabelled, cfg).se == \
            estimator.estimate(labelled, cfg).se
        # The estimate reads the stored codes and factorises nothing.
        assert len(calls) == 2

    def test_string_labels_give_the_se_of_unique_codes(self):
        # 10^5 scores over mixed-length string labels, whose sorted order is
        # not the numeric one: the SE equals, bit for bit, the SE on the
        # codes that np.unique gives for the raw strings.
        rng = np.random.default_rng(11)
        t = rng.normal(1.0, 1.5, 10**5)
        labels = np.array([f"s{k}" for k in rng.integers(0, 20000, t.size)])
        labelled = TScoreSample.from_scores(t, study_id=labels)
        coded = TScoreSample.from_scores(
            t, study_id=np.unique(labels, return_inverse=True)[1])
        np.testing.assert_array_equal(labelled._cluster_codes, coded._cluster_codes)
        cfg = make_config()
        assert estimator.estimate(labelled, cfg).se == estimator.estimate(coded, cfg).se

    def test_equality_is_identity(self):
        a = TScoreSample.from_scores([1.0, 2.0])
        b = TScoreSample.from_scores([1.0, 2.0])
        # Two equal-valued instances of every class with array fields.
        makers = [
            lambda: GroupedEffects(effects=[1.0, 2.0], std_errors=[1.0, 1.0],
                                   weights=[1.0, 1.0], group_id=["g", "g"]),
            lambda: make_basis(J=4),
        ]
        pairs = [(a, b)] + [(make(), make()) for make in makers]
        for x, y in pairs:
            assert x == x and not (x == y) and x != y
        assert len({obj for pair in pairs for obj in pair}) == 2 * len(pairs)

    def test_validation(self):
        with pytest.raises(ValueError):
            TScoreSample.from_scores([])
        with pytest.raises(ValueError):
            TScoreSample.from_scores([1.0, float("nan")])
        with pytest.raises(ValueError):
            TScoreSample(t=np.array([1.0, 2.0]), study_id=np.array([1]))


class TestDescriptiveShares:
    def test_status_quo_power_strict_inequality(self):
        s = TScoreSample.from_scores([1.96, 1.961, -2.5, 0.3])
        for pb in (True, False):
            assert estimator.estimate(s, make_config(), pb=pb).status_quo_power == 0.5

    # The naive "rescale the observed t-scores" share is the significant
    # share of c * t: it multiplies realized noise along with the signal.
    def test_naive_rescaled_share(self):
        s = TScoreSample.from_scores([1.0, 1.5, -1.6, 0.2])
        # c = sqrt(2): |c t| = 1.414, 2.121, 2.263, 0.283 -> half cross 1.96.
        assert pubbias.significant(SQRT2 * s.t, 1.96).mean() == 0.5

    def test_naive_share_overstates_on_pure_noise(self):
        rng = np.random.default_rng(42)
        s = TScoreSample.from_scores(rng.standard_normal(200_000))
        naive = pubbias.significant(SQRT2 * s.t, 1.96).mean()
        # 2 * Phi(-1.96/sqrt(2)) = 0.16577 even though no effect exists.
        np.testing.assert_allclose(naive, 0.16576849565979212, atol=0.004)


class TestDeltaHat:
    """The estimate without the publication-bias correction: estimate(pb=False)."""

    def test_zero_at_unit_scale(self):
        rng = np.random.default_rng(42)
        s = TScoreSample.from_scores(rng.normal(0, 1.4, 300))
        assert estimator.estimate(s, make_config(c=1.0), pb=False).delta == 0.0

    def test_sign_flip_invariance_is_exact(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, 400)
        d1 = estimator.estimate(TScoreSample.from_scores(t), make_config(), pb=False).delta
        d2 = estimator.estimate(TScoreSample.from_scores(-t), make_config(), pb=False).delta
        assert d1 == d2

    def test_equals_mean_kernel(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, 250)
        rep = estimator.estimate(TScoreSample.from_scores(t), make_config(), pb=False)
        b = make_basis(J=rep.J)
        np.testing.assert_allclose(rep.delta, float(np.mean(spectrum.kernel_S(t, b))),
                                   rtol=1e-14)


class TestDeltaHatPb:
    def test_no_bias_sample_reduces_to_uncorrected(self):
        # Equal caliper counts force theta-hat = 1, and then the corrected
        # and uncorrected estimators must agree to the last bit.
        t = np.array([0.2, -0.9, 1.3, 1.80, -1.85, 2.1, 2.3, 0.4, -1.1, 3.2])
        s = TScoreSample.from_scores(t)
        b = make_basis()
        rep = estimator.delta_hat_pb(s, b, epsilon=0.5)
        assert rep.theta == 1.0
        # n_effective 400 tunes J to the 14 of b.
        uncorrected = estimator.estimate(s, make_config(n_effective=400), pb=False)
        assert uncorrected.J == b.J
        assert rep.delta == uncorrected.delta

    def test_report_is_complete(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, 500)
        s = TScoreSample.from_scores(t)
        rep = estimator.delta_hat_pb(s, make_basis(), epsilon=0.4)
        assert rep.n == 500 and rep.n_clusters == 500
        assert rep.J == 14 and rep.epsilon == 0.4
        assert math.isfinite(rep.se) and rep.ci_low < rep.delta < rep.ci_high
        assert rep.flags == ()
        assert 0.0 <= rep.status_quo_power <= 1.0

    def test_theta_zero_keeps_point_estimate_drops_se(self):
        s = TScoreSample.from_scores([0.5, 2.0])
        b = make_basis(J=6)
        rep = estimator.delta_hat_pb(s, b, epsilon=0.3)
        assert rep.theta == 0.0
        # Weight zero on the significant score leaves the insignificant one.
        np.testing.assert_allclose(rep.delta,
                                   float(spectrum.kernel_S(np.array([0.5]), b)[0]))
        assert math.isnan(rep.se) and math.isnan(rep.ci_low)
        assert any("theta-zero" in f for f in rep.flags)

    def test_degenerate_weights_raise(self):
        # theta-hat = 0 with every score significant: nothing to average.
        s = TScoreSample.from_scores([2.0, 2.2])
        with pytest.raises(EstimationError):
            estimator.delta_hat_pb(s, make_basis(J=6), epsilon=0.3)

    def test_clamped_ci_floors_at_zero(self):
        # The library never clips; the CLI's --clamp-ci-at-zero clips what it prints.
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.02, 400)
        s = TScoreSample.from_scores(t)
        rep = estimator.delta_hat_pb(s, make_basis(), epsilon=0.5)
        assert rep.ci_low < 0.0
        row = dataclasses.asdict(rep)
        printed = cli._printed_ci(argparse.Namespace(clamp_ci_at_zero=True), dict(row))
        assert printed == {**row, "ci_low": max(rep.ci_low, 0.0),
                           "ci_high": max(rep.ci_high, 0.0)}
        assert printed["ci_low"] >= 0.0 and printed["ci_high"] >= 0.0
        assert cli._printed_ci(argparse.Namespace(clamp_ci_at_zero=False), dict(row)) == row


def _thinned_bimodal(rng, n):
    """n published scores: bimodal effects plus N(0, 1) noise, thinned at 0.9."""
    spec = simulate.DgpSpec(prior="bimodal")
    return simulate.draw_population(spec, n, rng)


class TestRowCore:
    def test_rows_match_scalar_delta_hat_pb(self):
        rng = np.random.default_rng(61)
        cfg = make_config(n_effective=300)
        J, eps = spectrum.select_tuning(cfg)
        b = spectrum.build_basis(cfg, J)
        t = np.stack([_thinned_bimodal(rng, 300) for _ in range(9)])
        rows = estimator.delta_hat_pb_rows(t, b, eps)
        assert (rows.status == estimator.ROW_OK).all()
        for k in range(t.shape[0]):
            rep = estimator.delta_hat_pb(TScoreSample.from_scores(t[k]), b, eps)
            got = [rows.delta[k], rows.se[k], rows.ci_low[k], rows.ci_high[k], rows.theta[k]]
            want = [rep.delta, rep.se, rep.ci_low, rep.ci_high, rep.theta]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_rows_match_scalar_bitwise_at_random_widths(self):
        # A score's kernel value must not depend on how many scores share its
        # block, so row k of a batch is the scalar estimate of t[k] bit for bit.
        rng = np.random.default_rng(20)
        for n in (37, 120, 301):
            cfg = make_config(n_effective=n)
            J, eps = spectrum.select_tuning(cfg)
            b = spectrum.build_basis(cfg, J)
            t = np.stack([_thinned_bimodal(rng, n) for _ in range(6)])
            rows = estimator.delta_hat_pb_rows(t, b, eps)
            for k in range(t.shape[0]):
                rep = estimator.delta_hat_pb(TScoreSample.from_scores(t[k]), b, eps)
                assert rows.delta[k] == rep.delta, f"n={n}, row {k}"
                assert rows.theta[k] == rep.theta, f"n={n}, row {k}"
                assert rows.se[k] == rep.se or math.isnan(rows.se[k]) and math.isnan(rep.se)

    def test_statuses_match_scalar_errors(self):
        # epsilon 0.3: lower bin (1.66, 1.96], upper bin (1.96, 2.26].
        t = np.array([[0.5, 1.0, 0.1],    # upper bin empty
                      [2.0, 2.2, 3.0],    # theta 0 and every score significant
                      [0.5, 2.0, 0.1],    # theta 0: no SE
                      [1.8, 2.0, 0.3]])   # theta 1
        b = make_basis(J=6)
        rows = estimator.delta_hat_pb_rows(t, b, 0.3)
        assert rows.status.tolist() == [estimator.ROW_EMPTY_UPPER_BIN,
                                        estimator.ROW_ZERO_WEIGHTS,
                                        estimator.ROW_NO_SE, estimator.ROW_OK]
        with pytest.raises(pubbias.CaliperError):
            estimator.delta_hat_pb(TScoreSample.from_scores(t[0]), b, 0.3)
        with pytest.raises(EstimationError):
            estimator.delta_hat_pb(TScoreSample.from_scores(t[1]), b, 0.3)
        assert np.isnan(rows.delta[:2]).all() and np.isnan(rows.se[:3]).all()
        for k in (2, 3):
            rep = estimator.delta_hat_pb(TScoreSample.from_scores(t[k]), b, 0.3)
            assert rows.delta[k] == rep.delta and rows.theta[k] == rep.theta
            assert math.isnan(rep.se) == (k == 2)
        assert rows.se[3] == rep.se

    def test_zero_kernel_rows_fail(self):
        # At sigma_T^2 = 1e-12 the density phi(t; sigma_T^2), and so S,
        # underflows to 0 wherever |t| > 4e-5.  epsilon 0.3 as above.
        t = np.array([[1.8, 2.0, 0.3],    # S = 0 at every score
                      [0.5, 2.0, 0.1],    # theta 0 as well
                      [1.8, 2.0, 0.0],    # S(0) > 0
                      [0.5, 1.0, 0.1]])   # upper bin empty
        b = make_basis(J=0, sigmaT2=1e-12)
        rows = estimator.delta_hat_pb_rows(t, b, 0.3)
        assert rows.status.tolist() == [estimator.ROW_ZERO_KERNEL, estimator.ROW_ZERO_KERNEL,
                                        estimator.ROW_OK, estimator.ROW_EMPTY_UPPER_BIN]
        for field in (rows.delta, rows.se, rows.ci_low, rows.ci_high):
            assert np.isnan(field[[0, 1, 3]]).all() and np.isfinite(field[2])
        for k in (0, 1):
            with pytest.raises(EstimationError, match="--sigma-t2 or --const-D"):
                estimator.delta_hat_pb(TScoreSample.from_scores(t[k]), b, 0.3)
        # At c = 1 every a_j is 0, so the zero kernel is exact.
        exact = estimator.delta_hat_pb_rows(t, make_basis(J=0, sigmaT2=1e-12, c=1.0), 0.3)
        assert exact.status.tolist() == [estimator.ROW_OK, estimator.ROW_NO_SE,
                                         estimator.ROW_OK, estimator.ROW_EMPTY_UPPER_BIN]
        assert (exact.delta[:3] == 0.0).all() and exact.se[0] == exact.se[2] == 0.0

    def test_overflowing_kernel_rows_fail(self):
        # sigma_T^2 = 1e-12 and D = 1e-300 make the tuning rule pick J = 50
        # at n = 500, where a_50 He_50 overflows and inf * phi is NaN.
        cfg = make_config(sigmaT2=1e-12, D=1e-300, n_effective=500)
        J, epsilon = spectrum.select_tuning(cfg)
        assert J == 50
        spec = simulate.DgpSpec(prior="bimodal", noise="normal", theta0=0.9, cv=1.96, c=SQRT2)
        t = np.stack([simulate.draw_population(spec, 500, seed) for seed in range(4)])
        # Row 3 has no score just below the cutoff, so it would be ROW_NO_SE;
        # the overflow takes precedence.
        below = (np.abs(t[3]) > 1.96 - epsilon) & (np.abs(t[3]) <= 1.96)
        assert below.any()
        t[3, below] = 0.0
        _, tail = pubbias.caliper_tail(t, epsilon)
        assert tail.count_below[3] == 0 and tail.count_above[3] > 0
        rows = estimator.delta_hat_pb_rows(t, spectrum.build_basis(cfg, J), epsilon)
        assert rows.status.tolist() == [estimator.ROW_KERNEL_OVERFLOW] * 4
        assert not np.isfinite(rows.delta).any()
        for field in (rows.se, rows.ci_low, rows.ci_high):
            assert np.isnan(field).all()

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError, match="R, n"):
            estimator.delta_hat_pb_rows(np.ones(4), make_basis(J=4), 0.3)

    def test_one_cluster_code_vector_for_all_rows(self):
        # Two rows with the same 37 clusters: one offset bincount gives
        # each row its own cluster-robust variance.
        rng = np.random.default_rng(4)
        m = rng.normal(size=(2, 400))
        codes = np.array([i % 37 for i in range(400)])
        v = inference.variance_hat(m, codes)
        assert v.shape == (2,)
        np.testing.assert_allclose(v, [inference.variance_hat(row, codes) for row in m],
                                   rtol=1e-12)
        string_codes = np.unique(STRING_LABELS, return_inverse=True)[1]
        np.testing.assert_allclose(v, [inference.variance_hat(row, string_codes)
                                       for row in m], rtol=1e-12)


def _rounded(t, decimals):
    """Scores as a file with ``decimals`` places gives them back."""
    return np.array([float(f"{x:.{decimals}f}") for x in t])


def _direct_rows(sample, bases, epsilon, pb=True, alpha=0.05):
    """(delta, se, ci_low, ci_high, theta) per basis, every score evaluated on its own.

    The reference of the score table: the kernel on all n signed scores and
    the row core with the identity index.
    """
    t, identity = sample.t, np.arange(sample.n)
    caliper = pubbias.caliper_tail(t[None], epsilon, bases[0].cv) if pb else None
    rows = estimator._estimate_rows(spectrum.kernel_S_grid(t, bases)[:, None], bases, identity,
                                    sample._cluster_codes, caliper, alpha)
    return np.array([[r.delta[0], r.se[0], r.ci_low[0], r.ci_high[0],
                      r.theta[0] if pb else np.nan] for r in rows])


def _curve_rows(sample, cfg, grid, pb=True):
    reports = estimator.power_gain_curve(sample, cfg, grid, pb=pb)
    return np.array([[r.delta, r.se, r.ci_low, r.ci_high,
                      np.nan if r.theta is None else r.theta] for r in reports])


class TestScoreTable:
    """Rounded samples are evaluated once per distinct |t|, bit for bit as every score."""

    GRID = [1.0, SQRT2, 2.0, math.sqrt(8.0)]

    def scores(self, n=12000, seed=3):
        rng = np.random.default_rng(seed)
        return rng.normal(np.where(rng.random(n) < 0.5, 0.0, 2.8), 1.4)

    def check(self, t, step, study_id=None, pbs=(True, False)):
        sample = TScoreSample.from_scores(t, study_id)
        assert sample._grid_step == step
        a = np.abs(sample.t)
        if step is None:
            # The sample is its own table: nothing to gather or to count.
            assert sample._table_index is None and sample._table_counts is None
            assert np.array_equal(sample._table, a)
        else:
            assert np.array_equal(sample._table[sample._table_index], a)
            assert sample._table_counts.sum() == sample.n
            assert sample._table.size == np.unique(a).size
        cfg = make_config()
        J, eps = spectrum.select_tuning(make_config(n_effective=sample.n))
        bases = [spectrum.build_basis(make_config(c=c), J) for c in self.GRID]
        for pb in pbs:
            np.testing.assert_array_equal(_curve_rows(sample, cfg, self.GRID, pb),
                                          _direct_rows(sample, bases, eps, pb))
        return sample

    @pytest.mark.parametrize("decimals, step", [(0, 0.1), (1, 0.1), (2, 0.01), (3, 0.001)])
    def test_decimal_grids(self, decimals, step):
        t = _rounded(self.scores(), decimals)
        labels = np.random.default_rng(decimals).integers(0, 2000, t.size)
        self.check(t, step)
        self.check(t, step, study_id=labels)

    def test_mixed_decimals_take_the_finer_grid(self):
        t = self.scores()
        self.check(np.concatenate([_rounded(t[:6000], 2), _rounded(t[6000:], 3)]), 0.001)

    @pytest.mark.parametrize("decimals", [4, None], ids=["4 decimals", "continuous"])
    def test_no_grid(self, decimals):
        t = self.scores()
        self.check(t if decimals is None else _rounded(t, decimals), None)

    def test_negative_scores(self):
        t = -np.abs(_rounded(self.scores(), 2))
        sample = self.check(t, 0.01)
        assert (sample._table >= 0).all()

    def test_outlier_past_the_table_bound(self):
        # 10^5 on the 0.01 grid is key 10^7, past the n = 12001 entries the
        # table may hold: the sample is evaluated score by score.
        t = np.append(_rounded(self.scores(), 2), 1e5)
        self.check(t, None)
        self.check(t[:-1], 0.01)

    @pytest.mark.parametrize("decimals", [2, 3])
    def test_ties_at_the_cutoff_and_bin_edges(self, decimals):
        # Scores at cv, at cv +/- epsilon and one grid step either side of
        # each, as the caliper compares them.
        cv, eps, g = 1.96, 0.25, 10.0 ** -decimals
        edges = [cv, cv - eps, cv + eps]
        ties = [e + k * g for e in edges for k in (-1, 0, 1)]
        t = np.concatenate([_rounded(self.scores(), decimals),
                            np.repeat(_rounded(ties, decimals), 40)])
        t[::2] *= -1
        sample = TScoreSample.from_scores(t)
        assert sample._grid_step == g
        bases = [make_basis(J=12, c=c) for c in self.GRID]
        got = [estimator.delta_hat_pb(sample, b, eps) for b in bases]
        got = np.array([[r.delta, r.se, r.ci_low, r.ci_high, r.theta] for r in got])
        np.testing.assert_array_equal(got, _direct_rows(sample, bases, eps))

    def test_single_distinct_value(self):
        t = np.tile([1.5, -1.5], 30)
        sample = self.check(t, 0.1, pbs=(False,))
        assert sample._table.tolist() == [1.5]
        with pytest.raises(pubbias.CaliperError):
            estimator.estimate(sample, make_config())


class TestSignificanceAtTheCutoff:
    """|t| = cv is insignificant in every module: |t| > cv is the one predicate."""

    CV = 1.96

    def test_predicate_and_shares(self):
        tie = np.array([self.CV, -self.CV])
        assert not pubbias.significant(tie, self.CV).any()
        tail = pubbias.caliper_tail(tie, 0.5, self.CV)[1]
        assert tail.count_insignificant == 2 and tail.F_hat == 1.0
        sample = TScoreSample.from_scores(tie)
        assert estimator.estimate(sample, make_config(cv=self.CV),
                                  pb=False).status_quo_power == 0.0

    def test_caliper_and_influence_terms(self):
        # The tie sits in the lower bin, with 0.3 and 2.1 around it.
        t = np.array([self.CV, 0.3, 2.1])
        theta, tail = pubbias.caliper_tail(t, 0.5, self.CV)
        assert (tail.count_below, tail.count_above, tail.F_hat) == (1, 1, 2 / 3)
        assert tail.lower.tolist() == [True, False, False]
        # At theta = 0, Q = 0 and m = W: the tie takes the insignificant weight.
        w = inference.influence(np.ones(3), 0.0, tail)
        assert w[0] == w[1] and w[2] == 0.0
        # At theta = 1, W = 1 and X = (m - S) / Q.
        S = np.array([1.0, 0.0, 0.0])
        (q,) = inference.q_hat(S, 1.0, tail)
        # The tie's centred term is 1 - F, as for an insignificant score.
        assert q == pytest.approx((1.0 - tail.F_hat) / 3.0, rel=1e-15)
        x = (inference.influence(S, 1.0, tail) - S) / q
        assert x[0] == -tail.B_plus / tail.B_minus ** 2 and x[2] == 1 / tail.B_minus

    def test_estimators_weight_the_tie_by_one(self):
        # Lower bin {1.96, 1.8}, upper bin {2.1}: theta_hat = 2, and only
        # 2.1 carries it.
        b = make_basis(J=8)
        s = TScoreSample.from_scores([self.CV, 1.8, 2.1, 0.4])
        omega = np.array([1.0, 1.0, 2.0, 1.0])
        rep = estimator.delta_hat_pb(s, b, epsilon=0.5)
        assert rep.theta == 2.0
        S = spectrum.kernel_S(s.t, b)
        np.testing.assert_allclose(rep.delta, S @ omega / omega.sum(), rtol=1e-14)
        coef = estimator.reconstruct_prior(s, b, theta_hat=rep.theta)
        psi_phi = basis.hermite_sequence(s.t / math.sqrt(b.sigmaT2), b.J) \
            * basis.gaussian_pdf(s.t, b.sigmaT2)
        np.testing.assert_allclose(coef * b.eta * b.lam, psi_phi @ omega / omega.sum(),
                                   rtol=1e-12)

    @pytest.mark.parametrize("decimals, cv", [(None, 1.96), (1, 2.0), (2, 1.96)],
                             ids=["no-grid", "1-decimal", "2-decimal"])
    def test_status_quo_power_is_the_share_of_the_mask(self, decimals, cv):
        # The report reads the share from the caliper's integer count over
        # n, which must be the same IEEE quotient as the mean of the mask.
        rng = np.random.default_rng(31)
        cfg = make_config(cv=cv)
        for _ in range(12):
            t = rng.normal(1.0, 1.5, rng.integers(1000, 4000))
            if decimals is not None:
                t = _rounded(t, decimals)
                t[:rng.integers(1, 40)] = cv
                t[-rng.integers(1, 40):] = -cv
            sample = TScoreSample.from_scores(t)
            assert sample._grid_step == (None if decimals is None else 10.0 ** -decimals)
            want = float(np.mean(np.abs(t) > cv))
            for pb in (True, False):
                assert estimator.estimate(sample, cfg, pb=pb).status_quo_power == want
            table, counts = np.unique(np.abs(t), return_counts=True)
            insignificant = np.count_nonzero(np.abs(t) <= cv)
            for tail in (pubbias.caliper_tail(t, 0.2, cv)[1],
                         pubbias.caliper_tail(table, 0.2, cv, counts)[1]):
                assert tail.count_insignificant == insignificant

    def test_thinning_drops_ties(self, monkeypatch):
        # Every insignificant draw survives with probability 1e-12, so a tie
        # that counted as significant would be kept and one that does not is not.
        draws = np.tile([self.CV, 2.5], 64)
        monkeypatch.setattr(simulate, "_draw_prior", lambda spec, rng, m: np.zeros(m))
        monkeypatch.setattr(simulate, "_draw_noise", lambda noise, rng, m: draws[:m])
        t = simulate.draw_population(simulate.DgpSpec(theta0=1e-12), 20, 3)
        assert (t == 2.5).all()


class TestEstimateOrchestrator:
    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.4, 1.3, 400)
        for study_id in (None, STRING_LABELS):
            s = TScoreSample.from_scores(t, study_id)
            cfg = make_config()
            rep = estimator.estimate(s, cfg)
            J, eps = spectrum.select_tuning(make_config(n_effective=400))
            manual = estimator.delta_hat_pb(s, spectrum.build_basis(cfg, J), eps)
            assert rep.delta == manual.delta and rep.se == manual.se
            assert rep.J == J and rep.epsilon == eps

    def test_string_and_integer_labels_agree(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.4, 1.3, 400)
        codes = np.array([i % 37 for i in range(400)])
        for pb in (True, False):
            by_name = estimator.estimate(TScoreSample.from_scores(t, STRING_LABELS),
                                         make_config(), pb=pb)
            by_code = estimator.estimate(TScoreSample.from_scores(t, codes),
                                         make_config(), pb=pb)
            assert by_name.n_clusters == by_code.n_clusters == 37
            assert by_name.max_cluster_size == by_code.max_cluster_size == 11
            assert by_name.se == by_code.se

    def test_respects_preset_effective_size(self):
        rng = np.random.default_rng(42)
        s = TScoreSample.from_scores(rng.normal(0, 1.3, 400))
        rep_small = estimator.estimate(s, make_config(n_effective=40))
        rep_big = estimator.estimate(s, make_config())
        assert rep_small.J < rep_big.J and rep_small.epsilon > rep_big.epsilon

    def test_no_pb_mode(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.3, 1.4, 300)
        s = TScoreSample.from_scores(t)
        rep = estimator.estimate(s, make_config(), pb=False)
        assert rep.theta is None and rep.epsilon is None
        # The SE is the cluster sandwich of the kernel values.
        S = spectrum.kernel_S(t, spectrum.build_basis(make_config(), rep.J))
        np.testing.assert_allclose(rep.delta, float(np.mean(S)), rtol=1e-14)
        assert math.isfinite(rep.se)
        np.testing.assert_allclose(rep.se, math.sqrt(inference.variance_hat(S, np.arange(300))),
                                   rtol=1e-12)

    def test_recovers_known_gain_from_thinned_draw(self):
        from powergain import simulate
        spec = simulate.DgpSpec(prior="bimodal", noise="normal")
        s = TScoreSample.from_scores(simulate.draw_population(spec, 2000, 11))
        rep = estimator.estimate(s, make_config())
        assert abs(rep.delta - 0.12205062) < 3.0 * rep.se


class TestPriorReconstruction:
    def test_plug_in_route_matches_direct_estimator(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            t = rng.normal(0.5 * trial, 1.4, 600)
            s = TScoreSample.from_scores(t)
            b = make_basis()
            rep = estimator.delta_hat_pb(s, b, epsilon=0.5)
            coef = estimator.reconstruct_prior(s, b, theta_hat=rep.theta)
            np.testing.assert_allclose(np.sum(coef * b.eta * b.lam * b.a), rep.delta,
                                       rtol=0, atol=1e-10)

    def test_leading_coefficient_is_weighted_density_mean(self):
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, 300)
        s = TScoreSample.from_scores(t)
        b = make_basis()
        coef = estimator.reconstruct_prior(s, b, theta_hat=1.0)
        np.testing.assert_allclose(coef[0],
                                   float(np.mean(basis.gaussian_pdf(t))),
                                   rtol=1e-12)

    def test_rejects_negative_theta(self):
        s = TScoreSample.from_scores([0.5, 1.0])
        with pytest.raises(ValueError):
            estimator.reconstruct_prior(s, make_basis(J=4), theta_hat=-0.1)


class TestPowerGainCurve:
    def test_anchor_row_is_exact_zero(self):
        rng = np.random.default_rng(42)
        s = TScoreSample.from_scores(rng.normal(0.0, 1.4, 300))
        pts = estimator.power_gain_curve(s, make_config(), [1.0, SQRT2, 2.0])
        assert pts[0].c == 1.0 and pts[0].delta == 0.0 and pts[0].se == 0.0

    def test_single_point_grid_matches_scalar_call(self):
        # estimate, a one-point curve and delta_hat_pb give the same report,
        # field for field (NaN equal to NaN), flags included.
        rng = np.random.default_rng(42)
        t = rng.normal(0.2, 1.5, 400)
        no_lower_bin = np.concatenate([rng.uniform(0.0, 1.0, 300),
                                       rng.uniform(2.0, 2.6, 100)])
        cases = [(t, None, {}), (t, STRING_LABELS, {}),
                 (t, np.full(400, "s1"), {True: ["one-cluster"], False: ["one-cluster"]}),
                 (no_lower_bin, None, {True: ["theta-zero"]})]
        cfg = make_config()
        J, eps = spectrum.select_tuning(make_config(n_effective=400))
        for scores, study_id, flags in cases:
            s = TScoreSample.from_scores(scores, study_id)
            for pb in (True, False):
                rep = estimator.estimate(s, cfg, pb=pb)
                [pt] = estimator.power_gain_curve(s, cfg, [SQRT2], pb=pb)
                np.testing.assert_equal(dataclasses.asdict(pt), dataclasses.asdict(rep))
                assert [f.split(":")[0] for f in rep.flags] == flags.get(pb, [])
                if pb:
                    ref = estimator.delta_hat_pb(s, spectrum.build_basis(cfg, J), eps)
                    np.testing.assert_equal(dataclasses.asdict(ref), dataclasses.asdict(rep))

    def test_tuning_fixed_across_grid(self):
        rng = np.random.default_rng(42)
        s = TScoreSample.from_scores(rng.normal(0.0, 1.4, 350))
        pts = estimator.power_gain_curve(s, make_config(), [1.0, 1.2, SQRT2, 2.0],
                                         pb=False)
        assert len(pts) == 4
        deltas = [p.delta for p in pts]
        assert deltas[0] == 0.0
        assert all(d >= 0 or abs(d) < 0.2 for d in deltas)

    def test_grid_validation(self):
        s = TScoreSample.from_scores([0.5, 1.0])
        with pytest.raises(ValueError):
            estimator.power_gain_curve(s, make_config(), [])
        with pytest.raises(ValueError):
            estimator.power_gain_curve(s, make_config(), [0.9])


class TestConditionalDelta:
    def test_benchmark_at_eighty_percent_power(self):
        g = GroupedEffects(effects=[2.8016], std_errors=[1.0], weights=[1.0], group_id=["g"])
        rep = estimator.conditional_delta(g, c=SQRT2)
        np.testing.assert_allclose(rep.delta, 0.17736588499388703, rtol=1e-10)
        assert rep.n_groups == 1 and rep.n_members == 1

    def test_zero_effect_gives_zero_gain(self):
        g = GroupedEffects(effects=[0.0], std_errors=[2.0], weights=[1.0], group_id=["g"])
        rep = estimator.conditional_delta(g, c=SQRT2)
        assert rep.delta == 0.0

    def test_group_mean_uses_weights(self):
        # Weighted mean 0.75 * 2 + 0.25 * 6 = 3; members then share one b-bar.
        g = GroupedEffects(effects=[2.0, 6.0], std_errors=[1.0, 1.0],
                           weights=[3.0, 1.0], group_id=["g", "g"])
        rep = estimator.conditional_delta(g, c=SQRT2)
        p3 = basis.conditional_power(np.array([3.0 * SQRT2]))[0] \
            - basis.conditional_power(np.array([3.0]))[0]
        np.testing.assert_allclose(rep.delta, p3, rtol=1e-12)

    def test_iid_se_matches_finite_difference_gradient(self):
        # Independent check of the delta-method slope: nudge each group
        # mean numerically and rebuild the standard error by hand.
        rng = np.random.default_rng(42)
        groups = []  # (effects, std_errors, weights) per group
        for k in range(3):
            m = int(rng.integers(2, 5))
            groups.append((rng.normal(1.0 + k, 0.5, m), rng.uniform(0.5, 2.0, m),
                           rng.uniform(0.5, 2.0, m)))

        def grouped(shift=0.0, group=None):
            """The groups as member columns, group `group`'s effects moved by shift."""
            eff = [e + (shift if k == group else 0.0) for k, (e, _, _) in enumerate(groups)]
            return GroupedEffects(effects=np.concatenate(eff),
                                  std_errors=np.concatenate([se for _, se, _ in groups]),
                                  weights=np.concatenate([w for _, _, w in groups]),
                                  group_id=np.repeat(np.arange(len(eff)),
                                                     [e.size for e in eff]))

        rep = estimator.conditional_delta(grouped(), c=SQRT2)
        h = 1e-6
        var = 0.0
        for k, (_, se, w) in enumerate(groups):
            d_up = estimator.conditional_delta(grouped(h, k), c=SQRT2).delta
            d_dn = estimator.conditional_delta(grouped(-h, k), c=SQRT2).delta
            grad = (d_up - d_dn) / (2 * h)
            wn = w / w.sum()
            var += grad ** 2 * float(np.sum((wn * se) ** 2))
        np.testing.assert_allclose(rep.se, math.sqrt(var), rtol=1e-4)

    def test_worstcase_needs_labels(self):
        g = GroupedEffects(effects=[1.0], std_errors=[1.0], weights=[1.0], group_id=["g"])
        with pytest.raises(EstimationError):
            estimator.conditional_delta(g, c=SQRT2, se_mode="worstcase")

    def test_worstcase_exceeds_iid_when_labs_shared(self):
        # Keep group means near 1 so every gain gradient is firmly
        # positive; perfectly correlated labs must then inflate the SE.
        rng = np.random.default_rng(42)
        groups = GroupedEffects(
            effects=np.concatenate([rng.normal(1.0, 0.2, 2) for _ in range(4)]),
            std_errors=np.ones(8), weights=np.ones(8), group_id=np.repeat(np.arange(4), 2),
            labels=np.tile(["L1", "L2"], 4))
        iid = estimator.conditional_delta(groups, c=SQRT2, se_mode="iid")
        worst = estimator.conditional_delta(groups, c=SQRT2, se_mode="worstcase")
        assert worst.se > iid.se

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupedEffects(effects=[], std_errors=[], weights=[], group_id=[])
        g = GroupedEffects(effects=[1.0], std_errors=[1.0], weights=[1.0], group_id=["g"])
        with pytest.raises(ValueError):
            estimator.conditional_delta(g, c=0.5)
        with pytest.raises(ValueError):
            estimator.conditional_delta(g, c=SQRT2, se_mode="bootstrap")
        with pytest.raises(ValueError):
            GroupedEffects(effects=[1.0], std_errors=[0.0], weights=[1.0], group_id=["g"])
        with pytest.raises(ValueError):
            GroupedEffects(effects=[1.0], std_errors=[1.0], weights=[0.0], group_id=["g"])

    @pytest.mark.parametrize("column", ["effects", "std_errors", "weights"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_effect_group_rejects_non_finite(self, column, bad):
        cols = {"effects": np.array([1.0, 2.0]), "std_errors": np.array([1.0, 1.0]),
                "weights": np.array([1.0, 1.0])}
        cols[column][1] = bad
        with pytest.raises(ValueError, match="finite"):
            GroupedEffects(**cols, group_id=["g", "g"])

    def test_conditional_power_called_once(self, monkeypatch):
        # Every group is estimated in one pass: one power call on c * b/s
        # and b/s stacked, however many groups there are.
        calls = []
        power = basis.conditional_power
        monkeypatch.setattr(basis, "conditional_power",
                            lambda h, cv=1.96, **kw: calls.append(np.size(h))
                            or power(h, cv, **kw))
        groups = GroupedEffects(
            effects=np.concatenate([[0.5 + k, 1.0 + k] for k in range(4)]),
            std_errors=np.tile([1.0, 0.5], 4), weights=np.tile([1.0, 2.0], 4),
            group_id=np.repeat(np.arange(4), 2),
            labels=np.concatenate([["L1", f"L{k}"] for k in range(4)]))
        for mode in ("iid", "worstcase"):
            calls.clear()
            estimator.conditional_delta(groups, c=SQRT2, se_mode=mode)
            assert calls == [16]

    # group_id, effect, std_error, weight, lab_id.  Labs are shared across
    # groups, one lab appears twice in a group, and the lab ids are in no
    # sorted order.  b-bar = 0.6 (g1) and 3.4 (g2) give gradients of
    # opposite sign, so lab sums can cancel.
    HAND_ROWS = [("g2", 3.5, 1.0, 2.0, "Lc"), ("g1", 0.4, 0.8, 1.0, "La"),
                 ("g3", 1.6, 0.6, 3.0, "Lb"), ("g1", 0.7, 1.2, 2.0, "Lc"),
                 ("g2", 3.2, 0.9, 1.0, "La"), ("g3", 1.1, 0.7, 1.0, "Lb"),
                 ("g2", 3.4, 1.1, 1.0, "Lb"), ("g1", 0.5, 1.0, 0.0, "Lc")]

    def hand_groups(self):
        """Members of each group, in order of first appearance."""
        members = {}
        for gid, *member in self.HAND_ROWS:
            members.setdefault(gid, []).append(member)
        return list(members.values())

    def write_hand_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight,lab_id\n"
                     + "".join(",".join(map(str, r)) + "\n" for r in self.HAND_ROWS))
        return str(p)

    def test_worstcase_se_matches_hand_sum(self, tmp_path):
        c, cv = SQRT2, 1.96

        def slope(x):  # d/dx Pr(|x + Z| > cv)
            return (math.exp(-(cv - x) ** 2 / 2) - math.exp(-(cv + x) ** 2 / 2)) \
                / math.sqrt(2 * math.pi)

        n = len(self.HAND_ROWS)
        per_lab = {}
        for rows in self.hand_groups():
            wsum = sum(w for _, _, w, _ in rows)
            b_bar = sum(w * e for e, _, w, _ in rows) / wsum
            grad = sum((c * slope(c * b_bar / s) - slope(b_bar / s)) / s
                       for _, s, _, _ in rows) / n
            for _, s, w, lab in rows:
                per_lab[lab] = per_lab.get(lab, 0.0) + grad * w / wsum * s
        expected = math.sqrt(sum(v * v for v in per_lab.values()))

        rep = estimator.conditional_delta(read_grouped_file(self.write_hand_file(tmp_path)),
                                          c=c, cv=cv, se_mode="worstcase")
        np.testing.assert_allclose(rep.se, expected, rtol=1e-12)
        assert (rep.n_groups, rep.n_members) == (3, 8)

    def test_file_and_group_list_agree(self, tmp_path):
        # The same groups, read from the file and built from a list of groups.
        groups = self.hand_groups()
        gid = [row[0] for row in self.HAND_ROWS]
        gid = sorted(set(gid), key=gid.index)  # in order of first appearance
        eff, se, w, lab = (np.array(col) for col in zip(*(m for g in groups for m in g)))
        built = GroupedEffects(effects=eff, std_errors=se, weights=w, labels=lab,
                               group_id=np.repeat(gid, [len(g) for g in groups]))
        columns = read_grouped_file(self.write_hand_file(tmp_path))
        np.testing.assert_array_equal(columns._group_sizes, built._group_sizes)
        for mode in ("iid", "worstcase"):
            assert (estimator.conditional_delta(columns, c=SQRT2, se_mode=mode)
                    == estimator.conditional_delta(built, c=SQRT2, se_mode=mode))

    def test_grouped_effects_first_fault_and_sizes(self):
        # Each check names its fault, here in the second of groups [0] and [1, 2].
        for column, values, message in [
                ("std_errors", [1.0, 0.0, 1.0], "every std_error must be strictly positive"),
                ("weights", [1.0, -1.0, 1.0], "weights must be non-negative and not all zero"),
                ("weights", [1.0, 0.0, 0.0], "weights must be non-negative and not all zero"),
                ("effects", [1.0, 2.0, float("nan")], "must be finite")]:
            cols = {"effects": [1.0, 2.0, 3.0], "std_errors": [1.0, 1.0, 1.0],
                    "weights": [1.0, 1.0, 1.0], column: values}
            with pytest.raises(ValueError, match=message):
                GroupedEffects(**cols, group_id=["a", "b", "b"])
        # Group 0 has all-zero weights, group 1 a zero std_error: the group
        # with the lower code decides, wherever its members sit.
        for group_id, se, w in ((["a", "b"], [1.0, 0.0], [0.0, 1.0]),
                                (["b", "a"], [0.0, 1.0], [1.0, 0.0])):
            with pytest.raises(ValueError, match="weights"):
                estimator.GroupedEffects(effects=[1.0, 2.0], std_errors=se,
                                         weights=w, group_id=group_id)
        with pytest.raises(ValueError, match="group_id length 3 does not match 2 effects"):
            estimator.GroupedEffects(effects=[1.0, 2.0], std_errors=[1.0, 1.0],
                                     weights=[1.0, 1.0], group_id=["a", "b", "b"])

    @pytest.mark.parametrize("group_id", [["a"], ["a", "b", "a"]], ids=["short", "long"])
    def test_group_id_length_must_match(self, group_id):
        with pytest.raises(ValueError) as exc:
            GroupedEffects(effects=[1.0, 2.0], std_errors=[1.0, 1.0], weights=[1.0, 1.0],
                           group_id=group_id)
        assert str(exc.value) == f"group_id length {len(group_id)} does not match 2 effects"
