"""Tests for the data generators, truth oracles, and coverage driver."""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from mc_reference import MC_DRAWS, lognormal_pool_means, mc_powers
from powergain import estimator, simulate, spectrum
from powergain.pubbias import CaliperError
from powergain.simulate import DgpSpec

SQRT2 = math.sqrt(2.0)

# Quadrature truths for normal noise, frozen from an independent
# integration of the conditional power against each prior.
NORMAL_TRUTHS = {
    "truenull": (0.049995790296440868, 0.0),
    "cauchy": (0.36544400, 0.08606210),
    "bimodal": (0.44494194, 0.12205062),
    "large": (0.50006055, 0.28260297),
    "slope": (0.16549608, 0.11629607),
    "uniform": (0.37238673, 0.16654478),
    "fitted": (0.54291803, 0.10080881),
}

# Same, with Student-t(30) noise (exact t CDF inside the quadrature).
T30_TRUTHS = {
    "truenull": (0.05934231, 0.0),
    "cauchy": (0.36958693, 0.08500167),
    "bimodal": (0.44706063, 0.12114818),
    "large": (0.50027493, 0.27927588),
    "slope": (0.17101399, 0.11390898),
    "uniform": (0.37514314, 0.16434843),
    "fitted": (0.54383266, 0.10027958),
}


class TestDgpSpec:
    def test_unknown_prior_lists_options(self):
        with pytest.raises(ValueError, match="truenull.*cauchy.*fitted"):
            DgpSpec(prior="gaussian")

    def test_unknown_noise_lists_options(self):
        with pytest.raises(ValueError, match="normal.*t30.*lognormal"):
            DgpSpec(noise="laplace")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            DgpSpec(theta0=0.0)
        with pytest.raises(ValueError):
            DgpSpec(theta0=1.5)
        with pytest.raises(ValueError):
            DgpSpec(c=0.9)
        for field in ("theta0", "cv", "c"):
            with pytest.raises(ValueError, match=field):
                DgpSpec(**{field: math.nan})

    def test_default_fitted_masses_sum_to_one(self):
        np.testing.assert_allclose(sum(simulate.FITTED_MASSES), 1.0, rtol=1e-12)


class TestDrawPopulation:
    def test_deterministic_and_right_size(self):
        spec = DgpSpec(prior="bimodal")
        s1 = estimator.TScoreSample.from_scores(simulate.draw_population(spec, 137, 5))
        s2 = estimator.TScoreSample.from_scores(simulate.draw_population(spec, 137, 5))
        assert s1.n == 137
        np.testing.assert_array_equal(s1.t, s2.t)
        assert s1.n_clusters == 137  # singleton clusters

    def test_no_thinning_keeps_nominal_size(self):
        spec = DgpSpec(prior="truenull", theta0=1.0)
        t = simulate.draw_population(spec, 200_000, 42)
        share = float(np.mean(np.abs(t) > 1.96))
        np.testing.assert_allclose(share, 0.05, atol=0.003)

    def test_thinning_raises_significant_share(self):
        # Insignificant scores survive with probability 0.9, so the
        # published share of significant results is
        # 0.05 / (0.05 + 0.9 * 0.95) = 0.0552 instead of 0.05.
        spec = DgpSpec(prior="truenull", theta0=0.9)
        t = simulate.draw_population(spec, 200_000, 42)
        share = float(np.mean(np.abs(t) > 1.96))
        np.testing.assert_allclose(share, 0.0552439929, atol=0.003)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            simulate.draw_population(DgpSpec(), 0, 1)

    def test_fitted_prior_hits_support(self):
        spec = DgpSpec(prior="fitted", theta0=1.0)
        rng = np.random.default_rng(42)
        h = simulate._draw_prior(spec, rng, 50_000)
        values, counts = np.unique(h, return_counts=True)
        assert set(values).issubset(set(simulate.FITTED_SUPPORT))
        # Mass 0 at support point 5 means it never appears.
        assert 5.0 not in values
        np.testing.assert_allclose(counts[values == 1.0] / 50_000, 0.47,
                                   atol=0.01)


class TestNoiseFamilies:
    def test_t30_is_raw_not_standardized(self):
        rng = np.random.default_rng(42)
        z = simulate._draw_noise("t30", rng, 400_000)
        # Raw t(30) variance is 30/28, distinguishing it from a
        # standardized variant with variance 1.
        np.testing.assert_allclose(z.var(), 30.0 / 28.0, atol=0.02)
        np.testing.assert_allclose(z.mean(), 0.0, atol=0.01)

    def test_lognormal_mean_is_standardized_and_skewed(self):
        rng = np.random.default_rng(42)
        z = simulate._draw_noise("lognormal", rng, 120_000)
        np.testing.assert_allclose(z.mean(), 0.0, atol=0.02)
        np.testing.assert_allclose(z.var(), 1.0, atol=0.03)
        skew = float(np.mean(z ** 3))
        # Lognormal(0,1) skewness ~6.185 shrinks by sqrt(185) to ~0.45.
        assert 0.3 < skew < 0.65


class TestOraclePower:
    def test_normal_noise_frozen_values(self):
        for prior, (power, _) in NORMAL_TRUTHS.items():
            spec = DgpSpec(prior=prior, noise="normal")
            np.testing.assert_allclose(simulate.oracle_power(spec, 1.0), power,
                                       rtol=1e-6, err_msg=prior)

    def test_t30_noise_frozen_values(self):
        for prior, (power, _) in T30_TRUTHS.items():
            spec = DgpSpec(prior=prior, noise="t30")
            np.testing.assert_allclose(simulate.oracle_power(spec, 1.0), power,
                                       rtol=1e-6, err_msg=prior)

    def test_truenull_ignores_scale(self):
        spec = DgpSpec(prior="truenull")
        p1 = simulate.oracle_power(spec, 1.0)
        p2 = simulate.oracle_power(spec, 3.0)
        np.testing.assert_allclose([p1, p2], 0.049995790296440868, rtol=1e-10)

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            simulate.oracle_power(DgpSpec(), 0.5)
        with pytest.raises(ValueError):
            simulate.oracle_power(DgpSpec(), math.nan)

    def test_monotone_in_scale(self):
        spec = DgpSpec(prior="bimodal")
        powers = [simulate.oracle_power(spec, s) for s in (1.0, 1.2, SQRT2, 2.0)]
        assert powers == sorted(powers)


class TestOracleDelta:
    def test_truenull_exactly_zero(self):
        assert simulate.oracle_delta(DgpSpec(prior="truenull")) == 0.0
        assert simulate.oracle_delta(
            DgpSpec(prior="truenull", noise="lognormal")) == 0.0

    def test_normal_noise_frozen_values(self):
        for prior, (_, delta) in NORMAL_TRUTHS.items():
            if prior == "truenull":
                continue
            spec = DgpSpec(prior=prior, noise="normal")
            np.testing.assert_allclose(simulate.oracle_delta(spec), delta,
                                       rtol=1e-6, err_msg=prior)

    def test_t30_noise_frozen_values(self):
        for prior, (_, delta) in T30_TRUTHS.items():
            if prior == "truenull":
                continue
            spec = DgpSpec(prior=prior, noise="t30")
            np.testing.assert_allclose(simulate.oracle_delta(spec), delta,
                                       rtol=1e-6, err_msg=prior)


def quadpack_power(spec, scale):
    """oracle_power of a continuous prior by adaptive QUADPACK at 1e-10."""
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200)

    def pw(h):
        return simulate._power_given_effect(scale * h, spec.noise, spec.cv)

    if spec.prior == "cauchy":
        return integrate.quad(lambda u: pw(math.tan(u)) / math.pi,
                              -math.pi / 2, math.pi / 2, **opts)[0]
    if spec.prior == "uniform":
        return integrate.quad(lambda h: pw(h) / 6.0, -3.0, 3.0, **opts)[0]
    total = 0.0
    for w, mu, sd in simulate._NORMAL_MIXTURES[spec.prior]:
        total += w * integrate.quad(
            lambda h: pw(h) * stats.norm.pdf(h, mu, sd),
            mu - 12.0 * sd, mu + 12.0 * sd, **opts)[0]
    return total


class TestQuadratureOracle:
    """The fixed Gauss-Legendre rule against QUADPACK and the SciPy laws."""

    @pytest.mark.parametrize("noise, tol", [("normal", 1e-13), ("t30", 1e-13),
                                            ("lognormal", 1e-9)])
    def test_matches_quadpack(self, noise, tol):
        # The lognormal-mean CDF is piecewise linear on its lattice, so
        # QUADPACK itself only meets its 1e-10 tolerance there.
        for prior in ("cauchy", "bimodal", "large", "slope", "uniform"):
            spec = DgpSpec(prior=prior, noise=noise)
            for scale in (1.0, SQRT2, 2.0, 3.0):
                got = simulate.oracle_power(spec, scale)
                assert abs(got - quadpack_power(spec, scale)) <= tol, (prior, scale)

    def test_t30_power_is_the_scipy_t_law(self):
        h = np.linspace(-40.0, 40.0, 20_001)
        for cv in (1.0, 1.96, 2.58):
            old = stats.t.sf(cv - h, 30) + stats.t.cdf(-cv - h, 30)
            assert np.array_equal(simulate._power_given_effect(h, "t30", cv), old)

    def test_lognormal_law_is_built_from_the_scipy_masses(self):
        step = simulate._LOGNORMAL_STEP
        cells = int(round(simulate._LOGNORMAL_TOP / step))
        bounds = (np.arange(cells + 1) - 0.5) * step
        bounds[0] = 0.0
        pmf = np.diff(stats.lognorm.cdf(bounds, 1.0))
        pool = np.fft.irfft(np.fft.rfft(pmf) ** simulate._LOGNORMAL_POOL, cells)
        edges, cdf = simulate._lognormal_mean_cdf()
        assert np.array_equal(cdf, np.cumsum(pool))


class TestMonteCarloOracle:
    def test_agrees_with_quadrature_within_mc_error(self):
        # 1e7-draw reference; 3 sigma of a Bernoulli mean at p ~ 0.5.
        tol = 3.0 * math.sqrt(0.25 / MC_DRAWS)
        for prior in ("truenull", "bimodal", "fitted"):
            spec = DgpSpec(prior=prior, noise="normal")
            mc = mc_powers(spec, (1.0,))[0]
            exact = simulate.oracle_power(spec, 1.0)
            assert abs(mc - exact) < tol, prior

    def test_lognormal_noise_shifts_the_null_power(self):
        # The standardized mean of 185 lognormals is slightly platykurtic
        # in the tails, so the size of the nominal-5% test drops to ~0.048.
        # A raw (unstandardized) mean or a single lognormal draw would land
        # far outside this band.
        spec = DgpSpec(prior="truenull", noise="lognormal")
        np.testing.assert_allclose(simulate.oracle_power(spec, 1.0), 0.0479,
                                   atol=3e-4)


class TestLognormalMeanLaw:
    @staticmethod
    def cell_masses(edges, cdf):
        # The law is piecewise uniform on a lattice of step h / (185 sd)
        # ~ 1.4e-4; differencing the CDF on a finer grid gives its moments
        # to within step^2 / 12 in the variance.
        x = np.linspace(-10.5, 40.0, 1_000_001)
        return 0.5 * (x[1:] + x[:-1]), np.diff(np.interp(x, edges, cdf))

    def test_cdf_strictly_increases(self):
        # The inverse-CDF draws interpolate u -> x, which needs this.
        edges, cdf = simulate._lognormal_mean_cdf()
        assert (np.diff(edges) > 0).all() and (np.diff(cdf) > 0).all()

    def test_moments(self):
        mid, mass = self.cell_masses(*simulate._lognormal_mean_cdf())
        assert abs(mass.sum() - 1.0) < 1e-9
        mean = float(mid @ mass)
        var = float((mid - mean) ** 2 @ mass)
        skew = float((mid - mean) ** 3 @ mass) / var ** 1.5
        exact_skew = (math.e + 2.0) * math.sqrt(math.e - 1.0) / math.sqrt(185.0)
        assert abs(mean) < 1e-6
        assert abs(var - 1.0) < 1e-5
        assert abs(skew - exact_skew) < 1e-4

    def test_agrees_with_simulation_draws(self):
        # The reference draws pool 185 lognormals each, independently of
        # the table that the package draws from by inverse CDF.
        rng = np.random.default_rng(185)
        z = np.concatenate([lognormal_pool_means(rng, 20_000) for _ in range(10)])
        edges, cdf = simulate._lognormal_mean_cdf()
        for x in (-2.5, -1.96, -1.0, 0.0, 1.0, 1.96, 2.5):
            p = float(np.interp(x, edges, cdf))
            sigma = math.sqrt(p * (1.0 - p) / z.size)
            assert abs(float(np.mean(z <= x)) - p) < 3.0 * sigma, x

    def test_lattice_is_converged(self, monkeypatch):
        spec = DgpSpec(prior="bimodal", noise="lognormal")
        coarse = [simulate.oracle_power(spec, s) for s in (1.0, spec.c)]
        monkeypatch.setattr(simulate, "_LOGNORMAL_STEP", simulate._LOGNORMAL_STEP / 2)
        simulate._lognormal_mean_cdf.cache_clear()
        try:
            fine = [simulate.oracle_power(spec, s) for s in (1.0, spec.c)]
        finally:
            monkeypatch.undo()
            simulate._lognormal_mean_cdf.cache_clear()
        np.testing.assert_allclose(fine, coarse, rtol=0, atol=1e-6)

    def test_gain_and_power_share_one_law(self):
        for prior in ("bimodal", "large"):
            spec = DgpSpec(prior=prior, noise="lognormal")
            assert simulate.oracle_delta(spec) == (
                simulate.oracle_power(spec, spec.c) - simulate.oracle_power(spec, 1.0))


class TestRunCoverage:
    def test_deterministic_rows(self):
        spec = DgpSpec(prior="truenull")
        cfg = spectrum.TuningConfig(c=SQRT2)
        r1 = simulate.run_coverage(spec, 50, 30, cfg, seed=9)
        r2 = simulate.run_coverage(spec, 50, 30, cfg, seed=9)
        assert r1 == r2

    def test_row_accounting(self):
        spec = DgpSpec(prior="bimodal")
        cfg = spectrum.TuningConfig(c=SQRT2)
        row = simulate.run_coverage(spec, 120, 40, cfg, seed=3)
        assert row.reps == 40 and 0 <= row.failures <= 40
        assert 0.0 <= row.coverage <= 1.0
        assert row.n == 120 and row.dgp == "bimodal" and row.noise == "normal"
        np.testing.assert_allclose(row.true_delta, 0.12205062, rtol=1e-6)

    def test_recovers_truth_at_moderate_scale(self):
        spec = DgpSpec(prior="bimodal")
        cfg = spectrum.TuningConfig(c=SQRT2)
        row = simulate.run_coverage(spec, 500, 60, cfg, seed=14)
        assert abs(row.mean_delta - 0.12205062) < 0.03
        assert 0.75 <= row.coverage <= 1.0

    def test_config_mismatch_rejected(self):
        spec = DgpSpec(prior="truenull", c=SQRT2)
        with pytest.raises(ValueError):
            simulate.run_coverage(spec, 50, 5, spectrum.TuningConfig(c=2.0), 1)

    def test_tsv_row_matches_header(self):
        spec = DgpSpec(prior="truenull")
        cfg = spectrum.TuningConfig(c=SQRT2)
        row = simulate.run_coverage(spec, 60, 10, cfg, seed=2)
        header_cols = simulate.CoverageRow.TSV_HEADER.split("\t")
        row_cols = row.to_tsv_row().split("\t")
        assert len(header_cols) == len(row_cols) == 12
        assert header_cols[0] == "n" and header_cols[1] == "dgp"
        assert row_cols[0] == "60" and row_cols[1] == "truenull"

    def test_bias_shrinks_with_sample_size(self):
        spec = DgpSpec(prior="bimodal")
        cfg = spectrum.TuningConfig(c=SQRT2)
        truth = 0.12205062
        biases = {}
        for n, reps in ((50, 200), (500, 200), (5000, 200)):
            row = simulate.run_coverage(spec, n, reps, cfg, seed=21)
            biases[n] = abs(row.mean_delta - truth)
        # Monotone trend with room for Monte Carlo noise in the flat tail.
        assert biases[50] > biases[500] - 0.01
        assert biases[500] > biases[5000] - 0.01
        assert biases[50] > biases[5000]


def scalar_coverage(spec, n, reps, cfg, seed):
    """The replication loop with one ``delta_hat_pb`` call per replication.

    Returns (failures by kind, coverage, mean delta, sd delta, mean SE).
    """
    cfg = replace(cfg, n_effective=n)
    J, eps = spectrum.select_tuning(cfg)
    b = spectrum.build_basis(cfg, J)
    truth = simulate.oracle_delta(spec)
    kinds, deltas, ses, covered = Counter(), [], [], 0
    for stream in np.random.SeedSequence(seed).spawn(reps):
        sample = estimator.TScoreSample.from_scores(simulate.draw_population(spec, n, stream))
        try:
            rep = estimator.delta_hat_pb(sample, b, eps, alpha=cfg.alpha)
        except CaliperError:
            kinds["empty upper bin"] += 1
            continue
        except estimator.EstimationError:
            kinds["zero weights"] += 1
            continue
        if not math.isfinite(rep.se):
            kinds["no se"] += 1
            continue
        deltas.append(rep.delta)
        ses.append(rep.se)
        covered += int(rep.ci_low <= truth <= rep.ci_high)
    return (kinds, covered / len(deltas), float(np.mean(deltas)),
            float(np.std(deltas, ddof=1)), float(np.mean(ses)))


class TestBatchedReplications:
    @pytest.mark.parametrize("prior, n, reps, seed, blocks", [
        ("cauchy", 30, 60, 5, [60]),           # both failure kinds, one block
        ("bimodal", 500, 37, 8, [16, 16, 5]),  # reps not a multiple of the block
        ("bimodal", 9000, 3, 2, [1, 1, 1]),    # n > _CHUNK: one replication a block
    ])
    def test_matches_scalar_loop(self, monkeypatch, prior, n, reps, seed, blocks):
        spec = DgpSpec(prior=prior)
        cfg = spectrum.TuningConfig(c=SQRT2)
        shapes = []
        batch = simulate.delta_hat_pb_rows

        def recording(t, *args, **kwargs):
            shapes.append(t.shape)
            return batch(t, *args, **kwargs)

        monkeypatch.setattr(simulate, "delta_hat_pb_rows", recording)
        row = simulate.run_coverage(spec, n, reps, cfg, seed)
        assert shapes == [(k, n) for k in blocks]
        kinds, coverage, mean_d, sd_d, mean_se = scalar_coverage(spec, n, reps, cfg, seed)
        if n == 30:
            assert kinds["empty upper bin"] > 0 and kinds["no se"] > 0
        assert row.failures == sum(kinds.values())
        assert row.coverage == coverage
        np.testing.assert_allclose([row.mean_delta, row.sd_delta, row.mean_se],
                                   [mean_d, sd_d, mean_se], rtol=1e-12, atol=0)


class TestTablePresets:
    def test_layout(self):
        assert simulate.TABLE_PRESETS[1] == ("normal", (50, 500))
        assert simulate.TABLE_PRESETS[2] == ("t30", (500,))
        assert simulate.TABLE_PRESETS[3] == ("lognormal", (500,))
