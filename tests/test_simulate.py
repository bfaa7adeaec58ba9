"""Tests for the data generators, truth oracles, and coverage driver."""
import functools
import math
from collections import Counter
from dataclasses import asdict, replace
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from mc_reference import MC_DRAWS, lognormal_pool_means, mc_powers
from powergain import basis, estimator, simulate, spectrum
from powergain.cli import main, render_simulate_text
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
        # A 50-digit reference from the closed form for even degrees of
        # freedom, itself checked against mpmath's incomplete beta function.
        # -cv - h at h is h - cv at -h, so each argument is evaluated once.
        @functools.cache
        def cdf(t):
            t = Decimal(t)
            t2 = t * t
            x = 30 / (30 + t2)
            total = Decimal(0)
            for j in reversed(range(15)):
                total = total * x + Decimal(math.comb(2 * j, j)) / 4 ** j
            return Decimal("0.5") + t / (2 * (30 + t2).sqrt()) * total

        with localcontext() as ctx, mpmath.workdps(50):
            ctx.prec = 50
            for t in (-40.0, -5.5, -1.0):
                beta = mpmath.betainc(15, 0.5, 0, 30 / (30 + mpmath.mpf(t) ** 2),
                                      regularized=True) / 2
                assert abs(cdf(t) - Decimal(str(beta))) < Decimal("1e-45")
            h = np.linspace(-40.0, 40.0, 20_001)
            for cv in (1.0, 1.96, 2.58):
                got = simulate._power_given_effect(h, "t30", cv)
                ref = [float(cdf(a) + cdf(b))
                       for a, b in zip((h - cv).tolist(), (-cv - h).tolist())]
                assert np.max(np.abs(got - ref)) <= 1e-15, cv
                old = stats.t.sf(cv - h, 30) + stats.t.cdf(-cv - h, 30)
                assert np.max(np.abs(got - old)) <= 1e-15, cv

    def test_lognormal_law_is_built_from_the_scipy_masses(self):
        step = simulate._LOGNORMAL_STEP
        cells = int(round(simulate._LOGNORMAL_TOP / step))
        bounds = (np.arange(cells + 1) - 0.5) * step
        bounds[0] = 0.0
        cell_cdf = np.concatenate([[0.0], basis._ndtr(np.log(bounds[1:]))])
        scipy_cdf = stats.lognorm.cdf(bounds, 1.0)
        assert np.max(np.abs(cell_cdf - scipy_cdf)) <= 2e-16

        def law(cell_cdf):
            pool = np.fft.irfft(np.fft.rfft(np.diff(cell_cdf)) ** simulate._LOGNORMAL_POOL,
                                cells)
            return np.cumsum(pool)

        edges, cdf = simulate._lognormal_mean_cdf()
        assert np.array_equal(cdf, law(cell_cdf))
        # One draw's CDFs differ by at most 2 * 2e-16, and a 185-fold
        # convolution multiplies a CDF distance by at most 185.
        assert np.max(np.abs(cdf - law(scipy_cdf))) <= simulate._LOGNORMAL_POOL * 4e-16


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

    @pytest.mark.parametrize("seed", [0, 1, 7, 185, 2024])
    def test_sorted_draws_are_the_plain_inverse_cdf(self, seed):
        # The draws search the CDF with sorted uniforms; every draw is still
        # np.interp's value at its own uniform.
        edges, cdf = simulate._lognormal_mean_cdf()
        want = np.interp(np.random.default_rng(seed).random(1032), cdf, edges)
        got = simulate._draw_noise("lognormal", np.random.default_rng(seed), 1032)
        assert got.tobytes() == want.tobytes()

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
        header, line = render_simulate_text([asdict(row)]).split("\n")
        header_cols, row_cols = header.split("\t"), line.split("\t")
        assert len(header_cols) == len(row_cols) == 12
        assert sorted(header_cols) == sorted(asdict(row))
        assert header_cols[0] == "n" and header_cols[1] == "dgp"
        assert row_cols[0] == "60" and row_cols[1] == "truenull"
        for name, cell in zip(header_cols, row_cols):
            value = getattr(row, name)
            assert cell == (f"{value:.6f}" if isinstance(value, float) else str(value))

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
        ("bimodal", 50, 20, 2**128 + 1, [20]),  # five entropy words, more than the pool
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


def reference_draw(spec, n, rng):
    """Published scores drawn round by round from one generator.

    The thinning loop in its plainest form, with ``Generator.choice`` for
    the fitted prior: the draws that every replication must reproduce.
    """
    kept, have = [], 0
    while have < n:
        m = 2 * (n - have) + 32
        if spec.prior == "fitted":
            h = rng.choice(simulate.FITTED_SUPPORT, size=m, p=simulate.FITTED_MASSES)
        else:
            h = simulate._draw_prior(spec, rng, m)
        t = h + simulate._draw_noise(spec.noise, rng, m)
        keep = (np.abs(t) > spec.cv) | (rng.random(m) < spec.theta0)
        kept.append(t[keep])
        have += int(keep.sum())
    return np.concatenate(kept)[:n]


def block_rows(spec, n, seed, start, stop):
    """Rows start .. stop - 1 of a run_coverage block, drawn from seed's children."""
    root = np.random.SeedSequence(seed)
    words = simulate._spawned_words(root, start, stop)
    generator = simulate._seeded_generator()
    return simulate._draw_rows(spec, n, [generator(w) for w in words])


class TestSpawnedSeeds:
    @pytest.mark.parametrize("start, stop", [(0, 1), (0, 7), (5, 12), (1000, 1003)])
    @pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
    def test_words_and_state_match_numpy(self, entropy, start, stop):
        children = np.random.SeedSequence(entropy).spawn(stop)[start:]
        words = simulate._spawned_words(np.random.SeedSequence(entropy), start, stop)
        assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
        np.testing.assert_array_equal(
            words, [child.generate_state(4, np.uint64) for child in children])
        generator = simulate._seeded_generator()
        for child, row in zip(children, words):
            rng = generator(row)
            assert rng.bit_generator.state == np.random.PCG64(child).state
            np.testing.assert_array_equal(rng.random(3), np.random.default_rng(child).random(3))

    @pytest.mark.parametrize("pool_size", [5, 9])
    def test_other_pool_sizes_and_long_entropy(self, pool_size):
        # 2**300 + 9 has 10 words, more than either pool holds.
        for entropy in (3, 2**300 + 9):
            root = np.random.SeedSequence(entropy, pool_size=pool_size)
            np.testing.assert_array_equal(
                simulate._spawned_words(root, 2, 6),
                [child.generate_state(4, np.uint64) for child in root.spawn(6)[2:]])

    def test_unseeded_run_reads_one_entropy(self, monkeypatch):
        # With seed None the root draws fresh entropy once; every block
        # must seed from that same root.
        entropies = []
        spawned = simulate._spawned_words

        def recording(root, *args):
            entropies.append(root.entropy)
            return spawned(root, *args)

        monkeypatch.setattr(simulate, "_spawned_words", recording)
        cfg = spectrum.TuningConfig(c=SQRT2)
        simulate.run_coverage(DgpSpec(prior="bimodal"), 4000, 5, cfg, None)  # blocks of 2
        assert len(entropies) == 3 and len(set(entropies)) == 1

    def test_too_many_children(self, monkeypatch, capsys):
        # Refused before the first block is drawn, not at child 2**32.
        def no_draws(*args):
            raise AssertionError("drew a block")

        monkeypatch.setattr(simulate, "_draw_rows", no_draws)
        cfg = spectrum.TuningConfig(c=SQRT2)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate.run_coverage(DgpSpec(), 500, 2**32 + 1, cfg, 1)
        assert main(["simulate", "--table", "1", "--reps", str(2**32 + 1)]) == 2
        assert "2**32" in capsys.readouterr().err

    def test_negative_seed_is_numpys_error(self, capsys):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-1)
        cfg = spectrum.TuningConfig(c=SQRT2)
        with pytest.raises(ValueError) as ours:
            simulate.run_coverage(DgpSpec(), 50, 2, cfg, -1)
        assert str(ours.value) == str(numpy_error.value)
        # The CLI names the flag instead.
        assert main(["simulate", "--dgp", "truenull", "--n", "50", "--reps", "2",
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer, got -1\n")


class TestBlockDraws:
    @pytest.mark.parametrize("n", [1, 50, 500])
    @pytest.mark.parametrize("noise", simulate.NOISES)
    @pytest.mark.parametrize("prior", simulate.PRIORS)
    def test_rows_are_the_single_draws(self, prior, noise, n):
        spec = DgpSpec(prior=prior, noise=noise)
        rows = block_rows(spec, n, 11, 2, 6)
        assert rows.shape == (4, n)
        for child, row in zip(np.random.SeedSequence(11).spawn(6)[2:], rows):
            np.testing.assert_array_equal(row, simulate.draw_population(spec, n, child))
            np.testing.assert_array_equal(row, reference_draw(spec, n, np.random.default_rng(child)))

    @pytest.mark.parametrize("theta0, continued", [(0.01, {6}), (0.35, {1, 2, 3, 4, 5})])
    def test_short_rows_continue_their_own_stream(self, monkeypatch, theta0, continued):
        # At theta0 = 0.01 about 8 of the 132 first-round draws are kept, so
        # every row draws more; at 0.35 about 50, so some rows do.
        spec, n = DgpSpec(prior="truenull", theta0=theta0), 50
        calls = []
        draw_noise = simulate._draw_noise

        def recording(noise, rng, m):
            calls.append((rng, m))
            return draw_noise(noise, rng, m)

        monkeypatch.setattr(simulate, "_draw_noise", recording)
        rows = block_rows(spec, n, 4, 0, 6)
        assert [m for _, m in calls[:6]] == [2 * n + 32] * 6
        assert len({id(rng) for rng, _ in calls[6:]}) in continued
        for child, row in zip(np.random.SeedSequence(4).spawn(6), rows):
            np.testing.assert_array_equal(row, reference_draw(spec, n, np.random.default_rng(child)))

    @pytest.mark.parametrize("m", [1, 132, 5000])
    def test_fitted_prior_is_generator_choice(self, m):
        ours, numpys = np.random.default_rng(8), np.random.default_rng(8)
        h = simulate._draw_prior(DgpSpec(prior="fitted"), ours, m)
        np.testing.assert_array_equal(
            h, numpys.choice(simulate.FITTED_SUPPORT, size=m, p=simulate.FITTED_MASSES))
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_generator_stream_continues(self):
        spec = DgpSpec(prior="bimodal", theta0=0.5)
        ours, ref = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(3):
            np.testing.assert_array_equal(simulate.draw_population(spec, 40, ours),
                                          reference_draw(spec, 40, ref))


class TestTablePresets:
    def test_layout(self):
        assert simulate.TABLE_PRESETS[1] == ("normal", (50, 500))
        assert simulate.TABLE_PRESETS[2] == ("t30", (500,))
        assert simulate.TABLE_PRESETS[3] == ("lognormal", (500,))
