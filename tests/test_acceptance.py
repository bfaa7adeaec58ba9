"""End-to-end acceptance checks.

One test per headline claim: reproduction of the published Monte Carlo
tables (at 2000 replications instead of 10000), the analytic power-gain
benchmarks, the tuning-rule pairs printed alongside the empirical tables,
cross-route estimator identities, the variance/interval plumbing, and the
file-ingestion round trip.  Tolerances — ±0.015 on a table mean, ±0.03 on
a coverage rate — absorb both the Monte Carlo error of the reduced
replication count and the two-decimal rounding of the published values.
"""
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from mc_reference import MC_DRAWS, mc_powers
from powergain import basis, simulate
from powergain.basis import conditional_power, gaussian_pdf, hermite_sequence
from powergain.cli import main, read_tscore_file
from powergain.estimator import (
    GroupedEffects,
    TScoreSample,
    conditional_delta,
    estimate,
    reconstruct_prior,
)
from powergain.inference import confidence_interval, variance_hat
from powergain.simulate import DgpSpec, draw_population, run_cells
from powergain.spectrum import TuningConfig, build_basis, select_tuning

SQRT2 = math.sqrt(2.0)

# Published (mean estimate, CI coverage) per cell, rounded to 2 decimals.
TABLE_NORMAL = {
    50: (("truenull", 0.00, 0.94), ("cauchy", 0.07, 0.94), ("bimodal", 0.10, 0.94),
         ("large", 0.26, 0.94), ("slope", 0.13, 0.94), ("uniform", 0.15, 0.95),
         ("fitted", 0.09, 0.94)),
    500: (("truenull", 0.00, 0.95), ("cauchy", 0.08, 0.95), ("bimodal", 0.12, 0.95),
          ("large", 0.28, 0.95), ("slope", 0.13, 0.94), ("uniform", 0.16, 0.95),
          ("fitted", 0.10, 0.96)),
}
TABLE_ROBUST = {
    "t30": (("truenull", 0.00, 0.95), ("cauchy", 0.08, 0.96), ("bimodal", 0.11, 0.95),
            ("large", 0.27, 0.95), ("slope", 0.12, 0.94), ("uniform", 0.16, 0.95),
            ("fitted", 0.10, 0.95)),
    "lognormal": (("truenull", -0.02, 0.94), ("cauchy", 0.08, 0.95),
                  ("bimodal", 0.12, 0.95), ("large", 0.28, 0.92),
                  ("slope", 0.09, 0.94), ("uniform", 0.16, 0.95),
                  ("fitted", 0.09, 0.95)),
}
MEAN_TOL = 0.015
COVER_TOL = 0.03
REPS = 2000


def _check_cell(row, table_mean, table_cover, label, problems):
    line = (f"{label}: mean {row.mean_delta:+.4f} (published {table_mean:+.2f}), "
            f"coverage {row.coverage:.3f} (published {table_cover:.2f}), "
            f"failures {row.failures}/{row.reps}")
    print(line)
    if abs(row.mean_delta - table_mean) > MEAN_TOL:
        problems.append(f"mean off by {row.mean_delta - table_mean:+.4f} — {line}")
    if abs(row.coverage - table_cover) > COVER_TOL:
        problems.append(f"coverage off by {row.coverage - table_cover:+.3f} — {line}")


def _check_table(cells, problems):
    """Run the (spec, n, published mean, published coverage, seed) cells as the CLI does."""
    cfg = TuningConfig(c=SQRT2)
    rows = run_cells([(spec, n, REPS, cfg, seed) for spec, n, _, _, seed in cells])
    for (spec, n, t_mean, t_cover, _), row in zip(cells, rows):
        _check_cell(row, t_mean, t_cover, f"{spec.noise} n={n} {spec.prior}", problems)


def test_normal_noise_table_bias_and_coverage():
    problems = []
    _check_table([(DgpSpec(prior=prior), n, t_mean, t_cover, 1000 + 100 * i + k)
                  for i, (n, cells) in enumerate(TABLE_NORMAL.items())
                  for k, (prior, t_mean, t_cover) in enumerate(cells)], problems)
    assert not problems, "\n".join(problems)


def test_robust_noise_tables_bias_and_coverage():
    problems = []
    _check_table([(DgpSpec(prior=prior, noise=noise), 500, t_mean, t_cover,
                   2000 + 100 * i + k)
                  for i, (noise, cells) in enumerate(TABLE_ROBUST.items())
                  for k, (prior, t_mean, t_cover) in enumerate(cells)], problems)

    # A 1e7-draw Monte Carlo reference agrees with exact quadrature within
    # Monte Carlo error on the heavy-tailed noise family.
    mc_tol = 3.0 * math.sqrt(0.25 / MC_DRAWS)
    for prior in simulate.PRIORS:
        spec = DgpSpec(prior=prior, noise="t30")
        mc = mc_powers(spec, (1.0, spec.c))
        for scale, est_mc in zip((1.0, spec.c), mc):
            exact = simulate.oracle_power(spec, scale)
            assert abs(est_mc - exact) < mc_tol, (prior, scale)

    # The skewed-noise truth for the strongest prior rounds to the
    # published 0.31.
    assert round(simulate.oracle_delta(DgpSpec(prior="large", noise="lognormal")), 2) == 0.31
    assert not problems, "\n".join(problems)


def test_analytic_power_gain_benchmarks():
    # Doubling the sample of a study sitting exactly at 80% power lifts
    # its power by 17.8 percentage points.
    group = GroupedEffects(effects=[2.8016], std_errors=[1.0], weights=[1.0], group_id=["g"])
    report = conditional_delta(group, c=SQRT2)
    np.testing.assert_allclose(report.delta, 0.178, atol=1e-3)

    # On pure noise the naive rescaling (treat t as if it grew by c) claims
    # a power of 16.6% at c^2 = 2, while the actual gain is zero.
    sample = TScoreSample.from_scores(
        draw_population(DgpSpec(prior="truenull", theta0=1.0), 1_000_000, seed=77))
    naive = np.mean(np.abs(SQRT2 * sample.t) > 1.96)
    np.testing.assert_allclose(naive, 0.166, atol=3e-3)
    rep = estimate(sample, TuningConfig(c=SQRT2))
    assert abs(rep.delta) < 0.01
    print(f"benchmarks: conditional {report.delta:.4f}, naive {naive:.4f}, "
          f"null delta {rep.delta:+.5f}")


def test_tuning_rule_published_pairs():
    pairs = [(7569, 17, 0.10), (14171, 17, 0.08), (385, 14, 0.27),
             (36, 12, 0.61), (145, 13, None), (559, 14, None)]
    for n, expect_j, expect_eps in pairs:
        J, eps = select_tuning(TuningConfig(c=SQRT2, n_effective=n))
        assert J == expect_j, (n, J, expect_j)
        if expect_eps is not None:
            assert round(eps, 2) == expect_eps, (n, eps, expect_eps)


def test_estimator_identities():
    sample = TScoreSample.from_scores(draw_population(DgpSpec(prior="bimodal"), 400, seed=33))
    cfg = TuningConfig(c=SQRT2)

    # No sample-size change, no gain — exactly.
    assert estimate(sample, TuningConfig(c=1.0)).delta == 0.0

    # Odd-index coefficients vanish identically.
    b = build_basis(cfg, 21)
    assert all(v == 0.0 for v in b.a[1::2])

    # The estimate depends on t only through |t|.
    flipped = TScoreSample.from_scores(-sample.t, sample.study_id)
    rep, rep_f = estimate(sample, cfg), estimate(flipped, cfg)
    assert rep.delta == rep_f.delta and rep.se == rep_f.se

    # When the caliper ratio is exactly 1 the correction is a no-op.
    balanced = TScoreSample.from_scores(
        np.array([1.2, 1.5, 2.2, 2.5, 0.3, 0.5, 3.5, 0.7]))
    with_pb = estimate(balanced, cfg)
    assert with_pb.theta == 1.0
    assert with_pb.delta == estimate(balanced, cfg, pb=False).delta

    # Averaging the kernel equals integrating the reconstructed effect
    # distribution against the power-gain functional.
    J, _ = select_tuning(TuningConfig(c=SQRT2, n_effective=sample.n))
    b = build_basis(cfg, J)
    coef = reconstruct_prior(sample, b, theta_hat=rep.theta)
    np.testing.assert_allclose(np.sum(coef * b.eta * b.lam * b.a), rep.delta, atol=1e-10)

    # Orthonormality of all three scaled polynomial families.
    nodes, weights = hermegauss(64)
    G = hermite_sequence(nodes, 20)
    gram = (G * weights) @ G.T / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-8)

    # Uniform bound on the weighted basis functions over a dense grid.
    t = np.linspace(-50.0, 50.0, 100_001)
    vals = np.abs(hermite_sequence(t, 40)) * gaussian_pdf(t, 1.0)
    assert vals.max() <= 1.0 / math.sqrt(2.0 * math.pi) + 1e-12


def test_variance_and_interval_plumbing():
    lo, hi = confidence_interval(0.072, 0.025 ** 2)
    assert (round(lo, 2), round(hi, 2)) == (0.02, 0.12)

    rng = np.random.default_rng(42)
    m = rng.normal(size=60)
    singleton = variance_hat(m, np.arange(60))
    iid = float(np.sum((m - m.mean()) ** 2)) / 60 ** 2
    np.testing.assert_allclose(singleton, iid, atol=1e-12)

    assert variance_hat(m, np.zeros(60, dtype=int)) == 0.0


def test_file_ingestion_round_trip(tmp_path):
    # A synthetic t-score file with known truth: parsing it reproduces the
    # in-memory estimate bit for bit, and the estimate finds the truth.
    sample = TScoreSample.from_scores(draw_population(DgpSpec(prior="bimodal"), 2000, seed=11))
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("t,study_id\n" + "".join(
        f"{float(t)!r},{s}\n" for t, s in zip(sample.t, sample.study_id)))
    parsed, has_sid = read_tscore_file(str(csv_path))
    assert has_sid and parsed.n == 2000
    cfg = TuningConfig(c=SQRT2)
    rep_mem, rep_file = estimate(sample, cfg), estimate(parsed, cfg)
    assert rep_file.delta == rep_mem.delta
    # String ids cluster in lexicographic order, integer ids in numeric
    # order, so the variance accumulates in a different order.
    np.testing.assert_allclose(rep_file.se, rep_mem.se, rtol=1e-12)
    assert abs(rep_file.delta - 0.12205062) < 3.0 * rep_file.se

    # Grouped ingestion hits the analytic benchmark through the CLI.
    grouped = tmp_path / "groups.csv"
    grouped.write_text("group_id,effect,std_error,weight\nonly,2.8016,1.0,1.0\n")
    out = tmp_path / "cond.json"
    assert main(["conditional", str(grouped), "--out", "json",
                 "--output", str(out)]) == 0
    delta = json.loads(out.read_text())["report"]["delta"]
    np.testing.assert_allclose(delta, 0.178, atol=1e-3)

    # The published empirical estimates require third-party datasets that
    # are not bundled; the README documents the recipe for users who hold
    # them, plus the simulation presets that are reproducible here.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "--table" in readme
    assert "third-party" in readme.lower()
