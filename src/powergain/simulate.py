"""Synthetic data generators, truth oracles, and the coverage experiment.

Everything needed to benchmark the estimator end to end: a small family of
true-effect distributions, three noise families (exact normal, Student-t
with 30 degrees of freedom, and the standardized mean of 185 lognormals,
drawn by inverse CDF from its exact law),
publication-bias thinning, quadrature oracles for the true power and true
gain (a fixed 16-panel, 32-node Gauss-Legendre rule against the exact law
of each noise family), and a driver that
repeatedly draws a meta-sample, estimates, and tallies bias and
confidence-interval coverage.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import basis as _basis
from .estimator import delta_hat_pb_rows
from .pubbias import significant
from . import spectrum as _spectrum

__all__ = [
    "PRIORS",
    "NOISES",
    "TABLE_PRESETS",
    "FITTED_MASSES",
    "FITTED_SUPPORT",
    "DgpSpec",
    "CoverageRow",
    "draw_population",
    "oracle_power",
    "oracle_delta",
    "run_coverage",
]

PRIORS = ("truenull", "cauchy", "bimodal", "large", "slope", "uniform", "fitted")
NOISES = ("normal", "t30", "lognormal")

#: Discrete distribution of true effects fitted to published estimates:
#: point masses on the integers 0..6.
FITTED_SUPPORT = np.arange(7.0)
FITTED_MASSES = (0.02, 0.47, 0.01, 0.27, 0.14, 0.00, 0.09)

#: Normal-mixture priors as (weight, mean, sd) components.
_NORMAL_MIXTURES = {
    "bimodal": ((0.5, 0.0, 1.0), (0.5, 2.8, 1.0)),
    "large": ((1.0, 1.96, 0.2),),
    "slope": ((1.0, 0.96, 0.2),),
}

#: Lognormal(0, 1) pool behind the third noise family.
_LOGNORMAL_POOL = 185
_LOGNORMAL_MEAN = math.exp(0.5)
_LOGNORMAL_SD = math.sqrt((math.e - 1.0) * math.e / _LOGNORMAL_POOL)
#: Lattice of the discretised LN(0, 1) law: cell width and upper end.
#: Pr(LN > 2000) = 1.5e-14, so the pool sum loses about 3e-12 of mass;
#: sums above the end wrap round the circular FFT, and doubling the end
#: moves the CDF by less than 1e-11.
_LOGNORMAL_STEP = 0.004
_LOGNORMAL_TOP = 2000.0

#: Simulation presets: table number -> (noise, sample sizes).
TABLE_PRESETS = {1: ("normal", (50, 500)), 2: ("t30", (500,)), 3: ("lognormal", (500,))}


@dataclass(frozen=True)
class DgpSpec:
    """One simulated meta-literature: prior, noise family, and selection.

    ``theta0`` is the relative publication probability of insignificant
    results (1 = no publication bias).  ``c`` is the counterfactual
    scale whose power gain the oracle reports.
    """

    prior: str = "truenull"
    noise: str = "normal"
    theta0: float = 0.9
    cv: float = 1.96
    c: float = math.sqrt(2.0)

    def __post_init__(self) -> None:
        if self.prior not in PRIORS:
            raise ValueError(
                f"unknown prior {self.prior!r}; valid options: {', '.join(PRIORS)}")
        if self.noise not in NOISES:
            raise ValueError(
                f"unknown noise {self.noise!r}; valid options: {', '.join(NOISES)}")
        if not 0.0 < self.theta0 <= 1.0:
            raise ValueError(f"theta0 must be in (0, 1], got {self.theta0}")
        if not 0 < self.cv < math.inf:
            raise ValueError(f"cv must be finite and positive, got {self.cv}")
        if not 1.0 <= self.c < math.inf:
            raise ValueError(f"counterfactual scale c must be finite and >= 1, got {self.c}")


def _draw_prior(spec: DgpSpec, rng: np.random.Generator, m: int) -> np.ndarray:
    if spec.prior == "truenull":
        return np.zeros(m)
    if spec.prior == "cauchy":
        return rng.standard_cauchy(m)
    if spec.prior in _NORMAL_MIXTURES:
        comps = _NORMAL_MIXTURES[spec.prior]
        if len(comps) == 1:
            _, mu, sd = comps[0]
            return rng.normal(mu, sd, m)
        pick = rng.random(m) < comps[0][0]
        return np.where(pick, rng.normal(comps[0][1], comps[0][2], m),
                        rng.normal(comps[1][1], comps[1][2], m))
    if spec.prior == "uniform":
        return rng.uniform(-3.0, 3.0, m)
    return rng.choice(FITTED_SUPPORT, size=m, p=np.asarray(FITTED_MASSES))


def _draw_noise(noise: str, rng: np.random.Generator, m: int) -> np.ndarray:
    if noise == "normal":
        return rng.standard_normal(m)
    if noise == "t30":
        return rng.standard_t(30, m)
    edges, cdf = _lognormal_mean_cdf()
    return np.interp(rng.random(m), cdf, edges)  # inverse CDF of the exact law


def draw_population(spec: DgpSpec, n: int, seed) -> np.ndarray:
    """Draw n published t-scores from the DGP, as a flat array.

    Scores are generated as true effect plus noise and then thinned:
    significant scores (|t| > cv) always survive, insignificant ones
    survive with probability theta0.  Draws continue until n scores are
    retained, so n counts published scores.  ``seed`` may be anything
    accepted by ``numpy.random.default_rng``, including a Generator.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 retained scores, got {n}")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    have = 0
    while have < n:
        m = 2 * (n - have) + 32
        t = _draw_prior(spec, rng, m) + _draw_noise(spec.noise, rng, m)
        keep = significant(t, spec.cv) | (rng.random(m) < spec.theta0)
        kept.append(t[keep])
        have += int(keep.sum())
    return np.concatenate(kept)[:n]


@functools.cache
def _lognormal_mean_cdf():
    """CDF of the standardized mean of 185 LN(0, 1) draws, from its exact law.

    LN(0, 1) is discretised to cells of width h centred on the multiples
    of h (masses from the exact CDF), the 185-fold convolution is one
    power of its real FFT, and the pool sum is then standardized.  Each
    lattice mass is spread evenly over its cell, so the CDF is linear
    between cell edges; rounding to the lattice adds h^2 / 12 per draw,
    a relative variance error of 3e-7.

    Returns ``(edges, cdf)``, the CDF at the cell edges.  Every lattice
    mass is positive, so the CDF strictly increases and ``np.interp``
    reads it both ways: x -> CDF for the oracle, u -> x for the
    inverse-CDF draws.  Built on first use (two arrays of 500,000 floats)
    and kept for the life of the process.
    """
    from scipy import special

    h = _LOGNORMAL_STEP
    cells = int(round(_LOGNORMAL_TOP / h))
    bounds = (np.arange(cells + 1) - 0.5) * h
    bounds[0] = 0.0
    # The LN(0, 1) CDF at b > 0 is Phi(log b); bounds[0] = 0 has CDF 0.
    pmf = np.diff(special.ndtr(np.log(bounds[1:])), prepend=0.0)
    pool = np.fft.irfft(np.fft.rfft(pmf) ** _LOGNORMAL_POOL, cells)
    edges = (bounds[1:] / _LOGNORMAL_POOL - _LOGNORMAL_MEAN) / _LOGNORMAL_SD
    return edges, np.cumsum(pool)


def _power_given_effect(h, noise: str, cv: float):
    """Pr(|h + Z| > cv) under the exact law of the noise Z."""
    h = np.asarray(h, dtype=float)
    if noise == "normal":
        return _basis.conditional_power(h, cv)
    if noise == "t30":
        from scipy import special

        return special.stdtr(30, h - cv) + special.stdtr(30, -cv - h)
    edges, cdf = _lognormal_mean_cdf()
    return 1.0 - np.interp(cv - h, edges, cdf) + np.interp(-cv - h, edges, cdf)


#: The truth oracle's quadrature: equal panels of Gauss-Legendre nodes.
_QUAD_PANELS, _QUAD_NODES = 16, 32


@functools.cache
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, read-only and computed on first use.

    Computed lazily so that importing the package loads no ``numpy.polynomial``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _integrate(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by the composite Gauss-Legendre rule.

    [a, b] is cut into ``_QUAD_PANELS`` equal panels of ``_QUAD_NODES``
    nodes each, and ``f`` is called once, on the (panels, nodes) array of
    every node.  The end points are never nodes.
    """
    nodes, weights = _gauss_legendre(_QUAD_NODES)
    half = 0.5 * (b - a) / _QUAD_PANELS
    mids = a + half * (2.0 * np.arange(_QUAD_PANELS) + 1.0)
    return float(half * np.sum(f(mids[:, None] + half * nodes) @ weights))


def oracle_power(spec: DgpSpec, scale: float) -> float:
    """True unconditional power when every effect is multiplied by scale.

    Continuous priors are integrated by ``_integrate``, a fixed rule of
    16 panels of 32 Gauss-Legendre nodes (the Cauchy prior through the
    arctangent substitution, which bounds the domain and keeps the
    integrand finite because power tends to 1 in the tails); the fitted
    prior is an exact finite sum.  Over every prior, noise family and
    scale in {1, sqrt 2, 2, 3}, the rule differs from QUADPACK (tolerance
    1e-10) by at most 4.4e-16 for normal and t(30) noise and 4.1e-11 for
    lognormal noise, whose CDF is piecewise linear on its lattice.
    The conditional power inside is exact for every noise family: closed
    form for normal and t(30), the FFT-convolution law of the pool mean
    for lognormal.
    """
    if not scale >= 1.0:
        raise ValueError(f"scale must be >= 1, got {scale}")
    cv = spec.cv

    def pw(h):
        return _power_given_effect(scale * h, spec.noise, cv)

    if spec.prior == "truenull":
        return float(pw(0.0))
    if spec.prior == "fitted":
        return float(np.dot(np.asarray(FITTED_MASSES), pw(FITTED_SUPPORT)))
    if spec.prior == "cauchy":
        return _integrate(lambda u: pw(np.tan(u)) / math.pi, -math.pi / 2, math.pi / 2)
    if spec.prior == "uniform":
        return _integrate(lambda h: pw(h) / 6.0, -3.0, 3.0)
    total = 0.0
    for w, mu, sd in _NORMAL_MIXTURES[spec.prior]:
        total += w * _integrate(
            lambda h: pw(h) * _basis.gaussian_pdf((h - mu) / sd) / sd,
            mu - 12.0 * sd, mu + 12.0 * sd)
    return float(total)


def oracle_delta(spec: DgpSpec) -> float:
    """True power gain at the DGP's counterfactual scale.

    Computed before publication bias: thinning changes what is observed,
    not the distribution of true effects.  Exactly zero for the
    degenerate-at-zero prior.
    """
    if spec.prior == "truenull":
        return 0.0
    return oracle_power(spec, spec.c) - oracle_power(spec, 1.0)


@dataclass(frozen=True)
class CoverageRow:
    """Aggregated result of one simulation cell.

    Column order of the delimited form follows the published layout:
    sample size, prior, true power, true gain, then the Monte Carlo
    mean/SD of the estimate, mean standard error, and coverage of the
    nominal 95% interval.  ``failures`` counts replications where the
    caliper ratio was unavailable (empty bin) — those are excluded from
    the averages but reported, never silently dropped.
    """

    n: int
    dgp: str
    noise: str
    unc_power: float
    true_delta: float
    mean_delta: float
    sd_delta: float
    mean_se: float
    coverage: float
    reps: int
    failures: int
    seed: int

    TSV_HEADER = ("n\tdgp\tunc_power\ttrue_delta\tmean_delta\tsd_delta"
                  "\tmean_se\tcoverage\tnoise\treps\tfailures\tseed")

    def to_tsv_row(self) -> str:
        stats_part = "\t".join(
            f"{v:.6f}" for v in (self.unc_power, self.true_delta, self.mean_delta,
                                 self.sd_delta, self.mean_se, self.coverage))
        return (f"{self.n}\t{self.dgp}\t{stats_part}\t{self.noise}"
                f"\t{self.reps}\t{self.failures}\t{self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


def run_coverage(spec: DgpSpec, n: int, reps: int,
                 cfg: _spectrum.TuningConfig, seed: int) -> CoverageRow:
    """Monte Carlo bias and coverage of the corrected estimator.

    Each replication draws a fresh population of n published scores from
    an independent RNG substream, estimates with the publication-bias
    correction, and checks whether the nominal 95% interval contains the
    oracle gain.  Tuning is selected once from n (the retained count is
    exactly n by construction).  Replications whose caliper bin is empty,
    whose selection weights sum to zero, or where no score lands just
    below the cutoff (point estimate fine but no standard error), are
    tallied as failures.  Deterministic given (spec, n, reps, cfg, seed);
    substreams make the replication loop order-independent.

    The draws are stacked into blocks of ``max(1, _CHUNK // n)``
    replications, and each block is estimated by one
    ``delta_hat_pb_rows`` call, the row core behind ``delta_hat_pb``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if cfg.c != spec.c or cfg.cv != spec.cv:
        raise ValueError("tuning config and DGP disagree on c or cv")
    if cfg.n_effective is None:
        cfg = replace(cfg, n_effective=n)
    J, epsilon = _spectrum.select_tuning(cfg)
    b = _spectrum.build_basis(cfg, J)
    truth = oracle_delta(spec)
    unc = oracle_power(spec, 1.0)

    streams = np.random.SeedSequence(seed).spawn(reps)
    block = max(1, _spectrum._CHUNK // n)
    deltas, ses, covered = [], [], 0
    for start in range(0, reps, block):
        t = np.stack([draw_population(spec, n, s) for s in streams[start:start + block]])
        rows = delta_hat_pb_rows(t, b, epsilon, alpha=cfg.alpha)
        good = np.isfinite(rows.se)
        deltas.append(rows.delta[good])
        ses.append(rows.se[good])
        covered += int(np.count_nonzero((rows.ci_low[good] <= truth)
                                        & (truth <= rows.ci_high[good])))
    deltas, ses = np.concatenate(deltas), np.concatenate(ses)
    failures = reps - deltas.size

    k = len(deltas)
    if k == 0:
        mean_d = sd_d = mean_se = cover = float("nan")
    else:
        mean_d = float(np.mean(deltas))
        sd_d = float(np.std(deltas, ddof=1)) if k > 1 else 0.0
        mean_se = float(np.mean(ses))
        cover = covered / k
    return CoverageRow(
        n=n, dgp=spec.prior, noise=spec.noise, unc_power=unc, true_delta=truth,
        mean_delta=mean_d, sd_delta=sd_d, mean_se=mean_se, coverage=cover,
        reps=reps, failures=failures, seed=seed)
