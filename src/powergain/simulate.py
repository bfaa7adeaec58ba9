"""Synthetic data generators, truth oracles, and the coverage experiment.

Everything needed to benchmark the estimator end to end: a small family of
true-effect distributions, three noise families (exact normal, Student-t
with 30 degrees of freedom, and the standardized mean of 185 lognormals,
drawn by inverse CDF from its exact law),
publication-bias thinning, quadrature oracles for the true power and true
gain (a fixed 16-panel, 32-node Gauss-Legendre rule against the exact law
of each noise family), and a driver that
repeatedly draws a meta-sample, estimates, and tallies bias and
confidence-interval coverage.  ``run_cells`` runs independent cells of
that experiment on every CPU the process may use.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

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
#: The CDF that ``Generator.choice`` builds from FITTED_MASSES.
_FITTED_CDF = np.cumsum(FITTED_MASSES)
_FITTED_CDF /= _FITTED_CDF[-1]

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
    # What rng.choice(FITTED_SUPPORT, size=m, p=FITTED_MASSES) computes
    # after its argument checks.
    return FITTED_SUPPORT[_FITTED_CDF.searchsorted(rng.random(m), side="right")]


def _draw_noise(noise: str, rng: np.random.Generator, m: int) -> np.ndarray:
    if noise == "normal":
        return rng.standard_normal(m)
    if noise == "t30":
        return rng.standard_t(30, m)
    # Inverse CDF of the exact law.  np.interp starts each search at the
    # previous answer, so sorted uniforms search less; each draw is the
    # same, bit for bit, and goes back to its own place.
    edges, cdf = _lognormal_mean_cdf()
    u = rng.random(m)
    order = np.argsort(u)
    out = np.empty(m)
    out[order] = np.interp(u[order], cdf, edges)
    return out


def draw_population(spec: DgpSpec, n: int, seed) -> np.ndarray:
    """Draw n published t-scores from the DGP, as a flat array.

    Scores are generated as true effect plus noise and then thinned:
    significant scores (|t| > cv) always survive, insignificant ones
    survive with probability theta0.  Draws continue until n scores are
    retained, so n counts published scores.  ``seed`` may be anything
    accepted by ``numpy.random.default_rng``; a Generator is used as it
    is and its stream continues.  This is the one-row case of the draws
    behind ``run_coverage``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 retained scores, got {n}")
    return _draw_rows(spec, n, [np.random.default_rng(seed)])[0]


def _draw_rows(spec: DgpSpec, n: int, rngs) -> np.ndarray:
    """n published t-scores from each Generator in rngs, one row each.

    Each generator first draws 2n + 32 effects, noises and thinning
    uniforms into its row of a block, and the block is thinned at once:
    its first n kept scores are the row, gathered from the flat positions
    of every kept draw.  A row that keeps fewer than n draws further rounds
    of 2 * (n - kept) + 32 from its own generator until it has n.  Row r is
    therefore the same, bit for bit, whether rngs[r] is drawn alone or in
    a block.
    """
    m = 2 * n + 32
    t, u = np.empty((len(rngs), m)), np.empty((len(rngs), m))
    for r, rng in enumerate(rngs):
        np.add(_draw_prior(spec, rng, m), _draw_noise(spec.noise, rng, m), out=t[r])
        rng.random(out=u[r])
    keep = significant(t, spec.cv) | (u < spec.theta0)
    kept = np.count_nonzero(keep, axis=1)
    at = np.flatnonzero(keep)  # row after row
    full = kept >= n
    out = np.empty((len(rngs), n))
    # Row r's kept draws start at entry sum(kept[:r]) of at.
    out[full] = t.reshape(-1)[at[(np.cumsum(kept) - kept)[full, None] + np.arange(n)]]
    for r in np.flatnonzero(~full):
        rng, more, got = rngs[r], [t[r, keep[r]]], int(kept[r])
        while got < n:
            m = 2 * (n - got) + 32
            draws = _draw_prior(spec, rng, m) + _draw_noise(spec.noise, rng, m)
            more.append(draws[significant(draws, spec.cv) | (rng.random(m) < spec.theta0)])
            got += more[-1].size
        out[r] = np.concatenate(more)[:n]
    return out


#: Constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx),
#: which NumPy's reproducibility policy (NEP 19) keeps fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, skip: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants init * mult**k mod 2**32, k = skip .. skip + count - 1."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(skip, skip + count)],
                    dtype=np.uint32)


def _hash(value, h):
    """SeedSequence's hashmix of value with the constants h[:-1], each then advanced to h[1:].

    Arguments are uint32 arrays, which broadcast and wrap mod 2**32.
    """
    value = (value ^ h[:-1]) * h[1:]
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays of pool words."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


#: The constants with which ``generate_state`` hashes out 8 words.
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 0, 9)


def _spawned_words(root: np.random.SeedSequence, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of children start .. stop - 1 of a fresh SeedSequence.

    Row k is ``root.spawn(stop)[start + k].generate_state(4, np.uint64)``,
    computed the way NumPy computes it for one child, but for every child
    at once; indices must be below 2**32.  A child's entropy is the
    root's 32-bit words, padded with zeros to the pool size, then its
    index, and NumPy mixes them in order, so each child's pool before
    the index is ``root.pool``.  What is left is mixing in the index,
    with the hash constants after the pool_size * max(pool_size, words)
    that the root used up, and hashing the pool out.
    """
    pool_size = root.pool_size
    words = max(1, -(-int(root.entropy).bit_length() // 32))
    h = _hash_constants(_INIT_A, _MULT_A, pool_size * max(pool_size, words), pool_size + 1)
    index = np.arange(start, stop, dtype=np.uint32)[:, None]
    pool = _mix(root.pool, _hash(index, h))
    # generate_state(4, np.uint64) hashes out 8 words, cycling over the pool.
    state = _hash(pool[:, np.arange(8) % pool_size], _STATE_HASH)
    # Little-endian word pairs, as SeedSequence.generate_state forms them.
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _seeded_generator():
    """A function from one row of ``_spawned_words`` to its Generator.

    The words reach NumPy's own PCG64 through a seed sequence that hands
    them over as they are, so PCG64 still does its 128-bit seeding and
    the Generator is the one ``default_rng`` makes from that child.
    Built on first use, so importing powergain loads no numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64)

    return lambda words: Generator(PCG64(Words(words)))


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
    h = _LOGNORMAL_STEP
    cells = int(round(_LOGNORMAL_TOP / h))
    bounds = (np.arange(cells + 1) - 0.5) * h
    bounds[0] = 0.0
    # The LN(0, 1) CDF at b > 0 is Phi(log b); bounds[0] = 0 has CDF 0.
    pmf = np.diff(_basis._ndtr(np.log(bounds[1:])), prepend=0.0)
    pool = np.fft.irfft(np.fft.rfft(pmf) ** _LOGNORMAL_POOL, cells)
    edges = (bounds[1:] / _LOGNORMAL_POOL - _LOGNORMAL_MEAN) / _LOGNORMAL_SD
    return edges, np.cumsum(pool)


#: a_j = C(2j, j) / 4^j, the Taylor coefficients of (1 - x)^(-1/2) that
#: ``_t30_cdf`` sums: the first 15 near 0, the next 60 in the tails.
_T30_SERIES = np.array([math.comb(2 * j, j) / 4 ** j for j in range(75)])


def _t30_cdf(t):
    """CDF of Student's t with 30 degrees of freedom, in plain NumPy.

    With x = 30 / (30 + t^2), the closed form for even degrees of freedom
    is F(t) = 1/2 + t / (2 sqrt(30 + t^2)) * sum_{j<15} a_j x^j.  As the
    whole series sums to (1 - x)^(-1/2), the lower tail is also
    F(-|t|) = sqrt(1 - x) / 2 * sum_{j>=15} a_j x^j, the incomplete-beta
    tail I_x(15, 1/2) / 2, which keeps its relative accuracy; it is used
    where x < 1/2, and its first 60 terms leave a relative error below
    2^-59.  Against a 50-digit evaluation the absolute error is at most
    3.5e-16 on [-45, 45] (SciPy's ``stdtr``: 2.2e-16).
    """
    t = np.asarray(t, dtype=float)
    t2 = t * t
    x = 30.0 / (30.0 + t2)
    out = np.empty(t.shape)
    near = x >= 0.5
    sums = np.polyval(_T30_SERIES[14::-1], x[near])
    out[near] = 0.5 + 0.5 * t[near] / np.sqrt(30.0 + t2[near]) * sums
    tail = ~near
    xt = x[tail]
    lower = 0.5 * np.sqrt(1.0 - xt) * xt ** 15 * np.polyval(_T30_SERIES[:14:-1], xt)
    out[tail] = np.where(t[tail] > 0.0, 1.0 - lower, lower)
    return out


def _power_given_effect(h, noise: str, cv: float):
    """Pr(|h + Z| > cv) under the exact law of the noise Z."""
    h = np.asarray(h, dtype=float)
    if noise == "normal":
        return _basis.conditional_power(h, cv)
    if noise == "t30":
        return _t30_cdf(h - cv) + _t30_cdf(-cv - h)
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

    The sample size, prior and noise family, the true power and true gain,
    then the Monte Carlo mean/SD of the estimate, the mean standard error,
    and the coverage of the nominal 1 - alpha interval; the CLI prints
    them in the published layout.  ``failures`` counts replications
    without a finite standard error (see ``run_coverage``) — those are
    excluded from the averages but reported, never silently dropped.  A
    spread needs two replications: with fewer good ones ``sd_delta`` is
    NaN, as every average is when none is good.
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


def _check_cell(spec: DgpSpec, reps: int, cfg: _spectrum.TuningConfig,
                seed) -> np.random.SeedSequence:
    """Refuse a replication count, a tuning config or a seed that
    ``run_coverage`` cannot run; returns the cell's root ``SeedSequence``,
    whose own error refuses the seed."""
    if not 1 <= reps <= 1 << 32:
        raise ValueError(f"reps must be between 1 and 2**32, got {reps}")
    if cfg.c != spec.c or cfg.cv != spec.cv:
        raise ValueError("tuning config and DGP disagree on c or cv")
    return np.random.SeedSequence(seed)


def run_coverage(spec: DgpSpec, n: int, reps: int,
                 cfg: _spectrum.TuningConfig, seed: int) -> CoverageRow:
    """Monte Carlo bias and coverage of the corrected estimator.

    Each replication draws a fresh population of n published scores from
    an independent RNG substream, estimates with the publication-bias
    correction, and checks whether the nominal 1 - alpha interval (alpha
    from ``cfg``) contains the oracle gain.  Tuning is selected once from
    n (the retained count is exactly n by construction).  Replications
    whose caliper bin is empty, whose selection weights sum to zero, whose
    kernel is 0 at every score (it underflowed), or where no score lands
    just below the cutoff (point estimate fine but no standard error), are
    tallied as failures, as is one whose kernel overflows or whose SE is
    not finite.  Deterministic
    given (spec, n, reps, cfg, seed); substreams make the replication loop
    order-independent.

    Replication i draws from child i of ``SeedSequence(seed).spawn(reps)``,
    so at most 2**32 replications can run.  Replications run in blocks of
    ``max(1, _CHUNK // n)``: a block's children are seeded together from
    the root's pool (``_spawned_words``), drawn and thinned
    together (``_draw_rows``), and estimated by one ``delta_hat_pb_rows``
    call, the row core behind ``delta_hat_pb``.  Every replication's
    scores are those of ``draw_population(spec, n, child)``.
    """
    root = _check_cell(spec, reps, cfg, seed)
    if cfg.n_effective is None:
        cfg = replace(cfg, n_effective=n)
    J, epsilon = _spectrum.select_tuning(cfg)
    b = _spectrum.build_basis(cfg, J)
    truth = oracle_delta(spec)
    unc = oracle_power(spec, 1.0)

    block = max(1, _spectrum._CHUNK // n)
    generator = _seeded_generator()
    deltas, ses, covered = [], [], 0
    for start in range(0, reps, block):
        stop = min(start + block, reps)
        words = _spawned_words(root, start, stop)
        t = _draw_rows(spec, n, [generator(w) for w in words])
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
        sd_d = float(np.std(deltas, ddof=1)) if k > 1 else float("nan")
        mean_se = float(np.mean(ses))
        cover = covered / k
    return CoverageRow(
        n=n, dgp=spec.prior, noise=spec.noise, unc_power=unc, true_delta=truth,
        mean_delta=mean_d, sd_delta=sd_d, mean_se=mean_se, coverage=cover,
        reps=reps, failures=failures, seed=seed)


def _run_cell(cell) -> CoverageRow:
    """``run_coverage`` on one (spec, n, reps, cfg, seed) cell."""
    return run_coverage(*cell)


def run_cells(cells):
    """Yield the ``run_coverage`` row of each (spec, n, reps, cfg, seed) cell, in order.

    Cells run one process per CPU the process may use
    (``os.sched_getaffinity``), at most one per cell, in processes forked
    from this one.  They run here, one after another, where there is one
    such CPU or one cell, no ``fork``, or another thread running: a
    forked child has only the thread that forked it, so a lock another
    thread held would stay held there.  A row depends only on its cell,
    so the rows are the same, bit for bit, whatever the count.  Each row
    is yielded as soon as it and every row before it are done.  Every
    cell is checked before any runs, and a cell that raises raises here,
    in its turn.  However the generator ends (it runs out, raises, or is
    closed), its processes are ended first.
    """
    cells = list(cells)
    for spec, _, reps, cfg, seed in cells:
        _check_cell(spec, reps, cfg, seed)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        workers = min(len(cells), len(os.sched_getaffinity(0)))
    if workers <= 1:
        yield from map(_run_cell, cells)
        return
    if any(spec.noise == "lognormal" for spec, *_ in cells):
        _lognormal_mean_cdf()  # once here, not once in every process
    import multiprocessing
    import signal

    # The processes leave Ctrl-C to this one, which then ends them.
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        yield from pool.imap(_run_cell, cells, chunksize=1)
    finally:
        pool.terminate()
        pool.join()
