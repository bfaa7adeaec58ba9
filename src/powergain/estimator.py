"""Point estimators of the counterfactual power gain.

The headline quantity is the gain in the expected share of significant
t-scores had every experiment's sample size been multiplied by ``c**2``.
This module implements the spectral estimator with and without the
publication-bias correction, the reconstructed prior of true effects,
power-gain curves over a grid of counterfactual scales, and the
conditional (replication-design) estimator that holds the realized true
effects fixed.

Every ``EstimateReport`` is built in one place, ``_reports``, from one
row core, ``_estimate_rows``: the estimate at one c is the one-point
curve, and ``delta_hat_pb`` is the same builder on a given basis.  The row
core evaluates a sample on the table of its distinct |t| values, which a
rounded sample makes far shorter than the sample itself.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import basis as _basis
from . import inference as _inference
from . import pubbias as _pubbias
from . import spectrum as _spectrum

__all__ = [
    "EstimationError",
    "TScoreSample",
    "EstimateReport",
    "PriorReconstruction",
    "GroupedEffects",
    "ConditionalReport",
    "RowEstimates",
    "status_quo_power",
    "delta_hat_pb",
    "delta_hat_pb_rows",
    "estimate",
    "reconstruct_prior",
    "power_gain_curve",
    "conditional_delta",
]

class EstimationError(Exception):
    """Raised when an estimate is undefined on the given sample."""


#: Decimal places of the rounding grids a sample is tested on, coarsest first.
_GRID_DECIMALS = (1, 2, 3)
#: Leading scores tested before the whole sample, so off-grid data fails fast.
_GRID_PREFIX = 1024


def _grid_keys(a: np.ndarray, scale: float) -> np.ndarray | None:
    """k = rint(a * scale) if k / scale gives back every entry of a exactly, else None."""
    k = np.multiply(a, scale)
    np.rint(k, out=k)
    return k if np.array_equal(k / scale, a) else None


def _score_table(t: np.ndarray) -> tuple[float | None, np.ndarray,
                                          np.ndarray | None, np.ndarray | None]:
    """The distinct |t| of a rounded sample and where each score sits among them.

    Returns ``(step, table, index, counts)`` with ``table[index] == |t|``
    exactly and ``counts`` the number of scores at each table entry.  The
    step is the coarsest g = 10^-d, d in ``_GRID_DECIMALS``, for which
    k = rint(|t| 10^d) gives k / 10^d == |t| for every score; the table
    holds the distinct k / 10^d in increasing order, found by a
    ``bincount`` of k.  A sample on none of these grids, or one whose
    largest k is not below n (so a single far outlier cannot make the
    ``bincount`` outgrow the sample), has step None, and its table is |t|
    itself, with no index and no counts.
    """
    a = np.abs(t)
    with np.errstate(over="ignore"):
        for d in _GRID_DECIMALS:
            scale = 10.0 ** d
            if _grid_keys(a[:_GRID_PREFIX], scale) is None:
                continue
            k = _grid_keys(a, scale)
            if k is None:
                continue
            if k.max() >= a.size:
                break  # a finer grid only has larger keys
            k = k.astype(np.intp)
            counts = np.bincount(k)
            present = np.flatnonzero(counts)
            rank = np.cumsum(counts > 0) - 1  # of each present key among them
            return 10.0 ** -d, present / scale, rank[k], counts[present]
    return None, a, None, None


@dataclass(frozen=True, eq=False)
class TScoreSample:
    """Reported t-scores plus the study labels that define clusters.

    Estimates computed from a sample are invariant to flipping the signs
    of the scores; study labels matter only for standard errors.  The
    labels are factorised once, at construction, into integer cluster
    codes (in sorted-label order) and cluster sizes.  ``study_id=None``
    means singleton clusters: labels and codes ``arange(n)``, unit sizes.

    Published t-scores are rounded, so construction also looks for the
    rounding grid, the coarsest decimal step g in {0.1, 0.01, 0.001} that
    every score lies on (``_score_table``).  The estimators then evaluate
    each distinct |t| once and gather the values back to the scores by an
    integer index; a sample on no grid is its own table, with index and
    counts None.  Either way the estimates are the same, bit for bit.
    ``_grid_step`` is g, or None.
    ``==`` is identity: the array fields have no single truth value.
    """

    t: np.ndarray
    study_id: np.ndarray | None
    _cluster_codes: np.ndarray = field(init=False, repr=False)
    _cluster_sizes: np.ndarray = field(init=False, repr=False)
    _grid_step: float | None = field(init=False, repr=False)
    _table: np.ndarray = field(init=False, repr=False)
    _table_index: np.ndarray | None = field(init=False, repr=False)
    _table_counts: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float).ravel()
        if t.size == 0:
            raise ValueError("sample must contain at least one t-score")
        if not np.all(np.isfinite(t)):
            raise ValueError("every t-score must be finite")
        if self.study_id is None:
            sid = codes = np.arange(t.size)
            sizes = np.ones(t.size, dtype=np.intp)
        else:
            sid = np.asarray(self.study_id).ravel()
            if sid.size != t.size:
                raise ValueError(
                    f"study_id length {sid.size} does not match {t.size} t-scores")
            _, codes, sizes = _inference._factorise(sid)
        step, table, index, counts = _score_table(t)
        for name, value in (("t", t), ("study_id", sid), ("_cluster_codes", codes),
                            ("_cluster_sizes", sizes), ("_grid_step", step),
                            ("_table", table), ("_table_index", index),
                            ("_table_counts", counts)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_scores(cls, t, study_id=None) -> "TScoreSample":
        """Build a sample; missing study labels mean singleton clusters."""
        return cls(t=t, study_id=study_id)

    @property
    def n(self) -> int:
        return int(self.t.size)

    @property
    def n_clusters(self) -> int:
        return int(self._cluster_sizes.size)

    @property
    def max_cluster_size(self) -> int:
        return int(self._cluster_sizes.max())


@dataclass(frozen=True)
class EstimateReport:
    """Rendered result of one estimation run."""

    delta: float
    se: float
    ci_low: float
    ci_high: float
    theta: float | None
    J: int
    epsilon: float | None
    n: int
    n_clusters: int
    max_cluster_size: int
    status_quo_power: float
    c: float
    cv: float
    alpha: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}


def status_quo_power(t, cv: float = 1.96) -> float:
    """Observed share of significant results: (1/n) * sum 1{|t_i| > cv}."""
    t = np.asarray(t, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("status-quo power of an empty sample is undefined")
    return float(np.mean(_pubbias.significant(t, cv)))


#: Row statuses of the estimation core: why a row has no interval.
ROW_OK, ROW_EMPTY_UPPER_BIN, ROW_ZERO_WEIGHTS, ROW_NO_SE = 0, 1, 2, 3

_ZERO_WEIGHTS = ("estimator undefined: selection weights sum to zero "
                 "(theta = 0 with every score significant)")


@dataclass(frozen=True, eq=False)
class RowEstimates:
    """Estimates of R samples of n scores each, one entry per row.

    ``status`` says why a row has no interval: ``ROW_EMPTY_UPPER_BIN``
    (the caliper ratio is undefined) and ``ROW_ZERO_WEIGHTS`` (theta_hat
    = 0 with every score significant) leave every field NaN;
    ``ROW_NO_SE`` (no score just below the cutoff, so theta_hat = 0) keeps
    delta and leaves the SE and the interval NaN.  ``theta`` is None
    without the publication-bias correction.
    """

    delta: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    theta: np.ndarray | None
    status: np.ndarray


def _gathered(values: np.ndarray, index) -> np.ndarray:
    """Each row's table values at its n scores, or the values when index is None."""
    return values if index is None else np.take(values, index, axis=1)


def _estimate_rows(kernels, index, codes, caliper, alpha) -> list[RowEstimates]:
    """The one estimation core: R samples of n scores, row-wise, for each kernel.

    Each row holds its scores as a table of K values, and ``index`` (n,)
    takes each score to its table entry; ``index=None`` means that the
    table is the scores themselves, and nothing is gathered.  ``kernels``
    has shape (G, R, K): G kernels' values S on the table; every row
    shares the n cluster ``codes``.
    ``caliper`` is ``pubbias.caliper_tail``'s ``(theta, tail)`` of the
    table: the kernel mean of each row is reweighted by its caliper
    estimate theta_hat and the SE comes from the influence function.
    With ``caliper=None`` every weight is 1 and the SE is the cluster
    sandwich of the kernel values.  The weights and the row statuses do not
    depend on the kernel and are formed once; W, X and m are formed on the
    table.  Every sum over a row (the weighted kernel mean, the mean in Q
    and the variance) runs over its n gathered scores in score order, so
    the estimates do not depend on how the scores are tabled.  Returns one
    ``RowEstimates`` per kernel.
    """
    R, K = kernels.shape[1:]
    status = np.full(R, ROW_OK, dtype=np.int8)
    theta = None
    if caliper is None:
        omega = np.ones((R, K))
    else:
        theta, tail = caliper
        omega = np.where(tail.insignificant, 1.0, theta[:, None])
    omega = _gathered(omega, index)
    wsum = omega.sum(axis=1)
    failed = np.zeros(R, dtype=bool)
    if caliper is not None:
        empty_upper, zero_weights = tail.count_above == 0, ~(wsum > 0)
        status[tail.count_below == 0] = ROW_NO_SE
        status[zero_weights] = ROW_ZERO_WEIGHTS
        status[empty_upper] = ROW_EMPTY_UPPER_BIN
        failed = empty_upper | zero_weights

    out = []
    for S in kernels:
        # A failing row's inf or NaN stays in that row, down to its variance.
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = _gathered(S, index)
            delta = np.einsum("ij,ij->i", scores, omega) / wsum
            delta[failed] = np.nan
            if caliper is not None:
                scores = _gathered(_inference.influence(S, theta, tail, index), index)
            v = np.where(status == ROW_OK, _inference.variance_hat(scores, codes), np.nan)
            se = np.sqrt(v)
            ci_low, ci_high = _inference.confidence_interval(delta, v, alpha)
        out.append(RowEstimates(delta=delta, se=se, ci_low=ci_low, ci_high=ci_high,
                                theta=theta, status=status))
    return out


def _reports(
    sample: TScoreSample,
    bases: Sequence[_spectrum.SpectralBasis],
    epsilon: float,
    pb: bool,
    alpha: float,
    clamp_ci: bool,
) -> list[EstimateReport]:
    """Point estimate, cluster SE and interval of one sample on each basis.

    The bases share J, cv and sigma_T^2 and differ only in c, so the
    caliper (with ``pb``), the status-quo power and the Hermite blocks of
    the kernel are computed once; the row core then runs on the sample as
    one row per basis.  All of it is evaluated on the sample's table of
    distinct |t| values (``TScoreSample``): the kernel, the caliper masks
    (whose counts sum the table's multiplicities) and the influence terms
    once per distinct value, and only the sums over the sample run over
    its n scores.  With ``pb`` the kernel mean is reweighted by the
    caliper estimate theta_hat and the standard error comes from the
    influence function; without it every weight is 1 and the standard
    error is the cluster sandwich of the kernel values.  The row status
    decides the errors: ``CaliperError`` for an empty upper caliper bin,
    ``EstimationError`` for selection weights summing to zero, and
    ``EstimationError`` for an estimate or SE that is not finite (the
    kernel overflows when sigma_T^2 or D drives J too high).  A flag and
    a NaN standard error and interval mark the two cases with an estimate
    but no SE: no score just below the cutoff, and (at c > 1) a sample
    whose scores all share one cluster.
    """
    t, cv = sample.t, bases[0].cv
    table = sample._table
    caliper = (_pubbias.caliper_tail(table[None], epsilon, cv, sample._table_counts)
               if pb else None)
    sq_power = status_quo_power(t, cv)
    with np.errstate(over="ignore", invalid="ignore"):
        # A kernel that overflows gives an estimate that is not finite, which
        # is raised below as an EstimationError.
        kernels = _spectrum.kernel_S_grid(table, bases)[:, None]
    reports = []
    for b, rows in zip(bases, _estimate_rows(kernels, sample._table_index,
                                             sample._cluster_codes, caliper, alpha)):
        status = rows.status[0]
        if status == ROW_EMPTY_UPPER_BIN:
            raise _pubbias.CaliperError.empty_upper_bin(epsilon, cv)
        if status == ROW_ZERO_WEIGHTS:
            raise EstimationError(_ZERO_WEIGHTS)
        delta, se = float(rows.delta[0]), float(rows.se[0])
        if not (math.isfinite(delta) and (status == ROW_NO_SE or math.isfinite(se))):
            raise EstimationError(
                f"estimate not finite (delta {delta}, SE {se}): the spectral kernel "
                f"overflows at J = {b.J} with sigma_T^2 = {b.sigmaT2:g}; use a larger "
                "--sigma-t2 or --const-D")
        flags: tuple[str, ...] = ()
        if status == ROW_NO_SE:
            flags = ("theta-zero: no scores just below the cutoff; SE unavailable",)
        ci_low, ci_high = float(rows.ci_low[0]), float(rows.ci_high[0])
        if clamp_ci:
            ci_low, ci_high = max(ci_low, 0.0), max(ci_high, 0.0)
        if sample.n_clusters == 1 and b.c != 1.0:
            # The centered sum over the one cluster is identically zero, so the
            # cluster-robust SE is 0 by construction, not by precision.  At
            # c = 1 the estimate itself is exactly 0 and its SE 0 stands.
            flags += ("one-cluster: every score is in one study cluster; SE unavailable",)
            se = ci_low = ci_high = math.nan
        reports.append(EstimateReport(
            delta=delta, se=se, ci_low=ci_low, ci_high=ci_high,
            theta=float(rows.theta[0]) if pb else None,
            J=b.J, epsilon=epsilon if pb else None, n=sample.n,
            n_clusters=sample.n_clusters, max_cluster_size=sample.max_cluster_size,
            status_quo_power=sq_power,
            c=b.c, cv=cv, alpha=alpha, flags=flags))
    return reports


def delta_hat_pb(
    sample: TScoreSample,
    b: _spectrum.SpectralBasis,
    epsilon: float,
    alpha: float = 0.05,
    clamp_ci: bool = False,
) -> EstimateReport:
    """Publication-bias-corrected estimate with cluster-robust inference.

    The point estimate reweights the kernel mean by the inverse estimated
    publication probability (evaluated in a form that stays finite at
    theta_hat = 0):

        delta = sum_i S(t_i) omega_i / sum_i omega_i,
        omega_i = theta_hat if |t_i| > cv else 1.

    The report carries theta_hat, the tuning actually used, the influence
    -based standard error, and the normal confidence interval.  When no
    score falls in the lower caliper bin (theta_hat = 0) the influence
    function of the caliper ratio is undefined; the point estimate is
    still returned with NaN standard error and an explanatory flag.
    """
    return _reports(sample, [b], epsilon, True, alpha, clamp_ci)[0]


def delta_hat_pb_rows(
    t, b: _spectrum.SpectralBasis, epsilon: float, alpha: float = 0.05
) -> RowEstimates:
    """``delta_hat_pb`` of every row of t: R samples of n scores, singleton clusters.

    One ``kernel_S`` over all R * n scores and one caliper over every row,
    then the row core that ``delta_hat_pb`` runs on a single row, with
    each row its own table.  Nothing is raised for a row that fails; its
    ``status`` says why (see ``RowEstimates``).
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError(f"need a non-empty (R, n) array of scores, got shape {t.shape}")
    return _estimate_rows(_spectrum.kernel_S(t, b)[None], None, np.arange(t.shape[1]),
                          _pubbias.caliper_tail(t, epsilon, b.cv), alpha)[0]


def estimate(
    sample: TScoreSample,
    cfg: _spectrum.TuningConfig,
    pb: bool = True,
    clamp_ci: bool = False,
) -> EstimateReport:
    """Select tuning from the sample, build the basis, and estimate at ``cfg.c``.

    The one-point ``power_gain_curve``.  ``cfg.n_effective`` defaults to
    the number of t-scores; pass the study count instead to scale the
    tuning rule by studies.  With ``pb=False`` the publication-bias
    machinery is skipped entirely: no theta, and the standard error is the
    cluster sandwich of the kernel values.
    """
    return power_gain_curve(sample, cfg, [cfg.c], pb, clamp_ci)[0]


def _weighted_basis_moments(
    t: np.ndarray, omega: np.ndarray, J: int, sigmaT2: float
) -> np.ndarray:
    """Weighted sample moments sum_i psi_j(t_i) phi(t_i) w_i / sum_i w_i.

    Accumulated block by block so memory stays bounded on large samples.
    """
    num = np.zeros(J + 1)
    for start, P in _spectrum._hermite_gaussian_blocks(t, J, sigmaT2):
        num += P @ omega[start:start + P.shape[1]]
    return num / float(omega.sum())


@dataclass(frozen=True, eq=False)
class PriorReconstruction:
    """Series coefficients of the deconvolved distribution of true effects.

    ``coefficients[j]`` multiplies chi_j(h) = He_j(h / sqrt(1 + sigma_T^2)).
    Because eta_j * lambda_j does not depend on c, the same coefficients
    serve every counterfactual scale: estimate once, evaluate the gain for
    each c of interest.  The series is a raw polynomial (spectral cutoff),
    so pointwise values can be negative — treat plots as diagnostics.
    ``==`` is identity: the array fields have no single truth value.
    """

    coefficients: np.ndarray
    basis: _spectrum.SpectralBasis
    theta: float

    def evaluate(self, h):
        """Series value of the prior density estimate at h."""
        arr = np.atleast_1d(np.asarray(h, dtype=float))
        chi_scale = math.sqrt(1.0 + self.basis.sigmaT2)
        H = _basis.hermite_sequence(arr / chi_scale, self.basis.J)
        out = self.coefficients @ H
        return out if np.ndim(h) else float(out[0])

    def delta_plugin(self) -> float:
        """Power gain implied by the reconstruction (the plug-in route).

        Contracts the coefficients against eta_j lambda_j a_j; algebra
        makes this numerically identical to the direct estimator.
        """
        b = self.basis
        return float(np.sum(self.coefficients * b.eta * b.lam * b.a))


def reconstruct_prior(
    sample: TScoreSample,
    b: _spectrum.SpectralBasis,
    theta_hat: float = 1.0,
) -> PriorReconstruction:
    """Deconvolution estimate of the distribution of true effects.

    Per-degree coefficients are the (selection-weighted) basis moments of
    the t-score density divided by eta_j lambda_j.  Pass ``theta_hat = 1``
    for the no-publication-bias version.
    """
    if theta_hat < 0:
        raise ValueError(f"theta_hat must be non-negative, got {theta_hat}")
    t = sample.t
    omega = np.where(_pubbias.significant(t, b.cv), theta_hat, 1.0)
    if float(omega.sum()) <= 0:
        raise EstimationError(
            "prior reconstruction undefined: selection weights sum to zero")
    moments = _weighted_basis_moments(t, omega, b.J, b.sigmaT2)
    coeff = moments / (b.eta * b.lam)
    return PriorReconstruction(coefficients=coeff, basis=b, theta=theta_hat)


def power_gain_curve(
    sample: TScoreSample,
    cfg: _spectrum.TuningConfig,
    c_grid: Sequence[float],
    pb: bool = True,
    clamp_ci: bool = False,
) -> list[EstimateReport]:
    """Estimate the power gain at every counterfactual scale c in the grid.

    Returns one ``EstimateReport`` per c, flags included.  J and epsilon
    come from the tuning rule once — they do not depend on c — and so do
    theta_hat, the caliper tail and the status-quo power.  Each Hermite
    block is built once and contracted with every grid point's
    coefficients, and each point then runs the row core on its own, so a
    one-point grid is exactly ``estimate``.  The c = 1 point is exactly
    zero with zero variance (every contrast coefficient vanishes).
    """
    grid = [float(c) for c in c_grid]
    if not grid:
        raise ValueError("c_grid must contain at least one scale")
    if not all(1.0 <= c < math.inf for c in grid):
        raise ValueError("every counterfactual scale in the grid must be finite and >= 1")
    if cfg.n_effective is None:
        cfg = replace(cfg, n_effective=sample.n)
    J, epsilon = _spectrum.select_tuning(cfg)
    bases = [_spectrum.build_basis(replace(cfg, c=c), J) for c in grid]
    return _reports(sample, bases, epsilon, pb, cfg.alpha, clamp_ci)


@dataclass(frozen=True, eq=False)
class GroupedEffects:
    """Every effect group of a replication design, stored as member columns.

    Each group holds replicated estimates of one true effect.
    ``effects``, ``std_errors`` and ``weights`` (and ``labels``, if given)
    hold the members group after group, in member order within a group;
    ``sizes[k]`` is the member count of group k.  ``effects`` are the
    reported effect sizes, ``std_errors`` their (true) standard errors,
    ``weights`` the averaging weights within a group (typically sample
    sizes).  ``labels`` optionally identify the lab or site of each member;
    only the worst-case correlated standard error needs them.  ``==`` is
    identity: the array fields have no single truth value.
    """

    effects: np.ndarray
    std_errors: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Of the std_error and weight checks, the one failing in the
        # earliest group is raised.
        eff = np.asarray(self.effects, dtype=float).ravel()
        se = np.asarray(self.std_errors, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        sizes = np.asarray(self.sizes, dtype=np.intp).ravel()
        if eff.size == 0 or np.any(sizes <= 0):
            raise ValueError("effect group must be non-empty")
        if se.size != eff.size or w.size != eff.size:
            raise ValueError("effects, std_errors and weights must share one length")
        if sizes.sum() != eff.size:
            raise ValueError(f"group sizes sum to {sizes.sum()}, not to the "
                             f"{eff.size} members")
        if not (np.isfinite(eff).all() and np.isfinite(se).all() and np.isfinite(w).all()):
            raise ValueError("effects, std_errors and weights must be finite")
        starts = np.cumsum(sizes) - sizes
        bad_se = np.logical_or.reduceat(se <= 0, starts)
        bad_w = np.logical_or.reduceat(w < 0, starts) | (np.add.reduceat(w, starts) == 0.0)
        bad = bad_se | bad_w
        if bad.any():
            if bad_se[np.argmax(bad)]:
                raise ValueError("every std_error must be strictly positive")
            raise ValueError("weights must be non-negative and not all zero")
        lab = None
        if self.labels is not None:
            lab = np.asarray(self.labels).ravel()
            if lab.size != eff.size:
                raise ValueError("labels must match the number of effects")
        for name, col in (("effects", eff), ("std_errors", se), ("weights", w),
                          ("labels", lab), ("sizes", sizes)):
            object.__setattr__(self, name, col)


@dataclass(frozen=True)
class ConditionalReport:
    """Conditional power-gain estimate with its standard error."""

    delta: float
    se: float
    n_groups: int
    n_members: int
    se_mode: str
    c: float
    cv: float

    def to_dict(self) -> dict:
        return asdict(self)


def conditional_delta(
    data: GroupedEffects,
    c: float,
    cv: float = 1.96,
    se_mode: str = "iid",
) -> ConditionalReport:
    """Replication-design power gain, holding realized true effects fixed.

    Each group pools replications of a single true effect: the weighted
    mean ``b_bar`` estimates it, and every member contributes

        gain_i = power(c * b_bar / s_i) - power(b_bar / s_i).

    The estimate is the unweighted mean of the gains over all members of
    all groups.  The standard error propagates the sampling noise of each
    ``b_bar`` through the delta method, treating the ``s_i`` as known
    constants.  ``se_mode="iid"`` takes members as independent within a
    group; ``se_mode="worstcase"`` instead assumes effects measured in the
    same lab (identified by member ``labels``) are perfectly correlated
    across groups, which is the conservative clustering.

    Every group is estimated in one vectorised pass over the member
    columns of ``data``.
    """
    if se_mode not in ("iid", "worstcase"):
        raise ValueError(f"se_mode must be 'iid' or 'worstcase', got {se_mode!r}")
    if not 1.0 <= c < math.inf:
        raise ValueError(f"counterfactual scale c must be finite and >= 1, got {c}")
    if not 0 < cv < math.inf:
        raise ValueError(f"critical value must be finite and positive, got {cv}")

    se = data.std_errors
    n_groups, n_members = data.sizes.size, se.size
    g = np.repeat(np.arange(n_groups), data.sizes)
    wnorm = data.weights / np.bincount(g, data.weights, n_groups)[g]
    b_bar = np.bincount(g, wnorm * data.effects, n_groups)
    ratios = b_bar[g] / se
    # One call for both rows: the CDF's cost per call matters on small files.
    power, slope = _basis.conditional_power(np.stack([c * ratios, ratios]), cv, slope=True)
    delta = float(np.sum(power[0] - power[1])) / n_members
    slope = (c * slope[0] - slope[1]) / se
    gradients = np.bincount(g, slope, n_groups) / n_members  # d(delta)/d(b_bar)

    if se_mode == "iid":
        # Var(b_bar) per group under independent members.
        var = float(np.dot(gradients ** 2, np.bincount(g, (wnorm * se) ** 2, n_groups)))
    else:
        if data.labels is None:
            raise EstimationError(
                "worst-case standard error needs member labels (lab identifiers) "
                "on every group")
        lab = _inference._factorise(data.labels)[1]
        per_lab = np.bincount(lab, gradients[g] * wnorm * se)
        var = float(np.dot(per_lab, per_lab))

    return ConditionalReport(
        delta=delta, se=math.sqrt(var), n_groups=n_groups,
        n_members=n_members, se_mode=se_mode, c=float(c), cv=float(cv))
