"""Point estimators of the counterfactual power gain.

The headline quantity is the gain in the expected share of significant
t-scores had every experiment's sample size been multiplied by ``c**2``.
This module implements the spectral estimator with and without the
publication-bias correction, the series coefficients of the
reconstructed prior of true effects (a by-product no command prints),
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
from dataclasses import InitVar, dataclass, field, replace
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
    "GroupedEffects",
    "ConditionalReport",
    "RowEstimates",
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
            codes, sizes = _inference._factorise(sid)
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
    """Result of one estimation run; its interval is never clipped."""

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


#: Row statuses of the estimation core: why a row has no interval.
(ROW_OK, ROW_EMPTY_UPPER_BIN, ROW_ZERO_WEIGHTS, ROW_NO_SE, ROW_ZERO_KERNEL,
 ROW_KERNEL_OVERFLOW) = range(6)

_ZERO_WEIGHTS = ("estimator undefined: selection weights sum to zero "
                 "(theta = 0 with every score significant)")


@dataclass(frozen=True, eq=False)
class RowEstimates:
    """Estimates of R samples of n scores each, one entry per row.

    ``status`` says why a row has no interval: ``ROW_EMPTY_UPPER_BIN``
    (the caliper ratio is undefined) and ``ROW_ZERO_WEIGHTS`` (theta_hat
    = 0 with every score significant) leave every field NaN;
    ``ROW_NO_SE`` (no score just below the cutoff, so theta_hat = 0) keeps
    delta and leaves the SE and the interval NaN.  ``ROW_ZERO_KERNEL``
    (the kernel is 0 at every score of the row although its basis has a
    coefficient a_j != 0: it underflowed) leaves delta, the SE and the
    interval NaN.  ``ROW_KERNEL_OVERFLOW`` (the kernel is not finite at
    some score of the row, or its mean is not: a_j He_j overflowed) keeps
    delta, which is then not finite, and leaves the SE and the interval
    NaN.  A row that would be ``ROW_NO_SE`` gets this status instead.
    Only these two statuses depend on the kernel.  ``theta`` is None
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


def _estimate_rows(kernels, bases, index, codes, caliper, alpha) -> list[RowEstimates]:
    """The one estimation core: R samples of n scores, row-wise, for each kernel.

    Each row holds its scores as a table of K values, and ``index`` (n,)
    takes each score to its table entry; ``index=None`` means that the
    table is the scores themselves, and nothing is gathered.  ``kernels``
    has shape (G, R, K): the values S on the table of the G ``bases``;
    every row shares the n cluster ``codes``.
    ``caliper`` is ``pubbias.caliper_tail``'s ``(theta, tail)`` of the
    table: the kernel mean of each row is reweighted by its caliper
    estimate theta_hat and the SE comes from the influence function.
    With ``caliper=None`` every weight is 1 and the SE is the cluster
    sandwich of the kernel values.  The weights and the caliper's row
    statuses do not depend on the kernel and are formed once; W, X and m
    are formed on the table.  Every sum over a row (the weighted kernel
    mean, the mean in Q and the variance) runs over its n gathered scores
    in score order, so the estimates do not depend on how the scores are
    tabled.  Returns one
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
    for S, b in zip(kernels, bases):
        # A failing row's inf or NaN stays in that row, down to its variance.
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = _gathered(S, index)
            delta = np.einsum("ij,ij->i", scores, omega) / wsum
            row_status, row_failed = status, failed
            # A kernel that is 0 at every score gives delta = 0, and only at
            # c = 1, where every a_j is 0, is that exact.
            zero = delta == 0.0
            if zero.any() and b.a.any():
                zero &= ~failed & ~S.any(axis=1)
                row_status = np.where(zero, np.int8(ROW_ZERO_KERNEL), status)
                row_failed = failed | zero
            delta[row_failed] = np.nan
            # Otherwise the weights are finite and their sum positive, so
            # only the kernel makes the estimate not finite.
            overflow = ~(np.isfinite(delta) | row_failed)
            if overflow.any():
                row_status = np.where(overflow, np.int8(ROW_KERNEL_OVERFLOW), row_status)
            if caliper is not None:
                scores = _gathered(_inference.influence(S, theta, tail, index), index)
            v = np.where(row_status == ROW_OK, _inference.variance_hat(scores, codes), np.nan)
            se = np.sqrt(v)
            ci_low, ci_high = _inference.confidence_interval(delta, v, alpha)
        out.append(RowEstimates(delta=delta, se=se, ci_low=ci_low, ci_high=ci_high,
                                theta=theta, status=row_status))
    return out


def _reports(
    sample: TScoreSample,
    bases: Sequence[_spectrum.SpectralBasis],
    epsilon: float,
    pb: bool,
    alpha: float,
) -> list[EstimateReport]:
    """Point estimate, cluster SE and interval of one sample on each basis.

    The bases share J, cv and sigma_T^2 and differ only in c, so the
    caliper and the kernel's Hermite recurrence are computed once; the row
    core then runs on the sample as one row per basis.  The caliper runs
    with or without ``pb``: its count of insignificant scores gives the
    status-quo power (n - count) / n, and ``pb`` only decides whether the
    row core reads it.  All of it is evaluated on the sample's table of
    distinct |t| values (``TScoreSample``): the kernel, the caliper masks
    (whose counts sum the table's multiplicities) and the influence terms
    once per distinct value, and only the sums over the sample run over
    its n scores.  With ``pb`` the kernel mean is reweighted by the
    caliper estimate theta_hat and the standard error comes from the
    influence function; without it every weight is 1 and the standard
    error is the cluster sandwich of the kernel values.  The row status
    decides the errors: ``CaliperError`` for an empty upper caliper bin,
    ``EstimationError`` for selection weights summing to zero, for a
    kernel that underflows to 0 at every score (at c > 1), and for an
    estimate or SE that is not finite (the kernel overflows when
    sigma_T^2 or D drives J too high).  A flag and a NaN standard error
    and interval mark the two cases with an estimate but no SE: no score
    just below the cutoff, and (at c > 1) a sample whose scores all share
    one cluster.
    """
    table, cv, n = sample._table, bases[0].cv, sample.n
    caliper = _pubbias.caliper_tail(table[None], epsilon, cv, sample._table_counts)
    sq_power = float((n - caliper[1].count_insignificant[0]) / n)
    with np.errstate(over="ignore", invalid="ignore"):
        # A kernel that overflows gives an estimate that is not finite, which
        # is raised below as an EstimationError.
        kernels = _spectrum.kernel_S_grid(table, bases)[:, None]
    reports = []
    for b, rows in zip(bases, _estimate_rows(kernels, bases, sample._table_index,
                                             sample._cluster_codes,
                                             caliper if pb else None, alpha)):
        status = rows.status[0]
        if status == ROW_EMPTY_UPPER_BIN:
            raise _pubbias.CaliperError.empty_upper_bin(epsilon, cv)
        if status == ROW_ZERO_WEIGHTS:
            raise EstimationError(_ZERO_WEIGHTS)
        if status == ROW_ZERO_KERNEL:
            raise EstimationError(
                f"the spectral kernel is 0 at every score: it underflows at J = {b.J} "
                f"with sigma_T^2 = {b.sigmaT2:g}; use a larger --sigma-t2 or --const-D")
        delta, se = float(rows.delta[0]), float(rows.se[0])
        # A ROW_KERNEL_OVERFLOW row has a delta that is not finite; a finite
        # kernel can still overflow in the SE.
        if not (math.isfinite(delta) and (status == ROW_NO_SE or math.isfinite(se))):
            raise EstimationError(
                f"estimate not finite (delta {delta}, SE {se}): the spectral kernel "
                f"overflows at J = {b.J} with sigma_T^2 = {b.sigmaT2:g}; use a larger "
                "--sigma-t2 or --const-D")
        flags: tuple[str, ...] = ()
        if status == ROW_NO_SE:
            flags = ("theta-zero: no scores just below the cutoff (SE unavailable)",)
        ci_low, ci_high = float(rows.ci_low[0]), float(rows.ci_high[0])
        if sample.n_clusters == 1 and b.c != 1.0:
            # The centered sum over the one cluster is identically zero, so the
            # cluster-robust SE is 0 by construction, not by precision.  At
            # c = 1 the estimate itself is exactly 0 and its SE 0 stands.
            flags += ("one-cluster: every score is in one study cluster (SE unavailable)",)
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
    return _reports(sample, [b], epsilon, True, alpha)[0]


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
    with np.errstate(over="ignore", invalid="ignore"):
        # A kernel that overflows leaves its row's estimate and SE not finite.
        kernel = _spectrum.kernel_S(t, b)
    return _estimate_rows(kernel[None], [b], None, np.arange(t.shape[1]),
                          _pubbias.caliper_tail(t, epsilon, b.cv), alpha)[0]


def estimate(
    sample: TScoreSample,
    cfg: _spectrum.TuningConfig,
    pb: bool = True,
) -> EstimateReport:
    """Select tuning from the sample, build the basis, and estimate at ``cfg.c``.

    The one-point ``power_gain_curve``.  ``cfg.n_effective`` defaults to
    the number of t-scores; pass the study count instead to scale the
    tuning rule by studies.  With ``pb=False`` the caliper still counts
    the significant scores for the status-quo power, but theta_hat's
    reweighting and its influence term are skipped: no theta, and the
    standard error is the cluster sandwich of the kernel values.
    """
    return power_gain_curve(sample, cfg, [cfg.c], pb)[0]


def reconstruct_prior(
    sample: TScoreSample,
    b: _spectrum.SpectralBasis,
    theta_hat: float = 1.0,
) -> np.ndarray:
    """Series coefficients (J + 1) of the deconvolved distribution of true effects.

    Coefficient j is the weighted moment sum_i He_j(t_i / sigma_T)
    phi(t_i; sigma_T^2) w_i / sum_i w_i over eta_j lambda_j, with w_i =
    ``theta_hat`` for a significant score and 1 otherwise (``theta_hat =
    1``: no publication bias), accumulated a block of ``spectrum._CHUNK``
    scores at a time.  It multiplies He_j(h / sqrt(1 + sigma_T^2)) in the
    density estimate, a raw polynomial that can be negative pointwise; the
    plug-in gain ``np.sum(coef * b.eta * b.lam * b.a)`` is the direct
    estimate up to rounding.
    """
    if theta_hat < 0:
        raise ValueError(f"theta_hat must be non-negative, got {theta_hat}")
    t = sample.t
    omega = np.where(_pubbias.significant(t, b.cv), theta_hat, 1.0)
    total = float(omega.sum())
    if total <= 0:
        raise EstimationError(
            "prior reconstruction undefined: selection weights sum to zero")
    num = np.zeros(b.J + 1)
    sigma_t = math.sqrt(b.sigmaT2)
    for start in range(0, t.size, _spectrum._CHUNK):
        chunk = t[start:start + _spectrum._CHUNK]
        P = _basis.hermite_sequence(chunk / sigma_t, b.J)
        P *= _basis.gaussian_pdf(chunk, b.sigmaT2)
        num += P @ omega[start:start + _spectrum._CHUNK]
    return num / total / (b.eta * b.lam)


def power_gain_curve(
    sample: TScoreSample,
    cfg: _spectrum.TuningConfig,
    c_grid: Sequence[float],
    pb: bool = True,
) -> list[EstimateReport]:
    """Estimate the power gain at every counterfactual scale c in the grid.

    Returns one ``EstimateReport`` per c, flags included.  J and epsilon
    come from the tuning rule once — they do not depend on c — and so does
    the caliper tail, which gives theta_hat and the status-quo power.  One
    pass of the kernel's Hermite recurrence serves every grid point's
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
    return _reports(sample, bases, epsilon, pb, cfg.alpha)


@dataclass(frozen=True, eq=False)
class GroupedEffects:
    """Every effect group of a replication design, stored as member columns.

    Each group holds replicated estimates of one true effect.  ``effects``,
    ``std_errors``, ``weights`` and ``group_id`` (and ``labels``, if given)
    hold one entry per member, in any order: ``group_id`` names the group
    of each member.  ``effects`` are the reported effect sizes,
    ``std_errors`` their (true) standard errors, ``weights`` the averaging
    weights within a group (typically sample sizes).  The group labels are
    factorised once, at construction, into group codes (in sorted-label
    order) and group sizes, as ``TScoreSample`` factorises study labels;
    the labels themselves are not kept.  ``labels`` optionally identify
    the lab or site of each member; only the worst-case correlated
    standard error needs them.  ``==`` is identity: the array fields have
    no single truth value.
    """

    effects: np.ndarray
    std_errors: np.ndarray
    weights: np.ndarray
    group_id: InitVar[np.ndarray]
    labels: np.ndarray | None = None
    _group_codes: np.ndarray = field(init=False, repr=False)
    _group_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, group_id) -> None:
        # Of the std_error and weight checks, the one failing in the group
        # with the lowest code is raised.
        eff = np.asarray(self.effects, dtype=float).ravel()
        se = np.asarray(self.std_errors, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        gid = np.asarray(group_id).ravel()
        if eff.size == 0:
            raise ValueError("effect group must be non-empty")
        if se.size != eff.size or w.size != eff.size:
            raise ValueError("effects, std_errors and weights must share one length")
        if gid.size != eff.size:
            raise ValueError(f"group_id length {gid.size} does not match {eff.size} effects")
        if not (np.isfinite(eff).all() and np.isfinite(se).all() and np.isfinite(w).all()):
            raise ValueError("effects, std_errors and weights must be finite")
        codes, sizes = _inference._factorise(gid)
        k = sizes.size
        bad_se = np.bincount(codes, se <= 0, k) > 0
        bad_w = (np.bincount(codes, w < 0, k) > 0) | (np.bincount(codes, w, k) == 0.0)
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
                          ("labels", lab), ("_group_codes", codes), ("_group_sizes", sizes)):
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
    columns of ``data``, in their own order, with the group codes that
    ``GroupedEffects`` stores.
    """
    if se_mode not in ("iid", "worstcase"):
        raise ValueError(f"se_mode must be 'iid' or 'worstcase', got {se_mode!r}")
    if not 1.0 <= c < math.inf:
        raise ValueError(f"counterfactual scale c must be finite and >= 1, got {c}")
    if not 0 < cv < math.inf:
        raise ValueError(f"critical value must be finite and positive, got {cv}")

    se = data.std_errors
    g, n_groups, n_members = data._group_codes, data._group_sizes.size, se.size
    wnorm = data.weights / np.bincount(g, data.weights, n_groups)[g]
    b_bar = np.bincount(g, wnorm * data.effects, n_groups)
    with np.errstate(over="ignore"):
        # A ratio past the float range is inf, where the power is 1 at both scales
        # and its slope 0.  One call for both rows: the CDF's cost per call matters.
        ratios = b_bar[g] / se
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
        lab = _inference._factorise(data.labels)[0]
        per_lab = np.bincount(lab, gradients[g] * wnorm * se)
        var = float(np.dot(per_lab, per_lab))

    return ConditionalReport(
        delta=delta, se=math.sqrt(var), n_groups=n_groups,
        n_members=n_members, se_mode=se_mode, c=float(c), cv=float(cv))
