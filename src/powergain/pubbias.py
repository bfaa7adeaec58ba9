"""Caliper model of publication bias and the jump estimator for theta.

Insignificant t-scores are published with relative probability theta;
theta is identified by the jump of the |t| histogram at the critical
value and estimated from the two epsilon-bins flanking it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CaliperError(Exception):
    """Raised when the caliper ratio is undefined (empty upper bin)."""

    @classmethod
    def empty_upper_bin(cls, epsilon: float, cutoff: float) -> "CaliperError":
        return cls(f"caliper denominator empty: no |t| in ({cutoff:g}, {cutoff + epsilon:g}]; "
                   "widen epsilon or check the sample")


@dataclass(frozen=True)
class CaliperModel:
    """Parameters of the selective-publication weight function."""

    theta: float
    cutoff: float = 1.96
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class EmpiricalTail:
    """Bin masses and counts around the cutoff, plus the |t| CDF there.

    Scalars from ``estimate_theta``; one entry per row from ``caliper_tail``.
    """

    F_hat: float
    B_plus: float
    B_minus: float
    count_above: int
    count_below: int
    n: int


def significant(t, cutoff: float):
    """The one significance predicate of the package: |t| > cutoff.

    A score exactly at the cutoff is insignificant, as in the event
    Pr(|T| > cv) that the power function measures.  Every module that
    splits scores at the cutoff (caliper bins, weights, thinning, shares)
    goes through this function.
    """
    return np.abs(t) > cutoff


def weight(t, model: CaliperModel):
    """Publication probability w(t) = 1 if t is significant else theta.

    |t| exactly equal to the cutoff is insignificant (see ``significant``).
    """
    arr = np.asarray(t, dtype=float)
    out = np.where(significant(arr, model.cutoff), 1.0, model.theta)
    return out if arr.ndim else float(out)


def empirical_cdf_abs(t, x: float) -> float:
    """Fraction of the sample with |t_i| <= x (inclusive)."""
    arr = np.asarray(t, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical CDF of an empty sample is undefined")
    return float(np.mean(~significant(arr, x)))


def caliper_tail(t, epsilon: float, cutoff: float = 1.96) -> tuple[np.ndarray, EmpiricalTail]:
    """theta_hat and the tail of every row of t, along its last axis.

    The lower bin is |t| in (cutoff - eps, cutoff], the upper bin
    (cutoff, cutoff + eps].  Returns arrays with one entry per row (0-d
    for a flat t); theta_hat is NaN where the upper bin is empty.  Raises
    nothing but the ``ValueError`` of a non-positive epsilon: see
    ``estimate_theta`` for the checked scalar form.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    arr = np.abs(np.asarray(t, dtype=float))
    sig = significant(arr, cutoff)
    below = np.count_nonzero((arr > cutoff - epsilon) & ~sig, axis=-1)
    above = np.count_nonzero(sig & (arr <= cutoff + epsilon), axis=-1)
    n = arr.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(above > 0, below / above, np.nan)
    tail = EmpiricalTail(F_hat=(n - np.count_nonzero(sig, axis=-1)) / n,
                         B_plus=above / n, B_minus=below / n,
                         count_above=above, count_below=below, n=n)
    return theta, tail


def estimate_theta(t, epsilon: float, cutoff: float = 1.96) -> tuple[float, EmpiricalTail]:
    """Jump estimator: count ratio of the two epsilon-bins at the cutoff.

    theta_hat = #{|t| in (cutoff - eps, cutoff]} / #{|t| in (cutoff, cutoff + eps]}

    The estimate is deliberately not clamped to [0, 1]; values above 1 are
    reported as-is.  A zero numerator yields theta_hat = 0 (flagged
    downstream); a zero denominator raises :class:`CaliperError` since the
    ratio is undefined -- widen epsilon or abort.

    Returns
    -------
    (float, EmpiricalTail)
    """
    arr = np.asarray(t, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot estimate theta from an empty sample")
    theta, tail = caliper_tail(arr, epsilon, cutoff)
    if tail.count_above == 0:
        raise CaliperError.empty_upper_bin(epsilon, cutoff)
    return float(theta), EmpiricalTail(
        F_hat=float(tail.F_hat), B_plus=float(tail.B_plus), B_minus=float(tail.B_minus),
        count_above=int(tail.count_above), count_below=int(tail.count_below), n=tail.n)
