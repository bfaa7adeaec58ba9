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
class EmpiricalTail:
    """Bin masses and counts around the cutoff, plus the |t| CDF there.

    One entry per row of the scores given to ``caliper_tail`` (0-d arrays
    for a flat sample); ``n`` is the row length.
    """

    F_hat: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray
    count_above: np.ndarray
    count_below: np.ndarray
    n: int


def significant(t, cutoff: float):
    """The one significance predicate of the package: |t| > cutoff.

    A score exactly at the cutoff is insignificant, as in the event
    Pr(|T| > cv) that the power function measures.  Every module that
    splits scores at the cutoff (caliper bins, weights, thinning, shares)
    goes through this function.
    """
    return np.abs(t) > cutoff


def caliper_tail(t, epsilon: float, cutoff: float = 1.96) -> tuple[np.ndarray, EmpiricalTail]:
    """Jump estimator: theta_hat and the tail of every row of t, along its last axis.

    theta_hat = #{|t| in (cutoff - eps, cutoff]} / #{|t| in (cutoff, cutoff + eps]}

    Returns arrays with one entry per row (0-d for a flat t).  The
    estimate is deliberately not clamped to [0, 1].  An empty lower bin
    gives theta_hat = 0; an empty upper bin leaves the ratio undefined and
    gives NaN, which the estimator reports as a ``CaliperError``.  Raises
    nothing but the ``ValueError`` of a non-positive epsilon.
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
