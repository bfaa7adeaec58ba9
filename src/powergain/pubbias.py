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


@dataclass(frozen=True, eq=False)
class EmpiricalTail:
    """The one bin decision around the cutoff, and what is read from it.

    ``insignificant`` (|t| <= cutoff), ``lower`` (|t| in (cutoff - eps,
    cutoff]) and ``upper`` (|t| in (cutoff, cutoff + eps]) are masks with
    the shape of the scores; every estimator term (omega, W, X, Q) and the
    status-quo power read them instead of comparing scores with the cutoff
    again.  The counts, masses and F_hat are their sums, weighted by each
    score's multiplicity, one entry per row (0-d for a flat sample); a mass
    is its count over the row's total multiplicity, the row's length when
    every score counts once.  ``==`` is identity.
    """

    insignificant: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    F_hat: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray
    count_above: np.ndarray
    count_below: np.ndarray
    count_insignificant: np.ndarray


def significant(t, cutoff: float):
    """The one significance predicate of the package: |t| > cutoff.

    A score exactly at the cutoff is insignificant, as in the event
    Pr(|T| > cv) that the power function measures.  Every split at the
    cutoff goes through this function: the caliper bins (and, through
    their masks, every estimator weight and the status-quo power), the
    prior reconstruction's weights and the thinning.
    """
    return np.abs(t) > cutoff


def caliper_tail(t, epsilon: float, cutoff: float = 1.96,
                 counts=None) -> tuple[np.ndarray, EmpiricalTail]:
    """Jump estimator: theta_hat and the tail of every row of t, along its last axis.

    theta_hat = #{|t| in (cutoff - eps, cutoff]} / #{|t| in (cutoff, cutoff + eps]}

    Returns theta_hat and the ``EmpiricalTail`` of the bin masks, whose
    counts and F_hat are the mask sums of each row (0-d for a flat t).
    ``counts`` gives each entry of the last axis a multiplicity, so a
    table of distinct scores counts as the sample it stands for; the sums
    are then integer sums of the multiplicities under each mask, equal to
    the counts over the sample.  By default every entry counts once, and
    the sums are the numbers of scores under each mask.
    The estimate is deliberately not clamped to [0, 1].  An empty lower
    bin gives theta_hat = 0; an empty upper bin leaves the ratio undefined
    and gives NaN, which the estimator reports as a ``CaliperError``.
    Raises nothing but the ``ValueError`` of a non-positive epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    arr = np.abs(np.asarray(t, dtype=float))
    insignificant = ~significant(arr, cutoff)
    lower = insignificant & (arr > cutoff - epsilon)
    upper = ~insignificant & (arr <= cutoff + epsilon)
    if counts is None:
        n = arr.shape[-1]
        below, above, insig = (np.count_nonzero(m, axis=-1)
                               for m in (lower, upper, insignificant))
    else:
        counts = np.asarray(counts)
        n = int(counts.sum())
        below, above, insig = (m @ counts for m in (lower, upper, insignificant))
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(above > 0, below / above, np.nan)
    tail = EmpiricalTail(insignificant=insignificant, lower=lower, upper=upper,
                         F_hat=insig / n,
                         B_plus=above / n, B_minus=below / n,
                         count_above=above, count_below=below,
                         count_insignificant=insig)
    return theta, tail
