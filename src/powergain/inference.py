"""Influence function, cluster-robust variance, and interval plumbing.

The estimator is asymptotically linear with influence

    m(t) = S(t) * W(t; theta, F) + Q * X(t; B+, B-),

where W re-normalizes the selection weight, X captures the estimation
noise of theta, and Q is the sensitivity of the estimand to theta.  The
variance estimator sums centered influence values within study clusters
(block-diagonal dependence) and squares the block sums.

Every helper also takes R samples of equal size at once: scores of shape
(R, n), with each per-sample quantity (theta, F, B+, B-, Q) a column of
shape (R, 1).  Reductions then give one value per row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .pubbias import significant


@dataclass(frozen=True)
class InfluenceIngredients:
    """Everything beyond S(t) needed to evaluate the influence function."""

    theta_hat: float
    F_hat: float
    B_plus: float
    B_minus: float
    Q_hat: float
    epsilon: float
    cutoff: float


def selection_weight(t, theta: float, p: float, cutoff: float):
    """Normalized caliper weight W(t; theta, p).

    Algebraically (1 + (theta^-1 - 1) 1{|t| <= cutoff}) / (1 + (theta^-1 - 1) p),
    evaluated in the theta-multiplied form

        (theta + (1 - theta) 1{|t| <= cutoff}) / (theta + (1 - theta) p)

    which stays finite as theta -> 0.  Identically 1 when theta = 1.
    """
    denom = theta + (1.0 - theta) * p
    if np.any(denom <= 0):
        raise ValueError("selection weight undefined: theta and CDF at cutoff both zero")
    arr = np.asarray(t, dtype=float)
    num = theta + (1.0 - theta) * ~significant(arr, cutoff)
    out = num / denom
    return out if arr.ndim else float(out)


def theta_influence(t, b_plus: float, b_minus: float, epsilon: float, cutoff: float):
    """Influence X(t; B+, B-) of the inverse caliper ratio.

    X(t) = 1{|t| in (cutoff, cutoff+eps]} / B-  -  (B+ / B-^2) 1{|t| in (cutoff-eps, cutoff]}

    Its sample mean is exactly zero when B+ and B- are the sample bin
    masses of the same data.
    """
    if np.any(b_minus <= 0):
        raise ValueError("theta influence undefined: lower caliper bin is empty")
    arr = np.abs(np.asarray(t, dtype=float))
    sig = significant(arr, cutoff)
    upper = sig & (arr <= cutoff + epsilon)
    lower = (arr > cutoff - epsilon) & ~sig
    out = upper / b_minus - (b_plus / b_minus**2) * lower
    return out if np.ndim(t) else float(out)


def q_hat(S: np.ndarray, t, theta: float, F_hat: float, cutoff: float):
    """Sensitivity Q of the estimand to the inverse reporting ratio.

    Sample analogue of E[S(T) (1{|T| <= cutoff} - F) / (1 + F (theta^-1 - 1))^2],
    computed in the theta^2-multiplied form that stays finite at theta = 0.
    A float for one sample; a column (R, 1) for R rows.
    """
    arr = np.asarray(t, dtype=float)
    denom = theta + F_hat * (1.0 - theta)
    if np.any(denom <= 0):
        raise ValueError("Q undefined: theta and CDF at cutoff both zero")
    centered = ~significant(arr, cutoff) - F_hat
    q = theta**2 * np.mean(np.asarray(S) * centered, axis=-1, keepdims=True) / denom**2
    return q if arr.ndim > 1 else float(q[0])


def influence(S: np.ndarray, t, ing: InfluenceIngredients) -> np.ndarray:
    """Feasible influence values m(t_i) = S_i W(t_i) + Q X(t_i)."""
    W = selection_weight(t, ing.theta_hat, ing.F_hat, ing.cutoff)
    X = theta_influence(t, ing.B_plus, ing.B_minus, ing.epsilon, ing.cutoff)
    return np.asarray(S) * W + ing.Q_hat * X


def _factorise(labels, return_index: bool = False) -> tuple[np.ndarray, ...]:
    """Factorise labels: ``np.unique(labels, return_index=return_index,
    return_inverse=True, return_counts=True)`` on the flattened labels.

    That is (uniques[, first_index], codes, counts), with codes in
    sorted-label order.  A str array of width k whose code points have at
    most b bits, with k * b <= 64, is sorted on integer keys instead of
    strings: each label packed big-endian into one uint64, b bits per code
    point.  The zero padding of shorter labels sorts them first, so the
    key order is NumPy's string order and every output is the same.  That
    covers ASCII digit ids of up to 10 characters, other ASCII ids of up
    to 9 and Latin-1 ids of up to 8.  Every other array (wider labels,
    integers, objects) goes to ``np.unique`` as it is.
    """
    arr = np.asarray(labels).ravel()
    if arr.dtype.kind == "U" and arr.size:
        width = arr.dtype.itemsize // 4
        native = arr.dtype.newbyteorder("=")
        points = arr.astype(native, copy=False).view(np.uint32).reshape(arr.size, width)
        bits = int(points.max()).bit_length()
        if width * bits <= 64:
            keys = np.zeros(arr.size, dtype=np.uint64)
            for j in range(width):
                keys <<= np.uint64(bits)
                keys |= points[:, j]
            keys, *rest = np.unique(keys, return_index=return_index,
                                    return_inverse=True, return_counts=True)
            shifts = np.uint64(bits) * np.arange(width - 1, -1, -1, dtype=np.uint64)
            unpacked = (keys[:, None] >> shifts) & np.uint64((1 << bits) - 1)
            uniques = unpacked.astype(np.uint32).view(native).ravel().astype(arr.dtype)
            return (uniques, *rest)
    return np.unique(arr, return_index=return_index, return_inverse=True, return_counts=True)


def variance_hat(values, study_id):
    """Cluster-robust variance of a sample mean of influence values.

    V = (1/n^2) * sum over clusters of (sum of centered values in cluster)^2.

    This block form is algebraically the double sum with the block-diagonal
    dependence matrix, runs in O(n), and is a sum of squares, hence never
    negative.  Singleton clusters reduce it to the iid sandwich form; one
    all-encompassing cluster gives exactly zero (the centered full-sample
    sum vanishes), which is why full-sample clustering is degenerate.

    ``values`` of shape (R, n) are R samples sharing the n cluster labels;
    the result is then one variance per row, from one ``bincount`` whose
    codes are offset row by row.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if vals.size == 0:
        raise ValueError("variance of an empty sample is undefined")
    rows = vals.reshape(-1, n)
    centered = rows - rows.mean(axis=1, keepdims=True)
    codes = np.asarray(study_id)
    # Non-negative integer labels below n, such as TScoreSample's cluster
    # codes, index the blocks as they are: an absent label is an empty
    # block, which adds exactly 0.  Other labels are factorised first.
    if not (codes.dtype.kind in "iu" and codes.min() >= 0 and codes.max() < n):
        codes = _factorise(codes)[1]
    lo, hi = int(codes.min()), int(codes.max())
    if lo == hi:
        # One cluster: the centered full-sample sum is identically zero.
        v = np.zeros(rows.shape[0])
    else:
        width = hi + 1
        offset = codes + width * np.arange(rows.shape[0])[:, None]
        block_sums = np.bincount(offset.ravel(), weights=centered.ravel(),
                                 minlength=rows.size // n * width).reshape(-1, width)
        v = np.maximum(np.einsum("ij,ij->i", block_sums, block_sums) / (n * n), 0.0)
    return v if vals.ndim > 1 else float(v[0])


def confidence_interval(delta_hat: float, v_hat: float, alpha: float = 0.05) -> tuple[float, float]:
    """Normal interval delta_hat +/- z_{1-alpha/2} * sqrt(v_hat), elementwise."""
    if np.any(np.asarray(v_hat) < 0):
        raise ValueError(f"variance must be non-negative, got {v_hat}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = _basis.normal_quantile(1.0 - alpha / 2.0) * np.sqrt(v_hat)
    return delta_hat - half, delta_hat + half

