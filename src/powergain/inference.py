"""Influence function, cluster-robust variance, and interval plumbing.

The estimator is asymptotically linear with influence

    m(t) = S(t) * W(t; theta, F) + Q * X(t; B+, B-),

where W re-normalizes the selection weight, X captures the estimation
noise of theta, and Q is the sensitivity of the estimand to theta.  W, X
and Q split the scores at the cutoff and at cutoff +/- epsilon only
through the bin masks of ``pubbias.caliper_tail``'s ``EmpiricalTail``.
The variance estimator sums centered influence values within study
clusters (block-diagonal dependence) and squares the block sums.

Every helper also takes R samples of equal size at once: scores of shape
(R, n), with one theta and one tail entry per row.  Reductions then give
one value per row.
"""
from __future__ import annotations

import numpy as np

from . import basis as _basis


def _column(x) -> np.ndarray:
    """Per-row values as a column that broadcasts against the row masks."""
    return np.asarray(x)[..., None]


def q_hat(S: np.ndarray, theta, tail) -> np.ndarray:
    """Sensitivity Q of the estimand to the inverse reporting ratio.

    Sample analogue of E[S(T) (1{|T| <= cutoff} - F) / (1 + F (theta^-1 - 1))^2],
    computed in the theta^2-multiplied form that stays finite at theta = 0.
    One entry per row of S, as a column: (R, 1), or (1,) for a flat sample.
    """
    theta, F_hat = _column(theta), _column(tail.F_hat)
    denom = theta + F_hat * (1.0 - theta)
    centered = tail.insignificant - F_hat
    return theta**2 * np.mean(S * centered, axis=-1, keepdims=True) / denom**2


def influence(S: np.ndarray, theta, tail) -> np.ndarray:
    """Feasible influence values m(t_i) = S_i W(t_i) + Q X(t_i).

    W is the normalized caliper weight, in the theta-multiplied form

        W = (theta + (1 - theta) 1{|t| <= cutoff}) / (theta + (1 - theta) F)

    that stays finite as theta -> 0 (identically 1 at theta = 1), and X
    the influence of the inverse caliper ratio,

        X = 1{upper bin} / B-  -  (B+ / B-^2) 1{lower bin},

    whose sample mean is exactly zero.  Both are undefined where the row
    core already fails a row: W at theta + (1 - theta) F = 0, X at B- = 0.
    """
    th, F_hat = _column(theta), _column(tail.F_hat)
    B_plus, B_minus = _column(tail.B_plus), _column(tail.B_minus)
    W = (th + (1.0 - th) * tail.insignificant) / (th + (1.0 - th) * F_hat)
    X = tail.upper / B_minus - (B_plus / B_minus**2) * tail.lower
    return S * W + q_hat(S, theta, tail) * X


def _pair_sort(high: np.ndarray, low: np.ndarray, low_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort (high, low) pairs lexicographically by one in-place value sort.

    Each pair is one uint64 word ``(high << low_bits) | low``; the caller
    keeps high < 2**(64 - low_bits) and low < 2**low_bits.  Returns the
    high and low parts of the sorted words, as uint64.  With the row
    numbers 0..n-1 as ``low`` and low_bits >= bit_length(n - 1), the low
    part is ``np.argsort(high, kind="stable")``: the rows by key, and
    within a key by row.
    """
    words = np.left_shift(high, np.uint64(low_bits), dtype=np.uint64)
    words |= low
    words.sort()
    low = words & np.uint64((1 << low_bits) - 1)
    words >>= np.uint64(low_bits)
    return words, low


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
    to 9 and Latin-1 ids of up to 8.

    When the r = bit_length(n - 1) row bits fit beside the k * b key bits,
    the rows are sorted by ``_pair_sort`` on (key, row) words: one value
    sort orders them by label and, within a label, by row.  The heads of
    the runs of equal keys then give the uniques, the counts and, as the
    row at each head, the first index; a second ``_pair_sort`` of (row,
    code) words returns the codes to row order without a random scatter.
    When they do not fit (10-digit ids at more than 16 rows, say), the
    packed keys go to ``np.unique``.  Every other array (wider labels,
    integers, objects) goes to ``np.unique`` as it is.
    """
    arr = np.asarray(labels).ravel()
    n = arr.size
    if arr.dtype.kind == "U" and n:
        width = arr.dtype.itemsize // 4
        native = arr.dtype.newbyteorder("=")
        points = arr.astype(native, copy=False).view(np.uint32).reshape(n, width)
        bits = int(points.max()).bit_length()
        if width * bits <= 64:
            keys = np.zeros(n, dtype=np.uint64)
            for j in range(width):
                keys <<= np.uint64(bits)
                keys |= points[:, j]
            r = (n - 1).bit_length()
            if width * bits + r > 64:
                keys, *rest = np.unique(keys, return_index=return_index,
                                        return_inverse=True, return_counts=True)
            else:
                keys, rows = _pair_sort(keys, np.arange(n, dtype=np.uint64), r)
                head = np.empty(n, dtype=bool)
                head[0] = True
                np.not_equal(keys[1:], keys[:-1], out=head[1:])
                starts = np.flatnonzero(head)
                # A code is below the number of distinct keys, so its bits
                # plus the row bits fit where the key and row bits did.
                codes = np.cumsum(head, dtype=np.uint64)
                codes -= np.uint64(1)
                codes = _pair_sort(rows, codes, (starts.size - 1).bit_length())[1]
                rest = [codes.astype(np.intp), np.diff(starts, append=n)]
                if return_index:
                    rest.insert(0, rows[starts].astype(np.intp))
                keys = keys[starts]
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

