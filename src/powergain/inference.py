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
one value per row.  ``q_hat`` and ``influence`` also take the scores as a
table of K values plus an ``index`` that takes each of a row's n scores to
its table entry: the terms are formed on the table and only the sample
mean in Q runs over the n scores.
"""
from __future__ import annotations

import numpy as np

from . import basis as _basis

#: Rows per block when labels are packed into integer keys.
_KEY_BLOCK = 1 << 16


def _column(x) -> np.ndarray:
    """Per-row values as a column that broadcasts against the row masks."""
    return np.asarray(x)[..., None]


def q_hat(S: np.ndarray, theta, tail, index=None) -> np.ndarray:
    """Sensitivity Q of the estimand to the inverse reporting ratio.

    Sample analogue of E[S(T) (1{|T| <= cutoff} - F) / (1 + F (theta^-1 - 1))^2],
    computed in the theta^2-multiplied form that stays finite at theta = 0.
    One entry per row of S, as a column: (R, 1), or (1,) for a flat sample.
    With S and the tail on a table of scores, ``index`` takes the sample's
    scores to their table entries and the mean runs over the sample.
    """
    theta, F_hat = _column(theta), _column(tail.F_hat)
    denom = theta + F_hat * (1.0 - theta)
    terms = S * (tail.insignificant - F_hat)
    if index is not None:
        terms = np.take(terms, index, axis=-1)
    return theta**2 * np.mean(terms, axis=-1, keepdims=True) / denom**2


def influence(S: np.ndarray, theta, tail, index=None) -> np.ndarray:
    """Feasible influence values m(t_i) = S_i W(t_i) + Q X(t_i).

    W is the normalized caliper weight, in the theta-multiplied form

        W = (theta + (1 - theta) 1{|t| <= cutoff}) / (theta + (1 - theta) F)

    that stays finite as theta -> 0 (identically 1 at theta = 1), and X
    the influence of the inverse caliper ratio,

        X = 1{upper bin} / B-  -  (B+ / B-^2) 1{lower bin},

    whose sample mean is exactly zero.  Both are undefined where the row
    core already fails a row: W at theta + (1 - theta) F = 0, X at B- = 0.
    With S and the tail on a table of scores, m is too; ``index`` is
    ``q_hat``'s.
    """
    th, F_hat = _column(theta), _column(tail.F_hat)
    B_plus, B_minus = _column(tail.B_plus), _column(tail.B_minus)
    W = (th + (1.0 - th) * tail.insignificant) / (th + (1.0 - th) * F_hat)
    X = tail.upper / B_minus - (B_plus / B_minus**2) * tail.lower
    return S * W + q_hat(S, theta, tail, index) * X


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


def _factorise(labels) -> tuple[np.ndarray, np.ndarray]:
    """Factorise labels: ``np.unique(labels, return_inverse=True,
    return_counts=True)[1:]`` on the flattened labels.

    That is (codes, counts), with codes in sorted-label order; the unique
    labels themselves are not built.  A str array of width k whose code
    points take at most b bits, with k * b <= 64, is sorted on integer
    keys instead of strings: each label packed big-endian into one uint64,
    b bits per code point.  The zero padding of shorter labels sorts them
    first, so the key order is NumPy's string order and both outputs are
    the same.  When the raw code points do not fit beside the
    r = bit_length(n - 1) row bits, each nonzero code point is packed as
    its offset from the smallest one, plus 1, which keeps the order and
    the padding first: digits then take 4 bits, so ids of up to 16 digits
    fit, and 8-digit ids fit beside up to 2**32 rows.

    The rows are put in key order by ``_pair_sort`` on (key, row) words
    when the r row bits fit beside the k * b key bits, and by
    ``np.argsort`` of the keys when they do not (16-digit ids, say): the
    order of the rows within one key changes no code and no count.  The
    heads of the runs of equal keys give the counts, and one scatter
    through the sorted rows puts the codes back in row order.  Every other
    array (wider labels, integers, objects) goes to ``np.unique``.
    """
    arr = np.asarray(labels).ravel()
    n = arr.size
    if arr.dtype.kind == "U" and n:
        width = arr.dtype.itemsize // 4
        native = arr.dtype.newbyteorder("=")
        points = arr.astype(native, copy=False).view(np.uint32).reshape(n, width)
        hi, off = int(points.max()), 0
        r = (n - 1).bit_length()
        if width * hi.bit_length() + r > 64:
            off = int((points - np.uint32(1)).min())  # the padding 0 wraps to the top
            points = points - np.uint32(off) * (points != 0)
        bits = (hi - off).bit_length()
        if width * bits <= 64:
            keys = np.empty(n, dtype=np.uint64)
            # Packed a block of rows at a time, so that the block's keys stay
            # in cache over its columns.
            for start in range(0, n, _KEY_BLOCK):
                block, key = points[start:start + _KEY_BLOCK], keys[start:start + _KEY_BLOCK]
                key[:] = block[:, 0]
                for j in range(1, width):
                    key <<= np.uint64(bits)
                    key |= block[:, j]
            if width * bits + r <= 64:
                keys, rows = _pair_sort(keys, np.arange(n, dtype=np.uint64), r)
                # The uint64 rows are below n: viewed as intp, they keep their values.
                rows = rows.view(np.intp)
            else:
                rows = np.argsort(keys)
                keys = keys[rows]
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            counts = np.diff(np.flatnonzero(head), append=n)
            codes = np.empty(n, dtype=np.intp)
            codes[rows] = np.repeat(np.arange(counts.size), counts)
            return codes, counts
    return np.unique(arr, return_inverse=True, return_counts=True)[1:]


def variance_hat(values, codes):
    """Cluster-robust variance of a sample mean of influence values.

    V = (1/n^2) * sum over clusters of (sum of centered values in cluster)^2.

    This block form is algebraically the double sum with the block-diagonal
    dependence matrix, runs in O(n), and is a sum of squares, hence never
    negative.  Singleton clusters reduce it to the iid sandwich form; one
    all-encompassing cluster gives exactly zero (the centered full-sample
    sum vanishes), which is why full-sample clustering is degenerate.

    ``codes`` are the n values' cluster codes, integers in [0, n) such as
    ``TScoreSample``'s (an unused code is an empty block, which adds
    exactly 0); anything else raises ``ValueError``.  ``values`` of shape
    (R, n) are R samples sharing the codes; the result is then one variance
    per row, from one ``bincount`` whose codes are offset row by row.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if vals.size == 0:
        raise ValueError("variance of an empty sample is undefined")
    rows = vals.reshape(-1, n)
    centered = rows - rows.mean(axis=1, keepdims=True)
    codes = np.asarray(codes)
    lo = hi = -1
    if codes.dtype.kind in "iu":
        lo, hi = int(codes.min()), int(codes.max())
    if not 0 <= lo <= hi < n:
        raise ValueError(f"cluster codes must be integers in [0, n) = [0, {n})")
    R = rows.shape[0]
    if lo == hi:
        # One cluster: the centered full-sample sum is identically zero.
        v = np.zeros(R)
    else:
        width = hi + 1
        offset = codes if R == 1 else codes + width * np.arange(R)[:, None]
        block_sums = np.bincount(offset.ravel(), weights=centered.ravel(),
                                 minlength=R * width).reshape(-1, width)
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

