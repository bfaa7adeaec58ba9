"""Hermite basis functions and Gaussian densities.

The estimator expands everything in *normalized probabilists'* Hermite
polynomials He_j (orthonormal under the standard normal weight).  This
module provides their stable evaluation by one three-term recurrence, the
Gaussian pdf and quantile used throughout, and the two-sided conditional
power function.  Integrals of He_j need no quadrature: He'_{j+1} =
sqrt(j+1) He_j, so ``spectrum.build_basis`` reads them off the same sweep.
"""
from __future__ import annotations

import math
import statistics

import numpy as np

#: Largest polynomial degree the recurrence is certified for.  The tuning
#: rule with recommended constants stays below ~30 for any realistic meta
#: sample, so this cap only guards against pathological configuration.
J_MAX = 64


def _check_degree(j: int) -> int:
    if j != int(j) or j < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer, got {j!r}")
    if j > J_MAX:
        raise ValueError(f"polynomial degree {j} exceeds the supported cap {J_MAX}")
    return int(j)


def hermite_sequence(x, jmax: int) -> np.ndarray:
    """All normalized Hermite values He_0(x) .. He_jmax(x) in one sweep.

    Uses the three-term recurrence

        He_0(x) = 1,  He_1(x) = x,
        He_{j+1}(x) = (x * He_j(x) - sqrt(j) * He_{j-1}(x)) / sqrt(j+1),

    which is numerically stable for every degree up to ``J_MAX``, unlike
    the explicit factorial summation.

    Parameters
    ----------
    x : array_like
        Evaluation points, flattened to one dimension.
    jmax : int
        Highest degree to evaluate.

    Returns
    -------
    ndarray
        Array of shape ``(jmax + 1, len(x))``; row ``j`` holds ``He_j(x)``.
    """
    jmax = _check_degree(jmax)
    arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    out = np.empty((jmax + 1, arr.size))
    out[0] = 1.0
    if jmax >= 1:
        out[1] = arr
    for j in range(1, jmax):
        out[j + 1] = (arr * out[j] - math.sqrt(j) * out[j - 1]) / math.sqrt(j + 1)
    return out


def gaussian_pdf(x, variance: float = 1.0):
    """Density of N(0, variance) at ``x``.

    Parameters
    ----------
    x : float or ndarray
    variance : float
        Strictly positive variance.

    Returns
    -------
    float or ndarray
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    arr = np.asarray(x, dtype=float)
    out = np.exp(-(arr * arr) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    return out if arr.ndim else float(out)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF at one probability (for CI half-widths).

    Uses the standard library's ``NormalDist``, so the estimate path loads
    no SciPy; it is within a few ulp of ``scipy.special.ndtri``.  For ``p``
    outside (0, 1) it raises ``ValueError`` where ``ndtri`` returns +/-inf.
    """
    return statistics.NormalDist().inv_cdf(float(p))


def conditional_power(h, cv: float = 1.96):
    """Two-sided rejection probability of a size-cv test given the true effect.

    Computes ``Pr(|h + Z| > cv)`` for standard normal noise ``Z``:

        1 - [Phi(cv - h) - Phi(-cv - h)]

    which is symmetric in ``h`` and increasing in ``|h|``.

    Parameters
    ----------
    h : float or ndarray
        Standardized true effect(s).
    cv : float
        Critical value, strictly positive (1.96 for the two-sided 5% test).

    Returns
    -------
    float or ndarray
        Probability in [0, 1].
    """
    from scipy import special

    if not cv > 0:
        raise ValueError(f"critical value must be positive, got {cv}")
    arr = np.asarray(h, dtype=float)
    out = 1.0 - (special.ndtr(cv - arr) - special.ndtr(-cv - arr))
    return out if arr.ndim else float(out)
