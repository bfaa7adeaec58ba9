"""Hermite basis functions, Gaussian densities, and polynomial integrals.

The estimator expands everything in *normalized probabilists'* Hermite
polynomials He_j (orthonormal under the standard normal weight).  This
module provides their stable evaluation, the Gaussian pdf and quantile used
throughout, the two-sided conditional power function, and exact definite
integrals of scaled basis polynomials over symmetric intervals.
"""
from __future__ import annotations

import functools
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


@functools.cache
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, read-only and computed once per count.

    Every basis build integrates each even degree twice, so ``leggauss``
    would otherwise dominate ``build_basis`` at moderate sample sizes.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_basis(j: int, half_width: float, scale: float = 1.0) -> float:
    """Integrate He_j(t / scale) over the symmetric interval [-hw, +hw].

    The integrand is a polynomial of degree ``j``, so Gauss-Legendre
    quadrature with ``ceil((j + 2) / 2)`` nodes is exact to machine
    precision.  Odd degrees integrate to exactly zero by symmetry and are
    short-circuited.

    Parameters
    ----------
    j : int
        Polynomial degree.
    half_width : float
        Positive half-width of the integration interval.
    scale : float
        Positive argument scaling of the polynomial.

    Returns
    -------
    float
    """
    j = _check_degree(j)
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if j % 2 == 1:
        return 0.0
    nodes, weights = _gauss_legendre((j + 2 + 1) // 2)  # ceil((j + 2) / 2) nodes
    t = nodes * half_width
    vals = hermite_sequence(t / scale, j)[j]
    return half_width * float(np.dot(weights, vals))
