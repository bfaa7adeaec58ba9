"""Hermite basis functions and Gaussian densities.

The estimator expands everything in *normalized probabilists'* Hermite
polynomials He_j (orthonormal under the standard normal weight).  This
module provides their stable evaluation by one three-term recurrence (and
the coefficients of two of its steps composed, which the kernel runs over
the even degrees), the Gaussian pdf, CDF and quantile used throughout, and
the two-sided conditional power function.  Integrals of He_j need no
quadrature: He'_{j+1} = sqrt(j+1) He_j, so ``spectrum.build_basis`` reads
them off the same sweep.
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


def _halve_numerators(rows):
    """Coefficient rows with each numerator coefficient halved (exactly)."""
    return tuple((0.5 * p, q) for p, q in rows)


#: W. J. Cody's rational Chebyshev approximations to erf and erfc (Math.
#: Comp. 23 (1969) 631-637, with the coefficients of his CALERF), one per
#: range of y, as rows of (numerator, denominator) coefficients from the
#: highest power down; the first row holds the denominator's leading 1.
#:   y <= 0.46875:      erf(y)  = y P(y^2) / Q(y^2)
#:   0.46875 < y <= 4:  erfc(y) = exp(-y^2) P(y) / Q(y)
#:   y > 4:             erfc(y) = exp(-y^2) / y * (1/sqrt(pi) - P(u) / Q(u)),
#:                      u = 1 / y^2, and P has a trailing factor u
#: Each numerator is halved (exactly), so the ranges give erf/2 and erfc/2.
_CODY_ERF = _halve_numerators([
    [1.85777706184603153e-1, 1.0],
    [3.16112374387056560e00, 2.36012909523441209e01],
    [1.13864154151050156e02, 2.44024637934444173e02],
    [3.77485237685302021e02, 1.28261652607737228e03],
    [3.20937758913846947e03, 2.84423683343917062e03]])
_CODY_ERFC = _halve_numerators([
    [2.15311535474403846e-8, 1.0],
    [5.64188496988670089e-1, 1.57449261107098347e01],
    [8.88314979438837594e00, 1.17693950891312499e02],
    [6.61191906371416295e01, 5.37181101862009858e02],
    [2.98635138197400131e02, 1.62138957456669019e03],
    [8.81952221241769090e02, 3.29079923573345963e03],
    [1.71204761263407058e03, 4.36261909014324716e03],
    [2.05107837782607147e03, 3.43936767414372164e03],
    [1.23033935479799725e03, 1.23033935480374942e03]])
_CODY_ERFC_FAR = _halve_numerators([
    [1.63153871373020978e-2, 1.0],
    [3.05326634961232344e-1, 2.56852019228982242e00],
    [3.60344899949804439e-1, 1.87295284992346725e00],
    [1.25781726111229246e-1, 5.27905102951428412e-1],
    [1.60837851487422766e-2, 6.05183413124413191e-2],
    [6.58749161529837803e-4, 2.33520497626869185e-3]])
_ERF_TOP, _ERFC_MID_TOP = 0.46875, 4.0
#: Elements per pass of ``_ndtr`` and ``conditional_power``: a few buffers
#: of this size stay in cache.
_NDTR_BLOCK = 16384


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


@functools.cache
def hermite_even_steps(jmax: int) -> tuple[tuple[int, int, float, float], ...]:
    """Coefficients of the recurrence over the even degrees only, in z = x^2.

    Two steps of ``hermite_sequence``'s recurrence, composed, give

        He_{n+2} = ((z - (2n+1)) He_n - sqrt(n (n-1)) He_{n-2}) / sqrt((n+1)(n+2)).

    The steps to n + 1 and to n + 2 give
    sqrt((n+1)(n+2)) He_{n+2} = (z - (n+1)) He_n - sqrt(n) x He_{n-1}, and
    the step to n gives sqrt(n) x He_{n-1} = n He_n + sqrt(n (n-1)) He_{n-2}.
    Even He_n are polynomials in x^2 (DLMF 18.7.19), so these steps, from
    He_0 = 1 and He_{-2} = 0, give every even degree and no odd one.

    Returns ``(n, 2n + 1, sqrt(n (n-1)), sqrt((n+1)(n+2)))`` for the steps
    n = 0, 2, ... that reach every even degree up to ``jmax``.
    """
    jmax = _check_degree(jmax)
    return tuple((n, 2 * n + 1, math.sqrt(n * (n - 1)), math.sqrt((n + 1) * (n + 2)))
                 for n in range(0, jmax - 1, 2))


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


def _rational(y, coef, num, den, out) -> None:
    """P(y) / Q(y) for the coefficient rows ``coef``, into out.

    Horner steps run in place in the buffers ``num`` and ``den``, with
    scalar coefficients; ``out`` may be ``num``.
    """
    np.multiply(y, coef[0][0], out=num)
    np.multiply(y, coef[0][1], out=den)
    for p, q in coef[1:-1]:
        num += p
        num *= y
        den += q
        den *= y
    num += coef[-1][0]
    den += coef[-1][1]
    np.divide(num, den, out=out)


def _sf_block(a, out, pdf, buf) -> None:
    """Q(a) = 1 - Phi(a) = erfc(a / sqrt 2) / 2 for a >= 0, for one block.

    Writes Q(a) into ``out`` and, unless ``pdf`` is None, phi(a) into
    ``pdf``; ``buf`` is a (4, len(a)) scratch array.  Every element gets
    Cody's middle range first; those in his outer ranges are then replaced.
    """
    y, s, num, den = buf
    np.multiply(a, math.sqrt(0.5), out=y)
    near = np.flatnonzero(y <= _ERF_TOP)
    far = np.flatnonzero(y > _ERFC_MID_TOP)
    np.minimum(y, _ERFC_MID_TOP, out=s)
    _rational(s, _CODY_ERFC, num, den, out)
    if far.size:
        yf = y[far]
        u = 1.0 / (yf * yf)
        r = np.empty((2, far.size))
        _rational(u, _CODY_ERFC_FAR, r[0], r[1], r[0])
        r[0] *= u
        out[far] = (0.5 / math.sqrt(math.pi) - r[0]) / yf
    # exp(-y^2) as exp(-a^2 / 2): squaring a rather than the rounded y
    # keeps the relative error in the far tail to about a^2 / 2 ulp.
    np.multiply(a, a, out=s)
    s *= -0.5
    np.exp(s, out=s)
    out *= s
    if pdf is not None:
        np.multiply(s, 1.0 / math.sqrt(2.0 * math.pi), out=pdf)
    if near.size:
        yn = y[near]
        r = np.empty((2, near.size))
        _rational(yn * yn, _CODY_ERF, r[0], r[1], r[0])
        r[0] *= yn
        out[near] = 0.5 - r[0]


def _cdf_from_sf(sf, heaviside, sign) -> None:
    """Turn sf = Q(|x|) into Phi(x) in place, given heaviside = [x > 0].

    Phi(x) = Q(|x|) for x <= 0 and 1 - Q(|x|) for x > 0, that is
    H + (1 - 2H) Q(|x|); 1 - 2H is -1 or 1, so the sign costs one rounding
    at most.  ``sign`` is scratch of the same length.
    """
    np.multiply(heaviside, -2.0, out=sign)
    sign += 1.0
    sf *= sign
    sf += heaviside


def _ndtr_block(x, out, buf) -> None:
    """Phi(x) into out for one block; ``buf`` is a (5, len(x)) scratch array."""
    a = buf[0]
    np.abs(x, out=a)
    _sf_block(a, out, None, buf[1:])
    _cdf_from_sf(out, np.greater(x, 0.0, out=a), buf[1])


def _blockwise(kernel, x, *outs, rows: int, width: int = 1) -> None:
    """Run ``kernel(x, *outs, buf)`` over blocks of ``_NDTR_BLOCK`` elements.

    ``outs`` are arrays of the shape of ``x`` (or None, passed on as
    None); ``buf`` is a scratch array of ``rows`` contiguous rows of
    ``width`` elements per element of the block, reused by every block.
    """
    flat_x = x.reshape(-1)
    flat_outs = [None if o is None else o.reshape(-1) for o in outs]
    buf = np.empty((rows, width * min(flat_x.size, _NDTR_BLOCK)))
    # x^2 overflows beyond |x| = 1.3e154, where erfc is 0 all the same.
    with np.errstate(over="ignore"):
        for start in range(0, flat_x.size, _NDTR_BLOCK):
            block = slice(start, start + _NDTR_BLOCK)
            xb = flat_x[block]
            kernel(xb, *(None if o is None else o[block] for o in flat_outs),
                   buf[:, :width * xb.size])


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise, in plain NumPy.

    Follows Cody's erf/erfc approximations in three ranges of |x| / sqrt(2)
    (see ``_CODY_ERF``), a block of ``_NDTR_BLOCK`` elements at a time.
    Against a 50-digit evaluation, its absolute error on [-38, 9] is at
    most 1.1e-16, as is ``scipy.special.ndtr``'s.

    Returns an array of the shape of ``x`` (0-d for a scalar).
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape)
    _blockwise(_ndtr_block, arr, out, rows=5)
    return out


def _power_block(h, out, slope, buf, *, cv: float) -> None:
    """``conditional_power`` (and its slope unless None) for one block.

    One ``_sf_block`` call takes both terms, on the 2k arguments
    ||h| - cv| and |h| + cv; ``buf`` has 7 rows of 2k elements.
    """
    k = h.size
    arg, sf, pdf, scratch = buf[0], buf[1], buf[2], buf[3:]
    lo, hi = arg[:k], arg[k:]
    np.abs(h, out=hi)
    np.subtract(hi, cv, out=lo)
    hi += cv
    heaviside = np.greater(lo, 0.0, out=out)  # until the sum below
    np.abs(lo, out=lo)
    _sf_block(arg, sf, None if slope is None else pdf, scratch)
    _cdf_from_sf(sf[:k], heaviside, lo)
    np.add(sf[:k], sf[k:], out=out)
    if slope is not None:
        # phi(|h| - cv) >= phi(|h| + cv); the slope takes the sign of h.
        np.subtract(pdf[:k], pdf[k:], out=slope)
        np.copysign(slope, h, out=slope)


def conditional_power(h, cv: float = 1.96, *, slope: bool = False):
    """Two-sided rejection probability of a size-cv test given the true effect.

    Computes ``Pr(|h + Z| > cv)`` for standard normal noise ``Z``:

        Phi(|h| - cv) + Q(|h| + cv),    Q = 1 - Phi,

    which is symmetric in ``h`` and increasing in ``|h|``.  The argument
    of Q is at least cv, so that term needs no sign.  Both terms are
    taken a block at a time, so the work stays in cache.

    Parameters
    ----------
    h : float or ndarray
        Standardized true effect(s).
    cv : float
        Critical value, strictly positive (1.96 for the two-sided 5% test).
    slope : bool
        Also return the derivative in ``h``, phi(cv - h) - phi(cv + h),
        from the densities the two CDF terms compute anyway.

    Returns
    -------
    float or ndarray, or a pair of them when ``slope`` is true
        Probability in [0, 1] (and its derivative).
    """
    if not cv > 0:
        raise ValueError(f"critical value must be positive, got {cv}")
    h = np.asarray(h, dtype=float)
    out = np.empty(h.shape)
    deriv = np.empty(h.shape) if slope else None
    _blockwise(functools.partial(_power_block, cv=cv), h, out, deriv, rows=7, width=2)
    if not slope:
        return out if h.ndim else float(out)
    return (out, deriv) if h.ndim else (float(out), float(deriv))
