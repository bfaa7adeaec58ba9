"""Spectral objects of the deconvolution problem.

The convolution operators diagonalize in scaled Hermite bases with
geometric singular values.  This module computes those singular values,
the deterministic contrast coefficients ``a_j`` combining basis integrals
over the factual and counterfactual rejection regions, the summed kernel
``S(t) = sum_j a_j psi_j(t) phi(t)`` that the estimator averages, and the
sample-size -> (J, epsilon) tuning rule.  The basis is closed form: powers
for the singular values, one Hermite sweep for the integrals in ``a``
(``build_basis`` gives the identity and its error against mpmath).

The kernel runs a block of ``_CHUNK`` scores at a time through the
even-degree Hermite recurrence in t * t, so its scratch is four rows of
``_CHUNK`` floats whatever J is, and no Hermite matrix is built.  Its
values are exact functions of each score alone: they do not depend on the
block width, and S(-t) == S(t) bit for bit (see ``kernel_S_grid``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as _basis

#: Scores per block of the kernel (four rows of scratch) and of the Hermite
#: blocks behind the basis moments ((J + 1) rows).  Also the score budget of
#: one batch of simulated replications.
_CHUNK = 1 << 13


@dataclass(frozen=True)
class TuningConfig:
    """Estimation settings shared across the pipeline.

    ``c`` is the square root of the sample-size multiplier (doubling every
    sample means ``c = sqrt(2)``).  ``n_effective`` is the count the tuning
    rule scales with: the number of t-scores (default, more conservative)
    or the number of studies.  Remaining defaults follow the recommended
    constants C=2, D=0.05, sigma_T=1.
    """

    c: float
    cv: float = 1.96
    alpha: float = 0.05
    sigmaT2: float = 1.0
    C: float = 2.0
    D: float = 0.05
    n_effective: int | None = None

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails each check.
        if not 1.0 <= self.c < math.inf:
            raise ValueError(f"counterfactual scale c must be finite and >= 1, got {self.c}")
        if not 0 < self.cv < math.inf:
            raise ValueError(f"critical value must be finite and positive, got {self.cv}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 < self.sigmaT2 < math.inf:
            raise ValueError(f"sigmaT2 must be finite and positive, got {self.sigmaT2}")
        # The interval's quantile and the tuning rule's log need these below 1.
        if not 1.0 - self.alpha / 2.0 < 1.0:
            raise ValueError(f"alpha (--alpha) {self.alpha} is so small that "
                             "1 - alpha/2 rounds to 1; no interval can be formed")
        if not self.sigmaT2 / (1.0 + self.sigmaT2) < 1.0:
            raise ValueError(f"sigmaT2 (--sigma-t2) {self.sigmaT2} is so large that "
                             "sigmaT2 / (1 + sigmaT2) rounds to 1; no cutoff J can be chosen")
        if not (0 < self.C < math.inf and 0 < self.D < math.inf):
            raise ValueError("tuning constants C and D must be finite and positive, "
                             f"got C={self.C}, D={self.D}")
        if self.n_effective is not None and self.n_effective < 2:
            raise ValueError("tuning needs at least 2 t-scores, studies (--scale-by studies) "
                             "or retained scores per replication (simulate --n); "
                             f"got {self.n_effective}")


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Precomputed spectral coefficients for degrees 0..J (immutable).

    ``==`` is identity: the array fields have no single truth value.
    """

    J: int
    eta: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    c: float
    cv: float
    sigmaT2: float


def build_basis(cfg: TuningConfig, J: int) -> SpectralBasis:
    """Assemble the SpectralBasis: eta, lambda and a for degrees 0..J.

    eta_j    = ((1 + sigma_T^2 - c^-2) / (1 + sigma_T^2))^(j/2),
    lambda_j = (sigma_T^2 / (sigma_T^2 + 1 - c^-2))^(j/2),
    a_j      = int_{-cv}^{cv} psi_j - (1 / lambda_j) int_{-cv/c}^{cv/c} phi_j,

    where psi_j(t) = He_j(t / sigma_T) and phi_j(t) = He_j(t / s_c) with
    s_c = sqrt(1 + sigma_T^2 - c^-2).  For even j, He'_{j+1} = sqrt(j+1) He_j
    gives int_{-h}^{h} He_j(x / s) dx = 2 s (y He_j(y) - sqrt(j) He_{j-1}(y)) / (j+1)
    with y = h / s, so one Hermite sweep at the two end points y gives every
    integral.  Odd entries of ``a`` are exactly 0 by symmetry, and every
    entry is 0 at c = 1, where the two regions coincide.  Against a 60-digit
    mpmath evaluation over c^2 in {1.5, 2, 4, 8}, sigma_T^2 in {0.5, 1, 2} and
    cv in {1.645, 1.96, 2.576}, the error is at most 7.9e-15 of max |a_j| at
    J = 40 and 1.4e-14 at J = 64 (Gauss-Legendre quadrature per degree:
    7.1e-14 and 1.2e-13).
    """
    if J < 0 or J > _basis.J_MAX:
        raise ValueError(f"J must lie in [0, {_basis.J_MAX}], got {J}")
    s2, cinv2 = cfg.sigmaT2, cfg.c ** -2
    half_j = np.arange(J + 1) / 2.0
    eta = ((1.0 + s2 - cinv2) / (1.0 + s2)) ** half_j
    lam = (s2 / (s2 + 1.0 - cinv2)) ** half_j
    a = np.zeros(J + 1)
    # At c = 1, sqrt(1 + s2 - 1) != sqrt(s2) in floating point: set the zero.
    if cfg.c != 1.0:
        s = np.sqrt([s2, 1.0 + s2 - cinv2])  # sigma_T and s_c
        y = np.array([cfg.cv, cfg.cv / cfg.c]) / s
        H = _basis.hermite_sequence(y, J)
        j = np.arange(0, J + 1, 2)[:, None]
        below = np.vstack((np.zeros((1, 2)), H[1:J:2]))  # He_{j-1}, He_{-1} = 0
        integral = 2.0 * s * (y * H[::2] - np.sqrt(j) * below) / (j + 1)
        a[::2] = integral[:, 0] - integral[:, 1] / lam[::2]
    return SpectralBasis(J=int(J), eta=eta, lam=lam, a=a,
                         c=cfg.c, cv=cfg.cv, sigmaT2=cfg.sigmaT2)


def kernel_S(t, b: SpectralBasis):
    """Evaluate S(t) = sum_{j<=J} a_j * psi_j(t) * gaussian_pdf(t, sigma_T^2).

    Evaluated by ``kernel_S_grid``, a block at a time on four rows of
    scratch, so memory stays O(len(t)) no matter how large J is.  S(-t)
    == S(t) bit for bit, each value does not depend on the other scores,
    and S is identically zero when the basis was built for c = 1.  Against
    a 50-digit evaluation of the same a_j, the error is at most 8.6e-15 of
    max |S| on 97 points of |t| <= 12, over c^2 in {1.5, 2, 4, 8},
    sigma_T^2 in {0.5, 1, 2} and J in {12, 26, 40, 64}.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = kernel_S_grid(arr.ravel(), [b])[0].reshape(arr.shape)
    return out if np.ndim(t) else float(out[0])


def kernel_S_grid(t: np.ndarray, bases) -> np.ndarray:
    """S(t) for every basis in ``bases`` (which share J and sigma_T^2), one row each.

    Odd a_j are exactly 0, so each block of ``_CHUNK`` scores runs only
    the even-degree recurrence (``basis.hermite_even_steps``) in
    z = t * t / sigma_T^2, on two rows of Hermite values and one scratch
    row.  Each basis's row accumulates a_n He_n by elementwise
    multiply-adds, degree by degree, and is multiplied by
    gaussian_pdf(t, sigma_T^2) once at the end, so the truncated sum at
    any even J' <= J is a prefix of these multiply-adds.  One pass serves
    every basis.  Two facts hold bit for bit:

    - a score's value does not depend on the block width (a gemv's
      rounding could): each row equals ``kernel_S(t, b)`` exactly, and
      each entry equals ``kernel_S(t_i, b)`` exactly;
    - S depends on t only through t * t, so S(-t) == S(t).

    Both let the estimators call this on a sample's distinct |t| only and
    gather the values back to the scores.  ``t`` is flat.
    """
    J, sigmaT2 = bases[0].J, bases[0].sigmaT2
    if any(b.J != J or b.sigmaT2 != sigmaT2 for b in bases):
        raise ValueError("bases of one kernel grid must share J and sigmaT2")
    steps = _basis.hermite_even_steps(J)
    coefs = [b.a.tolist() for b in bases]
    out = np.empty((len(bases), t.size))
    buf = np.empty((4, min(t.size, _CHUNK)))
    for start in range(0, t.size, _CHUNK):
        chunk = t[start:start + _CHUNK]
        z, prev, cur, scratch = buf[:, :chunk.size]
        np.multiply(chunk, chunk, out=z)
        z /= sigmaT2
        prev.fill(0.0)  # He_{-2}
        cur.fill(1.0)  # He_0
        rows = list(out[:, start:start + chunk.size])
        for row, a in zip(rows, coefs):
            row.fill(a[0])
        for n, shift, back, scale in steps:
            np.subtract(z, shift, out=scratch)
            scratch *= cur
            prev *= back
            scratch -= prev
            scratch /= scale
            prev, cur, scratch = cur, scratch, prev  # cur is now He_{n+2}
            for row, a in zip(rows, coefs):
                np.multiply(cur, a[n + 2], out=scratch)
                row += scratch
        out[:, start:start + chunk.size] *= _basis.gaussian_pdf(chunk, sigmaT2)
    return out


def select_tuning(cfg: TuningConfig) -> tuple[int, float]:
    """Map the effective sample size to the pair (J, epsilon).

    epsilon = C * n^(-1/3);
    J       = floor( ln(D * n^(-1/3)) / ln(sqrt(sigma_T^2 / (1 + sigma_T^2))) ),

    clamped to [0, J_MAX].  Floor is the rounding that reproduces every
    published (n -> J) pair under the recommended constants.
    """
    n = cfg.n_effective
    if n is None or n < 2:
        raise ValueError(f"tuning rule needs an effective sample size >= 2, got {n!r}")
    n_rate = float(n) ** (-1.0 / 3.0)
    epsilon = cfg.C * n_rate
    if epsilon == 0.0:
        raise ValueError(f"--const-C {cfg.C} rounds the caliper width to 0 at n = {n}")
    ratio = math.log(cfg.D * n_rate) / math.log(math.sqrt(cfg.sigmaT2 / (1.0 + cfg.sigmaT2)))
    J = max(0, min(_basis.J_MAX, int(math.floor(ratio))))
    return J, epsilon
