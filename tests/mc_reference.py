"""Large-sample Monte Carlo powers: an independent check on the quadrature oracle.

The powers at several scales come from one shared draw stream.  The RNG
seed is derived from a SHA-256 digest of every ingredient that affects
the value, so a given (spec, scales, draws) always reproduces the same
reference numbers.  Used for normal and t(30) noise, whose draws come in
chunks of 2**20.

``lognormal_pool_means`` draws the third noise family the long way, as
the standardized mean of 185 lognormals: an independent reference for
the exact law that the package draws from by inverse CDF.
"""
import hashlib
import json

import numpy as np

from powergain import simulate

MC_DRAWS = 10_000_000


def lognormal_pool_means(rng: np.random.Generator, m: int) -> np.ndarray:
    """m standardized means of 185 LN(0, 1) draws each."""
    pools = rng.lognormal(0.0, 1.0, size=(m, simulate._LOGNORMAL_POOL))
    return (pools.mean(axis=1) - simulate._LOGNORMAL_MEAN) / simulate._LOGNORMAL_SD


def mc_powers(spec: simulate.DgpSpec, scales: tuple, draws: int = MC_DRAWS) -> list:
    """Share of |scale * h + z| > cv over ``draws`` prior and noise draws, per scale."""
    key = json.dumps({
        "v": 1,
        "prior": spec.prior,
        "masses": simulate.FITTED_MASSES if spec.prior == "fitted" else None,
        "noise": spec.noise,
        "cv": spec.cv,
        "scales": [float(s) for s in scales],
        "draws": draws,
    }, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()
    rng = np.random.default_rng(np.random.SeedSequence(int(digest[:16], 16)))
    hits = np.zeros(len(scales), dtype=np.int64)
    done = 0
    while done < draws:
        m = min(1 << 20, draws - done)
        h = simulate._draw_prior(spec, rng, m)
        z = simulate._draw_noise(spec.noise, rng, m)
        for k, s in enumerate(scales):
            hits[k] += int(np.count_nonzero(np.abs(s * h + z) > spec.cv))
        done += m
    return [float(c / draws) for c in hits]
