"""Benchmark inputs, made from the workload seed by the benchmark's own RNG.

Nothing here imports powergain: the program under test only ever sees the
files written below.  The same seed always gives byte-identical files.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

#: File sizes per workload.  `scores` t-scores over `studies` study labels;
#: `rows` grouped effects in `groups` groups over `labs` lab labels.
SIZES = {
    "cli-1m": dict(scores=10**6, studies=2 * 10**5, rows=2 * 10**5, groups=2 * 10**4, labs=500),
    "sim-normal": dict(scores=10**4, studies=2 * 10**3, rows=2 * 10**3, groups=200, labs=50),
}
#: Smoke-test size, used for every workload.
TINY = dict(scores=2000, studies=400, rows=400, groups=40, labs=10)


def _labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n labels from 0..k-1 in random order, each label used at least once.

    Using every label keeps the cluster count equal to k on every seed, so
    the count metrics repeat exactly across seeds.
    """
    return rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))


def _bimodal_scores(rng: np.random.Generator, n: int) -> np.ndarray:
    """True effects from 0.5 N(0, 1) + 0.5 N(2.8, 1) plus N(0, 1) noise."""
    pick = rng.random(n) < 0.5
    effects = np.where(pick, rng.normal(0.0, 1.0, n), rng.normal(2.8, 1.0, n))
    return effects + rng.standard_normal(n)


def write_tscores(path: Path, rng: np.random.Generator, scores: int, studies: int) -> None:
    """`t,study_id` rows; t is rounded to 2 decimals as published t-scores are."""
    t = _bimodal_scores(rng, scores)
    sid = _labels(rng, scores, studies)
    body = "\n".join(f"{x:.2f},{s}" for x, s in zip(t.tolist(), sid.tolist()))
    path.write_text("t,study_id\n" + body + "\n")


def write_grouped(path: Path, rng: np.random.Generator, rows: int, groups: int, labs: int) -> None:
    """`group_id,effect,std_error,weight,lab_id` rows, shuffled across groups."""
    gid = _labels(rng, rows, groups)
    truth = rng.normal(0.25, 0.25, groups)
    se = rng.uniform(0.05, 0.40, rows)
    effect = truth[gid] + se * rng.standard_normal(rows)
    weight = rng.integers(20, 500, rows)
    lab = rng.integers(0, labs, rows)
    body = "\n".join(
        f"{g},{e:.4f},{s:.4f},{w},{b}"
        for g, e, s, w, b in zip(gid.tolist(), effect.tolist(), se.tolist(),
                                 weight.tolist(), lab.tolist()))
    path.write_text("group_id,effect,std_error,weight,lab_id\n" + body + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int, tiny: bool, directory: Path) -> dict:
    """Write the workload's input files into `directory`.

    Returns {"files": {name: path}, "sha256": {name: digest}, "sim_seed": int}.
    `sim_seed` is the `--seed` the workload passes to `powergain simulate`.
    """
    rng = np.random.default_rng(seed)
    sim_seed = int(rng.integers(0, 2**31 - 1))
    files = {}
    if workload in SIZES:
        size = TINY if tiny else SIZES[workload]
        files["big.csv"] = directory / "big.csv"
        files["grouped.csv"] = directory / "grouped.csv"
        write_tscores(files["big.csv"], rng, size["scores"], size["studies"])
        write_grouped(files["grouped.csv"], rng, size["rows"], size["groups"], size["labs"])
    return {"files": {k: str(v) for k, v in files.items()},
            "sha256": {k: sha256(v) for k, v in files.items()},
            "sim_seed": sim_seed}
