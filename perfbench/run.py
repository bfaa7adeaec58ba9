#!/usr/bin/env python3
"""powergain benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli-1m --seed 1 --seconds 46 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src`; nothing needs installing.  Inputs are generated from
`--seed` into a scratch directory under `perfbench/_out`, which is removed
when the run ends.  With `--trace 0` the end-to-end metrics are printed;
with `--trace 1` the per-layer metrics from a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

#: BLAS/OpenMP threads for every process of the run: at most nproc, at most 2.
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402  (after the thread settings)

import inputs  # noqa: E402
from refkernel import NOMINAL_S, RefKernel, normalise  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics of the workloads listed in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "curve_s": "s",
    "conditional_s": "s",
    "sim_reps_per_s": "reps/s",
    "peak_rss_mb": "MB",
}
#: sim-lognormal is run by hand only: one cold oracle costs about two minutes.
LOGNORMAL_END_TO_END = {
    "setup_s": "s",
    "oracle_s": "s",
    "oracle_power_s": "s",
    "oracle_delta_s": "s",
    "sim_reps_per_s": "reps/s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("cli-1m", "sim-normal", "sim-lognormal")

_SPANS = ("cli.read_tscore_file", "cli.read_grouped_file", "estimator.TScoreSample.clusters",
          "estimator.estimate", "estimator.power_gain_curve", "estimator.delta_hat_pb",
          "estimator.conditional_delta", "spectrum.select_tuning", "spectrum.build_basis",
          "spectrum.kernel_S", "pubbias.estimate_theta", "inference.q_hat",
          "inference.influence", "inference.variance_hat", "simulate.draw_population",
          "simulate.oracle_power", "simulate.oracle_delta", "simulate.run_coverage")
PER_LAYER = {
    "cli.render.s": "s",
    **{f"cli.{c}.unattributed.s": "s" for c in ("estimate", "curve", "conditional", "simulate")},
    **{f"{s}.s": "s" for s in _SPANS},
    **{f"{s}.calls": "count" for s in _SPANS},
    "estimator.reconstruct_prior.s": "s",
    "basis.hermite_sequence.s": "s",
    "estimator.delta_hat_pb.n50.per_call_s": "s",
    "estimator.delta_hat_pb.n500.per_call_s": "s",
    "simulate.draw_population.lognormal.per_call_s": "s",
    "trace.overhead_s": "s",
    "host.ref_kernel_s": "s",
    "estimate.n": "count",
    "estimate.J": "count",
    "estimate.n_clusters": "count",
    "curve.points": "count",
    "spectrum.kernel_S.evals": "count",
    "spectrum.kernel_S.bytes": "bytes",
    "simulate.rep_failures": "count",
}

SETUP_REPEATS = 7
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cache size") and key not in cpu:
                cpu[key] = value.strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": NPROC,
        "cpu_model": cpu.get("model name", "unknown"),
        "llc": cpu.get("cache size", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": THREADS,
        "command": [sys.executable, *sys.argv],
    }


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["POWERGAIN_CACHE_DIR"] = str(cache)
    return env


def measure_setup(env: dict, kernel: RefKernel) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters that import powergain.cli, raw and normalised.

    One untimed import first, so that byte-code compilation of a fresh
    checkout is not counted.  A block of the reference kernel runs before
    each import and after the last.
    """
    cmd = [sys.executable, "-c", "import powergain.cli"]
    timeline = []
    for i in range(SETUP_REPEATS + 1):
        before = kernel.run(5)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import powergain.cli failed:\n{proc.stderr}")
        if i:
            timeline.append((time.perf_counter() - t0, before))
    return [wall for wall, _ in timeline], normalise(timeline, after=kernel.run(5))


def summary(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = float(np.percentile(values, pct))
    return out


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    if not (SRC / "powergain" / "cli.py").is_file():
        raise BenchError(f"no powergain sources under {SRC}; run from a full checkout")
    if args.workload == "sim-lognormal" and args.trace:
        raise BenchError("sim-lognormal has no traced run: its layers are timed by the "
                         "probes of the traced cli-1m and sim-normal runs")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        env = environment()
        t0 = time.perf_counter()
        made = inputs.generate(args.workload, args.seed, args.tiny, work)
        gen_s = time.perf_counter() - t0
        cache = work / "cache"
        cache.mkdir()
        kernel = RefKernel()
        # setup_s is an end-to-end metric only; a traced run does not measure it.
        setup, setup_scaled = ([], []) if args.trace else measure_setup(child_env(cache), kernel)

        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "tiny": args.tiny, "src": str(SRC), "workdir": str(work),
                "files": made["files"], "sim_seed": made["sim_seed"],
                "result_path": str(work / "result.json"),
                "spans_path": str(out_dir / f"spans-{tag}.jsonl.gz")}
        (work / "spec.json").write_text(json.dumps(spec))
        limit = 900.0 if args.workload == "sim-lognormal" else RUN_LIMIT_S
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                                  env=child_env(cache), capture_output=True, text=True,
                                  timeout=max(10.0, limit - (time.perf_counter() - started)))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload did not finish within {limit:.0f} s") from exc
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = dict(result["samples"], setup_s=setup, peak_rss_mb=[result["peak_rss_mb"]])
    scaled = dict(result.get("normalised", {}), setup_s=setup_scaled)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}{'  (tiny)' if args.tiny else ''}",
             "env " + json.dumps(env),
             "inputs " + json.dumps({"sha256": made["sha256"], "sim_seed": made["sim_seed"],
                                     "generated_s": gen_s, "measured": False})]
    if args.trace:
        units = PER_LAYER
        # A span that was never entered took 0 s in 0 calls; a probe or count
        # that could not be made (its op failed) is None.
        values = {name: result["per_layer"].get(name, 0) for name in units}
        lines += [f"{name:48s} {values[name]!r:>24} {unit}" for name, unit in units.items()]
        lines.append(f"spans written to {Path(spec['spans_path']).relative_to(ROOT)}")
    else:
        units = LOGNORMAL_END_TO_END if args.workload == "sim-lognormal" else END_TO_END
        # Timings are rescaled to the nominal host call by call; see refkernel.py.
        # The cold oracle of sim-lognormal stays in raw wall seconds: kernel
        # blocks before and after a 100-s call say little about the host during
        # it.  peak_rss_mb is not a time.
        values = {}
        for name, unit in units.items():
            key = "simulate_s" if name == "sim_reps_per_s" else name
            if not samples.get(key):
                values[name] = None
                lines.append(f"{name:16s} {'none':>12} {unit:7s} every op of this metric failed")
                continue
            vals = scaled.get(key, samples[key])
            if name == "sim_reps_per_s":
                # All replications over all simulate time of the run.
                reps = samples["simulate_reps"]
                values[name] = sum(reps) / sum(vals)
                raw = sum(reps) / sum(samples[key])
                st = {"n": len(vals), "per_call": [round(r / v, 1) for r, v in zip(reps, vals)]}
                how = "total over"
            else:
                st = summary(vals)
                values[name] = st.pop("median")
                raw = statistics.median(samples[key])
                how = "median of"
            extra = "  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                              for k, v in st.items() if k != "n")
            lines.append(f"{name:16s} {values[name]:12.6g} {unit:7s} {how} {st['n']}, "
                         f"raw {raw:.6g}  {extra}")
        lines.append(f"host             reference kernel median "
                     f"{statistics.median(result['kernel_s']):.6g} s in the worker, "
                     f"{statistics.median(kernel.samples):.6g} s here; nominal {NOMINAL_S} s")
    failed = len(result["failures"])
    lines.append(f"error_rate       {failed}/{result['attempted']} failed/attempted")
    record = {"env": env, "inputs": made["sha256"], "samples": samples, "normalised": scaled,
              "kernel_s": {"worker": result["kernel_s"], "setup": kernel.samples},
              "per_layer": result.get("per_layer"), "failures": result["failures"]}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    final = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
             "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}
    return final, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (not for measurement)")
    args = parser.parse_args(argv)
    try:
        final, lines = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
