#!/usr/bin/env python3
"""Run one workload over several seeds and summarise every metric.

    python3 perfbench/repeat.py --workload cli-1m --seeds 1-10 --seconds 46 --trace 0 \
        --out perfbench/baseline/cli-1m-trace0.json

For each metric: the value of every run, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread, which is
the distance between the quartiles as a share of the median.  Runs are
made one after another, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    runs, values, units = [], {}, {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {wall:.1f} s wall, {result['failed']}/{result['attempted']} failed",
              file=sys.stderr)

    metrics = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        metrics[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": vals}
    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "runs": runs, "metrics": metrics}
    for name, m in metrics.items():
        spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
        print(f"{name:48s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
              f"q3 {m['q3']:<12.6g} spread {spread} {m['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
