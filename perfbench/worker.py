"""One workload in one process: the closed loop, the output checks and the traced pass.

Started by run.py as `python3 worker.py SPEC.json`.  It imports powergain
from the checkout's `src`, calls `powergain.cli.main` one command at a time,
checks every output, and writes its samples to the spec's `result_path`.
It never prints the benchmark result itself.
"""
from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from refkernel import RefKernel, normalise

SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def load_strict(path: str) -> dict:
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class Workload:
    """Ops of one workload, the references they are checked against, and the loop."""

    def __init__(self, spec: dict) -> None:
        from powergain import cli

        self.cli = cli
        self.spec = spec
        self.name = spec["workload"]
        self.tiny = spec["tiny"]
        self.work = Path(spec["workdir"])
        self.files = spec["files"]
        self.sim_seed = str(spec["sim_seed"])
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.first_rows: list | None = None
        self.refs: dict = {}
        self.kernel = RefKernel()
        # [metric or None, wall seconds, kernel block run just before], per
        # call in the order they ran; the metric is None for a failed call.
        self.timeline: list[list] = []
        self.last_seconds: dict[str, float] = {}  # last wall time of each command
        self.pass_ops = self._pass_ops()

    # -- the operations -----------------------------------------------------

    def _out(self, name: str) -> str:
        return str(self.work / name)

    def _cli_ops(self) -> list:
        big, grouped = self.files["big.csv"], self.files["grouped.csv"]
        return [
            ("estimate_s", ["estimate", big, "--out", "json",
                            "--output", self._out("estimate.json")], self.check_estimate),
            ("curve_s", ["curve", big, "--grid", "2,4,8", "--out", "json",
                         "--output", self._out("curve.json")], self.check_curve),
            ("conditional_s", ["conditional", grouped, "--se", "worstcase", "--out", "json",
                               "--output", self._out("conditional.json")], self.check_conditional),
        ]

    def _simulate_op(self, flags: list[str]) -> tuple:
        argv = ["simulate", *flags, "--seed", self.sim_seed,
                "--out", "json", "--output", self._out("simulate.json")]
        return ("sim_reps_per_s", argv, self.check_simulate)

    def _pass_ops(self) -> list:
        """The ops of one pass of the closed loop, in order."""
        tiny = self.tiny
        if self.name == "cli-1m":
            # Table 2 (t30 noise, n = 500, all 7 priors): the one noise family
            # no other workload simulates; reps cut to fit the pass.
            return self._cli_ops() + [self._simulate_op(
                ["--table", "2", "--reps", "3" if tiny else "300"])]
        if self.name == "sim-normal":
            return ([self._simulate_op(["--table", "1"] + (["--reps", "3"] if tiny else []))]
                    + self._cli_ops() * (2 if tiny else 5))
        if self.name == "sim-lognormal":
            return [("oracle_s", None, None), self._simulate_op(
                ["--noise", "lognormal", "--dgp", "large", "--n", "500"]
                + (["--reps", "20"] if tiny else []))]
        raise ValueError(f"unknown workload {self.name}")

    def counts(self) -> dict:
        """Exact counts read from the last outputs of the loop; None where an output is missing."""
        def read(name: str) -> dict | None:
            try:
                return load_strict(self._out(f"{name}.json"))
            except (OSError, ValueError):
                return None

        est, curve, sim = read("estimate"), read("curve"), read("simulate")
        rep = est["report"] if est else {}
        return {"estimate.n": rep.get("n"), "estimate.J": rep.get("J"),
                "estimate.n_clusters": rep.get("n_clusters"),
                "curve.points": len(curve["points"]) if curve else None,
                "simulate.rep_failures": sum(r["failures"] for r in sim["rows"]) if sim else None}

    # -- references and checks ----------------------------------------------

    def references(self) -> None:
        """Direct library results on what the CLI readers return for the input files.

        Computed once before the loop and not timed.  Running the readers and
        estimators here also means that no timed call is the first, cold one
        of its kind in the process.  If this raises, the checks that need a
        reference fail.
        """
        from powergain import estimator, spectrum

        if "big.csv" not in self.files:
            return
        try:
            sample, _ = self.cli.read_tscore_file(self.files["big.csv"])
            cfg = spectrum.TuningConfig(c=SQRT2, n_effective=sample.n)
            self.refs["estimate"] = estimator.estimate(sample, cfg)
            if self.spec["trace"]:
                self.refs["sample"] = sample  # for the probes
        except Exception:
            traceback.print_exc()
        try:
            self.refs["conditional"] = estimator.conditional_delta(
                self.cli.read_grouped_file(self.files["grouped.csv"]),
                c=SQRT2, cv=1.96, se_mode="worstcase")
        except Exception:
            traceback.print_exc()

    def ref(self, name: str):
        if name not in self.refs:
            raise CheckFailed(f"no {name} reference: computing it raised")
        return self.refs[name]

    def check_estimate(self, payload: dict) -> float:
        rep, ref = payload["report"], self.ref("estimate")
        if not (same(rep["delta"], ref.delta) and same(rep["se"], ref.se)):
            raise CheckFailed(f"CLI estimate {rep['delta']}, {rep['se']} != "
                              f"estimate() {ref.delta}, {ref.se}")
        return 1.0

    def check_curve(self, payload: dict) -> float:
        ref = self.ref("estimate")
        points = {p["c2"]: p for p in payload["points"]}
        if set(points) != {1.0, 2.0, 4.0, 8.0}:
            raise CheckFailed(f"curve grid {sorted(points)}")
        if points[1.0]["delta"] != 0.0 or points[1.0]["se"] != 0.0:
            raise CheckFailed(f"curve c2=1 point is {points[1.0]}, not exactly 0 with se 0")
        if not (same(points[2.0]["delta"], ref.delta) and same(points[2.0]["se"], ref.se)):
            raise CheckFailed(f"curve c2=2 point {points[2.0]} != estimate {ref.delta}, {ref.se}")
        return 1.0

    def check_conditional(self, payload: dict) -> float:
        rep, ref = payload["report"], self.ref("conditional")
        if not (same(rep["delta"], ref.delta) and same(rep["se"], ref.se)
                and rep["n_groups"] == ref.n_groups and rep["n_members"] == ref.n_members):
            raise CheckFailed(f"CLI conditional {rep} != conditional_delta() {ref}")
        return 1.0

    def check_simulate(self, payload: dict) -> float:
        """Rows repeat exactly for a repeated seed; returns the replication count."""
        rows = payload["rows"]
        if self.first_rows is None:
            self.first_rows = rows
        if rows != self.first_rows:
            raise CheckFailed("simulate rows differ between two runs with the same seed")
        if self.name == "sim-lognormal":
            large = [r for r in rows if r["dgp"] == "large"]
            if not large or round(large[0]["true_delta"], 2) != 0.31:
                raise CheckFailed(f"lognormal large true_delta {large} does not round to 0.31")
        return float(sum(r["reps"] for r in rows))

    # -- running --------------------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def run_oracle(self, before: list[float]) -> None:
        """Cold-cache truth oracle of the lognormal `large` cell, in a new empty cache."""
        from powergain import simulate

        cache = self.work / f"cache-{len(self.samples.get('oracle_s', []))}"
        cache.mkdir()
        os.environ["POWERGAIN_CACHE_DIR"] = str(cache)
        spec = simulate.DgpSpec(prior="large", noise="lognormal")
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            simulate.oracle_power(spec, 1.0)
            t1 = time.perf_counter()
            simulate.oracle_delta(spec)
            t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.timeline.append([None, time.perf_counter() - t0, before])
            self._fail("oracle raised")
            return
        # The oracle metrics are raw wall seconds; see run.py.
        self.timeline.append([None, t2 - t0, before])
        self.last_seconds["oracle"] = t2 - t0
        for key, value in (("oracle_s", t2 - t0), ("oracle_power_s", t1 - t0),
                           ("oracle_delta_s", t2 - t1)):
            self.samples.setdefault(key, []).append(value)

    def run_op(self, metric: str, argv: list, check, tracer: tracing.Tracer | None = None) -> None:
        """One `powergain.cli.main` call, timed, then its output checked.

        When traced, the call is the parent span `cli.main.<command>`.  The
        reference kernel runs first, about once per half second the command
        took last time, so that its samples cover the run like the calls do.
        """
        command = argv[0] if argv else "oracle"
        before = self.kernel.run(1 + min(9, int(self.last_seconds.get(command, 0.0) / 0.5)))
        if argv is None:
            self.run_oracle(before)
            return
        self.attempted += 1
        output = argv[argv.index("--output") + 1]
        if os.path.exists(output):
            os.remove(output)
        gc.collect()
        sid = tracer.open(f"cli.main.{argv[0]}") if tracer else None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
        self.last_seconds[command] = seconds
        if tracer:
            tracer.close(sid)
        entry = [None, seconds, before]
        self.timeline.append(entry)
        if code != 0:
            self._fail(f"{argv[0]} exited with {code}")
            return
        try:
            work = check(load_strict(output))
        except (OSError, ValueError, KeyError, TypeError, CheckFailed) as exc:
            self._fail(f"{argv[0]}: {type(exc).__name__}: {exc}")
            return
        if metric == "sim_reps_per_s":
            self.samples.setdefault("simulate_reps", []).append(work)
            metric = "simulate_s"
        self.samples.setdefault(metric, []).append(seconds)
        entry[0] = metric

    def normalised(self) -> dict[str, list[float]]:
        """Each metric's timings rescaled to the nominal host, in the order of `samples`."""
        values = normalise([(wall, before) for _, wall, before in self.timeline],
                           after=self.kernel.run(5))
        out: dict[str, list[float]] = {}
        for (metric, _, _), value in zip(self.timeline, values):
            if metric:
                out.setdefault(metric, []).append(value)
        return out

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Runs the pass; returns its wall seconds."""
        t0 = time.perf_counter()
        for op in self.pass_ops:
            self.run_op(*op, tracer=tracer)
        return time.perf_counter() - t0

    def ensure_repeat(self) -> None:
        """Run the simulate op a second time if the loop ran it only once."""
        if len(self.samples.get("simulate_s", [])) < 2:
            self.run_op(*[op for op in self.pass_ops if op[0] == "sim_reps_per_s"][0])

    def timed_loop(self, seconds: float) -> int:
        """Closed loop of untraced passes until the next one would overrun `seconds`."""
        times = []
        while True:
            times.append(self.run_pass())
            if sum(times) + statistics.median(times) > seconds:
                break
        self.ensure_repeat()
        return len(times)

    def traced_loop(self, seconds: float, tracer: tracing.Tracer) -> dict:
        """Pairs of one untraced and one traced pass; the difference is the tracing overhead."""
        elapsed, overheads, summaries = 0.0, [], []
        while True:
            untraced = self.run_pass()
            tracer.install()
            try:
                root = tracer.open("pass")
                try:
                    self.run_pass(tracer)
                finally:
                    tracer.close(root)
            finally:
                tracer.uninstall()
            traced = (tracer.ends[root] - tracer.starts[root]) / 1e9
            overheads.append(traced - untraced)
            summaries.append(tracer.pass_summary(root))
            elapsed += untraced + traced
            if elapsed + untraced + traced > seconds:
                break
        self.ensure_repeat()
        return {"overheads": overheads, "summaries": summaries, "probes": self.probes(tracer)}

    # -- per-call probes (traced run only) --------------------------------

    def probes(self, tracer: tracing.Tracer) -> dict:
        """Direct calls, untraced, for layers the CLI does not reach or that need a per-call figure.

        The two whole-sample probes are also recorded as root spans.
        """
        from powergain import basis, estimator, simulate, spectrum
        from powergain.pubbias import CaliperError

        rng = np.random.default_rng([self.spec["seed"], 1])
        out: dict[str, float | None] = {"estimator.reconstruct_prior.s": None,
                                        "basis.hermite_sequence.s": None}
        if "sample" in self.refs:
            sample, ref = self.refs["sample"], self.refs["estimate"]
            cfg = spectrum.TuningConfig(c=SQRT2, n_effective=sample.n)
            b = spectrum.build_basis(cfg, ref.J)
            root = tracer.open("estimator.reconstruct_prior")
            estimator.reconstruct_prior(sample, b, ref.theta)
            tracer.close(root)
            out["estimator.reconstruct_prior.s"] = _span_seconds(tracer, root)
            root = tracer.open("basis.hermite_sequence")
            basis.hermite_sequence(sample.t[: 1 << 17] / math.sqrt(cfg.sigmaT2), ref.J)
            tracer.close(root)
            out["basis.hermite_sequence.s"] = _span_seconds(tracer, root)
        for n in (50, 500):
            cfg = spectrum.TuningConfig(c=SQRT2, n_effective=n)
            J, eps = spectrum.select_tuning(cfg)
            b = spectrum.build_basis(cfg, J)
            calls = []
            for _ in range(40 if self.tiny else 200):
                sample = estimator.TScoreSample.from_scores(_thinned_bimodal(rng, n))
                t0 = time.perf_counter()
                try:
                    estimator.delta_hat_pb(sample, b, eps)
                except (CaliperError, estimator.EstimationError):
                    continue  # an empty caliper bin: not a timing sample
                calls.append(time.perf_counter() - t0)
            out[f"estimator.delta_hat_pb.n{n}.per_call_s"] = statistics.median(calls)
        spec = simulate.DgpSpec(prior="large", noise="lognormal")
        calls = []
        for seed in rng.integers(0, 2**31 - 1, 5 if self.tiny else 20).tolist():
            t0 = time.perf_counter()
            simulate.draw_population(spec, 500, seed)
            calls.append(time.perf_counter() - t0)
        out["simulate.draw_population.lognormal.per_call_s"] = statistics.median(calls)
        return out


def _span_seconds(tracer: tracing.Tracer, sid: int) -> float:
    return (tracer.ends[sid] - tracer.starts[sid]) / 1e9


def _thinned_bimodal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n published scores: bimodal effects plus N(0, 1) noise, insignificant ones kept w.p. 0.9."""
    kept = np.empty(0)
    while kept.size < n:
        m = 2 * n
        pick = rng.random(m) < 0.5
        t = np.where(pick, rng.normal(0.0, 1.0, m), rng.normal(2.8, 1.0, m)) + rng.standard_normal(m)
        kept = np.concatenate([kept, t[(np.abs(t) >= 1.96) | (rng.random(m) < 0.9)]])
    return kept[:n]


def per_layer(traced: dict) -> dict:
    """Per-layer metrics from the traced passes: medians over passes of busy time."""
    summaries = traced["summaries"]
    names = sorted({name for s in summaries for name in s["busy"]})
    out: dict[str, float] = {}
    for name in names:
        if name.startswith("cli.main."):
            continue
        out[f"{name}.s"] = statistics.median(s["busy"].get(name, 0.0) for s in summaries)
        out[f"{name}.calls"] = summaries[-1]["calls"].get(name, 0)
    for command in ("estimate", "curve", "conditional", "simulate"):
        key = f"cli.main.{command}"
        out[f"cli.{command}.unattributed.s"] = statistics.median(
            s["unattributed"].get(key, 0.0) for s in summaries)
    out["cli.render.s"] = statistics.median(
        s["busy"].get("cli.render", 0.0) + sum(s["unattributed"].values()) for s in summaries)
    evals = summaries[-1]["evals"]
    out["spectrum.kernel_S.evals"] = evals
    out["spectrum.kernel_S.bytes"] = 8 * evals
    out.update(traced["probes"])
    out["trace.overhead_s"] = statistics.median(traced["overheads"])
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    wl = Workload(spec)
    wl.references()
    result: dict = {}
    if spec["trace"]:
        tracer = tracing.Tracer()
        traced = wl.traced_loop(spec["seconds"], tracer)
        result["per_layer"] = {**per_layer(traced), **wl.counts(),
                               "host.ref_kernel_s": statistics.median(wl.kernel.samples)}
        tracer.write(spec["spans_path"], {"workload": wl.name, "seed": spec["seed"]})
    else:
        result["passes"] = wl.timed_loop(spec["seconds"])
        result["normalised"] = wl.normalised()
    result.update(samples=wl.samples, attempted=wl.attempted, failures=wl.failures,
                  kernel_s=wl.kernel.samples,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
