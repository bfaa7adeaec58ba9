"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

It checks that every workload runs, prints exactly the metric names and
units that BENCHMARK.json lists, and reports no failed operation; that the
output checks do count a wrong output as failed, also in a whole run of a
deliberately broken copy of the program; and that the benchmark refuses to
run without the program's sources.  The sim-lognormal case pays
one cold 10^7-draw oracle at the program's own draw count, about two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert f"error_rate       0/{result['attempted']} " in proc.stdout
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_listed_workload_prints_its_metrics(workload, trace):
    result = result_of(bench(workload, trace))
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_lognormal_workload_runs_by_hand():
    result = result_of(bench("sim-lognormal", 0))
    assert result["metrics"]["oracle_s"]["value"] > 0
    assert bench("sim-lognormal", 1).returncode == 2


def test_wrong_outputs_count_as_failed():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker

    wl = worker.Workload({"workload": "cli-1m", "tiny": True, "workdir": ".", "seed": 0,
                          "files": {"big.csv": "big.csv", "grouped.csv": "grouped.csv"},
                          "sim_seed": 1})
    wl.refs["estimate"] = SimpleNamespace(delta=0.1, se=0.01)
    points = [{"c2": c2, "delta": d, "se": s}
              for c2, d, s in ((1.0, 0.0, 0.0), (2.0, 0.1, 0.01), (4.0, 0.2, 0.02), (8.0, 0.3, 0.03))]
    wl.check_curve({"points": points})
    points[0]["se"] = 1e-17
    with pytest.raises(worker.CheckFailed):
        wl.check_curve({"points": points})
    with pytest.raises(worker.CheckFailed):
        wl.check_estimate({"report": {"delta": 0.1 + 1e-6, "se": 0.01}})
    wl.check_simulate({"rows": [{"dgp": "bimodal", "reps": 3, "mean_delta": 0.25}]})
    with pytest.raises(worker.CheckFailed):
        wl.check_simulate({"rows": [{"dgp": "bimodal", "reps": 3, "mean_delta": 0.26}]})
    with pytest.raises(ValueError):
        json.loads('{"delta": NaN}', parse_constant=worker._reject_constant)


#: Appended to a copy of the program's cli.py: a fault in the `estimate` command.
FAULTS = {
    # The run completes, but the reported se is off by 1e-6 relative.
    "wrong-se": """
def main(argv=None, _main=main):
    code = _main(argv)
    if argv and argv[0] == "estimate" and code == 0:
        out = Path(argv[argv.index("--output") + 1])
        payload = json.loads(out.read_text())
        payload["report"]["se"] *= 1 + 1e-6
        out.write_text(json.dumps(payload))
    return code
""",
    # The command exits non-zero and writes no output.
    "exit-3": """
def main(argv=None, _main=main):
    return 3 if argv and argv[0] == "estimate" else _main(argv)
""",
}


@pytest.mark.parametrize("fault,trace", [("wrong-se", 0), ("exit-3", 1)])
def test_broken_program_is_reported_as_failed(tmp_path, fault, trace):
    """A real tiny run of a faulty copy still ends with the result line, correct=false."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    with open(tmp_path / "src" / "powergain" / "cli.py", "a") as cli:
        cli.write(FAULTS[fault])
    proc = bench("cli-1m", trace, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert f"error_rate       {result['failed']}/{result['attempted']} " in proc.stdout
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    if not trace:
        assert result["metrics"]["estimate_s"]["value"] is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = bench(BENCH["workloads"][0]["name"], 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
