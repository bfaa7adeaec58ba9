"""Spans recorded from outside powergain, around calls into its public functions.

`Tracer.install` rebinds each listed function, wherever a powergain module
holds it, to a wrapper that records a span (name, parent, start, end) in
memory.  `uninstall` puts the originals back.  Nothing in the program is
edited; a function that a later version no longer has is skipped, so its
span simply never appears.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  Several attributes may share a span name.
TARGETS = [
    ("powergain.cli", "read_tscore_file", "cli.read_tscore_file"),
    ("powergain.cli", "read_grouped_file", "cli.read_grouped_file"),
    ("powergain.cli", "render_estimate_text", "cli.render"),
    ("powergain.cli", "render_curve_text", "cli.render"),
    ("powergain.cli", "render_conditional_text", "cli.render"),
    ("powergain.cli", "render_simulate_text", "cli.render"),
    ("powergain.estimator", "estimate", "estimator.estimate"),
    ("powergain.estimator", "power_gain_curve", "estimator.power_gain_curve"),
    ("powergain.estimator", "delta_hat_pb", "estimator.delta_hat_pb"),
    ("powergain.estimator", "conditional_delta", "estimator.conditional_delta"),
    ("powergain.spectrum", "select_tuning", "spectrum.select_tuning"),
    ("powergain.spectrum", "build_basis", "spectrum.build_basis"),
    ("powergain.spectrum", "kernel_S", "spectrum.kernel_S"),
    ("powergain.pubbias", "estimate_theta", "pubbias.estimate_theta"),
    ("powergain.inference", "q_hat", "inference.q_hat"),
    ("powergain.inference", "influence", "inference.influence"),
    ("powergain.inference", "variance_hat", "inference.variance_hat"),
    ("powergain.simulate", "draw_population", "simulate.draw_population"),
    ("powergain.simulate", "oracle_power", "simulate.oracle_power"),
    ("powergain.simulate", "oracle_delta", "simulate.oracle_delta"),
    ("powergain.simulate", "run_coverage", "simulate.run_coverage"),
]
#: Properties of TScoreSample that factorise the cluster labels.
CLUSTER_PROPERTIES = ("n_clusters", "max_cluster_size")
CLUSTER_SPAN = "estimator.TScoreSample.clusters"


def _kernel_evals(args, kwargs) -> int:
    """Basis evaluations of one kernel_S(t, b) call: len(t) * (J + 1)."""
    t = args[0] if args else kwargs["t"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return int(getattr(t, "size", 1)) * (int(b.J) + 1)


class Tracer:
    """In-memory span store; spans are written out only by `write`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.evals: dict[int, int] = {}  # kernel_S span -> basis evaluations
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counted = name == "spectrum.kernel_S"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            if counted:
                self.evals[sid] = _kernel_evals(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self) -> None:
        """Wrap every target, in every loaded powergain module that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "powergain" or k.startswith("powergain."))]
        for mod_name, attr, span in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        cls = getattr(importlib.import_module("powergain.estimator"), "TScoreSample", None)
        for prop in CLUSTER_PROPERTIES:
            original = vars(cls).get(prop) if cls is not None else None
            if isinstance(original, property):
                self._restore.append((cls, prop, original))
                setattr(cls, prop, property(self.wrap(original.fget, CLUSTER_SPAN)))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- aggregation ---------------------------------------------------------

    def pass_summary(self, root: int) -> dict:
        """Busy seconds and calls per span name inside one root span, and kernel_S evaluations.

        Also the unattributed seconds of each `cli.main.<command>` span: its
        duration minus the time its direct children cover.
        """
        inside = {root}
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        evals = 0
        covered: dict[int, int] = defaultdict(int)
        for sid in range(root + 1, len(self.names)):
            parent = self.parents[sid]
            if parent not in inside:
                if self.starts[sid] > self.ends[root]:
                    break
                continue
            inside.add(sid)
            dur = self.ends[sid] - self.starts[sid]
            busy[self.names[sid]] += dur / 1e9
            calls[self.names[sid]] += 1
            covered[parent] += dur
            evals += self.evals.get(sid, 0)
        unattributed = {}
        for sid in inside:
            name = self.names[sid]
            if name.startswith("cli.main."):
                dur = self.ends[sid] - self.starts[sid]
                unattributed[name] = unattributed.get(name, 0.0) + (dur - covered[sid]) / 1e9
        return {"busy": dict(busy), "calls": dict(calls), "evals": evals,
                "unattributed": unattributed}

    def write(self, path, meta: dict) -> None:
        """Spans as gzipped JSON lines: a header, then [id, parent, name, start_ns, end_ns]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(meta) + "\n")
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([sid, self.parents[sid], name,
                                     self.starts[sid], self.ends[sid]]) + "\n")
