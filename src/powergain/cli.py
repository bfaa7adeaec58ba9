"""Command-line front end.

Four subcommands: `estimate` (power gain from a file of t-scores),
`curve` (the same estimate over a grid of sample-size multipliers),
`simulate` (Monte Carlo coverage tables), and `conditional` (the
replication-design estimator on grouped effect data).

Exit codes: 0 success, 2 invalid flags or values, 3 dataset parse error,
4 estimation failure (e.g. the caliper ratio is unavailable).
"""
from __future__ import annotations

import argparse
import codecs
import csv
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import (
    EstimationError,
    GroupedEffects,
    TScoreSample,
    conditional_delta,
    estimate,
    power_gain_curve,
)
from .pubbias import CaliperError
from .simulate import NOISES, PRIORS, TABLE_PRESETS, DgpSpec, run_cells
from .spectrum import TuningConfig

__all__ = ["main", "DatasetError", "read_tscore_file", "read_grouped_file",
           "render_estimate_text", "render_curve_text", "render_conditional_text",
           "render_simulate_text"]


class DatasetError(Exception):
    """The input file could not be parsed into the expected columns."""


# ---------------------------------------------------------------------------
# dataset ingestion
#
# The file's bytes are read once, to hash them.  A leading byte-order mark
# is then dropped and every line is ended by `\n` (`\r\n` and `\r` are
# folded into it, as NumPy's reader reads them from a path), so every later
# step sees one convention.  The bytes are decoded once, to check that they
# are UTF-8 and to find the first non-blank line, which gives the layout
# and the delimiter; that text is freed before the bulk parse.  One
# vectorised scan of the bytes bounds the width of each label column.
# NumPy's C reader then parses the file in bulk, labels straight into str
# fields of those widths, so no Python object is made per row.  A regular
# file is parsed again from its path, which is faster than from text, and
# is refused if its inode, size or modification time changed between the
# read and that parse; a pipe, whose bytes cannot be read twice, is parsed
# from the bytes already read.  Each column is copied out of the parse,
# which is then freed, and a label column is stripped only when a code
# point other than printable ASCII could need it.  A whitespace-only line
# makes the parse fail; only then are such lines blanked for a second
# parse, and only when that fails too does a line scan run, to name the
# bad lines.

_NON_BLANK = re.compile(r"\S")
#: A whitespace-only line that follows a newline.
_WHITESPACE_LINE = re.compile(r"\n[^\S\n]+$", re.MULTILINE)
#: Bytes per block of the label-width scan, and code points per block of
#: the label check; their arrays then fit in cache.
_SCAN_BLOCK = 1 << 16


def _file_stamp(path: str) -> tuple[int, int, int] | None:
    """(inode, size, mtime in ns) of a regular file; None for a pipe or a path that is not one."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns) if stat.S_ISREG(st.st_mode) else None


def _read_head(path: str, digest=None) -> tuple[bytes, int, str, list[str], bool]:
    """The file's bytes and its first non-blank line.

    The bytes must be UTF-8, with or without a leading byte-order mark; a
    file that is not is a dataset error naming the physical line of the
    first undecodable byte.  Returns them without that mark and with every
    line ended by `\n` (`\r\n` and `\r` are folded into it, as NumPy's
    reader reads them), with the first non-blank line's 1-based physical
    line number, the delimiter sniffed from that line, its trimmed cells,
    and whether a non-blank line follows it.  A ``hashlib`` object passed
    as ``digest`` is updated with the bytes as read.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(data)
    data = data.removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path} is not valid UTF-8: line {line} has the undecodable "
                           f"byte 0x{data[exc.start]:02x}") from exc
    found = _NON_BLANK.search(text)
    if found is None:
        raise DatasetError(f"{path} contains no data")
    start = text.rfind("\n", 0, found.start()) + 1
    end = text.find("\n", start)
    line = text[start:end]
    delim = "\t" if "\t" in line else ","
    return (data, text.count("\n", 0, start) + 1, delim,
            [c.strip() for c in line.split(delim)], _NON_BLANK.search(text, end) is not None)


def _cell_widths(data: bytes, skip: int, delim: str, columns: tuple[int, ...]) -> list[int]:
    """The widest cell of each given column below the first skip lines, in
    UTF-8 bytes: a bound on its characters.

    The bytes are as ``_read_head`` returns them: no byte-order mark, and
    every line ended by `\n`.  A column that no line reaches is 0 wide.
    The bytes are scanned in blocks of whole lines, so that the scan's
    arrays stay small.
    """
    start = 0
    for _ in range(skip):
        start = data.index(b"\n", start) + 1
    widths = [0] * len(columns)
    while start < len(data):
        stop = data.find(b"\n", start + _SCAN_BLOCK) + 1 or len(data)
        block = np.frombuffer(data, np.uint8, stop - start, start)
        ends = np.flatnonzero((block == ord(delim)) | (block == ord("\n")))
        # Cell i of the block lies between bounds[i] = ends[i - 1] and
        # ends[i]; line j holds cells line_first[j] to line_last[j].
        line_last = np.flatnonzero(block[ends] != ord(delim))
        line_first = np.concatenate(([0], line_last[:-1] + 1))
        bounds = np.concatenate(([-1], ends))
        for k, column in enumerate(columns):
            cell = line_first + column
            cell = cell[cell <= line_last]
            widths[k] = max(widths[k], int((ends[cell] - bounds[cell]).max(initial=1)) - 1)
        start = stop
    return widths


def _number(cell: str) -> float | None:
    """The cell as NumPy's reader parses a float, or None if it does not.

    Python's float() also takes underscores and non-ASCII digits; NumPy's
    reader takes neither.
    """
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _bad_lines_message(bad: list[int], what: str) -> str:
    shown = ", ".join(str(b) for b in bad[:20])
    more = f" (and {len(bad) - 20} more)" if len(bad) > 20 else ""
    return f"could not parse {len(bad)} line(s): {shown}{more} — {what}"


def _bad_lines(text: str, skip: int, delim: str, numeric: tuple[int, ...],
               needed: int) -> list[int]:
    """Physical numbers of the non-blank lines below the first skip lines
    that lack cell `needed` or a finite number in a numeric column."""
    bad = []
    for lineno, line in enumerate(text.split("\n")[skip:], start=skip + 1):
        if not line.strip():
            continue
        cells = line.split(delim)
        if len(cells) <= needed or not all(
                v is not None and math.isfinite(v)
                for v in (_number(cells[i]) for i in numeric)):
            bad.append(lineno)
    return bad


def _columns(path: str, data: bytes, stamp: tuple[int, int, int] | None, skip: int,
             delim: str, numeric: tuple[int, ...], labels: tuple[int, ...],
             what: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The rows below the first skip physical lines, parsed in bulk.

    ``stamp`` is the ``_file_stamp`` of ``path`` from before ``data`` was
    read: a regular file is parsed from its path, and refused if its stamp
    has changed since; with None, ``data`` is parsed.
    NumPy's reader returns the numeric columns as float fields and each
    label column as a str field as wide as its widest cell.  Each column is
    copied out of the parse, so the parse is freed on return, and each
    label column is then trimmed and narrowed to its longest label
    (``_trimmed``).  A file that the reader rejects, or that has a
    non-finite number, is reported with the physical numbers of its bad
    lines and yields no data.
    """
    names = [f"c{j}" for j in range(len(numeric) + len(labels))]
    dtype = list(zip(names, [float] * len(numeric)
                     + [f"U{max(w, 1)}" for w in _cell_widths(data, skip, delim, labels)]))

    def parse(source):
        try:
            return np.loadtxt(source, dtype=dtype, delimiter=delim, comments=None,
                              skiprows=skip, usecols=numeric + labels, ndmin=1,
                              encoding="utf-8-sig")
        except ValueError:
            return None

    rows = parse(path if stamp else io.StringIO(data.decode()))
    if stamp and _file_stamp(path) != stamp:
        raise DatasetError(f"{path} changed while it was read; retry once nothing writes to it")
    if rows is None:
        # NumPy's reader takes a whitespace-only line for a row, and a row
        # of blanks never parses; blank such lines and parse again.
        text, blanked = _WHITESPACE_LINE.subn("\n", data.decode())
        rows = parse(io.StringIO(text)) if blanked else None
    nums, labs = names[:len(numeric)], names[len(numeric):]
    if rows is None or not all(np.isfinite(rows[c]).all() for c in nums):
        bad = _bad_lines(data.decode(), skip, delim, numeric, max(numeric + labels))
        raise DatasetError(_bad_lines_message(bad, what))
    return ([np.ascontiguousarray(rows[c]) for c in nums],
            [_trimmed(np.ascontiguousarray(rows[c])) for c in labs])


def _trimmed(labels: np.ndarray) -> np.ndarray:
    """A contiguous str column without the whitespace around each label,
    as wide as its longest label.

    Whitespace is not printable ASCII, so a column of printable ASCII (33
    to 126) and zero padding has nothing to strip; when a label also fills
    the width, the column is returned as it is.  Any other column is
    stripped and narrowed.  The check runs in blocks and stops at the first
    block that fails.
    """
    width = labels.dtype.itemsize // 4
    points = labels.view(np.uint32).reshape(-1, width)
    step = max(1, _SCAN_BLOCK // width)
    fills = False
    for start in range(0, len(points), step):
        block = points[start:start + step]
        # Less 1, the zero padding wraps round to 2**32 - 1 and drops out of
        # the minimum.
        if block.max() > 126 or (block - np.uint32(1)).min() < 32:
            break
        fills = fills or bool(block[:, -1].any())
    else:
        if fills:
            return labels
    labels = np.char.strip(labels)
    return labels.astype(f"U{int(np.char.str_len(labels).max(initial=1))}", copy=False)


def read_tscore_file(path: str, *, digest=None) -> tuple[TScoreSample, bool]:
    """Parse a delimited file of t-scores.

    Column layout: a required `t` column and an optional `study_id`
    column, located by a header row when one is present.  Headerless
    files are read positionally: one column is t, two columns are
    (t, study_id).  The layout and the delimiter (comma or tab) come from
    the first non-blank line.  Every row needs a finite t; otherwise the
    bad rows are reported by physical line number.  Returns the sample and
    whether study labels were found.  A ``hashlib`` object passed as
    ``digest`` is updated with the bytes as read.  The path may
    be a pipe, such as ``/dev/stdin``.
    """
    stamp = _file_stamp(path)
    data, lineno, delim, first, more = _read_head(path, digest)
    lowered = [c.lower() for c in first]
    if "t" in lowered:
        if not more:
            raise DatasetError(f"{path} has a header but no data rows")
        t_idx = lowered.index("t")
        sid_idx = lowered.index("study_id") if "study_id" in lowered else None
        skip = lineno
    elif _number(first[0]) is not None:
        if len(first) > 2:
            raise DatasetError(
                f"headerless file has {len(first)} columns; expected t or "
                "t,study_id — add a header row naming a column `t`")
        t_idx = 0
        sid_idx = 1 if len(first) == 2 else None
        skip = lineno - 1
    else:
        raise DatasetError(
            "first line is neither a header containing a `t` column nor a "
            "numeric t value")

    (t,), sids = _columns(path, data, stamp, skip, delim, (t_idx,),
                          () if sid_idx is None else (sid_idx,),
                          "every row needs a finite numeric t")
    del data  # freed before the sample is built
    return TScoreSample.from_scores(t, sids[0] if sids else None), bool(sids)


_GROUP_COLUMNS = ("group_id", "effect", "std_error", "weight")


def read_grouped_file(path: str, *, digest=None) -> GroupedEffects:
    """Parse grouped effect data for the conditional estimator.

    Required columns: group_id, effect, std_error, weight; optional
    lab_id.  Column order is free with a header; headerless files are
    read positionally in the order above (lab_id fifth).  Rows whose
    effect, std_error or weight is not a finite number are rejected with
    their line numbers.  Returns the member columns as one
    ``GroupedEffects``, in file order, with no per-group object built;
    its group codes follow the sorted order of the group labels.
    ``digest`` is as for ``read_tscore_file``.
    """
    stamp = _file_stamp(path)
    data, lineno, delim, first, more = _read_head(path, digest)
    first = [c.lower() for c in first]
    if any(c in _GROUP_COLUMNS or c == "lab_id" for c in first):
        missing = [c for c in _GROUP_COLUMNS if c not in first]
        if missing:
            raise DatasetError(f"missing required column(s): {', '.join(missing)}")
        if not more:
            raise DatasetError(f"{path} has a header but no data rows")
        idx = {c: first.index(c) for c in _GROUP_COLUMNS}
        lab_idx = first.index("lab_id") if "lab_id" in first else None
        skip = lineno
    else:
        ncol = len(first)
        if ncol not in (4, 5):
            raise DatasetError(
                "headerless grouped file needs 4 or 5 columns "
                "(group_id, effect, std_error, weight[, lab_id]); "
                f"got {ncol}")
        idx = dict(zip(_GROUP_COLUMNS, range(4)))
        lab_idx = 4 if ncol == 5 else None
        skip = lineno - 1

    (effects, std_errors, weights), (gid, *lab) = _columns(
        path, data, stamp, skip, delim, (idx["effect"], idx["std_error"], idx["weight"]),
        (idx["group_id"],) + (() if lab_idx is None else (lab_idx,)),
        "every row needs finite numeric effect, std_error and weight")
    del data  # freed before the groups are factorised
    return GroupedEffects(effects=effects, std_errors=std_errors, weights=weights,
                          group_id=gid, labels=lab[0] if lab else None)


# ---------------------------------------------------------------------------
# rendering

def _fmt(x, digits: int = 6) -> str:
    return f"{x:.{digits}f}"


def _labelled(title: str, fields: list[tuple[str, object]]) -> list[str]:
    """A report's title over its `label : value` lines, the labels padded to one width."""
    width = max(len(label) for label, _ in fields)
    return [title] + [f"  {label:<{width}} : {value}" for label, value in fields]


def render_estimate_text(report: dict) -> str:
    c = report["c"]
    level = 100.0 * (1.0 - report["alpha"])
    lines = _labelled("counterfactual power gain", [
        ("sample-size multiplier c^2", f"{c * c:g}"),
        ("delta-hat", _fmt(report["delta"])),
        ("std error", _fmt(report["se"])),
        (f"{level:g}% CI", f"[{_fmt(report['ci_low'])}, {_fmt(report['ci_high'])}]"),
        ("theta-hat (pub. bias)",
         "correction disabled" if report["theta"] is None else _fmt(report["theta"])),
        ("J (basis cutoff)", report["J"]),
        ("epsilon (caliper width)",
         "-" if report["epsilon"] is None else _fmt(report["epsilon"])),
        ("n t-scores", report["n"]),
        ("clusters", report["n_clusters"]),
        ("status-quo power", _fmt(report["status_quo_power"])),
    ])
    lines += [f"  note: {flag}" for flag in report.get("flags", [])]
    return "\n".join(lines)


def render_curve_text(points: list[dict]) -> str:
    lines = [f"{'c2':>8}  {'delta':>12}  {'se':>12}  {'ci_low':>12}  {'ci_high':>12}"]
    for p in points:
        lines.append(f"{p['c2']:>8g}  {p['delta']:>12.6f}  {p['se']:>12.6f}  "
                     f"{p['ci_low']:>12.6f}  {p['ci_high']:>12.6f}")
    lines += [f"note: c2={p['c2']:g}: {flag}" for p in points for flag in p.get("flags", [])]
    return "\n".join(lines)


def render_conditional_text(report: dict) -> str:
    return "\n".join(_labelled("conditional power gain (replication design)", [
        ("sample-size multiplier c^2", f"{report['c'] ** 2:g}"),
        ("delta-hat", _fmt(report["delta"])),
        (f"std error ({report['se_mode']})", _fmt(report["se"])),
        ("groups", report["n_groups"]),
        ("members", report["n_members"]),
    ]))


#: The columns of simulate's text, in the published layout.
_SIMULATE_COLUMNS = ("n", "dgp", "unc_power", "true_delta", "mean_delta", "sd_delta",
                     "mean_se", "coverage", "noise", "reps", "failures", "seed")


def _simulate_line(row: dict) -> str:
    """One row of simulate's text: the fields tab-separated, a float with six decimals."""
    return "\t".join(f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
                     for c in _SIMULATE_COLUMNS)


def render_simulate_text(rows: list[dict]) -> str:
    """``CoverageRow`` fields under their header, as `simulate` streams them."""
    return "\n".join(["\t".join(_SIMULATE_COLUMNS)] + [_simulate_line(r) for r in rows])


def _csv_table(rows: list[dict], columns: list[str]) -> str:
    """The rows as CSV; a list or tuple cell (the flags) is written `;`-joined."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([";".join(r[c]) if isinstance(r[c], (list, tuple)) else r[c]
                         for c in columns])
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# manifests and output plumbing

def _manifest(args: argparse.Namespace) -> dict:
    """Command, flags, versions and dataset digest of one run.

    The digest is the one the reader took of the bytes it parsed
    (``args._sha256``, set by the command).
    """
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func",) and not k.startswith("_")}
    versions = {"powergain": __version__, "numpy": np.__version__,
                "python": sys.version.split()[0]}
    man = {
        "command": args.command,
        "config": echo,
        "versions": versions,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    dataset = getattr(args, "dataset", None)
    if dataset is not None:
        man["dataset"] = {"path": dataset, "sha256": args._sha256}
    return man


def _null_non_finite(x):
    """x with every non-finite float, at any depth, replaced by None."""
    if isinstance(x, dict):
        return {k: _null_non_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_null_non_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _json(x) -> str:
    return json.dumps(_null_non_finite(x), indent=2, allow_nan=False)


def _emit(args: argparse.Namespace, key: str, result, render) -> int:
    """Write a command's result; the exit code is 0.

    The payload holds the command, the result under `key` (a report, or a
    list of points or rows) and the run's manifest.  `--out json` writes
    the payload, `csv` the result as a table, and `text` what `render`
    makes of it; nothing is rendered that is not written.  Output goes to
    stdout, or with `--output PATH` to PATH and the manifest to
    PATH.manifest.json; a path that cannot be written is a flag error.
    """
    payload = {"command": args.command, key: result, "manifest": _manifest(args)}
    if args.out == "json":
        body = _json(payload)
    elif args.out == "csv":
        rows = result if isinstance(result, list) else [result]
        body = _csv_table(rows, list(rows[0]))
    else:
        body = render(result)
    if not args.output:
        print(body)
        return 0
    for path, content in ((args.output, body),
                          (args.output + ".manifest.json", _json(payload["manifest"]))):
        try:
            Path(path).write_text(content + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --output {path}: {exc.strerror or exc}") from exc
    return 0


def _check_output(path: str) -> None:
    """Refuse, before any computation, an `--output` that surely cannot be written.

    Its directory must exist, and neither it nor its `.manifest.json`
    may be a directory.  The message is the one the write would give;
    other OS errors still surface when `_emit` writes.
    """
    for target in (path, path + ".manifest.json"):
        if Path(target).is_dir():
            code = errno.EISDIR
        elif not Path(target).parent.is_dir():
            code = errno.ENOTDIR if Path(target).parent.exists() else errno.ENOENT
        else:
            continue
        raise ValueError(f"cannot write --output {target}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# subcommands

def _c_from_args(args: argparse.Namespace) -> float:
    """The counterfactual scale c = sqrt(--c2), once --c2 is known to be valid."""
    # A chained comparison is False for NaN, so NaN fails the check.
    if not 1.0 <= args.c2 < math.inf:
        raise ValueError("--c2 is the sample-size multiplier c^2, so the counterfactual "
                         f"scale c must be finite and >= 1; got --c2 {args.c2}")
    return math.sqrt(args.c2)


def _tuning_from_args(args: argparse.Namespace, c: float,
                      n_effective: int | None = None) -> TuningConfig:
    return TuningConfig(c=c, cv=args.cv, alpha=args.alpha,
                        sigmaT2=args.sigma_t2, C=args.const_C, D=args.const_D,
                        n_effective=n_effective)


def _load_sample(args: argparse.Namespace) -> TScoreSample:
    digest = hashlib.sha256()
    sample, has_sid = read_tscore_file(args.dataset, digest=digest)
    args._sha256 = digest.hexdigest()
    if not has_sid:
        print("warning: no study_id column found; treating every t-score as "
              "its own cluster. Standard errors assume full independence — "
              "add a study_id column if scores share studies.",
              file=sys.stderr)
    return sample


def _n_effective(args: argparse.Namespace, sample: TScoreSample) -> int:
    return sample.n_clusters if args.scale_by == "studies" else sample.n


def _printed_ci(args: argparse.Namespace, row: dict) -> dict:
    """The row as printed: `--clamp-ci-at-zero` clips its limits below at 0 (a NaN stays)."""
    if args.clamp_ci_at_zero:
        row.update(ci_low=max(row["ci_low"], 0.0), ci_high=max(row["ci_high"], 0.0))
    return row


def cmd_estimate(args: argparse.Namespace) -> int:
    sample = _load_sample(args)
    cfg = _tuning_from_args(args, _c_from_args(args), _n_effective(args, sample))
    report = _printed_ci(args, asdict(estimate(sample, cfg, pb=not args.no_pb)))
    return _emit(args, "report", report, render_estimate_text)


def _parse_grid(raw: str) -> list[float]:
    try:
        vals = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--grid must be comma-separated numbers, got {raw!r}") from exc
    if not vals:
        raise ValueError("--grid is empty")
    if not all(1.0 <= v < math.inf for v in vals):
        raise ValueError("every --grid value is a finite sample-size multiplier c^2 "
                         f"and must be >= 1, got {raw!r}")
    grid = sorted(set(vals) | {1.0})
    return grid


def cmd_curve(args: argparse.Namespace) -> int:
    grid_c2 = _parse_grid(args.grid)
    sample = _load_sample(args)
    # power_gain_curve takes c from the grid, so this config's c is never read.
    cfg = _tuning_from_args(args, 1.0, _n_effective(args, sample))
    reports = power_gain_curve(sample, cfg, [math.sqrt(v) for v in grid_c2],
                               pb=not args.no_pb)
    # Rows are labelled with the requested multiplier, not sqrt(c2)**2.
    points = [_printed_ci(args, {"c2": c2, "delta": r.delta, "se": r.se, "ci_low": r.ci_low,
                                 "ci_high": r.ci_high, "flags": r.flags})
              for c2, r in zip(grid_c2, reports)]
    return _emit(args, "points", points, render_curve_text)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.table is not None:
        if args.noise is not None:
            raise ValueError("--table picks the noise family; drop --noise or --table")
        noise, preset_ns = TABLE_PRESETS[args.table]
    else:
        noise, preset_ns = args.noise or "normal", (500,)
    ns = [args.n] if args.n is not None else list(preset_ns)
    dgps = list(PRIORS) if args.dgp == "all" else [args.dgp]

    c = _c_from_args(args)
    cells = []
    for n in ns:
        for prior in dgps:
            spec = DgpSpec(prior=prior, noise=noise, theta0=args.theta0, cv=args.cv, c=c)
            cells.append((spec, n, args.reps, _tuning_from_args(args, c),
                          args.seed + len(cells)))

    rows = []
    stream_text = args.out == "text" and not args.output
    results = run_cells(cells)
    try:
        for row in results:
            rows.append(asdict(row))
            if stream_text:
                # The header comes with the first row, so a run failing in the
                # first cell prints nothing.
                print(render_simulate_text(rows) if len(rows) == 1
                      else _simulate_line(rows[-1]), flush=True)
    finally:
        results.close()  # ends the cells' processes even if a print fails
    return 0 if stream_text else _emit(args, "rows", rows, render_simulate_text)


def cmd_conditional(args: argparse.Namespace) -> int:
    digest = hashlib.sha256()
    groups = read_grouped_file(args.dataset, digest=digest)
    args._sha256 = digest.hexdigest()
    report = asdict(conditional_delta(groups, c=_c_from_args(args), cv=args.cv,
                                      se_mode=args.se))
    return _emit(args, "report", report, render_conditional_text)


# ---------------------------------------------------------------------------
# parser

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("text", "json", "csv"), default="text",
                   help="output format (default text)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write output to PATH (plus PATH.manifest.json) instead of stdout")


def _add_common_estimation_flags(p: argparse.ArgumentParser, c2: bool = True) -> None:
    if c2:
        p.add_argument("--c2", type=float, default=2.0,
                       help="sample-size multiplier c^2 (default 2 = double every sample)")
    p.add_argument("--cv", type=float, default=1.96,
                   help="two-sided critical value (default 1.96)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="confidence level is 1 - alpha (default 0.05)")
    p.add_argument("--sigma-t2", type=float, default=1.0, dest="sigma_t2",
                   help="variance of the reference Gaussian the basis is built on")
    p.add_argument("--const-C", type=float, default=2.0, dest="const_C",
                   help="caliper width constant: epsilon = C * n^(-1/3)")
    p.add_argument("--const-D", type=float, default=0.05, dest="const_D",
                   help="basis cutoff constant in the tuning rule")
    _add_output_flags(p)


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="delimited text file (comma or tab, sniffed from "
                                   "the first non-blank line) with column t and "
                                   "optional study_id")
    p.add_argument("--scale-by", choices=("tscores", "studies"), default="tscores",
                   dest="scale_by",
                   help="drive the tuning rule by the t-score count (default) or "
                        "the study count (less conservative)")
    p.add_argument("--no-pb", action="store_true", dest="no_pb",
                   help="skip the publication-bias correction")
    p.add_argument("--clamp-ci-at-zero", action="store_true", dest="clamp_ci_at_zero",
                   help="clip the printed confidence interval below at zero")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergain",
        description="Estimate how much statistical power a literature would "
                    "gain if every study's sample size were scaled up.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="power-gain estimate from a t-score file")
    _add_dataset_flags(p_est)
    _add_common_estimation_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_curve = sub.add_parser("curve", help="power-gain curve over a grid of c^2")
    _add_dataset_flags(p_curve)
    _add_common_estimation_flags(p_curve, c2=False)  # --grid sets every c^2
    p_curve.add_argument("--grid", default="1,2,4,8",
                         help="comma-separated c^2 values (a c^2=1 anchor row is "
                              "always included); default 1,2,4,8")
    p_curve.set_defaults(func=cmd_curve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo bias/coverage table")
    p_sim.add_argument("--dgp", choices=PRIORS + ("all",), default="all",
                       help="true-effect distribution (default: all of them)")
    p_sim.add_argument("--noise", choices=NOISES, default=None,
                       help="noise family (default normal; mutually exclusive "
                            "with --table)")
    p_sim.add_argument("--table", type=int, choices=(1, 2, 3), default=None,
                       help="preset reproducing a published table layout "
                            "(1: normal noise, n=50 and 500; 2: t(30), n=500; "
                            "3: lognormal mean, n=500)")
    p_sim.add_argument("--n", type=int, default=None,
                       help="retained t-scores per replication (default from preset)")
    p_sim.add_argument("--reps", type=int, default=1000,
                       help="replications per cell (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_sim.add_argument("--theta0", type=float, default=0.9,
                       help="publication probability of insignificant results")
    _add_common_estimation_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cond = sub.add_parser("conditional",
                            help="replication-design gain from grouped effects")
    p_cond.add_argument("dataset",
                        help="delimited file with columns group_id, effect, "
                             "std_error, weight and optional lab_id")
    p_cond.add_argument("--se", choices=("iid", "worstcase"), default="iid",
                        help="standard-error mode (worstcase clusters by lab_id)")
    p_cond.add_argument("--c2", type=float, default=2.0,
                        help="sample-size multiplier c^2 (default 2)")
    p_cond.add_argument("--cv", type=float, default=1.96,
                        help="two-sided critical value (default 1.96)")
    _add_output_flags(p_cond)
    p_cond.set_defaults(func=cmd_conditional)

    return parser


#: The parser ``main`` parses with: built on first use, then kept for the
#: process.  Each parse fills a new namespace and leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command line; returns its exit code (see the module docstring).

    ``argv`` defaults to ``sys.argv[1:]``.  Every call in a process parses
    with one parser, built by the first call, so a program that calls
    ``main`` many times builds it once; ``build_parser`` still returns a
    fresh one.  A flag error exits 2 through ``SystemExit``, as argparse
    does.
    """
    args = _parser().parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CaliperError as exc:
        print(f"error: {exc}\nhint: widen the caliper (larger --const-C) or "
              "check that --cv matches how the t-scores were thresholded.",
              file=sys.stderr)
        return 4
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`powergain ... | head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
