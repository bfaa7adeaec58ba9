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
import sys
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
from .simulate import NOISES, PRIORS, TABLE_PRESETS, CoverageRow, DgpSpec, run_cells
from .spectrum import TuningConfig

__all__ = ["main", "DatasetError", "read_tscore_file", "read_grouped_file",
           "render_estimate_text", "render_curve_text", "render_conditional_text",
           "render_simulate_text"]


class DatasetError(Exception):
    """The input file could not be parsed into the expected columns."""


# ---------------------------------------------------------------------------
# dataset ingestion
#
# The file's bytes are read once and decoded once, to check that they are
# UTF-8 and to find the first non-blank line, which gives the layout and
# the delimiter; that text is freed before the bulk parse.  One vectorised
# scan of the bytes bounds the width of each label column.  NumPy's C
# reader then parses the file in bulk, labels straight into str fields of
# those widths, so no Python object is made per row.  Each column is
# copied out of the parse, which is then freed, and a label column is
# stripped only when a code point other than printable ASCII could need
# it.  A whitespace-only line makes the parse fail; only then are such
# lines blanked for a second parse, and only when that fails too does a
# line scan run, to name the bad lines.

_NON_BLANK = re.compile(r"\S")
#: A whitespace-only line that follows a newline.
_WHITESPACE_LINE = re.compile(r"\n[^\S\n]+$", re.MULTILINE)
#: A line break in the raw bytes of a file.
_LINE_BREAK = re.compile(rb"\r\n?|\n")
#: Bytes per block of the label-width scan, and code points per block of
#: the label check; their arrays then fit in cache.
_SCAN_BLOCK = 1 << 16


def _text(data: bytes) -> str:
    """UTF-8 bytes as text: without a leading byte-order mark, and with
    `\r\n` and `\r` line ends read as `\n`, as NumPy's reader reads them."""
    text = data.decode("utf-8").removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_head(path: str, digest=None) -> tuple[bytes, int, str, list[str], bool]:
    """The file's bytes and its first non-blank line.

    The bytes must be UTF-8, with or without a leading byte-order mark; a
    file that is not is a dataset error naming the physical line of the
    first undecodable byte.  Returns them with the first non-blank line's
    1-based physical line number, the delimiter sniffed from that line, its
    trimmed cells, and whether a non-blank line follows it.  A ``hashlib``
    object passed as ``digest`` is updated with the bytes as read.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(data)
    try:
        text = _text(data)
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data, 0, exc.start)) + 1
        raise DatasetError(f"{path} is not valid UTF-8: line {line} has the undecodable "
                           f"byte 0x{data[exc.start]:02x}") from exc
    found = _NON_BLANK.search(text)
    if found is None:
        raise DatasetError(f"{path} contains no data")
    start = text.rfind("\n", 0, found.start()) + 1
    end = text.find("\n", start)
    line = text[start:] if end < 0 else text[start:end]
    delim = "\t" if "\t" in line else ","
    more = end >= 0 and _NON_BLANK.search(text, end) is not None
    return (data, text.count("\n", 0, start) + 1, delim,
            [c.strip() for c in line.split(delim)], more)


def _cell_widths(data: bytes, skip: int, delim: str, columns: tuple[int, ...]) -> list[int]:
    """The widest cell of each given column below the first skip physical
    lines, in UTF-8 bytes: a bound on its characters.

    Lines end in `\n`, `\r\n` or `\r`, as for NumPy's reader; `\r\n`
    counts here as two line ends around an empty line, which changes no
    width.  A column that no line reaches is 0 wide.  The bytes are scanned
    in blocks of whole lines, so that the scan's arrays stay small.
    """
    if not data.endswith((b"\n", b"\r")):
        data += b"\n"
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    for _ in range(skip):
        start = _LINE_BREAK.search(data, start).end()
    line_ends = b"\n\r" if b"\r" in data else b"\n"
    widths = [0] * len(columns)
    while start < len(data):
        brk = _LINE_BREAK.search(data, start + _SCAN_BLOCK)
        stop = brk.end() if brk else len(data)
        block = np.frombuffer(data, np.uint8, stop - start, start)
        is_end = block == ord(delim)
        for byte in line_ends:
            is_end |= block == byte
        ends = np.flatnonzero(is_end)
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


def _columns(path: str, data: bytes, skip: int, delim: str, numeric: tuple[int, ...],
             labels: tuple[int, ...], what: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The rows below the first skip physical lines, parsed in bulk.

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

    rows = parse(path)
    if rows is None:
        # NumPy's reader takes a whitespace-only line for a row, and a row
        # of blanks never parses; blank such lines and parse again.
        text, blanked = _WHITESPACE_LINE.subn("\n", _text(data))
        rows = parse(io.StringIO(text)) if blanked else None
    nums, labs = names[:len(numeric)], names[len(numeric):]
    if rows is None or not all(np.isfinite(rows[c]).all() for c in nums):
        bad = _bad_lines(_text(data), skip, delim, numeric, max(numeric + labels))
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
    ``digest`` is updated with the file's bytes, so nothing reads them
    twice.
    """
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

    (t,), sids = _columns(path, data, skip, delim, (t_idx,),
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
        path, data, skip, delim, (idx["effect"], idx["std_error"], idx["weight"]),
        (idx["group_id"],) + (() if lab_idx is None else (lab_idx,)),
        "every row needs finite numeric effect, std_error and weight")
    del data  # freed before the groups are factorised
    return GroupedEffects(effects=effects, std_errors=std_errors, weights=weights,
                          group_id=gid, labels=lab[0] if lab else None)


# ---------------------------------------------------------------------------
# rendering

def _fmt(x, digits: int = 6) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}f}"


def render_estimate_text(report: dict) -> str:
    c = report["c"]
    level = 100.0 * (1.0 - report["alpha"])
    lines = [
        "counterfactual power gain",
        f"  sample-size multiplier c^2 : {c * c:g}",
        f"  delta-hat                  : {_fmt(report['delta'])}",
        f"  std error                  : {_fmt(report['se'])}",
        f"  {level:g}% CI                     : "
        f"[{_fmt(report['ci_low'])}, {_fmt(report['ci_high'])}]",
        f"  theta-hat (pub. bias)      : "
        + ("correction disabled" if report["theta"] is None else _fmt(report["theta"])),
        f"  J (basis cutoff)           : {report['J']}",
        f"  epsilon (caliper width)    : "
        + ("-" if report["epsilon"] is None else _fmt(report["epsilon"])),
        f"  n t-scores                 : {report['n']}",
        f"  clusters                   : {report['n_clusters']}",
        f"  status-quo power           : {_fmt(report['status_quo_power'])}",
    ]
    for flag in report.get("flags", []):
        lines.append(f"  note: {flag}")
    return "\n".join(lines)


def render_curve_text(points: list[dict]) -> str:
    lines = [f"{'c2':>8}  {'delta':>12}  {'se':>12}  {'ci_low':>12}  {'ci_high':>12}"]
    for p in points:
        lines.append(f"{p['c2']:>8g}  {p['delta']:>12.6f}  {p['se']:>12.6f}  "
                     f"{p['ci_low']:>12.6f}  {p['ci_high']:>12.6f}")
    lines += [f"note: c2={p['c2']:g}: {flag}" for p in points for flag in p.get("flags", [])]
    return "\n".join(lines)


def render_conditional_text(report: dict) -> str:
    mode = report["se_mode"]
    return "\n".join([
        "conditional power gain (replication design)",
        f"  sample-size multiplier c^2 : {report['c'] ** 2:g}",
        f"  delta-hat                  : {_fmt(report['delta'])}",
        f"  std error ({mode}){' ' * (15 - len(mode))}: {_fmt(report['se'])}",
        f"  groups                     : {report['n_groups']}",
        f"  members                    : {report['n_members']}",
    ])


def render_simulate_text(rows: list[dict]) -> str:
    return "\n".join([CoverageRow.TSV_HEADER]
                     + [CoverageRow(**r).to_tsv_row() for r in rows])


def _csv_table(rows: list[dict], columns: list[str]) -> str:
    """The rows as CSV; a list cell (the flags) is written `;`-joined."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([";".join(r[c]) if isinstance(r[c], list) else r[c]
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
    makes of it.  The text is rendered for JSON output too, so the
    benchmark's traced `cli.render` span times every command.  Output goes
    to stdout, or with `--output PATH` to PATH and the manifest to
    PATH.manifest.json; a path that cannot be written is a flag error.
    """
    rows = result if isinstance(result, list) else [result]
    payload = {"command": args.command, key: result, "manifest": _manifest(args)}
    text = _csv_table(rows, list(rows[0])) if args.out == "csv" else render(result)
    body = _json(payload) if args.out == "json" else text
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


def _tuning_from_args(args: argparse.Namespace, n_effective: int | None = None) -> TuningConfig:
    return TuningConfig(c=_c_from_args(args), cv=args.cv, alpha=args.alpha,
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


def cmd_estimate(args: argparse.Namespace) -> int:
    sample = _load_sample(args)
    cfg = _tuning_from_args(args, _n_effective(args, sample))
    report = estimate(sample, cfg, pb=not args.no_pb,
                      clamp_ci=args.clamp_ci_at_zero).to_dict()
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
    cfg = _tuning_from_args(args, _n_effective(args, sample))
    reports = power_gain_curve(sample, cfg, [math.sqrt(v) for v in grid_c2],
                               pb=not args.no_pb, clamp_ci=args.clamp_ci_at_zero)
    # Rows are labelled with the requested multiplier, not sqrt(c2)**2.
    points = [{"c2": c2, "delta": r.delta, "se": r.se, "ci_low": r.ci_low,
               "ci_high": r.ci_high, "flags": list(r.flags)}
              for c2, r in zip(grid_c2, reports)]
    return _emit(args, "points", points, render_curve_text)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.table is not None:
        if args.noise is not None:
            raise ValueError("--table picks the noise family; drop --noise or --table")
        noise, preset_ns = TABLE_PRESETS[args.table]
    else:
        noise, preset_ns = args.noise or "normal", (500,)
    ns = [args.n] if args.n is not None else list(preset_ns)
    dgps = list(PRIORS) if args.dgp == "all" else [args.dgp]

    cells = []
    for n in ns:
        for prior in dgps:
            spec = DgpSpec(prior=prior, noise=noise, theta0=args.theta0,
                           cv=args.cv, c=_c_from_args(args))
            cells.append((spec, n, args.reps, _tuning_from_args(args),
                          args.seed + len(cells)))

    rows = []
    stream_text = args.out == "text" and not args.output
    results = run_cells(cells)
    try:
        for row in results:
            rows.append(row.to_dict())
            if stream_text:
                # After the first cell, so a run failing there prints nothing.
                if len(rows) == 1:
                    print(CoverageRow.TSV_HEADER)
                print(row.to_tsv_row(), flush=True)
    finally:
        results.close()  # ends the cells' processes even if a print fails
    return 0 if stream_text else _emit(args, "rows", rows, render_simulate_text)


def cmd_conditional(args: argparse.Namespace) -> int:
    digest = hashlib.sha256()
    groups = read_grouped_file(args.dataset, digest=digest)
    args._sha256 = digest.hexdigest()
    report = conditional_delta(groups, c=_c_from_args(args), cv=args.cv,
                               se_mode=args.se).to_dict()
    return _emit(args, "report", report, render_conditional_text)


# ---------------------------------------------------------------------------
# parser

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("text", "json", "csv"), default="text",
                   help="output format (default text)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write output to PATH (plus PATH.manifest.json) instead of stdout")


def _add_common_estimation_flags(p: argparse.ArgumentParser) -> None:
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
                   help="clip the confidence interval below at zero")


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
    _add_common_estimation_flags(p_curve)
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
