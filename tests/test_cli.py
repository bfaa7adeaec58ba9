"""Tests for file ingestion, rendering, and the command-line entry point."""
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from powergain import cli, inference, simulate
from powergain.cli import (
    DatasetError,
    main,
    read_grouped_file,
    read_tscore_file,
    render_estimate_text,
)
from powergain.spectrum import TuningConfig

# Eight scores whose default caliper (epsilon = 2 * 8**(-1/3) = 1) puts two
# scores just below the cutoff and two just above, so theta-hat is exactly 1.
BALANCED_ROWS = [(1.2, "a"), (1.5, "a"), (2.2, "b"), (2.5, "b"),
                 (0.3, "c"), (0.5, "c"), (3.5, "d"), (0.7, "d")]


def write_balanced(path, header=True, delim=",", with_sid=True):
    lines = []
    if header:
        lines.append(delim.join(("t", "study_id") if with_sid else ("t",)))
    for t, sid in BALANCED_ROWS:
        lines.append(delim.join((str(t), sid) if with_sid else (str(t),)))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReadTScoreFile:
    def test_comma_with_header(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        sample, has_sid = read_tscore_file(p)
        assert has_sid and sample.n == 8 and sample.n_clusters == 4
        np.testing.assert_allclose(sample.t[:2], [1.2, 1.5])

    def test_tab_headerless_two_columns(self, tmp_path):
        p = write_balanced(tmp_path / "d.tsv", header=False, delim="\t")
        sample, has_sid = read_tscore_file(p)
        assert has_sid and sample.n == 8 and sample.n_clusters == 4

    def test_single_column_no_header(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.5\n-2.2\n0.3\n")
        sample, has_sid = read_tscore_file(str(p))
        assert not has_sid
        assert sample.n == 3 and sample.n_clusters == 3

    def test_header_found_by_name_anywhere(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("pval,T,study_id\n0.2,1.5,a\n0.9,-0.3,b\n")
        sample, has_sid = read_tscore_file(str(p))
        assert has_sid
        np.testing.assert_array_equal(sample.t, [1.5, -0.3])

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t\n1.5\n\noops\n2.0\nnan\n")
        with pytest.raises(DatasetError, match=r"line\(s\): 4, 6"):
            read_tscore_file(str(p))

    def test_too_many_headerless_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,a,b\n")
        with pytest.raises(DatasetError, match="3 columns"):
            read_tscore_file(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            read_tscore_file(str(tmp_path / "absent.csv"))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n\n")
        with pytest.raises(DatasetError, match="no data"):
            read_tscore_file(str(p))

    @pytest.mark.parametrize("body", ["t,study_id\n1.5,a\n-2,b\n", "1.5,a\n-2,b\n"],
                             ids=["header", "headerless"])
    def test_byte_order_mark(self, tmp_path, body):
        # Spreadsheets save "CSV UTF-8" with a leading U+FEFF.
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf" + body.encode())
        sample, has_sid = read_tscore_file(str(p))
        assert has_sid
        np.testing.assert_array_equal(sample.t, [1.5, -2.0])
        assert sample.study_id.tolist() == ["a", "b"]


class TestReadGroupedFile:
    def test_header_any_order_with_labs(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("lab_id,weight,effect,group_id,std_error\n"
                     "L1,1.0,2.5,g1,0.8\n"
                     "L2,2.0,2.1,g1,0.9\n"
                     "L1,1.0,0.4,g2,1.1\n")
        groups = read_grouped_file(str(p))
        assert groups._group_sizes.tolist() == [2, 1]
        assert groups._group_codes.tolist() == [0, 0, 1]
        np.testing.assert_array_equal(groups.effects[:2], [2.5, 2.1])
        np.testing.assert_array_equal(groups.weights[:2], [1.0, 2.0])
        assert groups.labels[:2].tolist() == ["L1", "L2"]

    def test_missing_columns_named(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect\ng1,2.5\n")
        with pytest.raises(DatasetError, match="std_error, weight"):
            read_grouped_file(str(p))

    def test_headerless_positional(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("g1,2.5,0.8,1.0\ng2,0.4,1.1,1.0\n")
        groups = read_grouped_file(str(p))
        assert groups._group_sizes.tolist() == [1, 1] and groups.labels is None

    def test_headerless_needs_four_or_five_columns(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("g1,2.5,0.8\n")
        with pytest.raises(DatasetError, match="4 or 5 columns"):
            read_grouped_file(str(p))

    def test_non_finite_rows_reported_with_line_numbers(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight\n"
                     "g1,2.5,0.8,1.0\n"
                     "g1,nan,0.9,1.0\n"
                     "g2,0.4,inf,1.0\n"
                     "g2,0.4,1.1,-inf\n")
        with pytest.raises(DatasetError, match=r"line\(s\): 3, 4, 5"):
            read_grouped_file(str(p))
        assert main(["conditional", str(p)]) == 3
        assert capsys.readouterr().out == ""

    def test_group_codes_in_label_order(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight\n"
                     "zeta,1.0,1.0,1.0\n"
                     "alpha,1.1,1.0,1.0\n"
                     "zeta,0.9,1.0,2.0\n")
        groups = read_grouped_file(str(p))
        assert groups._group_sizes.tolist() == [1, 2]
        assert groups._group_codes.tolist() == [1, 0, 1]
        np.testing.assert_array_equal(groups.effects, [1.0, 1.1, 0.9])
        np.testing.assert_array_equal(groups.weights, [1.0, 1.0, 2.0])

    def test_group_order_with_short_and_long_ids(self, tmp_path, monkeypatch):
        # Mixed-length ids, sorted on 64-bit integer keys when short and as
        # strings when 10 characters longer: either way the group codes
        # follow the sorted labels, with members in file order.
        short = ["10", "9", "", "09", "é", "ÿa", "9", "10", "09", "é"]
        sorted_dtypes = []
        real_unique, real_pair_sort = np.unique, inference._pair_sort

        def recording_unique(ar, **kwargs):
            sorted_dtypes.append(np.asarray(ar).dtype.kind)
            return real_unique(ar, **kwargs)

        def recording_pair_sort(*args):
            # _factorise sorts the integer keys as uint64 (key, row) words.
            sorted_dtypes.append("u")
            return real_pair_sort(*args)

        monkeypatch.setattr(np, "unique", recording_unique)
        monkeypatch.setattr(inference, "_pair_sort", recording_pair_sort)
        for cells in (short, [g + "x" * 10 for g in short]):
            p = tmp_path / "g.csv"
            p.write_text("group_id,effect,std_error,weight\n" + "".join(
                f"{g},{k},1,1\n" for k, g in enumerate(cells)))
            groups = read_grouped_file(str(p))
            _, codes, sizes = real_unique(cells, return_inverse=True, return_counts=True)
            np.testing.assert_array_equal(groups._group_codes, codes)
            np.testing.assert_array_equal(groups._group_sizes, sizes)
            np.testing.assert_array_equal(groups.effects, np.arange(len(cells)))
        assert sorted_dtypes == ["u", "U"]

    def test_members_in_file_order(self, tmp_path):
        rng = np.random.default_rng(5)
        gids = rng.choice(["b", "a", "c", "aa", "B"], 40).tolist()
        labs = rng.choice(["L2", "L1", "L10"], 40).tolist()
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight,lab_id\n" + "".join(
            f"{g},{k},{k + 1},{2 * k},{lab}\n" for k, (g, lab) in enumerate(zip(gids, labs))))
        groups = read_grouped_file(str(p))
        k = np.arange(40.0)
        np.testing.assert_array_equal(groups.effects, k)
        np.testing.assert_array_equal(groups.std_errors, k + 1)
        np.testing.assert_array_equal(groups.weights, 2 * k)
        assert groups.labels.tolist() == labs
        order = sorted(set(gids))
        assert groups._group_codes.tolist() == [order.index(g) for g in gids]
        assert groups._group_sizes.tolist() == [gids.count(g) for g in order]

    @pytest.mark.parametrize("header", ["group_id,effect,std_error,weight\n", ""],
                             ids=["header", "headerless"])
    def test_byte_order_mark(self, tmp_path, header):
        p = tmp_path / "g.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (header + "g1,2.5,0.8,1\ng1,2.1,0.9,2\n").encode())
        groups = read_grouped_file(str(p))
        assert groups._group_sizes.tolist() == [2]
        np.testing.assert_array_equal(groups.effects, [2.5, 2.1])
        np.testing.assert_array_equal(groups.std_errors, [0.8, 0.9])


@pytest.mark.parametrize("reader, command, data", [
    (read_tscore_file, "estimate", b"t\n1.5\n\xff\n"),
    (read_grouped_file, "conditional",
     b"group_id,effect,std_error,weight\r\ng1,1,1,1\r\ng\xe9,1,1,1\r\n"),
    (read_tscore_file, "estimate", b"t\n1." + b"5" * cli._SCAN_BLOCK + b"\n\xff\n"),
    (read_tscore_file, "estimate", b"t\n1.5\n\xe6\x97"),
], ids=["tscore", "grouped", "past the first block", "cut at the end"])
def test_undecodable_byte_is_dataset_error(tmp_path, capsys, reader, command, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    with pytest.raises(DatasetError, match=r"line 3\b"):
        reader(str(p))
    assert main([command, str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(p) in captured.err and "line 3 " in captured.err


def reference_head(data: bytes):
    """The first non-blank line of the whole decoded text: its physical line
    number, the delimiter, its trimmed cells and whether a non-blank line
    follows; None for a file with no such line."""
    text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    found = re.search(r"\S", text)
    if found is None:
        return None
    start = text.rfind("\n", 0, found.start()) + 1
    end = text.find("\n", start)
    line = text[start:] if end < 0 else text[start:end]
    delim = "\t" if "\t" in line else ","
    more = end >= 0 and re.search(r"\S", text[end:]) is not None
    return text.count("\n", 0, start) + 1, delim, [c.strip() for c in line.split(delim)], more


HEADS = [
    "t,study_id\n1.5,a\n",
    "\ufeff\n \r\n\t\r t\tstudy_id \r\n\u00a0\r\n1.5\ta\r\n",
    "\u3000\n\u2028\n\x85\n\x1c x ,日本\u00a0,é\n\u00a0\n\u3000 \n",
    "\n\n 2.5",
    "t\n\r\n\r\r\n\u00a0 \n\u3000\n-1\n",
    "\ufeff\ufeffhead\n",  # only the leading byte-order mark is dropped
    "a,\u00a0b\u00a0\r\ufeff\n",
    " \n\t\n",
    "",
]


class TestReadHead:
    """``_read_head`` gives the first non-blank line of the whole decoded text
    (``reference_head``), and the readers built on it read multibyte labels
    and header-only files alike for every ``_SCAN_BLOCK`` of the label scan."""

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
    @pytest.mark.parametrize("text", HEADS)
    def test_matches_the_whole_text(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        want = reference_head(text.encode())
        if want is None:
            with pytest.raises(DatasetError, match="contains no data"):
                cli._read_head(str(p))
        else:
            assert cli._read_head(str(p))[1:] == want

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_multibyte_characters_across_blocks(self, tmp_path, monkeypatch, block):
        p = tmp_path / "d.csv"
        p.write_bytes("\ufeffT,study_id\n1.5,日本\n\u3000\n-2,é\U0001d11e\n0.5,日本\n".encode())
        monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
        sample, has_sid = read_tscore_file(str(p))
        np.testing.assert_array_equal(sample.t, [1.5, -2.0, 0.5])
        assert sample.study_id.tolist() == ["日本", "é\U0001d11e", "日本"]
        np.testing.assert_array_equal(sample._cluster_codes, [1, 0, 1])

    @pytest.mark.parametrize("block", [1, 1 << 16])
    @pytest.mark.parametrize("reader, header", [
        (read_tscore_file, "t,study_id"),
        (read_grouped_file, "group_id,effect,std_error,weight"),
    ], ids=["tscore", "grouped"])
    def test_header_and_whitespace_lines_only(self, tmp_path, monkeypatch, reader, header,
                                              block):
        monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
        p = tmp_path / "d.csv"
        p.write_bytes(f"\n{header}\r\n \n\t\r\u00a0\n\u3000 \n".encode())
        with pytest.raises(DatasetError, match="has a header but no data rows"):
            reader(str(p))


# t-score files: (text, t, study labels or None).
TSCORE_LAYOUTS = {
    "crlf": ("t,study_id\r\n1.5,a\r\n-2,b\r\n", [1.5, -2.0], ["a", "b"]),
    "lone cr": ("1.5,a\r-2,b\r", [1.5, -2.0], ["a", "b"]),
    "tab": ("t\tstudy_id\n1.5\ta b\n-2\tc\n", [1.5, -2.0], ["a b", "c"]),
    "padded cells": (" T , study_id \n 1.5 ,  a\n-2 ,b \n", [1.5, -2.0], ["a", "b"]),
    "blank and whitespace-only lines": (
        "\n \t\n\nt,study_id\n\n1.5,a\n  \n\t\n-2,b\n\u00a0\n", [1.5, -2.0], ["a", "b"]),
    "extra trailing columns": ("t,study_id,note\n1.5,a,x\n-2,b,y,z\n",
                               [1.5, -2.0], ["a", "b"]),
    "hash inside a label": ("t,study_id\n1.5,#1\n-2,b#2\n", [1.5, -2.0], ["#1", "b#2"]),
    "one data row": ("t,study_id\n1.5,a\n", [1.5], ["a"]),
    "one headerless score": ("2.5", [2.5], None),
    # A tab always separates cells, also at the start or end of a line.
    "tab, empty first cell": ("pval\tt\tstudy_id\n\t1.5\ta\n0.2\t-2\t\n",
                              [1.5, -2.0], ["a", ""]),
}

# grouped files: (text, [(effects, std_errors, weights, labels or None), ...]).
GROUPED_LAYOUTS = {
    "crlf, padded, blank lines": (
        "\r\n group_id , effect,std_error,weight,lab_id\r\n \r\n"
        "g2 , 0.5,1,2, L1\r\n\r\ng1,0.25,0.5,1,L2\r\ng2,0.75,1,3,L#3\r\n",
        [(1, 0.5, 1.0, 2.0, "L1"), (0, 0.25, 0.5, 1.0, "L2"), (1, 0.75, 1.0, 3.0, "L#3")]),
    "tab, extra columns": (
        "weight\teffect\tstd_error\tgroup_id\tnote\n1\t0.1\t0.2\tb\tx\n"
        "2\t0.3\t0.4\ta\ty\tz\n3\t0.5\t0.6\tb\n",
        [(1, 0.1, 0.2, 1.0, None), (0, 0.3, 0.4, 2.0, None), (1, 0.5, 0.6, 3.0, None)]),
    "one headerless row": ("g,1.5,0.5,2\n", [(0, 1.5, 0.5, 2.0, None)]),
}


def no_line_scan(*args):
    raise AssertionError("a well-formed file reached the line scan")


class TestReaderLayouts:
    @pytest.mark.parametrize("name", list(TSCORE_LAYOUTS))
    def test_tscore_file(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(cli, "_bad_lines", no_line_scan)
        text, t, sids = TSCORE_LAYOUTS[name]
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        sample, has_sid = read_tscore_file(str(p))
        np.testing.assert_array_equal(sample.t, t)
        assert has_sid == (sids is not None)
        if sids is not None:
            assert sample.study_id.tolist() == sids

    @pytest.mark.parametrize("name", list(GROUPED_LAYOUTS))
    def test_grouped_file(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(cli, "_bad_lines", no_line_scan)
        text, expected = GROUPED_LAYOUTS[name]
        p = tmp_path / "g.csv"
        p.write_bytes(text.encode())
        groups = read_grouped_file(str(p))
        codes, eff, se, w, labs = zip(*expected)
        assert groups._group_codes.tolist() == list(codes)
        assert groups._group_sizes.tolist() == np.bincount(codes).tolist()
        np.testing.assert_array_equal(groups.effects, eff)
        np.testing.assert_array_equal(groups.std_errors, se)
        np.testing.assert_array_equal(groups.weights, w)
        want_labs = None if labs[0] is None else list(labs)
        assert (None if groups.labels is None else groups.labels.tolist()) == want_labs

    @pytest.mark.parametrize("reader, text, message", [
        # Blank lines count: the numbers are physical line numbers.
        (read_tscore_file, "\n\nt\n1.5\n\noops\n2.0\n \n-inf\n",
         "could not parse 2 line(s): 6, 9 — every row needs a finite numeric t"),
        (read_tscore_file, "t,study_id\n1.5,a\n2.0\n-1,b\n",
         "could not parse 1 line(s): 3 — every row needs a finite numeric t"),
        (read_grouped_file,
         "group_id,effect,std_error,weight\n" + "g,1,1\n" * 25 + "g,1,1,1\n",
         "could not parse 25 line(s): " + ", ".join(str(k) for k in range(2, 22))
         + " (and 5 more) — every row needs finite numeric effect, std_error and weight"),
    ])
    def test_bad_rows(self, tmp_path, reader, text, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DatasetError) as exc:
            reader(str(p))
        assert str(exc.value) == message

    @pytest.mark.parametrize("cell, ok", [
        ("+.5", True), ("1e-2", True), ("2.", True), ("\u00a01.5 ", True),
        ("nan", False), ("-Infinity", False), ("1e400", False), ("", False),
        ("abc", False), ("1.5.2", False), ('"1.5"', False), ("0x1", False),
        # Python's float() takes these; NumPy's reader does not.
        ("1_000", False), ("\u0661", False),
    ])
    def test_number_syntax(self, tmp_path, cell, ok):
        p = tmp_path / "d.csv"
        p.write_bytes(f"t,study_id\n1.5,a\n{cell},b\n".encode())
        if ok:
            assert read_tscore_file(str(p))[0].n == 2
        else:
            with pytest.raises(DatasetError, match=r"could not parse 1 line\(s\): 3 —"):
                read_tscore_file(str(p))


@pytest.fixture
def loadtxt_dtypes(monkeypatch):
    """The dtype of every array that NumPy's reader returns; none may hold
    a Python object."""
    dtypes, real_loadtxt = [], np.loadtxt

    def recording_loadtxt(*args, **kwargs):
        rows = real_loadtxt(*args, **kwargs)
        dtypes.append(rows.dtype)
        assert all(rows.dtype[f].kind != "O" for f in rows.dtype.names)
        return rows

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    return dtypes


def label_widths(dtypes):
    return [dt[f].itemsize // 4 for dt in dtypes for f in dt.names if dt[f].kind == "U"]


def python_columns(data: bytes, names: tuple[str, ...]) -> dict[str, list[str]]:
    """The named columns of a file with a header row, or of a headerless file
    in that column order, read line by line with str.split and str.strip."""
    text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line.strip()]
    delim = "\t" if "\t" in lines[0] else ","
    head = [c.strip().lower() for c in lines[0].split(delim)]
    idx = [head.index(n) for n in names] if names[0] in head else range(len(names))
    rows = [line.split(delim) for line in lines[1 if names[0] in head else 0:]]
    return {n: [row[i].strip() for row in rows] for n, i in zip(names, idx)}


def reference_dtype(labels: list[str]) -> np.dtype:
    """A str dtype as wide as the longest label, and at least 1."""
    return np.dtype(f"U{max(1, max(map(len, labels)))}")


def layout(rows, *, delim=",", header=True, bom=False, lead=False, gap="", end="\n"):
    """File bytes for rows of cells, the first being the header: a leading
    empty cell on every line (lead), whitespace-only lines between rows
    (gap) and the text after the last row (end)."""
    lines = [delim.join([""] * lead + list(row)) for row in rows[0 if header else 1:]]
    text = (f"\n{gap}\n" if gap else "\n").join(lines) + end
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode()


LABELS = ["a", "b", "a", "c", "b", "a"]
# Each case: (layout options, the label cells as written).
PARITY_CASES = {
    "bom, headerless": (dict(bom=True, header=False), LABELS),
    "tab, leading empty cell": (dict(delim="\t", lead=True), LABELS),
    "whitespace-only lines between rows": (dict(gap=" \n\t\n\u00a0 "), LABELS),
    "no final newline": (dict(end=""), LABELS[:-1] + ["a" * 40]),
    "labels padded with spaces or U+00A0": (
        {}, [" a", "b  ", "\u00a0a\u00a0 ", " c\u00a0", "\u00a0 b", "a "]),
    "labels padded with spaces or tabs": ({}, [" a", "b\t", "\ta ", "c  ", " \tb", "a"]),
    "U+3000 around a label": ({}, ["\u3000a", "b\u3000", "a", "\u3000c\u3000", "b", "a"]),
    "non-ASCII labels": ({}, ["é", "日本", "é", "e", "日本", "日"]),
    "longest label on the last line": ({}, LABELS[:-1] + ["a" * 40]),
    # Printable ASCII ids have nothing to strip; a space in or around a label does.
    "ASCII ids": ({}, ["s17", "s2", "x-9", "s17", "#1", "s2"]),
    "internal spaces": ({}, ["a b", " a b ", "c  d", "a b", "c  d", "e"]),
    "widest cell padded": ({}, ["ab", "c", "   ab   ", "ab", "c", "d"]),
}


class TestReaderParity:
    """The bulk reader against str.split, str.strip and np.unique."""

    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_tscore_file(self, tmp_path, monkeypatch, loadtxt_dtypes, name):
        options, labels = PARITY_CASES[name]
        data = layout([("t", "study_id")] + [(f"{k - 2.5:g}", lab) for k, lab in enumerate(labels)],
                      **options)
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        factorised = []
        real_factorise = inference._factorise

        def recording_factorise(labels, **kwargs):
            factorised.append(np.asarray(labels).dtype.kind)
            return real_factorise(labels, **kwargs)

        monkeypatch.setattr(inference, "_factorise", recording_factorise)
        stripped, real_strip = [], np.char.strip
        monkeypatch.setattr(np.char, "strip", lambda a: stripped.append(a) or real_strip(a))
        sample, has_sid = read_tscore_file(str(p))
        ref = python_columns(data, ("t", "study_id"))
        # Only a column with a code point other than printable ASCII is stripped.
        assert bool(stripped) == any(not 33 <= ord(ch) <= 126 for lab in labels for ch in lab)
        _, codes, sizes = np.unique(ref["study_id"], return_inverse=True, return_counts=True)
        assert has_sid and factorised == ["U"]
        np.testing.assert_array_equal(sample.t, [float(x) for x in ref["t"]])
        assert sample.study_id.tolist() == ref["study_id"]
        np.testing.assert_array_equal(sample._cluster_codes, codes)
        np.testing.assert_array_equal(sample._cluster_sizes, sizes)
        assert sample.study_id.dtype == reference_dtype(ref["study_id"])
        assert label_widths(loadtxt_dtypes)[-1] <= max(len(c.encode()) for c in labels)

    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_grouped_file(self, tmp_path, monkeypatch, loadtxt_dtypes, name):
        options, labels = PARITY_CASES[name]
        groups = labels[::-1]
        data = layout([("group_id", "effect", "std_error", "weight", "lab_id")]
                      + [(g, str(k), "1", "1", lab) for k, (g, lab) in enumerate(zip(groups, labels))],
                      **options)
        p = tmp_path / "g.csv"
        p.write_bytes(data)
        factorised = []
        real_factorise = inference._factorise

        def recording_factorise(labels, **kwargs):
            factorised.append(np.asarray(labels))
            return real_factorise(labels, **kwargs)

        monkeypatch.setattr(inference, "_factorise", recording_factorise)
        effects = read_grouped_file(str(p))
        ref = python_columns(data, ("group_id", "effect", "std_error", "weight", "lab_id"))
        (gid,) = factorised
        assert gid.dtype == reference_dtype(ref["group_id"])
        assert effects.labels.dtype == reference_dtype(ref["lab_id"])
        assert gid.tolist() == ref["group_id"]
        np.testing.assert_array_equal(real_factorise(gid)[0],
                                      np.unique(ref["group_id"], return_inverse=True)[1])
        _, codes, sizes = np.unique(ref["group_id"], return_inverse=True, return_counts=True)
        np.testing.assert_array_equal(effects._group_codes, codes)
        np.testing.assert_array_equal(effects._group_sizes, sizes)
        np.testing.assert_array_equal(effects.effects, [float(x) for x in ref["effect"]])
        assert effects.labels.tolist() == ref["lab_id"]
        np.testing.assert_array_equal(real_factorise(effects.labels)[0],
                                      np.unique(ref["lab_id"], return_inverse=True)[1])


class TestFileChangedWhileRead:
    """A regular file is hashed from its bytes, then parsed again from its
    path; a file that changes in between is refused, so no estimate comes
    from rows that its digest does not describe."""

    @pytest.mark.parametrize("reader, command, text, row", [
        (read_tscore_file, "estimate", "t,study_id\n1.5,a\n2.5,b\n", "0.5,c\n"),
        (read_grouped_file, "conditional",
         "group_id,effect,std_error,weight\na,1,1,1\nb,2,1,1\n", "c,3,1,1\n"),
    ], ids=["tscore", "grouped"])
    def test_row_appended_before_the_parse(self, tmp_path, monkeypatch, capsys, reader,
                                           command, text, row):
        p = tmp_path / "d.csv"
        p.write_text(text)
        real_cell_widths = cli._cell_widths

        def appending(*args):
            with open(p, "a") as f:
                f.write(row)
            return real_cell_widths(*args)

        monkeypatch.setattr(cli, "_cell_widths", appending)
        with pytest.raises(DatasetError) as exc:
            reader(str(p), digest=hashlib.sha256())
        assert str(exc.value).startswith(f"{p} changed while it was read")
        assert main([command, str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {p} changed while it was read")


class TestParseLifetime:
    """Each column is copied out of the bulk parse, which is freed before the
    sample or the groups are built: no array that the readers return is a
    view of it."""

    @pytest.fixture
    def parses(self, monkeypatch):
        refs, real_loadtxt = [], np.loadtxt

        def recording_loadtxt(*args, **kwargs):
            rows = real_loadtxt(*args, **kwargs)
            refs.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        return refs

    @pytest.mark.parametrize("labels", [["a", "b"], [" a", "b"]], ids=["ascii", "padded"])
    def test_tscore_file(self, tmp_path, monkeypatch, parses, labels):
        alive, real_from_scores = [], cli.TScoreSample.from_scores

        def checking_from_scores(t, study_id=None):
            alive.extend(ref() is not None for ref in parses)
            return real_from_scores(t, study_id)

        monkeypatch.setattr(cli.TScoreSample, "from_scores", checking_from_scores)
        p = tmp_path / "d.csv"
        p.write_text("t,study_id\n" + "".join(f"{k},{lab}\n" for k, lab in enumerate(labels)))
        sample, _ = read_tscore_file(str(p))
        assert alive == [False]
        assert sample.study_id.tolist() == ["a", "b"]
        for column in (sample.t, sample.study_id):
            assert (column if column.base is None else column.base).flags.owndata

    def test_grouped_file(self, tmp_path, monkeypatch, parses):
        alive, real_factorise = [], inference._factorise

        def checking_factorise(labels, **kwargs):
            alive.extend(ref() is not None for ref in parses)
            return real_factorise(labels, **kwargs)

        monkeypatch.setattr(inference, "_factorise", checking_factorise)
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight,lab_id\nb,1,1,1,x\na,2,1,1,y\nb,3,1,1,x\n")
        groups = read_grouped_file(str(p))
        assert alive == [False]
        np.testing.assert_array_equal(groups.effects, [1.0, 2.0, 3.0])
        assert groups.labels.tolist() == ["x", "y", "x"]


class TestCellWidths:
    """Label fields are as wide as their own column's widest cell."""

    ROWS = [("t", "study_id", "title")] + [
        (f"{k / 4:g}", f"s{k % 3}" + "x" * (k == 5), "T" * (2000 if k == 2 else k))
        for k in range(8)]

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    def test_line_ends_and_a_wide_unused_column(self, tmp_path, loadtxt_dtypes, end):
        p = tmp_path / "d.csv"
        p.write_bytes("".join(",".join(row) + end for row in self.ROWS).encode())
        data = cli._read_head(str(p))[0]
        widest = max(len(row[1]) for row in self.ROWS[1:])
        assert cli._cell_widths(data, 1, ",", (1,)) == [widest]
        assert cli._cell_widths(data, 1, ",", (2, 0, 3)) == [2000, 4, 0]
        sample, _ = read_tscore_file(str(p))
        plain = tmp_path / "plain.csv"
        plain.write_text("".join(f"{t},{sid}\n" for t, sid, _ in self.ROWS))
        reference, _ = read_tscore_file(str(plain))
        np.testing.assert_array_equal(sample.t, reference.t)
        assert sample.study_id.tolist() == reference.study_id.tolist()
        np.testing.assert_array_equal(sample._cluster_codes, reference._cluster_codes)
        assert all(w <= widest + 1 for w in label_widths(loadtxt_dtypes))

    @pytest.mark.parametrize("data, skip, widths", [
        # Skipped lines (and a byte-order mark) do not count.
        (b"\xef\xbb\xbfheader-cell,x\n1,ab\n", 1, [1, 2]),
        (b"\xef\xbb\xbf1,ab\n22,c", 0, [2, 2]),
        # Blank lines, ragged lines and lines too short for a column.
        (b"t\n\n1,abc,zzzzzzzz\n\n2,,\n3\n", 1, [1, 3]),
        # Mixed line ends; a lone \r before \n-ended lines.
        (b"1,a\r22,bbb\r\n3,cc\n", 0, [2, 3]),
        # Widths count UTF-8 bytes, at least the characters.
        ("1,日本\n2,é\n".encode(), 0, [1, 6]),
    ])
    def test_blocks_and_odd_lines(self, tmp_path, monkeypatch, data, skip, widths):
        # The widths are of the bytes as _read_head returns them.  Blocks end
        # at the first line end past _SCAN_BLOCK bytes, so tiny blocks hold
        # one or two lines each.
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        data = cli._read_head(str(p))[0]
        for block in (1, 5, 1 << 16):
            monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
            assert cli._cell_widths(data, skip, ",", (0, 1)) == widths

    def test_tab_delimiter(self):
        assert cli._cell_widths(b"\tab\tc\n1\t\t\n", 0, "\t", (0, 1, 2)) == [1, 2, 1]


def _lf_scores() -> str:
    """400 t-scores in 40 studies, one LF-ended line each under a header."""
    rng = np.random.default_rng(7)
    t = rng.normal(np.where(rng.random(400) < 0.5, 0.0, 2.8), 1.4)
    return "t,study_id\n" + "".join(f"{x:.4f},s{k % 40}\n" for k, x in enumerate(t))


def _with_line(text: str, line: str) -> str:
    """The text with one more line after its 200th."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:200] + [line + "\n"] + lines[200:])


#: One file in eight spellings: each a function of its LF text.
SPELLINGS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "bom": lambda text: "\ufeff" + text,
    "bom, crlf, whitespace-only line":
        lambda text: "\ufeff" + _with_line(text, " \t").replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
    "trailing whitespace-only line": lambda text: text + " \t",
    "cr, U+3000 line": lambda text: _with_line(text, "\u3000").replace("\n", "\r"),
}


class TestOneLineConvention:
    """The byte-order mark and the line ends are folded once, when the bytes
    are read: every spelling of one file gives its LF report, from the file
    and from a pipe, and the manifest hashes the bytes as read."""

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("name", list(SPELLINGS))
    def test_every_spelling_is_the_lf_file(self, tmp_path, capsys, name):
        text = _lf_scores()
        lf = tmp_path / "lf.csv"
        lf.write_bytes(text.encode())
        assert main(["estimate", str(lf), "--out", "json"]) == 0
        want = json.loads(capsys.readouterr().out)["report"]
        data = SPELLINGS[name](text).encode()
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        folded = cli._read_head(str(p))[0]
        assert b"\r" not in folded and not folded.startswith(b"\xef\xbb\xbf")
        assert folded.endswith(b"\n")
        assert main(["estimate", str(p), "--out", "json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        r, w = os.pipe()
        try:
            os.write(w, data)  # a few kilobytes: within the pipe's buffer
            os.close(w)
            assert main(["estimate", f"/dev/fd/{r}", "--out", "json"]) == 0
        finally:
            os.close(r)
        from_pipe = json.loads(capsys.readouterr().out)
        assert from_file["report"] == from_pipe["report"] == want
        assert (from_file["manifest"]["dataset"]["sha256"]
                == from_pipe["manifest"]["dataset"]["sha256"]
                == hashlib.sha256(data).hexdigest())

    @pytest.mark.parametrize("data, message", [
        (b"t,study_id\r\n1.5,a\r\n\xff2,b\r\n", "line 3 has the undecodable byte 0xff"),
        (b"t,study_id\r1.5,a\r\r2,\xc3b\r", "line 4 has the undecodable byte 0xc3"),
    ], ids=["crlf", "cr"])
    def test_undecodable_byte_names_the_physical_line(self, tmp_path, capsys, data, message):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        assert main(["estimate", str(p)]) == 3
        assert capsys.readouterr().err.strip() == f"error: {p} is not valid UTF-8: {message}"


class TestEstimateCommand:
    def test_exit_zero_and_warning_without_study_id(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv", with_sid=False)
        assert main(["estimate", p]) == 0
        captured = capsys.readouterr()
        assert "no study_id column" in captured.err
        assert "delta-hat" in captured.out

    def test_no_warning_with_study_id(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["estimate", p]) == 0
        assert "study_id" not in capsys.readouterr().err

    def test_json_payload_and_text_agree(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out_json = tmp_path / "r.json"
        out_text = tmp_path / "r.txt"
        assert main(["estimate", p, "--out", "json", "--output", str(out_json)]) == 0
        assert main(["estimate", p, "--output", str(out_text)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["report"]["theta"] == 1.0
        assert render_estimate_text(payload["report"]) == \
            out_text.read_text().rstrip("\n")

    def test_manifest_sidecar(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out = tmp_path / "r.txt"
        assert main(["estimate", p, "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["dataset"]["path"] == p
        assert len(manifest["dataset"]["sha256"]) == 64
        assert set(manifest["versions"]) == {"powergain", "numpy", "python"}
        assert manifest["config"]["c2"] == 2.0

    def test_c2_one_gives_exact_zero(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out = tmp_path / "r.json"
        assert main(["estimate", p, "--c2", "1", "--out", "json",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["delta"] == 0.0

    def test_no_pb_same_point_estimate_when_theta_is_one(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["estimate", p, "--out", "json", "--output", str(out_a)]) == 0
        assert main(["estimate", p, "--no-pb", "--out", "json",
                     "--output", str(out_b)]) == 0
        rep_a = json.loads(out_a.read_text())["report"]
        rep_b = json.loads(out_b.read_text())["report"]
        assert rep_a["delta"] == rep_b["delta"]
        assert rep_b["theta"] is None

    def test_csv_output_parses(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["estimate", p, "--out", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 and "delta" in rows[0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_text_rendered_only_for_text(self, tmp_path, monkeypatch, fmt):
        def no_render(report):
            raise AssertionError("rendered text that is not written")

        monkeypatch.setattr(cli, "render_estimate_text", no_render)
        assert main(["estimate", write_balanced(tmp_path / "d.csv"), "--out", fmt]) == 0

    def test_two_flags_split_in_csv(self, tmp_path, capsys):
        # One study and no score just below the cutoff: both flags, which
        # the CSV cell joins with `;`, so no flag may hold one.
        rng = np.random.default_rng(42)
        t = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(2.0, 2.6, 200)])
        p = tmp_path / "d.csv"
        p.write_text("t,study_id\n" + "".join(f"{x:.6f},s1\n" for x in t))
        assert main(["estimate", str(p), "--out", "json"]) == 0
        flags = json.loads(capsys.readouterr().out)["report"]["flags"]
        assert [f.split(":")[0] for f in flags] == ["theta-zero", "one-cluster"]
        assert not any(";" in f for f in flags)
        assert main(["estimate", str(p), "--out", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["flags"].split(";") == flags

    def test_labels_line_up_at_a_fractional_level(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["estimate", p, "--alpha", "0.005"]) == 0
        assert main(quick_argv(tmp_path, "conditional")) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  ")]
        assert "  99.5% CI " in lines[3]
        assert {ln.index(" : ") for ln in lines} == {len("  sample-size multiplier c^2")}

    def test_one_report_from_every_label_sort(self, tmp_path, monkeypatch, capsys):
        # 200 study ids spelled four ways, one per path of inference._factorise,
        # each list in the sorted order of the s{k} ids: the same clusters,
        # so the same report.  A _pair_sort is recorded with the bit length
        # of its largest key: 28 for four raw 7-bit code points ("s99"), 46
        # for twelve digits packed as 4-bit offsets (a leading "1" takes 2).
        raw = sorted(f"s{k}" for k in range(200))
        spellings = {
            ("pair", 28): raw,
            ("pair", 46): [f"{10**11 + j}" for j in range(200)],
            "argsort": [f"{10**15 + j}" for j in range(200)],
            "U": [f"study_{j:06d}" for j in range(200)],
        }
        sorts = []
        real_unique, real_argsort, real_pair_sort = np.unique, np.argsort, inference._pair_sort

        def recording_pair_sort(high, *args):
            sorts.append(("pair", int(high.max()).bit_length()))
            return real_pair_sort(high, *args)

        def recording_argsort(a, *args, **kwargs):
            sorts.append("argsort" if a.dtype == np.uint64 else a.dtype.kind)
            return real_argsort(a, *args, **kwargs)

        def recording_unique(ar, **kwargs):
            sorts.append(np.asarray(ar).dtype.kind)
            return real_unique(ar, **kwargs)

        monkeypatch.setattr(inference, "_pair_sort", recording_pair_sort)
        monkeypatch.setattr(np, "argsort", recording_argsort)
        monkeypatch.setattr(np, "unique", recording_unique)
        rng = np.random.default_rng(0)
        t = rng.normal(np.where(rng.random(2000) < 0.5, 0.0, 2.8), 1.4)
        reports = []
        for path, ids in spellings.items():
            p = tmp_path / "d.csv"
            p.write_text("t,study_id\n" + "".join(
                f"{x:.4f},{ids[i % 200]}\n" for i, x in enumerate(t)))
            sorts.clear()
            assert main(["estimate", str(p), "--out", "json"]) == 0
            assert sorts == [path]
            reports.append(json.loads(capsys.readouterr().out)["report"])
        assert reports[0]["n_clusters"] == 200
        assert all(report == reports[0] for report in reports[1:])

    def test_caliper_failure_exits_four(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("t\n" + "\n".join(str(0.1 * k) for k in range(1, 9)) + "\n")
        assert main(["estimate", str(p)]) == 4
        assert "caliper" in capsys.readouterr().err.lower()

    def test_parse_error_exits_three(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("hello,world\nfoo,bar\n")
        assert main(["estimate", str(p)]) == 3
        assert "error:" in capsys.readouterr().err


class TestStrictJson:
    def test_unavailable_se_is_null(self, tmp_path):
        # No score lies just below the cutoff, so theta-hat = 0 and the
        # standard error is unavailable.
        rng = np.random.default_rng(42)
        t = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(2.0, 2.6, 200)])
        p = tmp_path / "d.csv"
        p.write_text("t\n" + "".join(f"{x:.6f}\n" for x in t))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for command, key in (("estimate", "report"), ("curve", "points")):
            out = tmp_path / f"{command}.json"
            assert main([command, str(p), "--out", "json", "--output", str(out)]) == 0
            payload = json.loads(out.read_text(), parse_constant=reject)
            json.loads((tmp_path / f"{command}.json.manifest.json").read_text(),
                       parse_constant=reject)
            rows = payload[key] if command == "curve" else [payload[key]]
            for row in rows:
                assert row["se"] is None and row["ci_low"] is None
                assert row["ci_high"] is None and math.isfinite(row["delta"])


class TestOneCluster:
    """Every score in one study: the cluster-robust SE is degenerate (its one
    centered block sum is zero), so it is reported as unavailable."""

    @pytest.fixture
    def one_study(self, tmp_path):
        rng = np.random.default_rng(17)
        t = rng.normal(np.where(rng.random(6000) < 0.5, 0.0, 2.8), 1.4)
        p = tmp_path / "d.csv"
        p.write_text("t,study_id\n" + "".join(f"{x:.4f},s1\n" for x in t))
        return p

    def test_estimate_flags_and_drops_the_se(self, one_study, tmp_path, capsys):
        for extra in ([], ["--no-pb"]):
            assert main(["estimate", str(one_study), *extra]) == 0
            text = capsys.readouterr().out
            assert "std error                  : nan" in text
            assert "CI                     : [nan, nan]" in text
            assert "note: one-cluster" in text and "clusters                   : 1" in text
            out = tmp_path / "r.json"
            assert main(["estimate", str(one_study), *extra, "--out", "json",
                         "--output", str(out)]) == 0
            report = json.loads(out.read_text())["report"]
            assert report["se"] is None and report["ci_low"] is None
            assert report["ci_high"] is None and math.isfinite(report["delta"])
            assert [f.split(":")[0] for f in report["flags"]] == ["one-cluster"]
        assert main(["estimate", str(one_study), "--out", "csv"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["se"] == row["ci_low"] == row["ci_high"] == "nan"
        assert row["flags"].startswith("one-cluster")

    def test_curve_keeps_the_exact_anchor(self, one_study, tmp_path):
        out = tmp_path / "c.json"
        assert main(["curve", str(one_study), "--grid", "2,4", "--out", "json",
                     "--output", str(out)]) == 0
        anchor, *points = json.loads(out.read_text())["points"]
        assert anchor == {"c2": 1.0, "delta": 0.0, "se": 0.0, "ci_low": 0.0,
                          "ci_high": 0.0, "flags": []}
        for pt in points:
            assert pt["se"] is None and pt["ci_low"] is None and pt["ci_high"] is None
            assert math.isfinite(pt["delta"])

    def test_two_clusters_keep_the_se(self, one_study, tmp_path):
        lines = one_study.read_text().splitlines(keepends=True)
        one_study.write_text("".join(lines[:-1]) + lines[-1].replace("s1", "s2"))
        out = tmp_path / "r.json"
        assert main(["estimate", str(one_study), "--out", "json",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["se"] > 0 and report["flags"] == []


class TestCurveCommand:
    def test_anchor_row_and_scalar_agreement(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out_curve, out_est = tmp_path / "c.json", tmp_path / "e.json"
        assert main(["curve", p, "--grid", "2", "--out", "json",
                     "--output", str(out_curve)]) == 0
        assert main(["estimate", p, "--c2", "2", "--out", "json",
                     "--output", str(out_est)]) == 0
        points = json.loads(out_curve.read_text())["points"]
        report = json.loads(out_est.read_text())["report"]
        assert [pt["c2"] for pt in points] == [1.0, 2.0]
        assert points[0]["delta"] == 0.0
        assert points[1]["delta"] == report["delta"]
        assert points[1]["se"] == report["se"]

    def test_grid_below_one_exits_two(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["curve", p, "--grid", "0.5,2"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ("2,x", "--grid must be comma-separated numbers, got '2,x'"),
        (",", "--grid is empty"),
    ], ids=["not a number", "empty"])
    def test_unreadable_grid_exits_two(self, tmp_path, capsys, grid, message):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["curve", p, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_csv_columns(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["curve", p, "--grid", "4", "--out", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["c2", "delta", "se", "ci_low", "ci_high", "flags"]
        assert len(rows) == 3  # header + anchor + c2=4

    def test_takes_no_c2(self, tmp_path, capsys):
        # --grid sets every c^2, so curve has no --c2 of its own.
        p = write_balanced(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as exc:
            main(["curve", p, "--c2", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --c2 2" in captured.err
        assert main(["curve", p, "--out", "json"]) == 0
        assert "c2" not in json.loads(capsys.readouterr().out)["manifest"]["config"]
        for command, listed in (("curve", False), ("estimate", True), ("simulate", True)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert ("--c2" in capsys.readouterr().out) == listed


class TestCurveNotes:
    """Each curve row carries its point's flags, in every output format."""

    @pytest.fixture(params=["one-cluster", "theta-zero", "none"])
    def flagged(self, request, tmp_path):
        """A dataset, its flag kind, and the c2 values whose rows carry it."""
        rng = np.random.default_rng(17)
        p = tmp_path / "d.csv"
        if request.param == "one-cluster":
            t = rng.normal(np.where(rng.random(6000) < 0.5, 0.0, 2.8), 1.4)
            p.write_text("t,study_id\n" + "".join(f"{x:.4f},s1\n" for x in t))
            return str(p), request.param, [2.0, 4.0]
        if request.param == "theta-zero":
            # No score just below the cutoff: every point, the anchor too.
            t = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(2.0, 2.6, 200)])
            p.write_text("t\n" + "".join(f"{x:.6f}\n" for x in t))
            return str(p), request.param, [1.0, 2.0, 4.0]
        return write_balanced(p), request.param, []

    def test_json_points_carry_flags(self, flagged, tmp_path):
        p, kind, c2s = flagged
        out = tmp_path / "c.json"
        assert main(["curve", p, "--grid", "2,4", "--out", "json",
                     "--output", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert [pt["c2"] for pt in points] == [1.0, 2.0, 4.0]
        for pt in points:
            assert [f.split(":")[0] for f in pt["flags"]] == ([kind] if pt["c2"] in c2s else [])

    def test_csv_flags_column(self, flagged, capsys):
        p, kind, c2s = flagged
        assert main(["curve", p, "--grid", "2,4", "--out", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        for row in rows:
            want = kind if float(row["c2"]) in c2s else ""
            assert row["flags"].split(":")[0] == want

    def test_text_notes_under_the_table(self, flagged, capsys):
        p, kind, c2s = flagged
        assert main(["curve", p, "--grid", "2,4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["c2", "delta", "se", "ci_low", "ci_high"]
        assert [ln.split()[0] for ln in lines[1:4]] == ["1", "2", "4"]
        assert [ln.split(": ")[:2] for ln in lines[4:]] == [
            ["note", f"c2={c2:g}"] for c2 in c2s]
        assert all(ln.split(": ")[2] == kind for ln in lines[4:])


def _printed_limits(command, fmt, out):
    """The interval limits of each printed row, and everything else printed."""
    notes = []
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["points"] if command == "curve" else [payload["report"]]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
    elif command == "curve":
        lines = out.splitlines()
        table = [ln.split() for ln in lines[1:] if not ln.startswith("note:")]
        rows = [dict(zip(lines[0].split(), cells)) for cells in table]
        notes = [ln for ln in lines if ln.startswith("note:")]
    else:
        lines = out.splitlines()
        ci = next(k for k, ln in enumerate(lines) if "% CI" in ln)
        low, high = lines[ci].split(": ")[1].strip("[]").split(", ")
        rows = [{"ci_low": low, "ci_high": high, "lines": lines[:ci] + lines[ci + 1:]}]
    limits = [(r.pop("ci_low"), r.pop("ci_high")) for r in rows]
    return limits, rows + notes


class TestClampCiAtZero:
    """`--clamp-ci-at-zero` prints each limit as max(limit, 0), in every
    format, and changes nothing else; an unavailable limit stays so."""

    @pytest.fixture(params=["nulls", "theta-zero"])
    def dataset(self, request, tmp_path):
        rng = np.random.default_rng(11)
        p = tmp_path / "d.csv"
        if request.param == "nulls":
            # True effects all zero: from c2 = 4 on the intervals reach below 0.
            t = rng.normal(0.0, 1.0, 3000)
            p.write_text("t,study_id\n" + "".join(
                f"{x:.2f},s{k % 500}\n" for k, x in enumerate(t)))
        else:
            # No score just below the cutoff: no interval at any point.
            t = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(2.0, 2.6, 200)])
            p.write_text("t\n" + "".join(f"{x:.6f}\n" for x in t))
        return str(p), request.param

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv", [["estimate", "--c2", "4"],
                                      ["curve", "--grid", "2,4,8,16"]],
                             ids=["estimate", "curve"])
    def test_clips_only_the_limits(self, dataset, capsys, argv, fmt):
        path, kind = dataset
        clip = {"json": lambda v: None if v is None else max(v, 0.0),
                "csv": lambda s: repr(max(float(s), 0.0)),
                "text": lambda s: f"{max(float(s), 0.0):.6f}"}[fmt]
        printed = []
        for flags in ([], ["--clamp-ci-at-zero"]):
            assert main([argv[0], path, *argv[1:], "--out", fmt, *flags]) == 0
            printed.append(_printed_limits(argv[0], fmt, capsys.readouterr().out))
        (plain, rest), (clamped, clamped_rest) = printed
        assert clamped_rest == rest
        assert clamped == [(clip(low), clip(high)) for low, high in plain]
        lows = [low for low, _ in plain]
        if kind == "nulls":
            assert any(clip(low) != low for low in lows)
        else:
            assert all(low in (None, "nan") for low in lows)


class TestTooSmallToTune:
    """The error names the count the user controls, not the tuning field."""

    @pytest.mark.parametrize("text, argv, got", [
        ("2.5\n", ["estimate"], 1),
        ("t,study_id\n1.5,a\n-2,a\n3,a\n", ["estimate", "--scale-by", "studies"], 1),
        (None, ["simulate", "--dgp", "truenull", "--n", "1", "--reps", "2"], 1),
    ], ids=["scores", "studies", "simulate"])
    def test_exits_two(self, tmp_path, capsys, text, argv, got):
        if text is not None:
            p = tmp_path / "d.csv"
            p.write_text(text)
            argv = argv[:1] + [str(p)] + argv[1:]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "tuning needs at least 2 t-scores, studies (--scale-by studies) "
            f"or retained scores per replication (simulate --n); got {got}\n")


class TestSimulateCommand:
    def test_deterministic_under_seed(self, tmp_path, capsys):
        argv = ["simulate", "--dgp", "truenull", "--n", "40", "--reps", "2",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0].startswith("n\tdgp\tunc_power")

    @pytest.mark.parametrize("const_d", ["0.05", "1e-300"])
    def test_zero_kernel_replications_fail(self, tmp_path, const_d):
        # sigma_T^2 = 1e-12: at D = 0.05 (J = 0) the kernel is 0 at every
        # score; at D = 1e-300 (J = 50) a_j He_j overflows and it is NaN.
        out = tmp_path / "s.json"
        assert main(["simulate", "--dgp", "bimodal", "--n", "500", "--reps", "4",
                     "--sigma-t2", "1e-12", "--const-D", const_d,
                     "--out", "json", "--output", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["failures"] == row["reps"] == 4
        assert row["mean_delta"] is None and row["coverage"] is None

    @pytest.mark.parametrize("reps", [1, 2])
    def test_sd_delta_needs_two_good_replications(self, tmp_path, capsys, reps):
        argv = ["simulate", "--dgp", "bimodal", "--n", "500", "--reps", str(reps),
                "--seed", "3"]
        out = tmp_path / "s.json"
        assert main(argv + ["--out", "json", "--output", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["failures"] == 0
        assert main(argv) == 0
        sd_text = capsys.readouterr().out.splitlines()[1].split("\t")[5]
        if reps == 1:
            assert row["sd_delta"] is None and sd_text == "nan"
        else:
            assert math.isfinite(row["sd_delta"]) and sd_text == f"{row['sd_delta']:.6f}"

    def test_table_conflicts_with_noise(self, capsys):
        assert main(["simulate", "--table", "1", "--noise", "t30",
                     "--reps", "1"]) == 2
        assert "--table" in capsys.readouterr().err

    def test_json_rows(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["simulate", "--dgp", "truenull", "--n", "40", "--reps",
                     "2", "--out", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["dgp"] == "truenull" and row["noise"] == "normal"
        assert row["true_delta"] == 0.0
        assert set(payload["manifest"]["versions"]) == {"powergain", "numpy",
                                                        "python"}


def _cpus(monkeypatch, count):
    """Make ``count`` CPUs usable, as ``os.sched_getaffinity`` reports them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _float_bits(x):
    """x with every float, at any depth, replaced by its exact hex form."""
    if isinstance(x, dict):
        return {k: _float_bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_float_bits(v) for v in x]
    return x.hex() if isinstance(x, float) else x


def _cell_pid(*cell):
    return os.getpid()


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="cells run in one process without fork and CPU affinity")
class TestSimulateCells:
    """Cells run one process per usable CPU; the rows do not depend on the count."""

    RUNS = {"table1": ["--table", "1", "--reps", "5", "--seed", "11"],
            "lognormal": ["--noise", "lognormal", "--dgp", "bimodal", "--n", "60",
                          "--reps", "4", "--seed", "5"]}

    def output(self, monkeypatch, capsys, tmp_path, cpus, argv, out):
        _cpus(monkeypatch, cpus)
        path = tmp_path / f"{cpus}.json"
        extra = ["--out", out] + (["--output", str(path)] if out == "json" else [])
        assert main(["simulate", *argv, *extra]) == 0
        assert multiprocessing.active_children() == []
        if out == "json":
            return _float_bits(json.loads(path.read_text())["rows"])
        return capsys.readouterr().out

    @pytest.mark.parametrize("out", ["text", "csv", "json"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_rows_do_not_depend_on_the_cpu_count(self, monkeypatch, capsys, tmp_path,
                                                  run, out):
        one, two = (self.output(monkeypatch, capsys, tmp_path, cpus, self.RUNS[run], out)
                    for cpus in (1, 2))
        assert one == two
        assert one

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_cells_fork_only_with_more_than_one_cpu(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(simulate, "run_coverage", _cell_pid)
        spec, cfg = simulate.DgpSpec(), TuningConfig(c=math.sqrt(2.0))
        pids = list(simulate.run_cells([(spec, 50, 1, cfg, seed) for seed in range(4)]))
        assert len(pids) == 4
        assert (os.getpid() in pids) == (cpus == 1)
        assert multiprocessing.active_children() == []

    def test_cells_do_not_fork_while_another_thread_runs(self, monkeypatch):
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(simulate, "run_coverage", _cell_pid)
        spec, cfg = simulate.DgpSpec(), TuningConfig(c=math.sqrt(2.0))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            pids = list(simulate.run_cells([(spec, 50, 1, cfg, seed) for seed in range(4)]))
        finally:
            stop.set()
            thread.join(timeout=60)
        assert pids == [os.getpid()] * 4
        assert not thread.is_alive()

    def test_closing_early_ends_the_processes(self, monkeypatch):
        _cpus(monkeypatch, 2)
        spec, cfg = simulate.DgpSpec(), TuningConfig(c=math.sqrt(2.0))
        rows = simulate.run_cells([(spec, 50, 2, cfg, seed) for seed in range(6)])
        assert next(rows).seed == 0
        rows.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_cell_that_raises(self, monkeypatch, capsys, cpus):
        _cpus(monkeypatch, cpus)
        real = simulate.run_coverage

        def third_fails(spec, n, reps, cfg, seed):
            if seed == 2:
                raise ValueError("cell 2 failed")
            return real(spec, n, reps, cfg, seed)

        monkeypatch.setattr(simulate, "run_coverage", third_fails)
        assert main(["simulate", "--table", "1", "--reps", "2", "--seed", "0"]) == 2
        assert multiprocessing.active_children() == []
        out, err = capsys.readouterr()
        assert err == "error: cell 2 failed\n"
        assert [line.split("\t")[1] for line in out.splitlines()] == [
            "dgp", "truenull", "cauchy"]

    def test_negative_seed_exits_2_before_any_process(self, monkeypatch, capsys):
        _cpus(monkeypatch, 2)
        contexts, real = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: contexts.append(method) or real(method))
        assert main(["simulate", "--table", "1", "--reps", "2", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert contexts == [] and out == "" and err.startswith("error: ")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_flag_errors_exit_2_before_any_process(self, monkeypatch, capsys, cpus):
        _cpus(monkeypatch, cpus)
        assert main(["simulate", "--table", "1", "--reps", "0"]) == 2
        assert capsys.readouterr() == ("", "error: reps must be between 1 and 2**32, got 0\n")
        assert multiprocessing.active_children() == []


def _fresh_env(*first_on_path):
    """The environment with ``first_on_path`` and this checkout's src on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = (*first_on_path, src, os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _last_json_line_of_fresh_interpreter(script, *argv, first_on_path=()):
    """Run ``script`` in a fresh interpreter on this checkout; its last stdout line as JSON.

    A fresh interpreter, because this test session itself imports SciPy.
    """
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=_fresh_env(*first_on_path),
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulate_loads_no_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from powergain import cli\n"
        "codes = [cli.main(['simulate', '--table', '2', '--reps', '3', '--seed', '1',\n"
        "                   '--output', sys.argv[1]]),\n"
        "         cli.main(['simulate', '--noise', 'lognormal', '--dgp', 'bimodal',\n"
        "                   '--n', '60', '--reps', '2', '--output', sys.argv[2]])]\n"
        "print(json.dumps([codes, [m for m in sys.modules\n"
        "                          if m == 'scipy' or m.startswith('scipy.')]]))\n")
    table2, lognormal = tmp_path / "table2.tsv", tmp_path / "lognormal.tsv"
    assert _last_json_line_of_fresh_interpreter(script, str(table2), str(lognormal)) \
        == [[0, 0], []]
    assert len(table2.read_text().splitlines()) == 1 + 7
    assert len(lognormal.read_text().splitlines()) == 1 + 1


def test_cli_loads_no_multiprocessing(tmp_path):
    # Nor does a run of one cell, which has no processes to start.
    script = (
        "import json, sys\n"
        "from powergain import cli\n"
        "steps = ['multiprocessing' in sys.modules]\n"
        "code = cli.main(['simulate', '--dgp', 'bimodal', '--n', '60', '--reps', '2',\n"
        "                 '--output', sys.argv[1]])\n"
        "steps.append('multiprocessing' in sys.modules)\n"
        "print(json.dumps([code, steps]))\n")
    assert _last_json_line_of_fresh_interpreter(script, str(tmp_path / "s.tsv")) \
        == [0, [False, False]]


def test_every_command_runs_with_scipy_blocked(tmp_path):
    stub = tmp_path / "stub" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("raise ImportError('scipy is blocked')\n")
    script = (
        "import json, sys\n"
        "try:\n"
        "    import scipy\n"
        "    blocked = False\n"
        "except ImportError:\n"
        "    blocked = True\n"
        "from powergain import cli\n"
        "data, grouped, out = sys.argv[1:]\n"
        "cell = ['--dgp', 'bimodal', '--n', '60', '--reps', '2', '--output', out]\n"
        "codes = [cli.main(['estimate', data, '--output', out]),\n"
        "         cli.main(['curve', data, '--output', out]),\n"
        "         cli.main(['conditional', grouped, '--se', 'worstcase', '--output', out])]\n"
        "codes += [cli.main(['simulate', '--noise', noise] + cell)\n"
        "          for noise in ('normal', 't30', 'lognormal')]\n"
        "print(json.dumps([blocked, codes]))\n")
    data = write_balanced(tmp_path / "d.csv")
    grouped = tmp_path / "g.csv"
    grouped.write_text("group_id,effect,std_error,weight,lab_id\n"
                       "g1,2.8016,1.0,1.0,L1\ng1,2.5,0.9,2.0,L2\ng2,0.4,0.5,1.0,L1\n")
    assert _last_json_line_of_fresh_interpreter(
        script, data, str(grouped), str(tmp_path / "out.txt"),
        first_on_path=(str(tmp_path / "stub"),)) == [True, [0] * 6]


def test_closed_pipe_exits_1_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "powergain.cli", "simulate", "--table", "1", "--reps", "20"],
        env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == 1
    assert lines[0].startswith("n\tdgp\t") and lines[1].startswith("50\ttruenull\t")
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    # The read end of the pipe is closed before the command writes its report.
    p = tmp_path / "d.csv"
    rng = np.random.default_rng(5)
    p.write_text("t,study_id\n" + "".join(
        f"{x:.2f},s{k}\n" for x, k in zip(rng.normal(1.0, 1.5, 10**4),
                                          rng.integers(0, 2000, 10**4))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "powergain.cli", "estimate", str(p)],
                              env=_fresh_env(), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_closed_pipe_ends_the_cells_processes():
    # Two usable CPUs, however many the host has: the cells run in forked
    # processes, and none outlives the closed pipe.
    script = (
        "import multiprocessing, os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from powergain import cli\n"
        "code = cli.main(['simulate', '--table', '1', '--reps', '20'])\n"
        "print('children', len(multiprocessing.active_children()), file=sys.stderr)\n"
        "sys.exit(code)\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=_fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == 1
    assert lines[0].startswith("n\tdgp\t") and lines[1].startswith("50\ttruenull\t")
    assert err == "children 0\n"


def test_estimate_and_curve_load_no_scipy(tmp_path):
    # Nor numpy.polynomial or numpy.random, which NumPy before 2.0 loads on
    # its own import, so only a load after `import numpy` counts.
    script = (
        "import json, sys\n"
        "import numpy\n"
        "numpy_loads = set(sys.modules)\n"
        "steps, random = [], []\n"
        "def loaded():\n"
        "    random.append('numpy.random' in set(sys.modules) - numpy_loads)\n"
        "    return [m for m in ('scipy', 'scipy.special', 'scipy.stats',\n"
        "                        'scipy.integrate') if m in sys.modules]\n"
        "import powergain\n"
        "steps.append(loaded())\n"
        "from powergain import cli\n"
        "steps.append(loaded())\n"
        "data, out = sys.argv[1], sys.argv[2]\n"
        "codes = [cli.main(['estimate', data, '--out', 'json', '--output', out]),\n"
        "         cli.main(['curve', data, '--out', 'json', '--output', out])]\n"
        "steps.append(loaded())\n"
        "polynomial = 'numpy.polynomial' in set(sys.modules) - numpy_loads\n"
        "codes.append(cli.main(['conditional', sys.argv[3], '--output', out]))\n"
        "steps.append(loaded())\n"
        "print(json.dumps([codes, steps, polynomial, random[:3]]))\n")
    data = write_balanced(tmp_path / "d.csv")
    grouped = tmp_path / "g.csv"
    grouped.write_text("group_id,effect,std_error,weight\nstudy,2.8016,1.0,1.0\n")
    codes, steps, polynomial, random = _last_json_line_of_fresh_interpreter(
        script, data, str(tmp_path / "r.json"), str(grouped))
    assert codes == [0, 0, 0]
    assert steps == [[], [], [], []]
    assert not polynomial
    assert random == [False, False, False]


class TestConditionalCommand:
    def test_benchmark_value(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight\nstudy,2.8016,1.0,1.0\n")
        out = tmp_path / "c.json"
        assert main(["conditional", str(p), "--out", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["report"]
        np.testing.assert_allclose(report["delta"], 0.178, atol=1e-3)
        assert set(payload["manifest"]["versions"]) == {"powergain", "numpy",
                                                        "python"}
        assert main(["conditional", str(p)]) == 0
        assert "0.177" in capsys.readouterr().out

    @pytest.mark.parametrize("row, message", [
        ("g2,1,0,1", "every std_error must be strictly positive"),
        ("g2,1,1,-1", "weights must be non-negative and not all zero"),
        ("g2,1,1,0", "weights must be non-negative and not all zero"),
    ], ids=["std_error zero", "negative weight", "all-zero group"])
    def test_invalid_members_exit_two(self, tmp_path, capsys, row, message):
        p = tmp_path / "g.csv"
        p.write_text(f"group_id,effect,std_error,weight\ng1,1,1,1\n{row}\ng3,1,1,1\n")
        assert main(["conditional", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("se", ["iid", "worstcase"])
    def test_reversed_rows_agree(self, tmp_path, se):
        # Group codes follow the sorted labels, not the file, so reversing
        # the rows changes only the order of the sums.
        rng = np.random.default_rng(1)
        rows = [f"g{i % 50},{rng.normal(0.25, 0.3):.4f},{rng.uniform(0.05, 0.4):.4f},"
                f"{rng.integers(20, 500)},lab{rng.integers(0, 10)}\n" for i in range(400)]
        reports = []
        for name, body in (("forward", rows), ("reversed", rows[::-1])):
            p = tmp_path / f"{name}.csv"
            p.write_text("group_id,effect,std_error,weight,lab_id\n" + "".join(body))
            out = tmp_path / f"{name}.json"
            assert main(["conditional", str(p), "--se", se, "--out", "json",
                         "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text())["report"])
        forward, backward = reports
        assert ((forward["n_groups"], forward["n_members"])
                == (backward["n_groups"], backward["n_members"]) == (50, 400))
        np.testing.assert_allclose([backward["delta"], backward["se"]],
                                   [forward["delta"], forward["se"]], rtol=1e-14)

    @pytest.mark.parametrize("se", ["iid", "worstcase"])
    @pytest.mark.parametrize("effect, std_error", [("0.5", "1e-320"), ("1e308", "1")],
                             ids=["subnormal std_error", "c b_bar past the range"])
    def test_ratios_past_the_float_range(self, tmp_path, capsys, se, effect, std_error):
        # |b_bar| / s (or c |b_bar| / s at c^2 = 4) overflows to inf: the power
        # is 1 at both scales and its slope 0, so the gain and its SE are 0,
        # with no warning.
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight,lab_id\n" + "".join(
            f"g{i % 10},{effect},{std_error},10,lab{i % 4}\n" for i in range(40)))
        assert main(["conditional", str(p), "--se", se, "--c2", "4", "--out", "json"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)["report"]
        assert report["delta"] == 0.0 and report["se"] == 0.0
        assert captured.err == ""

    def test_worstcase_needs_lab_ids(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("g1,2.5,0.8,1.0\n")
        assert main(["conditional", str(p), "--se", "worstcase"]) == 4
        assert "lab" in capsys.readouterr().err.lower()


def quick_argv(tmp_path, command):
    """A small, fast run of one command."""
    if command == "conditional":
        data = tmp_path / "g.csv"
        data.write_text("group_id,effect,std_error,weight\nstudy,2.8016,1.0,1.0\n")
        return [command, str(data)]
    if command == "simulate":
        return [command, "--dgp", "truenull", "--n", "50", "--reps", "2"]
    return [command, write_balanced(tmp_path / "d.csv")]


class TestOutputFile:
    @pytest.mark.parametrize("command", ["estimate", "curve", "conditional"])
    def test_manifest_hashes_the_one_read(self, tmp_path, monkeypatch, command):
        argv = quick_argv(tmp_path, command)
        data = Path(argv[1])
        want = hashlib.sha256(data.read_bytes()).hexdigest()
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            reads.append(str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        out = tmp_path / "r.json"
        assert main(argv + ["--out", "json", "--output", str(out)]) == 0
        assert reads == [str(data)]
        assert json.loads(out.read_text())["manifest"]["dataset"]["sha256"] == want

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("command", ["estimate", "curve", "conditional"])
    def test_piped_dataset_is_the_file(self, tmp_path, capsys, command):
        # A pipe can be read only once: its bytes are parsed as read.
        argv = quick_argv(tmp_path, command) + ["--out", "json"]
        data = Path(argv[1]).read_bytes()
        assert main(argv) == 0
        from_file = json.loads(capsys.readouterr().out)
        r, w = os.pipe()
        try:
            os.write(w, data)  # a few hundred bytes: within the pipe's buffer
            os.close(w)
            assert main([argv[0], f"/dev/fd/{r}", *argv[2:]]) == 0
        finally:
            os.close(r)
        from_pipe = json.loads(capsys.readouterr().out)
        key = "points" if command == "curve" else "report"
        assert from_pipe[key] == from_file[key]
        assert (from_pipe["manifest"]["dataset"]["sha256"]
                == from_file["manifest"]["dataset"]["sha256"]
                == hashlib.sha256(data).hexdigest())

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("command", ["estimate", "curve", "simulate", "conditional"])
    def test_same_as_stdout(self, tmp_path, capsys, command, fmt):
        argv = quick_argv(tmp_path, command) + ["--out", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "r.out"
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text()
        sidecar = json.loads((tmp_path / "r.out.manifest.json").read_text())
        if fmt == "json":
            printed, written = json.loads(printed), json.loads(written)
            assert written["manifest"] == sidecar
            # Only the run's time and the echoed --output may differ.
            for payload in (printed, written):
                payload["manifest"].pop("timestamp")
                payload["manifest"]["config"].pop("output")
        assert written == printed
        assert sidecar["command"] == command

    @pytest.mark.parametrize("target", ["missing directory", "directory", "sidecar directory"])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_unwritable_path_is_exit_two(self, tmp_path, capsys, command, target):
        path = {"missing directory": tmp_path / "missing" / "r.json",
                "directory": tmp_path,
                "sidecar directory": tmp_path / "r.json"}[target]
        if target == "sidecar directory":
            (tmp_path / "r.json.manifest.json").mkdir()
        argv = quick_argv(tmp_path, command) + ["--out", "json", "--output", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --output {path}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing directory", "directory",
                                        "sidecar directory", "file as directory"])
    def test_unwritable_path_fails_before_the_run(self, tmp_path, capsys, monkeypatch, target):
        path = {"missing directory": tmp_path / "missing" / "r.tsv",
                "directory": tmp_path,
                "sidecar directory": tmp_path / "r.tsv",
                "file as directory": tmp_path / "f" / "r.tsv"}[target]
        if target == "sidecar directory":
            (tmp_path / "r.tsv.manifest.json").mkdir()
        if target == "file as directory":
            (tmp_path / "f").write_text("")
        argv = quick_argv(tmp_path, "simulate") + ["--out", "csv", "--output", str(path)]
        # The message is the one the write itself gives.
        monkeypatch.setattr(cli, "_check_output", lambda path: None)
        assert main(argv) == 2
        at_write = capsys.readouterr()
        monkeypatch.undo()

        def no_run(*args, **kwargs):
            raise AssertionError("the cells ran before --output was checked")

        monkeypatch.setattr(cli, "run_cells", no_run)
        assert main(argv) == 2
        assert capsys.readouterr() == at_write


#: One non-finite value per tuning flag, and a phrase of its error message.
INFINITE_FLAGS = [
    (("estimate", "--c2", "inf"), "counterfactual scale c must be finite"),
    (("estimate", "--cv", "inf"), "critical value must be finite"),
    (("estimate", "--sigma-t2", "inf"), "sigmaT2 must be finite"),
    (("estimate", "--const-C", "inf"), "C and D must be finite"),
    (("estimate", "--const-D", "inf"), "C and D must be finite"),
    (("curve", "--grid", "2,inf"), "finite sample-size multiplier"),
    (("conditional", "--c2", "inf"), "counterfactual scale c must be finite"),
    (("conditional", "--cv", "inf"), "critical value must be finite"),
    (("simulate", "--c2", "inf"), "counterfactual scale c must be finite"),
    (("simulate", "--cv", "inf"), "cv must be finite"),
]


class TestParser:
    @pytest.mark.parametrize("flags", [
        ("estimate", "--c2", "nan"),
        ("estimate", "--cv", "nan"),
        ("estimate", "--const-C", "nan"),
        ("curve", "--grid", "nan"),
        ("curve", "--grid", "2,nan"),
        ("conditional", "--c2", "nan"),
        ("conditional", "--cv", "nan"),
        ("estimate", "--c2", "-1"),
        ("estimate", "--c2", "0.5"),
        ("simulate", "--c2", "-1"),
        ("conditional", "--c2", "-1"),
    ])
    def test_nan_flag_is_exit_two(self, tmp_path, capsys, flags):
        assert main(quick_argv(tmp_path, flags[0]) + list(flags[1:])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[-1] in captured.err
        if flags[1] == "--c2":
            assert "--c2" in captured.err

    @pytest.mark.parametrize("flags, message", INFINITE_FLAGS,
                             ids=[" ".join(f) for f, _ in INFINITE_FLAGS])
    def test_infinite_flag_is_exit_two(self, tmp_path, capsys, flags, message):
        assert main(quick_argv(tmp_path, flags[0]) + list(flags[1:])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "inf" in captured.err

    @pytest.mark.parametrize("command", ["estimate", "curve", "simulate"])
    @pytest.mark.parametrize("flag, value", [("--sigma-t2", "1e16"), ("--alpha", "1e-320")])
    def test_unestimable_tuning_is_exit_two(self, tmp_path, capsys, command, flag, value):
        # sigmaT2 / (1 + sigmaT2) or 1 - alpha/2 rounds to 1: finite, in
        # range, and still no estimate or interval.
        if command == "simulate":
            argv = [command, "--dgp", "truenull", "--n", "50", "--reps", "2"]
        else:
            argv = [command, write_balanced(tmp_path / "d.csv")]
        assert main([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    @pytest.mark.parametrize("command", ["estimate", "estimate --no-pb", "curve --no-pb",
                                         "simulate"])
    def test_caliper_width_underflow_is_exit_two(self, tmp_path, capsys, command):
        # C * n^(-1/3) rounds to 0: with or without the correction, the
        # caliper that counts the significant scores has no width.
        argv = quick_argv(tmp_path, command.split()[0]) + command.split()[1:]
        assert main([*argv, "--const-C", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --const-C 5e-324 rounds the caliper width to 0")

    @pytest.mark.parametrize("command", ["estimate", "curve"])
    @pytest.mark.parametrize("rounded", [True, False], ids=["rounded", "continuous"])
    def test_overflowing_kernel_is_exit_four(self, tmp_path, capsys, command, rounded):
        # sigma_T^2 = 1e-12 and D = 1e-300 make the tuning rule pick J = 50,
        # where the kernel overflows: no estimate, not a NaN with exit 0.
        rng = np.random.default_rng(5)
        t = rng.normal(np.where(rng.random(2000) < 0.5, 0.0, 2.8), 1.4)
        p = tmp_path / "d.csv"
        p.write_text("t,study_id\n" + "".join(
            f"{x:.2f},s{i % 200}\n" if rounded else f"{x!r},s{i % 200}\n"
            for i, x in enumerate(t.tolist())))
        assert (read_tscore_file(str(p))[0]._grid_step is None) != rounded
        assert main([command, str(p), "--sigma-t2", "1e-12", "--const-D", "1e-300"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--sigma-t2" in captured.err and "--const-D" in captured.err

    @pytest.mark.parametrize("command", ["estimate", "curve"])
    def test_underflowing_kernel_is_exit_four(self, tmp_path, capsys, command):
        # sigma_T^2 = 1e-12 keeps J = 0, and phi(t; sigma_T^2), so the
        # kernel, underflows to 0 wherever |t| > 4e-5: every score here.
        rng = np.random.default_rng(5)
        t = rng.normal(np.where(rng.random(20000) < 0.5, 0.0, 2.8), 1.4)
        assert np.abs(t).min() > 1e-4
        p = tmp_path / "d.csv"
        p.write_text("t\n" + "".join(f"{x!r}\n" for x in t.tolist()))
        assert main([command, str(p), "--sigma-t2", "1e-12"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: the spectral kernel is 0")
        assert "--sigma-t2" in captured.err and "--const-D" in captured.err

    def test_invalid_choice_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--table", "9"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_no_flag_carries_over(self, tmp_path):
        p = write_balanced(tmp_path / "d.csv")
        out = tmp_path / "r.json"

        def payload(*flags):
            assert main(["estimate", p, *flags, "--out", "json", "--output", str(out)]) == 0
            result = json.loads(out.read_text())
            del result["manifest"]["timestamp"]
            return result

        cli._parser.cache_clear()
        first = payload()
        assert payload("--no-pb", "--c2", "4") != first
        assert payload() == first

    @pytest.mark.parametrize("command", ["estimate", "curve", "simulate", "conditional", None])
    def test_help_and_bad_flag_twice(self, capsys, command):
        argv = [] if command is None else [command]
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith(f"usage: powergain {command or ''}".rstrip())
        if command is None:
            assert helps[0] == cli.build_parser().format_help()
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--no-such-flag"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("usage: powergain")
