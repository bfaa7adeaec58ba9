"""Tests for file ingestion, rendering, and the command-line entry point."""
import csv
import io
import json
import math

import numpy as np
import pytest

from powergain import cli
from powergain.cli import (
    DatasetError,
    main,
    read_grouped_file,
    read_tscore_file,
    render_estimate_text,
)

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


class TestReadGroupedFile:
    def test_header_any_order_with_labs(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("lab_id,weight,effect,group_id,std_error\n"
                     "L1,1.0,2.5,g1,0.8\n"
                     "L2,2.0,2.1,g1,0.9\n"
                     "L1,1.0,0.4,g2,1.1\n")
        groups = read_grouped_file(str(p))
        assert len(groups) == 2
        np.testing.assert_array_equal(groups[0].effects, [2.5, 2.1])
        np.testing.assert_array_equal(groups[0].weights, [1.0, 2.0])
        assert list(groups[0].labels) == ["L1", "L2"]

    def test_missing_columns_named(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect\ng1,2.5\n")
        with pytest.raises(DatasetError, match="std_error, weight"):
            read_grouped_file(str(p))

    def test_headerless_positional(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("g1,2.5,0.8,1.0\ng2,0.4,1.1,1.0\n")
        groups = read_grouped_file(str(p))
        assert len(groups) == 2 and groups[0].labels is None

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

    def test_first_appearance_order(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight\n"
                     "zeta,1.0,1.0,1.0\n"
                     "alpha,1.1,1.0,1.0\n"
                     "zeta,0.9,1.0,2.0\n")
        groups = read_grouped_file(str(p))
        assert groups[0].effects.size == 2 and groups[1].effects.size == 1


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
        assert set(manifest["versions"]) == {"powergain", "numpy", "scipy", "python"}
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

    def test_csv_columns(self, tmp_path, capsys):
        p = write_balanced(tmp_path / "d.csv")
        assert main(["curve", p, "--grid", "4", "--out", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["c2", "delta", "se", "ci_low", "ci_high"]
        assert len(rows) == 3  # header + anchor + c2=4


class TestSimulateCommand:
    def test_deterministic_under_seed(self, tmp_path, capsys):
        argv = ["simulate", "--dgp", "truenull", "--n", "40", "--reps", "2",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0].startswith("n\tdgp\tunc_power")

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


class TestConditionalCommand:
    def test_benchmark_value(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("group_id,effect,std_error,weight\nstudy,2.8016,1.0,1.0\n")
        out = tmp_path / "c.json"
        assert main(["conditional", str(p), "--out", "json",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        np.testing.assert_allclose(report["delta"], 0.178, atol=1e-3)
        assert main(["conditional", str(p)]) == 0
        assert "0.177" in capsys.readouterr().out

    def test_worstcase_needs_lab_ids(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("g1,2.5,0.8,1.0\n")
        assert main(["conditional", str(p), "--se", "worstcase"]) == 4
        assert "lab" in capsys.readouterr().err.lower()


class TestParser:
    @pytest.mark.parametrize("flags", [
        ("estimate", "--c2", "nan"),
        ("estimate", "--cv", "nan"),
        ("estimate", "--const-C", "nan"),
        ("curve", "--grid", "nan"),
        ("curve", "--grid", "2,nan"),
        ("conditional", "--c2", "nan"),
        ("conditional", "--cv", "nan"),
    ])
    def test_nan_flag_is_exit_two(self, tmp_path, capsys, flags):
        if flags[0] == "conditional":
            data = tmp_path / "g.csv"
            data.write_text("group_id,effect,std_error,weight\nstudy,2.8016,1.0,1.0\n")
        else:
            data = write_balanced(tmp_path / "d.csv")
        assert main([flags[0], str(data), *flags[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan" in captured.err

    def test_invalid_choice_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--table", "9"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
