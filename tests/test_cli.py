import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symbif import cli, continuation, potentials, spectral
from symbif.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_disk(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--domain", "ball", "--dim", "2", "--beta-cutoff", "10"
        )
        assert code == 0
        doc = json.loads(out)
        rows = {(r["l"], r["radial_index"]): r for r in doc["entries"]}
        assert abs(rows[(1, 1)]["beta"] - 3.390) < 1e-3
        assert rows[(1, 1)]["multiplicity"] == 2

    def test_sphere_count(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--domain", "sphere", "--dim", "3", "--count", "4")
        assert code == 0
        doc = json.loads(out)
        assert [r["beta"] for r in doc["entries"]] == [0.0, 2.0, 6.0, 12.0]

    def test_missing_options_is_config_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--domain", "sphere", "--dim", "3")
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--domain", "ball", "--dim", "2", "--count", "2", "--beta-cutoff", "10"],
            ["--domain", "sphere", "--dim", "3", "--count", "4", "--beta-cutoff", "10"],
            ["--domain", "ball", "--dim", "2", "--count", "2"],
        ],
        ids=["ball-both", "sphere-both", "ball-count"],
    )
    def test_count_and_cutoff_exclusive(self, capsys, argv):
        # --count lists sphere spectra only, and a cutoff given with it is
        # an error instead of a setting one of them silently drops
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_seed_echoed_and_pretty_printing(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--domain", "sphere", "--dim", "2", "--count", "3"
        )
        assert json.loads(out)["seed"] == 0
        code, pretty, _ = run(
            capsys,
            "spectrum",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--count",
            "3",
            "--json-pretty",
        )
        assert code == 0
        assert pretty.count("\n") > out.count("\n")
        assert json.loads(pretty) == json.loads(out)


class TestLevelsCommand:
    def test_pitchfork_levels(self, capsys):
        code, out, _ = run(
            capsys,
            "levels",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda_set"] == [1.0, 4.0, 9.0]
        assert [c["lambda0"] for c in doc["candidates"]] == [1.0, 4.0, 9.0]
        assert all(c["jump"] for c in doc["candidates"])
        assert all(c["guarantee"]["kind"] == "sphere-global" for c in doc["candidates"])

    def test_degenerate_reports_necessary_condition(self, capsys):
        code, out, _ = run(
            capsys,
            "levels",
            "--potential",
            "so2-ring-degenerate",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--beta-cutoff",
            "20",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda_set"] == []
        assert doc["candidates"] == []
        assert "no bifurcation" in doc["note"] or "no admissible levels" in doc["note"]

    def test_deterministic_output(self, capsys):
        argv = [
            "levels",
            "--potential",
            "so2-ring",
            "--domain",
            "sphere",
            "--dim",
            "3",
            "--beta-cutoff",
            "13",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestJumpCommand:
    def test_level_one(self, capsys):
        code, out, _ = run(
            capsys,
            "jump",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--lambda0",
            "1.0",
            "--epsilon",
            "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["candidate"]["jump"] is True
        assert doc["candidate"]["V"]["dim"] == 2

    def test_missing_lambda0(self, capsys):
        code, _, err = run(
            capsys, "jump", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_bad_lambda0_is_named_before_the_default_cutoff(self, capsys, value):
        # the default --beta-cutoff is derived from lambda0; the error names
        # lambda0, not the cutoff derived from it
        code, out, err = run(
            capsys, "jump", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2",
            f"--lambda0={value}",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith("lambda0 ")

    @pytest.mark.parametrize("lam0,beta", [("6", 6.0), ("6.666666666666667", 20.0)])
    def test_default_cutoff_scales_with_a(self, capsys, tmp_path, lam0, beta):
        # A = diag(1, 3) on S^2: the levels near 6 are 6 = 6 / 1 and
        # 20/3 = 20 / 3, so the default cutoff max(10, 2 |lambda0| max|alpha|)
        # must reach beta = 20 for the level 20/3 to be seen, both as the
        # neighbour that bounds the default epsilon and as a candidate
        pot = tmp_path / "double.cfg"
        pot.write_text(TestVerifyCommand.DOUBLE_RESONANCE)
        code, out, err = run(
            capsys, "jump", "--potential-file", str(pot), "--domain", "sphere", "--dim", "3",
            "--lambda0", lam0,
        )
        assert code == 0, err
        cand = json.loads(out)["candidate"]
        assert cand["epsilon"] == pytest.approx(1 / 3)
        assert [w["beta"] for w in cand["witnesses"]] == [beta]

    def test_deterministic(self, capsys):
        argv = [
            "jump",
            "--potential",
            "so2-ring",
            "--domain",
            "sphere",
            "--dim",
            "3",
            "--lambda0",
            "2.0",
            "--epsilon",
            "1.0",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestCheckCommand:
    def test_pitchfork(self, capsys):
        code, out, _ = run(capsys, "check", "--potential", "pitchfork-scalar")
        assert code == 0
        doc = json.loads(out)
        b6 = doc["assumptions"]["B6"]
        assert b6["status"] == "pass"
        assert all(rec["degree"] == -1 for rec in b6["degrees"].values())

    def test_potential_file(self, capsys, tmp_path):
        cfg = tmp_path / "ring.cfg"
        cfg.write_text(
            "[potential]\nname = user-ring\np = 2\naction = so2(1,2)\nu0 = 1, 0\n"
            "a = 1 0; 0 0\nf = lambda*(u1^2 + u2^2 - 1)^2 / 8\n"
        )
        code, out, _ = run(capsys, "check", "--potential-file", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["potential"] == "user-ring"
        assert doc["assumptions"]["B3"]["status"] == "pass"
        assert doc["assumptions"]["B4"]["status"] == "pass"

    def test_division_by_zero_in_potential_file(self, capsys, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text("[potential]\np = 1\nu0 = 0\na = 1\nf = lambda*u1^2/2 - u1^4/(2-2)\n")
        code, out, err = run(capsys, "check", "--potential-file", str(cfg))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "division by zero" in error["message"]


class TestVerifyCommand:
    def test_degenerate_is_consistent(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "so2-ring-degenerate",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--window",
            "0.1:20",
            "--steps",
            "60",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT"
        assert doc["summary"] == "no predicted levels; no detected branches"
        assert doc["predicted"] == [] and doc["detected"] == []

    def test_writes_branch_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--beta-cutoff",
            "2",
            "--window",
            "0.5:1.5",
            "--steps",
            "40",
            "--out",
            str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["verdict"] == "CONSISTENT"
        branch_csv = tmp_path / "report.json.branch-1.csv"
        assert branch_csv.exists()
        with open(branch_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "sup_norm", "residual_norm", "min_offsym_singular"]
        assert len(rows) > 2
        branch_json = json.loads((tmp_path / "report.json.branch-1.json").read_text())
        assert branch_json["origin"]["kind"] == "bifurcated"
        assert "coefficients" not in branch_json["points"][0]

    def test_verify_branch_returns_record_and_branch(self, monkeypatch):
        problem = continuation.build_problem(spectral.sphere(2), potentials.builtin("pitchfork-scalar"))
        rec, branch = cli._verify_branch(problem, 1.0, (0.5, 1.5))
        assert rec["captured"] and "branch" not in rec
        assert rec["points"] == len(branch.points) > 1

        def no_branch(problem, lam_star):
            raise continuation.NoBranchError("no branch captured")

        monkeypatch.setattr(continuation, "switch_branch", no_branch)
        rec, branch = cli._verify_branch(problem, 1.0, (0.5, 1.5))
        assert rec == {"captured": False, "error": "no branch captured"} and branch is None

    def test_branch_coefficients_flag(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "sphere",
            "--dim",
            "2",
            "--beta-cutoff",
            "2",
            "--window",
            "0.5:1.5",
            "--steps",
            "40",
            "--out",
            str(out_path),
            "--branch-coefficients",
        )
        assert code == 0
        branch_json = json.loads((tmp_path / "report.json.branch-1.json").read_text())
        assert "coefficients" in branch_json["points"][0]

    def test_ball_verify(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "ball",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
            "--window",
            "1:12",
            "--steps",
            "80",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT"
        assert len(doc["candidates"]) == 2
        for rec in doc["candidates"]:
            assert rec["branch"]["captured"]
            assert rec["heuristic"] is True
            assert rec["observed_alternative"] == "global-bifurcation-in-interval"
            assert rec["interval"][0] < rec["lambda0"] < rec["interval"][1]

    def test_ball_verify_radial_level_does_not_break_consistency(self, capsys):
        # a window covering the first radial level: detected there, outside
        # every candidate interval, and the verdict stays CONSISTENT because
        # the ball criterion has no exact-level necessary condition
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "ball",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
            "--window",
            "1:16",
            "--steps",
            "100",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT"
        outside = doc["detected_outside_candidates"]
        assert len(outside) == 1
        assert abs(outside[0] - 14.682) < 1e-3


    @pytest.mark.parametrize("window", ["20:30", "0.5:2", "0.5:6.25"])
    def test_ball_verify_judges_only_intervals_the_window_covers(self, capsys, window):
        # candidate intervals [1.695, 5.085] and [6.359, 12.298]: a window
        # that misses one in full or in part cannot fail it, and says so
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "ball",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
            "--window",
            window,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT"
        lo, hi = doc["window"]
        uncovered = [rec for rec in doc["candidates"] if not rec["detected_inside"]]
        assert uncovered
        for rec in uncovered:
            assert not lo <= rec["interval"][0] < rec["interval"][1] <= hi
            assert rec["observed_alternative"] == "undetermined"
            assert rec["window_covers_interval"] is False

    def test_ball_truncation_past_the_catalog_exits_2(self, capsys):
        # the disk's verify basis is the beta <= 60 catalog, 11 entries; a
        # larger truncation used to build those 11 and exit 0
        argv = ["verify", "--potential", "so2-ring", "--domain", "ball", "--dim", "2"]
        code, out, err = run(capsys, *argv, "--window", "0.5:6", "--truncation", "12")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (
            "truncation must be at most 11, the entries of the disk catalog beta <= 60, got 12"
        )

    # p = 2, A = diag(1, 3): on S^2 the levels in 0.5:7 are 2/3, 2, 4, 6 and
    # 20/3, and 4 = 12/3 and 20/3 need beta up to 20 = 7 * 3
    DOUBLE_RESONANCE = (
        "[potential]\nname = double-resonance\np = 2\naction = trivial\nu0 = 0, 0\n"
        "a = 1 0; 0 3\nf = lambda*(u1^2/2 + 3*u2^2/2) - u1^4/4 - u2^4/4\n"
    )

    @pytest.mark.parametrize(
        "cutoff,used,verdict",
        [(None, 21.0, "CONSISTENT"), ("25", 25.0, "CONSISTENT"),
         ("10", 10.0, "INCONSISTENT"), ("7", 7.0, "INCONSISTENT")],
    )
    def test_default_cutoff_covers_the_window(self, capsys, tmp_path, cutoff, used, verdict):
        # the default prediction cutoff is max(10, max(|lo|, |hi|) max|alpha|),
        # so every level in the window is predicted; a given cutoff short of
        # max(|lo|, |hi|) max|alpha| leaves levels 4 and 20/3 detected but
        # unpredicted, and the report says the cutoff does not cover the window
        pot = tmp_path / "double.cfg"
        pot.write_text(self.DOUBLE_RESONANCE)
        argv = ["verify", "--potential-file", str(pot), "--domain", "sphere", "--dim", "3",
                "--truncation", "8", "--window", "0.5:7"]
        if cutoff is not None:
            argv += ["--beta-cutoff", cutoff]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["beta_cutoff"] == used and doc["verdict"] == verdict
        if verdict == "CONSISTENT":
            assert "cutoff_covers_window" not in doc
            assert [rec["lambda0"] for rec in doc["levels"]] == pytest.approx([2 / 3, 2, 4, 6, 20 / 3])
            assert all(rec["branch"]["captured"] for rec in doc["levels"])
        else:
            assert doc["cutoff_covers_window"] is False
            assert doc["unmatched_detected"] == pytest.approx([4, 20 / 3], abs=1e-6)

    def test_ball_verify_fails_a_covered_interval_with_no_level(self, capsys, monkeypatch):
        monkeypatch.setattr(continuation, "detect_bifurcation", lambda *args, **kwargs: [])
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "ball",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
            "--window",
            "1:16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "INCONSISTENT"
        assert all("window_covers_interval" not in rec for rec in doc["candidates"])


class TestEulerCommand:
    def test_add(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps(
                {
                    "op": "add",
                    "e1": {"context": "G", "coefficients": {"G": 2, "e": -1}},
                    "e2": {"context": "G", "coefficients": {"e": 1}},
                }
            )
        )
        code, out, _ = run(capsys, "euler", "--input", str(op))
        assert code == 0
        assert json.loads(out)["result"]["coefficients"] == {"G": 2}

    def test_star_with_table(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        table = tmp_path / "table.json"
        op.write_text(
            json.dumps(
                {
                    "op": "star",
                    "e1": {"context": "Z2", "coefficients": {"e": 1, "G": 1}},
                    "e2": {"context": "Z2", "coefficients": {"e": 1}},
                }
            )
        )
        table.write_text(
            json.dumps(
                {"context": "Z2", "labels": ["G", "e"], "products": {"e|e": {"e": 2}}}
            )
        )
        code, out, _ = run(capsys, "euler", "--input", str(op), "--table", str(table))
        assert code == 0
        assert json.loads(out)["result"]["coefficients"] == {"e": 3}

    def test_star_missing_entry_is_computational_error(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps(
                {
                    "op": "star",
                    "e1": {"context": "Z2", "coefficients": {"e": 1}},
                    "e2": {"context": "Z2", "coefficients": {"e": 1}},
                }
            )
        )
        code, _, err = run(capsys, "euler", "--input", str(op))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "TableIncompleteError"

    def test_push_forward(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps(
                {
                    "op": "push_forward",
                    "element": {"context": "H", "coefficients": {"e": 2, "Z2": 1}},
                    "class_map": {"e": "e", "Z2": "Z2"},
                    "target_context": "G",
                    "admissible": True,
                }
            )
        )
        code, out, _ = run(capsys, "euler", "--input", str(op))
        assert code == 0
        assert json.loads(out)["result"]["coefficients"] == {"Z2": 1, "e": 2}

    def test_deg_minus_id_and_decision(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps({"op": "deg_minus_id", "blocks": [{"dimension": 3, "nontrivial": False}]})
        )
        code, out, _ = run(capsys, "euler", "--input", str(op))
        assert code == 0
        assert json.loads(out)["result"] == {"kind": "exact", "coefficients": {"G": -1}}
        op.write_text(
            json.dumps(
                {
                    "op": "product_decision",
                    "b_plus": -1,
                    "b_minus": -1,
                    "atom_side": "plus",
                    "degree": {"kind": "atom", "dimension": 2},
                }
            )
        )
        code, out, _ = run(capsys, "euler", "--input", str(op))
        assert code == 0
        assert json.loads(out)["result"]["jump"] is True


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[run]\ndomain = sphere\ndim = 2\npotential = pitchfork-scalar\nbeta-cutoff = 2\n"
        )
        code, out, _ = run(capsys, "levels", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["lambda_set"] == [1.0]
        code, out, _ = run(capsys, "levels", "--config", str(cfg), "--beta-cutoff", "10")
        assert code == 0
        assert json.loads(out)["lambda_set"] == [1.0, 4.0, 9.0]

    def test_bad_domain_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "levels", "--potential", "pitchfork-scalar", "--domain", "torus", "--dim", "2"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_unknown_potential(self, capsys):
        code, _, err = run(
            capsys, "levels", "--potential", "nope", "--domain", "sphere", "--dim", "2"
        )
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "levels", "--config", "/does/not/exist.cfg")
        assert code == 2

    def test_shared_config_for_levels_and_verify(self, capsys, tmp_path):
        # one run.cfg serves both commands: each reads its own keys and
        # ignores the rest, so verify predicts with the default epsilon
        common = "[run]\ndomain = sphere\ndim = 2\npotential = pitchfork-scalar\nbeta-cutoff = 2\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(common + "window = 0.5:1.5\ntruncation = 6\nepsilon = 0.25\nsteps = 40\n")
        bare = tmp_path / "bare.cfg"
        bare.write_text(common)
        code, out, _ = run(capsys, "levels", "--config", str(cfg))
        assert code == 0
        assert [c["epsilon"] for c in json.loads(out)["candidates"]] == [0.25]
        assert run(capsys, "levels", "--config", str(bare), "--epsilon", "0.25")[1] == out
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["verdict"] == "CONSISTENT"
        flags = ["--window", "0.5:1.5", "--truncation", "6", "--steps", "40"]
        assert run(capsys, "verify", "--config", str(bare), *flags)[1] == out

    def test_config_sets_euler_input(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps({"op": "deg_minus_id", "blocks": [{"dimension": 3, "nontrivial": False}]})
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[euler]\ninput = {op}\n")
        code, out, _ = run(capsys, "euler", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "euler", "--input", str(op))[1]
        assert json.loads(out)["result"] == {"kind": "exact", "coefficients": {"G": -1}}

    def test_bad_truncation_is_config_error(self, capsys):
        code, out, err = run(
            capsys,
            "verify",
            "--potential",
            "pitchfork-scalar",
            "--domain",
            "ball",
            "--dim",
            "2",
            "--beta-cutoff",
            "10",
            "--window",
            "0.5:10",
            "--truncation=-3",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "truncation" in error["message"]


class TestFlagTable:
    """Each command registers the flags of the settings it reads, plus the
    four every command reads; any other flag is a configuration error."""

    SHARED = {"config", "out", "seed", "json_pretty"}
    PROBLEM = {"domain", "dim", "potential", "potential_file", "beta_cutoff"}
    DESTS = {
        "spectrum": SHARED | {"domain", "dim", "beta_cutoff", "count"},
        "check": SHARED | {"potential", "potential_file", "lambda_samples"},
        "levels": SHARED | PROBLEM | {"epsilon"},
        "jump": SHARED | PROBLEM | {"lambda0", "epsilon"},
        "verify": SHARED | PROBLEM | {"truncation", "window", "steps", "branch_coefficients"},
        "euler": SHARED | {"input", "table"},
    }

    def test_option_dests_per_command(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
            for name, sp in sub.choices.items()
        }
        assert dests == self.DESTS
        assert sum(len(d) for d in dests.values()) == 55

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2",
             "--window", "0.5:1.5", "--epsilon", "0.01"],
            ["levels", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2",
             "--window", "3:4"],
            ["jump", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2",
             "--lambda0", "1", "--truncation", "9"],
            ["spectrum", "--domain", "sphere", "--dim", "3", "--count", "4", "--potential", "foo"],
            ["check", "--potential", "pitchfork-scalar", "--domain", "sphere"],
            ["euler", "--input", "op.json", "--window", "3:4"],
            ["levels", "--bogus", "1"],
        ],
        ids=lambda argv: " ".join(argv[:1] + [a for a in argv[-2:] if a.startswith("--")]),
    )
    def test_unread_flag_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ArgumentError"
        assert error["message"].startswith("unrecognized arguments: " + argv[-2])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--potential", "pitchfork-scalar", "--lambda-samples", "-0.5,0.5"],
            ["verify", "--potential", "pitchfork-scalar", "--domain", "sphere", "--dim", "2",
             "--beta-cutoff", "2", "--truncation", "6", "--steps", "40", "--window", "-1:2"],
        ],
        ids=["check-lambda-samples", "verify-window"],
    )
    def test_negative_value_after_a_space(self, capsys, argv):
        # a value that starts with a negative number is taken after a space
        # as after "=", lists and windows included
        spaced = run(capsys, *argv)
        joined = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined
        doc = json.loads(spaced[1])
        if argv[0] == "check":
            assert doc["assumptions"]["B6"]["degrees"].keys() == {"-0.5", "0.5"}
        else:
            assert doc["window"] == [-1.0, 2.0]
            assert doc["detected"] == pytest.approx([1.0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--potential", "pitchfork-scalar", "--lambda-samples", "--window", "1:2"],
            ["verify", "--potential", "pitchfork-scalar", "--window", "--steps", "40"],
        ],
        ids=["check", "verify"],
    )
    def test_option_after_a_valued_flag_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ArgumentError" and "expected one argument" in error["message"]

    def test_missing_command_is_config_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 2 and out == ""
        assert "required" in json.loads(err)["error"]["message"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert "--branch-coefficients" in capsys.readouterr().out


class TestNonFiniteSettings:
    """A non-finite numeric setting is a configuration error: exit 2 with
    the JSON error document, never a hang or a traceback.  Each case runs in
    a subprocess with a timeout, so a hang fails the test instead of the
    suite."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
             "--window", "0:inf"],
            ["verify", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
             "--window=-inf:3"],
            ["levels", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
             "--beta-cutoff", "inf"],
            ["jump", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
             "--lambda0", "inf"],
            ["spectrum", "--domain", "ball", "--dim", "2", "--beta-cutoff", "inf"],
            ["check", "--potential", "pitchfork-scalar", "--lambda-samples=nan,0.1"],
        ],
        ids=["verify-window-inf", "verify-window-minus-inf", "levels-cutoff", "jump-lambda0",
             "spectrum-ball-cutoff", "check-lambda-samples"],
    )
    def test_exits_2_with_json_error(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "symbif.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValueError" and "finite" in error["message"]


def _verify_outputs(argv, out_dir, threads):
    """Files that `symbif verify` writes under one BLAS thread count."""
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "symbif.cli", "verify", *argv, "--out", str(out_dir / "r")],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestVerifyDeterminism:
    """Identical configs give byte-identical verify output whatever the BLAS
    thread count, the 2-sphere included: branches are followed in the
    fixed-point subspace, whose products and LU solves are small enough to
    round alike under one and two threads."""

    @pytest.mark.parametrize(
        "potential,options",
        [
            ("pitchfork-scalar", "--domain sphere --dim 2 --beta-cutoff 10 --window 0.5:9.5"),
            ("so2-ring", "--domain ball --dim 2 --beta-cutoff 10 --window 0.5:10"),
            ("pitchfork-scalar", "--domain sphere --dim 3 --truncation 12 --window 0.5:8"),
            ("so2-ring", "--domain sphere --dim 3 --truncation 12 --window 0.5:8"),
        ],
        ids=[
            "circle-pitchfork-scalar",
            "disk-so2-ring",
            "sphere2-12-pitchfork-scalar",
            "sphere2-12-so2-ring",
        ],
    )
    def test_output_does_not_depend_on_blas_threads(self, potential, options, tmp_path):
        argv = ["--potential", potential, *options.split()]
        outputs = [_verify_outputs(argv, tmp_path / t, t) for t in ("1", "2")]
        assert len(outputs[0]) > 1  # the report and the branch files
        assert outputs[0] == outputs[1]

    # the benchmark's disk pipeline at beta <= 200 (59 functions, 64 x 56
    # nodes): CLI --truncation only cuts verify's beta <= 60 catalog, so the
    # library is called as the benchmark calls it
    DISK200_SCRIPT = (
        "import json\n"
        "from symbif.continuation import (\n"
        "    branch_to_json, build_problem, continue_branch, detect_bifurcation, switch_branch)\n"
        "from symbif.potentials import builtin\n"
        "from symbif.spectral import ball\n"
        "prob = build_problem(ball(2), builtin('so2-ring'), beta_cutoff=200.0)\n"
        "for lam in detect_bifurcation(prob, (0.5, 6.25)):\n"
        "    branch = continue_branch(prob, switch_branch(prob, lam), (0.75 * lam, 1.25 * lam))\n"
        "    doc = branch_to_json(branch, include_coefficients=True)\n"
        "    print(lam.hex(), json.dumps(doc, sort_keys=True))\n"
    )

    def test_disk_beta_200_branch_does_not_depend_on_blas_threads(self):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", self.DISK200_SCRIPT],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0].count(b"\n") == 1 and b"coefficients" in outputs[0]
        assert outputs[0] == outputs[1]


class TestVerifyGoldenDigests:
    """sha256 of every file `symbif verify --out --branch-coefficients`
    writes, under one or two BLAS threads.  The 2-sphere digests were
    recorded before the isotypic-block skip of the branch-point diagnostics,
    the circle and disk digests before each branch point's blocks shared
    one nodal Hessian: neither changes a byte."""

    DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "2ea5d2b6c8925ca9d5230968a5a32269d6427191761313beda86143a0fb9b606",
            "r.branch-2.csv": "eb2387b5d467df234bc54759b894d51f47b7d14a249fde993527bb86bf2eda48",
            "r.branch-2.json": "28d7ce67c24d838f699af788f14db6d42d764b0c250055530eff0a2db4ec13b2",
            "r.branch-6.csv": "3862525faa3f355d1a7a8eb47ddf37cc720f814c12043ecdfda1e2770bbfa0ca",
            "r.branch-6.json": "1eda6036f2e49ac15d1de864860dcaac335c5cd506e836c0050633502c2baf1f",
        },
        ("so2-ring", "12"): {
            "r": "eb52ee8b95d9463abca89e78e252373992ecba07f5388dcf5a7dac1d4de431a5",
            "r.branch-2.csv": "bd9a879e7039e227c8dd176ddd9b39b1c9c2d597f9da9b6373629912faff6965",
            "r.branch-2.json": "00b6dee0357ae16f81b2451bbfb908a1fcd321b568ceea16472817a3998ea77a",
            "r.branch-6.csv": "496a1fd7e02044c4b4d116753356d5ffb7580d246886e75b7d6cde7af95393d2",
            "r.branch-6.json": "16f073396473df4c36bd3ab791f4a331fecf22286055865d0eb44a4182d81333",
        },
        ("so2-ring", "24"): {
            "r": "79970649b461b6791b19253bc07377a196f510766d00dd4909379a1433309e65",
            "r.branch-2.csv": "29498731f6c002d7773e1b803cae2781e821007b321db0ce2045807d1f724f34",
            "r.branch-2.json": "68850676adf5a1e40ff13d7f4e9aff0989a92886e6a3981f7eddf69b39661c4a",
            "r.branch-6.csv": "bcee612b8d5650e25b8be8e6b97c6f378ac5c08ae3035cbd69330a8cab901dd2",
            "r.branch-6.json": "203a46ffe92cf3247003f351a0b37130642e2ed8e44f0cfce8610b4b25ff0fc2",
        },
    }

    PLANE_OPTIONS = {
        "circle": ["--domain", "sphere", "--dim", "2", "--beta-cutoff", "10",
                   "--window", "0.5:9.5"],
        "disk": ["--domain", "ball", "--dim", "2", "--window", "0.5:10"],
    }
    PLANE_DIGESTS = {
        ("pitchfork-scalar", "circle"): {
            "r": "bafb494d6dc6a94c5912c5833037be9083f1010de3053e39f66af5979b8e33cd",
            "r.branch-1.csv": "facb7ed9811477a69ebff61bdc8151ea14795916b60ac35b2562e99d43d53d2c",
            "r.branch-1.json": "ae5fa0abae832cf9df610c9f5fdfed60a9d08fe2dd9fb7c8786c9e992a4142d4",
            "r.branch-4.csv": "851eee84b5d4bf22926c08f5058978b57b4940dab48cc35912fc5a3ad42ae8d8",
            "r.branch-4.json": "1aaef6df5c45512ef594d579ccc8816c2066fdc3080bcc2f81a71653a8fee3ef",
            "r.branch-9.csv": "14c992393dfd66e3cefffb1d4b300913a501df544c15ef2450d408b4a15e681c",
            "r.branch-9.json": "e5dccc14b21a38b3ec2541e37b0f13a7bf5a32454b0798e3ade1e9b3c0ba4b25",
        },
        ("so2-ring", "circle"): {
            "r": "36dca525cb3a280f68882a4d0077b2fcce9b092a3beba2dcddd1da035df936e1",
            "r.branch-1.csv": "3e5b3e522a0aabb4a596521bd9cb6cc57a1577f41689021f0fb219a94477006e",
            "r.branch-1.json": "d542c37aa77070b0cec9fc435876d8fb073a83820e0c24b39b0b8e657d141636",
            "r.branch-4.csv": "426062540a4c7ba2e11236581a9697d26375fa6b08e742f5b8cafae2b2966561",
            "r.branch-4.json": "d930581c5231493137a9f3803f68abc81c9748db3015f97bdeca370931f5dc9f",
            "r.branch-9.csv": "ecaac96f2d3cde895f90965043c18b734d9c84b6d7d130ba6defc470c4bd5538",
            "r.branch-9.json": "34573d1666b997e0ffee2fcfe885e1f682c492f1303d50481fab14651a59d9c9",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "66e1b5a6af7a126c46ecb64c727d094c47ea5ddb1802a4b3f5797b32fe90f31d",
            "r.branch-3.38996.csv": "6cf7effbfacb9838f170ac6978404452ffd9239eab6882dddedc3b205aa92943",
            "r.branch-3.38996.json": "3e5f05063cb8d8aa04b8a808e103287c47189fe80ee95ffb24b05b37486bbfa6",
            "r.branch-9.32836.csv": "e2858634ba19a8ca97d34add8ff6bf2d52a624b7e117ac9a455e2259a6677066",
            "r.branch-9.32836.json": "807653b019537b0c38b34e980a036e88384348497f8b05704915c92052c10c7c",
        },
        ("so2-ring", "disk"): {
            "r": "8ad9341cb473009788c3641d672e19c5e40b25c1035dcc1101eec6aed1e29350",
            "r.branch-3.38996.csv": "9fb4b2258d8a98b6c7337e23d321cd2b812a68f95f776ad8291bbf15328d26c1",
            "r.branch-3.38996.json": "2d17ed749bba2f67eb4d1c3748d28e4ec65cb311b01088a9590b86cdea3fc60d",
            "r.branch-9.32836.csv": "b671ede4067ae6adae8da038847901899f79868bd48fb00ac4d1edc3daad85ea",
            "r.branch-9.32836.json": "f1e966f493f8bea2036064d2762dd870212106afacfbcdb681b8ce4358fd4981",
        },
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(DIGESTS), ids=lambda case: "-".join(case))
    def test_sphere_outputs_match_recorded_digests(self, case, threads, tmp_path):
        potential, truncation = case
        argv = ["--potential", potential, "--domain", "sphere", "--dim", "3",
                "--truncation", truncation, "--window", "0.5:8", "--branch-coefficients"]
        outputs = _verify_outputs(argv, tmp_path / threads, threads)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == self.DIGESTS[case]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(PLANE_DIGESTS), ids=lambda case: "-".join(case))
    def test_circle_and_disk_outputs_match_recorded_digests(self, case, threads, tmp_path):
        potential, domain = case
        argv = ["--potential", potential, *self.PLANE_OPTIONS[domain], "--branch-coefficients"]
        outputs = _verify_outputs(argv, tmp_path / threads, threads)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == self.PLANE_DIGESTS[case]


class TestSweepGoldenBits:
    """The 2-sphere levels of the Morse sweep, bit for bit, under one and
    two BLAS threads.  The S^2 branch seed is taken from the trivial-branch
    kernel at these levels, so a sweep change that moves them moves the
    branches."""

    LEVELS = ["0x1.000000009999ap+1", "0x1.7fffffffe6667p+2"]
    SCRIPT = (
        "from symbif.continuation import build_problem, detect_bifurcation\n"
        "from symbif.potentials import builtin\n"
        "from symbif.spectral import sphere\n"
        "for name in ('so2-ring', 'pitchfork-scalar'):\n"
        "    prob = build_problem(sphere(3), builtin(name), truncation=12)\n"
        "    print(' '.join(x.hex() for x in detect_bifurcation(prob, (0.5, 8.0), steps=200)))\n"
    )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sphere_levels(self, threads):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        assert lines == [" ".join(self.LEVELS)] * 2
