import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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

    def test_double_resonance_branch_from_4_ends_on_its_limit(self, capsys, tmp_path):
        # followed at ds_max 0.05 for at most 80 steps, the branch from the
        # level 4 ended on max-steps at lambda 4.91; at the default step it
        # reaches its limit lambda* + lambda*/4, bit for bit
        pot = tmp_path / "double.cfg"
        pot.write_text(self.DOUBLE_RESONANCE)
        code, out, _ = run(capsys, "verify", "--potential-file", str(pot), "--domain", "sphere",
                           "--dim", "3", "--truncation", "8", "--window", "0.5:7")
        assert code == 0
        (rec,) = [rec for rec in json.loads(out)["levels"] if abs(rec["lambda0"] - 4.0) < 1e-9]
        level, branch = rec["detected_match"], rec["branch"]
        assert branch["termination"] == "lambda-limit" and branch["points"] == 27
        assert branch["lambda_range"][1] == level + 0.25 * level
        assert abs(branch["lambda_range"][1] - 5.0) < 1e-9

    RING_TIMES_QUARTIC = (
        "[potential]\nname = ring-times-quartic\np = 3\naction = so2(1,2)\nu0 = 1, 0, 0\n"
        "a = 1 0 0; 0 0 0; 0 0 0\nf = lambda*(u1^2 + u2^2 - 1)^2 / 8 - u3^4 / 4\n"
    )

    def test_degenerate_orbit_on_the_disk_fails_its_switch_without_warnings(
        self, capsys, tmp_path
    ):
        # ker A holds u3 off the orbit tangent, so the bordered matrix is
        # singular along e0 x u3 and the switch's corrector runs away; a
        # plain chord on this config overflowed in the residual and printed
        # numpy RuntimeWarnings (errors under this suite's filters)
        pot = tmp_path / "rtq.cfg"
        pot.write_text(self.RING_TIMES_QUARTIC)
        code, out, err = run(
            capsys, "verify", "--potential-file", str(pot), "--domain", "ball", "--dim", "2",
            "--window", "0.5:10",
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["detected"] == pytest.approx([3.38996, 9.32836], abs=1e-5)
        for cand in doc["candidates"]:
            branch = cand["branch"]
            assert branch["captured"] is False
            prefix = f"no branch captured at lambda_star={cand['detected_inside'][0]}: "
            assert branch["error"].startswith(prefix) and len(branch["error"]) > len(prefix)

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


def _verify_outputs(argv, out_dir, threads, prelude=""):
    """Files that `symbif verify` writes under one BLAS thread count, after
    running the Python code prelude when one is given."""
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    if prelude:
        command = ["-c", prelude + "import sys\nfrom symbif.cli import main\nsys.exit(main())\n"]
    else:
        command = ["-m", "symbif.cli"]
    proc = subprocess.run(
        [sys.executable, *command, "verify", *argv, "--out", str(out_dir / "r")],
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


# verify's output for each TestVerifyGoldenDigests case as the corrector
# with plain chord steps computed it, with every branch followed at ds_max
# 0.05 for at most 80 steps and ended at its first point past a lambda limit:
# the verdict and the detected levels, and per branch file its termination,
# its block Morse indices (run-length encoded) and its lambda, sup_norm and
# min_offsym_singular per point, to 12 significant digits
CHORD_BRANCHES = json.loads((Path(__file__).parent / "chord_corrector_branches.json").read_text())

# Python run before `symbif verify`: follow every branch at the step verify
# took before it took continue_branch's default, ds_max 0.05 for at most 80
# steps
AT_OLD_STEP = (
    "from symbif import continuation\n"
    "follow = continuation.continue_branch\n"
    "continuation.continue_branch = lambda *args: follow(*args, max_steps=80, ds_max=0.05)\n"
)
# ... and end every branch, as verify did before the ends of a branch were
# located, at its first point past a lambda limit, with no fold inserted
AT_OLD_STEP_AND_ENDS = AT_OLD_STEP + (
    "import numpy as np\n"
    "def past_limit(problem, A, start, end, limit):\n"
    "    return (*end, float(np.linalg.norm(continuation.assemble_residual(problem, *end))))\n"
    "def no_fold(*args):\n"
    "    raise continuation.NewtonError('no fold located')\n"
    "continuation._end_on_limit = past_limit\n"
    "continuation._locate_fold = no_fold\n"
)


def _branch_files(outputs):
    return sorted(name for name in outputs if name.endswith(".json"))


def _expand(run_length):
    return [index for count, index in run_length for _ in range(count)]


def _assert_near_chord_branches(outputs, key):
    """The verdict, detected levels, branch files, terminations, point
    counts and block Morse indices of CHORD_BRANCHES[key], and every lambda,
    sup_norm and min_offsym_singular within 1e-9 (1 + |x|) of its x there."""
    recorded = CHORD_BRANCHES[key]
    report = json.loads(outputs["r"])
    assert report["verdict"] == recorded["verdict"]
    assert report["detected"] == recorded["detected"]
    names = _branch_files(outputs)
    assert names == sorted(recorded["branches"])
    for name in names:
        branch, rec = json.loads(outputs[name]), recorded["branches"][name]
        assert branch["termination"] == rec["termination"]
        morse = _expand(rec["block_morse_index"])
        assert [p["block_morse_index"] for p in branch["points"]] == morse
        for field in ("lambda", "sup_norm", "min_offsym_singular"):
            values = [p[field] for p in branch["points"]]
            assert len(values) == len(rec[field])
            assert all(abs(v - x) <= 1e-9 * (1.0 + abs(x)) for v, x in zip(values, rec[field]))


def _fold_indices(lams):
    """Indices of the lambdas that lie beyond both neighbours."""
    return [
        i for i in range(1, len(lams) - 1) if (lams[i] - lams[i - 1]) * (lams[i + 1] - lams[i]) < 0
    ]


def _assert_keeps_chord_samples(outputs, key):
    """The verdict, detected levels, branch files and terminations of
    CHORD_BRANCHES[key], and every recorded point but the last, its block
    Morse indices as recorded and its lambda, sup_norm and
    min_offsym_singular within 1e-9 (1 + |x|); besides them only the fold
    points, one at each turn of the recorded lambdas, and the last point,
    on the limit between the last two recorded lambdas."""
    recorded = CHORD_BRANCHES[key]
    report = json.loads(outputs["r"])
    assert report["verdict"] == recorded["verdict"]
    assert report["detected"] == recorded["detected"]
    names = _branch_files(outputs)
    assert names == sorted(recorded["branches"])
    for name in names:
        branch, rec = json.loads(outputs[name]), recorded["branches"][name]
        assert branch["termination"] == rec["termination"] == "lambda-limit"
        folds = _fold_indices([p["lambda"] for p in branch["points"]])
        turns = _fold_indices(rec["lambda"])
        assert len(folds) == len(turns)
        *kept, last = [p for i, p in enumerate(branch["points"]) if i not in folds]
        assert len(kept) == len(rec["lambda"]) - 1
        morse = _expand(rec["block_morse_index"])[:-1]
        assert [p["block_morse_index"] for p in kept] == morse
        for field in ("lambda", "sup_norm", "min_offsym_singular"):
            pairs = zip([p[field] for p in kept], rec[field])
            assert all(abs(v - x) <= 1e-9 * (1.0 + abs(x)) for v, x in pairs)
        before, past = rec["lambda"][-2:]
        assert min(before, past) < last["lambda"] < max(before, past)


def _branch_records(report):
    levels = report["levels"] if "levels" in report else report["candidates"]
    return [rec["branch"] for rec in levels if "branch" in rec]


def _assert_same_ends(report, reference):
    """The verdict, detected levels and per branch the termination of
    reference, and lambda_range and max_sup_norm within 1e-8 relative."""
    assert report["verdict"] == reference["verdict"]
    assert report["detected"] == reference["detected"]
    records, expected = _branch_records(report), _branch_records(reference)
    assert len(records) == len(expected) > 0
    for rec, ref in zip(records, expected):
        assert rec["captured"] and ref["captured"]
        assert rec["termination"] == ref["termination"]
        for x, y in zip([*rec["lambda_range"], rec["max_sup_norm"]],
                        [*ref["lambda_range"], ref["max_sup_norm"]]):
            assert abs(x - y) <= 1e-8 * abs(y)


class TestVerifyGoldenDigests:
    """sha256 of every file `symbif verify --out --branch-coefficients`
    writes, under one or two BLAS threads.  The 2-sphere digests were
    recorded before the isotypic-block skip of the branch-point diagnostics,
    the circle and disk digests before each branch point's blocks shared
    one nodal Hessian: neither changes a byte.  The disk digests were
    re-recorded when the Neumann roots went from bisection to 1e-12 to
    Newton refinement to working precision, which moves the disk's beta and
    branch values in their last bits (verdicts, detected levels, point counts
    and terminations unchanged).  Every digest was re-recorded when the
    corrector's steps on a reused matrix took good-Broyden updates, which
    moves branch values by at most 7.2e-10 (1 + |x|); the outputs of the
    chord corrector before them are kept as CHORD_BRANCHES and checked.

    Every digest was re-recorded again when each branch came to end on its
    limit, with its folds located, and verify followed it at
    continue_branch's default step instead of ds_max 0.05 for at most 80
    steps.  The digests before that are kept as OLD_STEP_DIGESTS, and
    verify still writes those bytes with the old step and without the
    located ends.  At the old step with the located ends every recorded
    sample is kept but the last, and the ends of every branch agree with
    the ones at the default step."""

    SPHERE_OPTIONS = ["--domain", "sphere", "--dim", "3", "--window", "0.5:8"]
    PLANE_OPTIONS = {
        "circle": ["--domain", "sphere", "--dim", "2", "--beta-cutoff", "10",
                   "--window", "0.5:9.5"],
        "disk": ["--domain", "ball", "--dim", "2", "--window", "0.5:10"],
    }

    DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "f60cb73f54bc5d8f89a51b9c45a9cfe7a7f4591d085d3f3f1e13f0447174b5c3",
            "r.branch-2.csv": "46e1f43b16fb9d65079e6ea7a28633afdf60bdbda028d9983474584acb31a099",
            "r.branch-2.json": "cda26800543afbb9ca283ff3515322c5ac7015e7bd5b77da5234744dd412622f",
            "r.branch-6.csv": "bf532d00be0628e076a82528b1bc353ab3f799d9875a3b50554645f554beeba5",
            "r.branch-6.json": "2655ab1d5bb6cd2e965d90f079059cb3a34d12a556836b8c3f666dbb0f9bfd85",
        },
        ("so2-ring", "12"): {
            "r": "85c8310f5ba3c7362797620539938a0532755acbad89b14faf1e8314e3a211ff",
            "r.branch-2.csv": "320fc4ae4f61e501437170eedfc6eaa57231a6ea69959aa92e7f9c69452a4921",
            "r.branch-2.json": "a6ad72a2fcf8051de90303ab418424b45b30ec55eab57764c0119c25dedc486e",
            "r.branch-6.csv": "77fb5b569cb14428a131080cb3983c10496528c2d7d7a2772e63e540c902dca7",
            "r.branch-6.json": "d5842e14fa16c7d0303da568e2aa519e5c9aa7f74105314247d45eb446a79d2a",
        },
        ("so2-ring", "24"): {
            "r": "54e57186757940bd33b16c70ea00f43603e6049ebaceaa7b82193c013361f6d4",
            "r.branch-2.csv": "4469138ae586bee3e96d1e921cebff5b2ef4a1e83aedd95526618668d5479d35",
            "r.branch-2.json": "33fdc7c1712b668be22add1207764c8ccd905315b84c2b208fb2e04db684fa4f",
            "r.branch-6.csv": "0ba15bf7e1939e85e9bbf505a0d83c7f5f0f7960b2ecf6ff9f5619cae9a6cc9a",
            "r.branch-6.json": "3db9418542313f0f67461a36b1f002b716235f62a0d452e6b58708b91e831357",
        },
    }
    PLANE_DIGESTS = {
        ("pitchfork-scalar", "circle"): {
            "r": "065ae4cb8759d008a1efb20b76fa8a48d24d1a811d54cc4f0f8e25e12637cdb9",
            "r.branch-1.csv": "dd910ab7b98fe9b3e4f072f50210e0aa5a72ff91da06b7fc8940701a9dc9185d",
            "r.branch-1.json": "30250e7862ca8c807aa54a3230575d95e0b40579ad4e9135e57d1149f1436248",
            "r.branch-4.csv": "f0806dda3aad2e561ffec90fa8f5f1417b58678a1f980225d52e328d0ae0b867",
            "r.branch-4.json": "e207fa6d311e7da810cf8fad0650a32141e543c9944988a9301a2992471e7efc",
            "r.branch-9.csv": "418c29100409e8d4fb0489a9ef72b3f11744d8956ef7476314d2f0f769a3f202",
            "r.branch-9.json": "27ef457ec2ae9552da20ca8400a77bb64e5d81025bea71592668c44b82f04e7d",
        },
        ("so2-ring", "circle"): {
            "r": "c10a0917ccb50d98fe66270fe8409f5776a69f2a2a3d9399f3421c900dc52250",
            "r.branch-1.csv": "d183886d1faa4065ef3b6ae7cb1f3cf30bc1ab32b37266795fa5aa6e08c81da9",
            "r.branch-1.json": "9ec5d8c673d0f8755e0395daf1399d64ba381b74279b5df8dbdc952a1ce51c83",
            "r.branch-4.csv": "fc6167c702edad2e6852d008dfc4707714af9ea1ae0b0fb5025cacd2cec42805",
            "r.branch-4.json": "17f1ccdcc727f35e6bfcf4d6d4d6eed10c789f30db9cee62582cd683f63baa79",
            "r.branch-9.csv": "4252c706d832c687247a53a0cbc1689590a0a46f1607f8ad5785dae97fac3d0a",
            "r.branch-9.json": "e5678013ec598c5ff74bc9dfa2aff95f0d9247d9410014f4ceeb363ca8645eda",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "fcb208ca6e980311d48c9d43ecb2c3064293dfc96fe12fa27fa7ecae3b248427",
            "r.branch-3.38996.csv": "b9f949a77c47fbcaa1e490ab47d4f3d8a8fde8d6ee2e40c45248714616ef4c39",
            "r.branch-3.38996.json": "26e46c3201b05f55117d6bf5c29a260711417b6abd95accdf8bb0641890fb670",
            "r.branch-9.32836.csv": "99141176a29d9b9833c31fa1e632ede4c18d543bd7b5676c71b6ceb0250aaaa6",
            "r.branch-9.32836.json": "ee60e31f812359aa3e8e7bfe6909491542610d417c2ab40778e36363495b9192",
        },
        ("so2-ring", "disk"): {
            "r": "f9f03c20690db55432a1d9568b7fa59158889f17e269191968c55734cd7f608a",
            "r.branch-3.38996.csv": "9c3dc2879d97bcc3db7fc11c2425ea5ab6eff45ac0142324d13a6b472efdcc46",
            "r.branch-3.38996.json": "abef2a74dffce8c597bd17b9a146860f18c3a71ed415ff1b839a0ff07980622e",
            "r.branch-9.32836.csv": "6021b733b13266eff5c03e6fe333b55a2fd55f41f288ad471267d12a3325b2de",
            "r.branch-9.32836.json": "97d5125e489104e9d65dc0f3cfbdc7506d4c5f7f52d246d5d89b900415b872c2",
        },
    }

    # the digests recorded before the ends of a branch were located, with
    # every branch followed at ds_max 0.05 for at most 80 steps
    OLD_STEP_DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "0d48830edf5cc0b654b3312112cba889f91ea7e7f536a96d6068d8a37d5f7710",
            "r.branch-2.csv": "706438ca0b4f4b9ffbff28a461147d5225fcfeeeb0afc0b60af1640430675adc",
            "r.branch-2.json": "6d8a72d8b12d82ef8327dae76cb51e8e933fe7237d5833aa1e3620e5e64e7778",
            "r.branch-6.csv": "e6e7da005d3f219035b68c34916a425e7e3ead3baaa1a8c78d8c51741e048668",
            "r.branch-6.json": "c31f9791ff579e752061d3b7b1c7b0292ad8bdc338c45dd0997397726caef6d1",
        },
        ("so2-ring", "12"): {
            "r": "66946330760cb5027e082e065101076637e0bfdaa53725d680b0024afd84a456",
            "r.branch-2.csv": "643dbfcfe3d632e404100dc424fd4123025d2f5cb5170baa80b44a3722f1bfc5",
            "r.branch-2.json": "92b6daf7d53337f886bd6cd3793e3746fd5bc27bfc3fff028600dde61da99d91",
            "r.branch-6.csv": "3d633ffc721fa1a8284aa4ec394a5b35e392965924de31c2f84bac054c8722a4",
            "r.branch-6.json": "fd8659a032eff43aa8dc957824142516fc802deb159134809478c1424737cf8e",
        },
        ("so2-ring", "24"): {
            "r": "3e6a1a4eaf4ba7b3937148b1fffc04576891bcf999e79af03d3fbe815f3a407b",
            "r.branch-2.csv": "2946853c18fbd818b99d44836a0b0a963e1f6bd28b00350849ed5bc5dc120f06",
            "r.branch-2.json": "8528b032fbd365e01951eabf567dcd1b2f5a97800241d93f2d397e62c1c265b2",
            "r.branch-6.csv": "27b53def4db6b893b0534ddc5b06b7a5c1f4234530a8e1ae81980dbcc5fdb23e",
            "r.branch-6.json": "5e79b75ec1ebdd3881d21f0adbcbf0fca6dcf02fe73b4b73843de75ed5437962",
        },
        ("pitchfork-scalar", "circle"): {
            "r": "00c33f96ff8a940a5c240ea9bd2e4496ff25b1beadd62e74e9affd3df7a3eb9d",
            "r.branch-1.csv": "533fa7dbb5157f3c40960924d5a5e96c710a832405eb825e5f1647adceba7491",
            "r.branch-1.json": "f393f3cb9bea296708297d3ce2daaaa9ea9ff24a2d20a1de1920ff524562db0a",
            "r.branch-4.csv": "b8865fbada11a94b964c7d1be535b4ba2a8311439a732b6ec7dde66673fcfe12",
            "r.branch-4.json": "54e429a13125ab36d46a6ea2cc14a1270f20d53a8d0151a0e3135751e91769b5",
            "r.branch-9.csv": "a1fcafec6667401174c2669e2052a171d18f2831e505a31b9ea37ae417a61e2e",
            "r.branch-9.json": "3397f159442656e1880b37ed66112410e0c6d6e064b31adf7db468eee63d3239",
        },
        ("so2-ring", "circle"): {
            "r": "e86afb235a196056c6461510fdeb6d538223456ae312829e8454c38bd6ac6467",
            "r.branch-1.csv": "306231774801af9750ad305f9cb779a83704f99e93a4a100701cd5cb0103db1e",
            "r.branch-1.json": "a5dba49777a9f0f90d19b2ed91bd833e663b5de050600ad0074d201c9cf85968",
            "r.branch-4.csv": "0ee12811cb017081e9f455ca38ad6d8a6ec3126bcc3d6164ec2e2383caba992a",
            "r.branch-4.json": "afefb67c2af1a2de85a7bef41508ed888b39e07ef4d30117b2a247b1bae828ed",
            "r.branch-9.csv": "3ae0b4d6f4ec41be62478c30bd80db78be8d1a989fd5af7df584d910e9e1594d",
            "r.branch-9.json": "b87800661b6fcdfd7e24cc8bfb45cb275c6190d3b0b6332550dce554aba144c0",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "54e84d4dab7d953649da12c9433aa3533b53e9769790714a5218125dcaf4c16f",
            "r.branch-3.38996.csv": "9b8d4216e2c6039ec1850cd3f481996bec1d3366e974a953901870b975c61bdb",
            "r.branch-3.38996.json": "d67f31a7023ddddb0b600b0b90d19852b96a785ab60fb2eaf536b6f2935bc1a2",
            "r.branch-9.32836.csv": "b2ba8f1db78d6c293f7db4980b8b85f33478b2b03beb509400a9b40fa7323426",
            "r.branch-9.32836.json": "0915106f8c25965c50b5fdf308dd1307932e68bab43720e2fa78b63d67acc72e",
        },
        ("so2-ring", "disk"): {
            "r": "57c6e283138809d0c4cc1615b5938b9e99a0a163566787557d2f7c0b7a9cb92e",
            "r.branch-3.38996.csv": "5375ebcab0d2e301db66634da2216ba47a4bf53527934505374709238f84484e",
            "r.branch-3.38996.json": "2fdeb642ada683b5d98b118b09453060e036041118e710e9bf651ad161d5421d",
            "r.branch-9.32836.csv": "a2703cb2d8459a9300420a1b92c56c1d80aeff98a33b16dfb448adb1482dd20c",
            "r.branch-9.32836.json": "609bf06b2c8344ad6d24cf33399d2193c379696c728442062496c21eee171b17",
        },
    }

    @classmethod
    def argv(cls, case):
        potential, where = case
        options = cls.PLANE_OPTIONS.get(where) or [*cls.SPHERE_OPTIONS, "--truncation", where]
        return ["--potential", potential, *options, "--branch-coefficients"]

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        """outputs(case, threads, prelude): the files of verify on case, each
        run once."""
        cache = {}

        def get(case, threads, prelude=""):
            key = (case, threads, prelude)
            if key not in cache:
                out_dir = tmp_path_factory.mktemp("verify") / threads
                cache[key] = _verify_outputs(self.argv(case), out_dir, threads, prelude)
            return cache[key]

        return get

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(DIGESTS), ids=lambda case: "-".join(case))
    def test_sphere_outputs_match_recorded_digests(self, case, threads, outputs):
        digests = {name: _sha256(data) for name, data in outputs(case, threads).items()}
        assert digests == self.DIGESTS[case]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(PLANE_DIGESTS), ids=lambda case: "-".join(case))
    def test_circle_and_disk_outputs_match_recorded_digests(self, case, threads, outputs):
        digests = {name: _sha256(data) for name, data in outputs(case, threads).items()}
        assert digests == self.PLANE_DIGESTS[case]

    @pytest.mark.parametrize("case", list(OLD_STEP_DIGESTS), ids=lambda case: "-".join(case))
    def test_old_step_without_located_ends_writes_the_old_digests(self, case, outputs):
        # the located ends replace the last point and insert the folds, and
        # change no point that continue_branch accepts, bit for bit
        old = outputs(case, "1", AT_OLD_STEP_AND_ENDS)
        _assert_near_chord_branches(old, "/".join(case))
        assert {name: _sha256(data) for name, data in old.items()} == self.OLD_STEP_DIGESTS[case]

    @pytest.mark.parametrize("case", list(OLD_STEP_DIGESTS), ids=lambda case: "-".join(case))
    def test_old_step_keeps_the_recorded_samples_and_the_ends(self, case, outputs):
        # at the old step every recorded sample is kept but the last, which
        # lies past its limit, and the verdict, terminations and ends of
        # every branch are those of the default step, to 1e-8
        at_old_step = outputs(case, "1", AT_OLD_STEP)
        _assert_keeps_chord_samples(at_old_step, "/".join(case))
        _assert_same_ends(json.loads(outputs(case, "1")["r"]), json.loads(at_old_step["r"]))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# every builtin branch domain: options of build_problem and verify's window
STEP_CASES = {
    "sphere2-12": (spectral.sphere(3), {"truncation": 12}, (0.5, 8.0)),
    "circle": (spectral.sphere(2), {}, (0.5, 9.5)),
    "disk": (spectral.ball(2), {}, (0.5, 10.0)),
}
# the folds that verify's builtin branches pass, by (domain, potential,
# level rounded): so2-ring's branches from lambda* = 6 on S^2 and 9.33 on
# the disk turn down before they rise to their upper limits
FOLDS = {("sphere2-12", "so2-ring", 6): 5.4814092, ("disk", "so2-ring", 9): 9.2892198}


def _fold_points(branch):
    """The points of branch whose lambda lies beyond both neighbours'."""
    return [branch.points[i] for i in _fold_indices([bp.lam for bp in branch.points])]


class TestStepIndependence:
    """A verify branch record does not depend on the step: on every builtin
    branch the ends of lambda_range, the fold and max_sup_norm at the
    default step agree with those at ds_max 0.05 for at most 80 steps to
    1e-8 relative, with the same termination, and every point at the
    default step lies on the branch followed at 0.05."""

    @pytest.fixture(scope="class", params=list(STEP_CASES))
    def branches(self, request):
        """(domain, potential, level, problem, (record, branch) at the
        default step, (record, branch) at ds_max 0.05) per detected level."""
        domain, options, window = STEP_CASES[request.param]
        follow = continuation.continue_branch
        out = []
        for name in ("pitchfork-scalar", "so2-ring"):
            prob = continuation.build_problem(domain, potentials.builtin(name), **options)
            for lam in continuation.detect_bifurcation(prob, window):
                default = cli._verify_branch(prob, lam, window)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(continuation, "continue_branch",
                              lambda *args: follow(*args, max_steps=80, ds_max=0.05))
                    dense = cli._verify_branch(prob, lam, window)
                out.append((request.param, name, lam, prob, default, dense))
        return out

    def test_ends_agree(self, branches):
        for *_, (rec, branch), (ref, dense) in branches:
            assert rec["termination"] == ref["termination"] == "lambda-limit"
            assert len(dense.points) > rec["points"]
            for x, y in zip([*rec["lambda_range"], rec["max_sup_norm"]],
                            [*ref["lambda_range"], ref["max_sup_norm"]]):
                assert abs(x - y) <= 1e-8 * abs(y)

    def test_folds_are_located_at_every_step(self, branches):
        for where, name, lam, _, (_, branch), (_, dense) in branches:
            folds, dense_folds = _fold_points(branch), _fold_points(dense)
            expected = FOLDS.get((where, name, round(lam)))
            if expected is None:
                assert folds == dense_folds == []
                continue
            (fold,), (dense_fold,) = folds, dense_folds
            assert abs(fold.lam - expected) < 1e-6
            assert abs(fold.lam - dense_fold.lam) <= 1e-8 * dense_fold.lam
            assert fold.lam == min(bp.lam for bp in branch.points)

    def test_points_lie_on_the_dense_branch(self, branches):
        # each point at the default step, away from the folds, against the
        # point at its lambda that Newton with the natural border finds from
        # the nearest point at ds_max 0.05
        checked = 0
        for *_, prob, (_, branch), (_, dense) in branches:
            space = continuation._subspace(prob)
            sub, n = space.problem, space.problem.n_dof
            folds = [bp.lam for bp in _fold_points(dense)]
            border = np.zeros(n + 1)
            border[n] = 1.0
            reference = np.array([np.append(bp.c[space.idx], bp.lam) for bp in dense.points])
            for bp in branch.points:
                if any(abs(bp.lam - lam) < 0.05 for lam in folds):
                    continue
                x = np.append(bp.c[space.idx], bp.lam)
                start = reference[np.argmin(np.linalg.norm(reference - x, axis=1))]
                c, lam, _ = continuation._bordered_newton(
                    sub, start[:n], bp.lam, border, np.zeros(n + 1), bp.lam, 0.0, 20
                )
                assert lam == bp.lam
                assert np.max(np.abs(c - x[:n])) <= 1e-8
                assert abs(sub.sup_deviation(c) - bp.sup_norm) <= 1e-8
                checked += 1
        assert checked > 20


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
