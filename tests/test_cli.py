import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from symbif import bessel, cli, continuation, potentials, spectral
from symbif.cli import main

from replays import AT_CENTRAL_DIFFERENCE, AT_FIXED_GROWTH, AT_OLD_STEP, AT_OLD_STEP_AND_ENDS

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
    def test_unconverged_neumann_root_is_a_computational_error(self, capsys, monkeypatch):
        # after one Newton step no Neumann root of the disk has converged:
        # exit 1 and the error document, which names the type, the order and
        # the bracket, not a traceback
        monkeypatch.setattr(bessel, "_NEWTON_STEPS", 1)
        code, out, err = run(
            capsys, "levels", "--domain", "ball", "--dim", "2", "--potential", "pitchfork-scalar"
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "NeumannRootError"
        assert re.fullmatch(r"Neumann root of order \d+ not converged in \(\S+, \S+\)", error["message"])

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
            "f = lambda*(u1^2 + u2^2 - 1)^2 / 8\n"
        )
        code, out, _ = run(capsys, "check", "--potential-file", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["potential"] == "user-ring"
        assert doc["assumptions"]["B3"]["status"] == "pass"
        assert doc["assumptions"]["B4"]["status"] == "pass"

    def test_default_samples_are_check_assumptions_own(self, capsys, monkeypatch):
        # without --lambda-samples the command passes no samples, so the
        # default lives in check_assumptions alone
        check = potentials.check_assumptions
        monkeypatch.setattr(check, "__defaults__", ((-0.25, 0.75), None))
        code, out, _ = run(capsys, "check", "--potential", "so2-ring")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda_samples"] == [-0.25, 0.75]
        assert set(doc["assumptions"]["B6"]["degrees"]) == {"-0.25", "0.75"}

    def test_coefficient_evidence_of_b3_and_b4(self, capsys):
        # B3 and B4 report F~'s largest offending coefficients and u0's norm
        # in each rotation plane, not sampled residuals
        code, out, _ = run(capsys, "check", "--potential", "so2-ring")
        assert code == 0
        doc = json.loads(out)["assumptions"]
        assert doc["B3"] == {"status": "pass", "max_linear_coefficient": 0.0,
                             "max_quadratic_coefficient": 0.0}
        assert doc["B4"] == {"status": "pass", "plane_norms": [1.0], "tolerance": 2e-9}

    # sha256 of what `symbif check` writes (stdout, then stderr), recorded
    # when B5 took the distance of all 10 000 scan points to the 1024
    # orbit samples in one tensor
    DIGESTS = {
        ("pitchfork-scalar", ()): "6195a0ecfaa000ef6f4693e551b7a6c19cdc6493bd26db91200b54d8ffedd47a",
        ("pitchfork-scalar", ("--lambda-samples", "-0.5,0.5")):
            "2b4bf7f0d18b745bfb8bc3bbb1fe782c931aa969d421b4ab357491d060c5c1ef",
        ("so2-ring", ()): "2f4c5a3d8217b7623ea66b839f9c1c6c8d165c9293effa33049d66fff81803ea",
        ("so2-ring", ("--lambda-samples", "-0.5,0.5")):
            "27bff524dcfce9fe639f93e7f281fbf151a33567437e4ac7a431b2794a407647",
    }

    @pytest.mark.parametrize("case", list(DIGESTS), ids=lambda case: "-".join([case[0], *case[1]]))
    def test_output_matches_recorded_digests(self, capsys, case):
        potential, options = case
        code, out, err = run(capsys, "check", "--potential", potential, *options)
        assert (code, _sha256((out + err).encode())) == (0, self.DIGESTS[case])

    def test_isolation_scan_memory_is_bounded(self):
        # B5 takes the orbit distances a chunk of scan points at a time; in
        # one 10 000 x 1024 x p tensor check_assumptions peaked at 470 MiB
        tracemalloc.start()
        try:
            potentials.check_assumptions(potentials.builtin("so2-ring"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_division_by_zero_in_potential_file(self, capsys, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text("[potential]\np = 1\nu0 = 0\nf = lambda*u1^2/2 - u1^4/(2-2)\n")
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
        "f = lambda*(u1^2/2 + 3*u2^2/2) - u1^4/4 - u2^4/4\n"
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
        # reaches its limit lambda* + lambda*/4, bit for bit (27 points when
        # the step grew by 1.4 up to 0.2, 14 with the contraction rule)
        pot = tmp_path / "double.cfg"
        pot.write_text(self.DOUBLE_RESONANCE)
        code, out, _ = run(capsys, "verify", "--potential-file", str(pot), "--domain", "sphere",
                           "--dim", "3", "--truncation", "8", "--window", "0.5:7")
        assert code == 0
        (rec,) = [rec for rec in json.loads(out)["levels"] if abs(rec["lambda0"] - 4.0) < 1e-9]
        level, branch = rec["detected_match"], rec["branch"]
        assert branch["termination"] == "lambda-limit" and branch["points"] == 14
        assert branch["lambda_range"][1] == level + 0.25 * level
        assert abs(branch["lambda_range"][1] - 5.0) < 1e-9

    RING_TIMES_QUARTIC = (
        "[potential]\nname = ring-times-quartic\np = 3\naction = so2(1,2)\nu0 = 1, 0, 0\n"
        "f = lambda*(u1^2 + u2^2 - 1)^2 / 8 - u3^4 / 4\n"
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


class TestDiskVerifyKernel:
    def test_every_branch_jacobian_comes_from_the_kernel(self, capsys, monkeypatch):
        # verify on the disk (beta <= 60) assembles no Jacobian dense: every
        # block a branch point solves and the Jacobian of every bordered
        # matrix come from the sum-factorized kernel, one call each, and
        # every other call is the Jacobian of a branch seed's kernel
        # direction, one per switch; a fallback to the dense assembly, or a
        # block assembled twice, fails here with no timing
        made, taken, dense = [], [], []
        kernel = continuation._factored_block

        def kernel_spy(block, H):
            made.append(kernel(block, H))
            return made[-1]

        def spy(name, record, pick):
            fn = getattr(continuation, name)

            def wrapped(*args):
                record.append(pick(*args))
                return fn(*args)

            monkeypatch.setattr(continuation, name, wrapped)

        monkeypatch.setattr(continuation, "_factored_block", kernel_spy)
        spy("_assemble_jacobian", dense, lambda *args: args)
        spy("jacobian", dense, lambda *args: args)
        spy("_offsym_eigenvalues", taken, lambda pins, J: J)
        spy("_newton_system", taken, lambda problem, c, lam, J, border: J)
        switches = 0
        for potential in ("pitchfork-scalar", "so2-ring"):
            options = ["--domain", "ball", "--dim", "2", "--window", "0.5:10"]
            code, out, _ = run(capsys, "verify", "--potential", potential, *options)
            report = json.loads(out)
            assert code == 0 and report["verdict"] == "CONSISTENT"
            switches += len(_branch_records(report))
        assert dense == []
        assert switches > 0 and len(taken) > len(made) > 0
        # made keeps every block alive, so their ids are distinct
        made_ids = {id(J) for J in made}
        assert len(made_ids) == len(made)
        assert all(id(J) in made_ids for J in taken)
        assert len(made) == len({id(J) for J in taken}) + switches


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

    @staticmethod
    def _full_parser_text(capsys, argv):
        """What the parser of all six commands writes for argv: its help
        text, or the message of the ArgumentError it raises."""
        try:
            cli.build_parser().parse_args(argv)
        except argparse.ArgumentError as err:
            return str(err)
        except SystemExit:
            return capsys.readouterr().out
        pytest.fail(f"{argv} parsed")

    @pytest.mark.parametrize("argv", [[name, "--help"] for name in cli._COMMANDS] + [["--help"]],
                             ids=lambda argv: " ".join(argv))
    def test_help_matches_the_full_parser(self, capsys, argv):
        # main builds only the named command's subparser, or all six when
        # the first argument names none
        full = self._full_parser_text(capsys, argv)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["jum", "--dim", "2"]],
                             ids=["none", "unknown", "prefix"])
    def test_command_errors_match_the_full_parser(self, capsys, argv):
        full = self._full_parser_text(capsys, argv)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "ArgumentError", "message": full}


class TestNonFiniteSettings:
    """A non-finite numeric setting is a configuration error: exit 2 with
    the JSON error document, never a hang or a traceback.  Each case runs in
    a subprocess with a timeout, so a hang fails the test instead of the
    suite.  A window that is malformed or not finite is named as the window,
    with its raw text, not reported by what it would break downstream."""

    VERIFY = ["verify", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar"]

    @pytest.mark.parametrize(
        "argv,words",
        [
            (VERIFY + ["--window", "0:inf"], ("window", "finite", "'0:inf'")),
            (VERIFY + ["--window=-inf:3"], ("window", "finite", "'-inf:3'")),
            (VERIFY + ["--window", "1:2:3"], ("window", "'1:2:3'")),
            (VERIFY + ["--window", "0.5"], ("window", "'0.5'")),
            (VERIFY + ["--window", "nan:8"], ("window", "finite", "'nan:8'")),
            (["levels", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
              "--beta-cutoff", "inf"], ("finite",)),
            (["jump", "--domain", "sphere", "--dim", "2", "--potential", "pitchfork-scalar",
              "--lambda0", "inf"], ("finite",)),
            (["spectrum", "--domain", "ball", "--dim", "2", "--beta-cutoff", "inf"], ("finite",)),
            (["check", "--potential", "pitchfork-scalar", "--lambda-samples=nan,0.1"], ("finite",)),
        ],
        ids=["verify-window-inf", "verify-window-minus-inf", "verify-window-three-values",
             "verify-window-one-value", "verify-window-nan", "levels-cutoff", "jump-lambda0",
             "spectrum-ball-cutoff", "check-lambda-samples"],
    )
    def test_exits_2_with_json_error(self, argv, words):
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
        assert error["type"] == "ValueError"
        assert all(word in error["message"] for word in words), error["message"]


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
            ("pitchfork-scalar", "--domain ball --dim 2 --window 0.5:10"),
            ("so2-ring", "--domain ball --dim 2 --window 0.5:10"),
            ("pitchfork-scalar", "--domain sphere --dim 3 --truncation 12 --window 0.5:8"),
            ("so2-ring", "--domain sphere --dim 3 --truncation 12 --window 0.5:8"),
        ],
        ids=[
            "circle-pitchfork-scalar",
            "disk-so2-ring",
            "disk-60-pitchfork-scalar",
            "disk-60-so2-ring",
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
# verify's so2-ring output as written before the potential was centred at
# u0, when every derivative was evaluated from F's own monomials at u0 + v:
# at the default step with the exact column, and under AT_CENTRAL_DIFFERENCE
# and AT_FIXED_GROWTH; the verdict and the detected levels, and per branch
# file its termination, its block Morse indices (run-length encoded) and its
# lambda, sup_norm and min_offsym_singular per point, in full
UNCENTRED_BRANCHES = json.loads(
    (Path(__file__).parent / "uncentred_so2_ring_branches.json").read_text()
)
# verify's disk output (beta <= 60, both builtins) as written when the first
# block of every disk branch Jacobian was assembled dense over the half-turn
# rule, before it came from the sum-factorized kernel: keyed by generation
# (exact-column, central-difference, fixed-growth, old-step) and potential;
# the verdict and the detected levels, and per branch file its termination,
# its block Morse indices (run-length encoded) and its lambda, sup_norm and
# min_offsym_singular per point, in full
DENSE_FIRST_BLOCK_BRANCHES = json.loads(
    (Path(__file__).parent / "dense_first_block_disk_branches.json").read_text()
)
# what verify, levels and jump wrote on the balls when the Bessel values
# below x = 12 came from the ascending series, each entry summed on its own,
# and the others from Miller's recurrence one entry at a time: "verify" keyed
# as DENSE_FIRST_BLOCK_BRANCHES, with the same fields; "levels" (at
# --beta-cutoff 30) and "jump" (at TestPredictGoldenDigests' lambda0) keyed
# by domain (ball2, ball3) and potential, each its exit code, stdout and
# stderr in full
SERIES_BESSEL_OUTPUTS = json.loads(
    (Path(__file__).parent / "series_bessel_outputs.json").read_text()
)


class BranchDrift(AssertionError):
    """A branch value moved further from its record than its bound."""


def _near_recorded_cases():
    """(recorded, generation, case, bound) for every entry of
    UNCENTRED_BRANCHES, DENSE_FIRST_BLOCK_BRANCHES and SERIES_BESSEL_OUTPUTS'
    verify records.

    Centring F at u0 moved the so2-ring branches by at most 2.0e-10
    (1 + |x|) on the disk and 2.6e-12 on the 2-sphere at the default step.
    Under the central difference, which divides the rounding of two
    residuals by 2e-6 (1 + |lambda|), the corrector stopped up to 9.0e-9
    away, so that generation of UNCENTRED_BRANCHES keeps 1e-8.

    The kernel's first block moved the disk branches by at most 2.6e-10 at
    the default step (so2-ring from 9.33), 8.1e-12 under the fixed growth
    and at the old step, and 6.1e-10 for pitchfork-scalar under the central
    difference: every generation is held to 1e-9.  so2-ring under the
    central difference misses it (BranchDrift, 3.2e-9 in
    min_offsym_singular on the branch from 3.39).  There each step comes
    from the corrector's first contraction theta0 = |s_1| / |s_0|, and the
    column's rounding dominates s_1: J's last bits move theta0 by up to
    3.4e-8 there against 1.7e-9 with the exact column.  Gathering the
    kernel's angular sums per row pair instead of per order pair misses it
    as well (2.9e-9).

    One Miller sweep for every Bessel value in place of the ascending series
    below x = 12 moved the disk branches by at most 1.4e-10 at the default
    step (so2-ring from 9.33), 1.0e-11 under the fixed growth, 7.4e-12 at the
    old step and 5.2e-10 for pitchfork-scalar under the central difference;
    detected levels are bit for bit the series'.  Every generation is held to
    1e-9, and so2-ring under the central difference misses it as the kernel
    did (BranchDrift, 4.9e-9 in min_offsym_singular on the branch from 9.33,
    7.3e-10 in lambda): the same theta0, now moved by the basis' last bits."""
    cases = []
    for key in UNCENTRED_BRANCHES:
        generation, where = key.split("/")
        bound = 1e-8 if generation == "central-difference" else 1e-9
        cases.append(pytest.param(UNCENTRED_BRANCHES[key], generation, ("so2-ring", where),
                                  bound, id=f"uncentred/{key}"))
    for key in DENSE_FIRST_BLOCK_BRANCHES:
        generation, potential = key.split("/")
        marks = ()
        if key == "central-difference/so2-ring":
            marks = pytest.mark.xfail(
                strict=True, raises=BranchDrift,
                reason="theta0 under the central difference moves the so2-ring disk "
                "branches by 3.2e-9 (1 + |x|) from the dense first block's",
            )
        cases.append(pytest.param(DENSE_FIRST_BLOCK_BRANCHES[key], generation,
                                  (potential, "disk"), 1e-9, marks=marks,
                                  id=f"dense-first-block/{key}"))
    for key, recorded in SERIES_BESSEL_OUTPUTS["verify"].items():
        generation, potential = key.split("/")
        marks = ()
        if key == "central-difference/so2-ring":
            marks = pytest.mark.xfail(
                strict=True, raises=BranchDrift,
                reason="theta0 under the central difference moves the so2-ring disk "
                "branches by 4.9e-9 (1 + |x|) from the series Bessel values'",
            )
        cases.append(pytest.param(recorded, generation, (potential, "disk"), 1e-9,
                                  marks=marks, id=f"series-bessel/{key}"))
    return cases


NEAR_RECORDED_CASES = _near_recorded_cases()


def _branch_files(outputs):
    return sorted(name for name in outputs if name.endswith(".json"))


def _expand(run_length):
    return [index for count, index in run_length for _ in range(count)]


def _assert_near_recorded(outputs, recorded, bound=1e-9):
    """The verdict, detected levels, branch files, terminations, point
    counts and block Morse indices of recorded (an entry of CHORD_BRANCHES,
    UNCENTRED_BRANCHES, DENSE_FIRST_BLOCK_BRANCHES or SERIES_BESSEL_OUTPUTS'
    verify records), and every lambda,
    sup_norm and min_offsym_singular within bound (1 + |x|) of its x there,
    or BranchDrift."""
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
            drift = max(abs(v - x) / (1.0 + abs(x)) for v, x in zip(values, rec[field]))
            if drift > bound:
                raise BranchDrift(f"{name} {field}: {drift:.2e} (1 + |x|) > {bound:g}")


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
    the ones at the default step.

    Every digest was re-recorded again when each step came from the
    corrector's first contraction instead of growing by 1.4 up to ds_max
    0.2 (fewer points; verdicts, detected levels, terminations, the ends of
    lambda_range and max_sup_norm unchanged to 1e-8).  The digests before
    that are kept as FIXED_GROWTH_DIGESTS, and verify still writes those
    bytes with the fixed growth.

    Every digest above was recorded with the lambda column of each bordered
    matrix taken as a central difference of two residuals, and verify still
    writes them with it (AT_CENTRAL_DIFFERENCE, in every prelude).  By
    default the column is exact, and verify writes EXACT_COLUMN_DIGESTS:
    the same verdicts, detected levels, point counts, terminations, folds
    and block Morse indices, the ends of every branch to 1e-12 and its
    other points moved by at most 1.0e-8 (1 + |x|), as theta0 sets each
    next step.

    The so2-ring digests of every generation were re-recorded when the
    potential was centred at u0, its derivatives evaluated at the deviation
    v = u - u0 from F(u0 + v) expanded once; the values before are kept as
    UNCENTRED_BRANCHES and checked.  The pitchfork digests, where u0 = 0 and
    nothing changed, were not.

    The disk digests of every generation were re-recorded when every
    Jacobian of a disk branch, its first block included, came from the
    sum-factorized kernel instead of the dense assembly; the values before
    are kept as DENSE_FIRST_BLOCK_BRANCHES and checked.  The circle and
    2-sphere digests did not change.

    The disk digests of every generation were re-recorded again when every
    Bessel value came from one sweep of Miller's recurrence instead of the
    ascending series below x = 12, which moves the disk's beta by up to
    4.8e-14 relative; the values before are kept as SERIES_BESSEL_OUTPUTS and
    checked.  The circle and 2-sphere digests did not change."""

    SPHERE_OPTIONS = ["--domain", "sphere", "--dim", "3", "--window", "0.5:8"]
    PLANE_OPTIONS = {
        "circle": ["--domain", "sphere", "--dim", "2", "--beta-cutoff", "10",
                   "--window", "0.5:9.5"],
        "disk": ["--domain", "ball", "--dim", "2", "--window", "0.5:10"],
    }

    EXACT_COLUMN_DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "2897a4b1cd1c08f021fad2c41d42cb45d6e0d3c3e0eb9f8548ed9ce8b4f9b507",
            "r.branch-2.csv": "35359d1a2727c83d19ac717fc185aecc36642e3eb2642b9c9dbe440df5b35f4d",
            "r.branch-2.json": "aabdd87fe02137273c507c256f85aff75636a47f1dd0c0ca9d6f1e9831e64fc1",
            "r.branch-6.csv": "f87dda0fe34b06ddf2e68a46dc1cb5189bd62b651b4e4f5d2350e60ddcffd86e",
            "r.branch-6.json": "7f789a4a8152b5134c649912df03745538e6311c69af75fbcdb15c164a574502",
        },
        ("so2-ring", "12"): {
            "r": "e31e99c12917a7f08a9e9d3da9643a4d2d48cad11ae452d0af7ddf45b6162113",
            "r.branch-2.csv": "c3cc219c4e4be0285e405449ea934e1eff3ab02d470885f3b42207efbcc4c63a",
            "r.branch-2.json": "66ff5e9250360b1d4faae4c291206269e933c6c8d50f29fb11f41ec9727dca9d",
            "r.branch-6.csv": "ac3ef8b4d304eee226f759a3adabf629347aa9bc396aaa3e3a6bd958e72d690f",
            "r.branch-6.json": "e111fafc7e0780ecbba0ae4d6639a61698e142d943bf2556e24a51ef927bd60b",
        },
        ("so2-ring", "24"): {
            "r": "88716ef8973c8af7ec00c81a6c956d757c4273efb79d7db0f33118304ebdbaee",
            "r.branch-2.csv": "54dc0c2e56cbf80fd4a0c81830a4a7b385663e673e363a7a7b0f139c9fa57620",
            "r.branch-2.json": "54f45ca1c787c6f4e69aa1d855c98895dcb6d2aa130cc1c6331bfe69e1c8cf23",
            "r.branch-6.csv": "8e96209b4f6360c643cda67c6d9bed21eb747c06938aa42f2cd52f0b587d73ac",
            "r.branch-6.json": "1177d2740323ab93ae878ec91898eb57b9bbd865b8fe5b64f5a23587cf91e255",
        },
        ("pitchfork-scalar", "circle"): {
            "r": "39536e522bcbeca91ba97916c793a8d22bc27860ad2db21c950fa94cc5606ec4",
            "r.branch-1.csv": "e828778aa7a8809ce4302e4a3cca2b6632916cba8af6b8c838d58968d09f76fe",
            "r.branch-1.json": "9ca530dfd5fa3ee822943391fdf7be4ca886da62907fb20faf04134d61fee959",
            "r.branch-4.csv": "00c13d6422e0f6632293160ca672377610ab14635a72868e5ed2c5525cea75ae",
            "r.branch-4.json": "0d82a6c6eb327a219f4cb100d68a150d5a91ea7865297f24d902dc4f2d59c4c2",
            "r.branch-9.csv": "54592edaf49e6c081af8acc91c4dcbc83b8abc5f88bfaf7c31aea799234b3848",
            "r.branch-9.json": "bac18afdd0f2d46275ad6e4e59955db2ffed4cb0498976fe0dee5a008cc16257",
        },
        ("so2-ring", "circle"): {
            "r": "89eced5b56e83b8c7b0c9d0aa3bb61fbb0d4523a2b1200d0a3cb7e27f846dba2",
            "r.branch-1.csv": "b09e4f34db70b36645da6c580d6b90a10fb4b217531c5adf16cfc1d73b57181f",
            "r.branch-1.json": "bda1296d0ad530fed7ee5930d0a5e3a9fd4729c4b96fbffcb95cef2a253ad79d",
            "r.branch-4.csv": "2e5c01333ae7e9e30e42d17cc6839c6890de12576138c5105118af44add23b59",
            "r.branch-4.json": "65011acca48c5c90a2b26677d1894b15d281660fd890eb97b64b0795a84a91e9",
            "r.branch-9.csv": "bdc703da807e02e1cddff5296d30590f7672781a128d917cc37d7fc8152216a9",
            "r.branch-9.json": "71dbb762cc150398ea6f76e28f552818d8221b61d17d4cb6f20140c2e75c0ff4",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "383b6260bda7d441de45ac12aaa14982acb03560a3669322fd9d4768dba36284",
            "r.branch-3.38996.csv": "2276ac3f559e86fc1ae0b65cb0c2f60697a33797d248b5c105b5f830f4c4beb3",
            "r.branch-3.38996.json": "9df4f266322f7b640d35116ab5c66a8791c156d356f55c727385a511839546d9",
            "r.branch-9.32836.csv": "8257d387609bf75f311651a2bdd09a22157cdaea5b490394050ae0cbc8174e9c",
            "r.branch-9.32836.json": "d7982c4ef81f6b5d109de915dd1948ffe123997a2f4fd474d3bf84f50d553a9c",
        },
        ("so2-ring", "disk"): {
            "r": "8eee4f6d387a29fc9d2d29f1e6e2f2f445e310cfb00fbfc63dded776d3aed7d4",
            "r.branch-3.38996.csv": "d5108eb76042c6e6a872f223afc1067165923018af406e80978b49e5d0907b89",
            "r.branch-3.38996.json": "3d15b0f3d87aff8474d616848ac929aa06045aa12dc4175fdfc12597e2bed9c2",
            "r.branch-9.32836.csv": "d1f3c09303dc338f55feb9a79f76ba812654cfa74c52906b6069909352f7ba16",
            "r.branch-9.32836.json": "dc29098be17ff87178b826e2b40828eb90168a56e1f9162a800249229431b5ed",
        },
    }

    DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "52834673538d8a5e8a0166c3f40e7b7abd7b5b49d3857d946d1dffd9c22a1f6a",
            "r.branch-2.csv": "4dbd56f30773c365ab8d3d9ed2dc56f4f853ae53d4b51f3f3b70cce29dbe0197",
            "r.branch-2.json": "ddc9f7ae4eaae698d67fe3a6fc870f34f74b99ff90cf1add0f13b093563f40cb",
            "r.branch-6.csv": "f6f4bad80fb1da4d027f85e69d5bbd34dd3e666a8e42b36577a830d0c7731b18",
            "r.branch-6.json": "e3ff757a0a7b615df7f24757b34393d635a3b6686a9292e35adfb0d1da6ab475",
        },
        ("so2-ring", "12"): {
            "r": "823b7051df6ef885144e4f081774a69329c26440398a495658988d3e65eec80a",
            "r.branch-2.csv": "4a8cba53a34f18c9cff09d5f25824b534b99947dea6881e6873424dc8820c494",
            "r.branch-2.json": "ea13bb970546e17751cab91348b5b9c47087ee00a3a6a528c98edfcde2fba7bf",
            "r.branch-6.csv": "157cd6e5f555a45f025153dd9e9612ad8c43aafec89c7dad50a47594a4e1bb7f",
            "r.branch-6.json": "79067a2ed1c97391d857b3d5f4b6062ea7b94880f505d201d3392f1c85c108e0",
        },
        ("so2-ring", "24"): {
            "r": "ebb058640902e8b21e2db7ba0f4a1ec8f0a86c5986bfa3174cf9b1206de0abcb",
            "r.branch-2.csv": "269ba4ffd2b777410c82b4688ba9dd868d8d9fa9b3346864d0b635412d1436c0",
            "r.branch-2.json": "a3eec75851e20d66f2ddf3ce2bcd9d71d46e00c89fc5062d3120a7a765b88092",
            "r.branch-6.csv": "e3833ff22077461352967bb5a2f5d0ac2c720fe5b78c84d85d8757f2178abb33",
            "r.branch-6.json": "f97c104453d43f16d51327f6ab037c2e031ffef94b87290cc5d9319843adecfd",
        },
    }
    PLANE_DIGESTS = {
        ("pitchfork-scalar", "circle"): {
            "r": "3e80150bb992f4603242c41a1161f1b328b90b9a28e6c905f8f8734dd7724191",
            "r.branch-1.csv": "428cd69278a758d5ed4976f9fb45a50e8400c079886826a80d3e52fc5cd0c344",
            "r.branch-1.json": "40995aaabc7ea3494c5b9f9b5122e38ef52c57095e68b0beab945675c0c1847b",
            "r.branch-4.csv": "b82fefb9e9085589028e75dfdeeb847dc7664e2e41f52d67e9327d08a3025ca4",
            "r.branch-4.json": "37e2672bf5b65b1441dee0fc9fadc751366e842e57e42cd224ddc2e5844c123d",
            "r.branch-9.csv": "68c2fdf91ca97807eb2cffe0ce83db8d1d412b59732870dffc1a0b79994dbe83",
            "r.branch-9.json": "ee9b056d45f7d8c36789ac97e80e899ff91736686fdc4f05b035a18f872a9978",
        },
        ("so2-ring", "circle"): {
            "r": "eb170d04f604b7b1c21d11e76d155099618145eeb3bcdca9d43cc36c3c676750",
            "r.branch-1.csv": "f49eae9c050c04bac82045c1b02a2ed45fe464bc2233a2b275b4ea34e0fe0f32",
            "r.branch-1.json": "039cfdfcb8d187892865db6b124097f480347ab2741746523f4d2053f615e4b9",
            "r.branch-4.csv": "e5b61b460508b41f229d105a36cd65d9d0cbe6d38aafe8289044097ed00d3243",
            "r.branch-4.json": "b22cc7e8fec1e87b98330abd643994d04955dfa37877fdf0f7e73e15d7aaab34",
            "r.branch-9.csv": "f1665f5e65acf0f4ba47746d49fe1b3b5b237826db24483a424668c00f0b4529",
            "r.branch-9.json": "389062f38e1479a023d24707ccaee4f41fab732bc4349ca5a1e83d9de2a80ffb",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "b91b43c956d9db4bac80c2896c66afe8a6bdca592811d4b3d3f035600cc71a74",
            "r.branch-3.38996.csv": "9976fe07d953af89831bc2e6a87566879772df95c627d1d5b71e8a9509e8df75",
            "r.branch-3.38996.json": "48849705e8ac9fd3e9042e0c92e9b5e0bb79edd02bfc1e2f4cf9909026658130",
            "r.branch-9.32836.csv": "a38940933d0893e6d9a45db9d6d26e1f785f591b53651386cb02ecf62491e12d",
            "r.branch-9.32836.json": "7de3a852b8abac00834ea86cbb1c70d30a6c45d5c1f286f816c3cccc65d8394a",
        },
        ("so2-ring", "disk"): {
            "r": "da293004afaa32834ee472db846d487b544d1556cea75cf693a271e064da2c95",
            "r.branch-3.38996.csv": "3878a66a8c95c810d67c3d7cc54749784882f13c14975a0e4fe59b5ec7358970",
            "r.branch-3.38996.json": "42d822809862fa89c5478a4995e41a909486df88ea654c4ba004ed180d340fb2",
            "r.branch-9.32836.csv": "01b448dff6873690b6e591c509c139b48e299ebad83dda2c71eed567c8917e00",
            "r.branch-9.32836.json": "f24bc78b9db5502908705649ec8d20e24f0a8fe08ced7207a5427c52c0750288",
        },
    }

    # the digests recorded while every step grew by 1.4 up to the library
    # default ds_max 0.2, before it came from the corrector's contraction
    FIXED_GROWTH_DIGESTS = {
        ("pitchfork-scalar", "12"): {
            "r": "f60cb73f54bc5d8f89a51b9c45a9cfe7a7f4591d085d3f3f1e13f0447174b5c3",
            "r.branch-2.csv": "46e1f43b16fb9d65079e6ea7a28633afdf60bdbda028d9983474584acb31a099",
            "r.branch-2.json": "cda26800543afbb9ca283ff3515322c5ac7015e7bd5b77da5234744dd412622f",
            "r.branch-6.csv": "bf532d00be0628e076a82528b1bc353ab3f799d9875a3b50554645f554beeba5",
            "r.branch-6.json": "2655ab1d5bb6cd2e965d90f079059cb3a34d12a556836b8c3f666dbb0f9bfd85",
        },
        ("so2-ring", "12"): {
            "r": "9bb71775e49660d98bef0f695d74bbe68afee208fa278b24e15e6798c5d9966b",
            "r.branch-2.csv": "f17cb21b10c1710b41ae0857c84736b279dfd0f64b932d35a3154aedd64dfacd",
            "r.branch-2.json": "47ce05e5acb3bfe2be2dc1722328b9be0356515d849fa90ff5f8046d45607e70",
            "r.branch-6.csv": "07eb92c290ba8b8f3d60a611e727b4a029b9207856a9ec49a1da9c85eab6b569",
            "r.branch-6.json": "6ddec981d9f26826edc736ccc9157a9b1a933701aeef0d6f05e3e872e7efd4a1",
        },
        ("so2-ring", "24"): {
            "r": "fa20808eedcf5a70d7b4f471523eaf2b8bfe29db0227b4cbc9d480c8dbbedfed",
            "r.branch-2.csv": "88347fc6239fa2d208e061828fc7a217837505958bee41c65f363e1be76c4eff",
            "r.branch-2.json": "5239ef6a9f390397a4adca1b32be09fd852ee074afaec173ddf0f47ae01803d2",
            "r.branch-6.csv": "ea3083a612f1753b9c9bdc4b2d4271cf40185a101fa2cbeadcf8702d2a491f20",
            "r.branch-6.json": "6fe0bdca229c55e4f561cd0795884748fb50b46a1851187f60c63d1ef0d89f46",
        },
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
            "r": "a0ef8acbad23150472c4293fb6f2f71a6b5bfe78c682d67ac33b96e3651104ba",
            "r.branch-1.csv": "53911127062b58dfe8cda1bb9b0875c71078703bb9763a6d02a92d2bb2dfbf4f",
            "r.branch-1.json": "beae6df46246c99b8cd23e6243d3e65d2cfc7b18bb44611f43fe5178ba6df55c",
            "r.branch-4.csv": "af2791d647ea1a9ac1a1c43348a339c14b293265f3b40f390f34a5d37297ce46",
            "r.branch-4.json": "55ade238d8d2f827932c99efbb467513be13bb2fbed6868b579cb7cb48dccbe5",
            "r.branch-9.csv": "4b29a30af9eadc0553659b4e60013c9a8c508b831fc74db9ccd37af8e88e11ea",
            "r.branch-9.json": "2f6f0709599291b11d21fb9f34eb573b966228b57767b1607593ce4617d4ccde",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "2f67e81b9d8800b1b42ba705d71f38dbd75bc96521828c731062ee0f9956d39a",
            "r.branch-3.38996.csv": "c181198e416c00c1f21d891a20f9f0bf3ba61948993c3c42fa7249f5d2afad5c",
            "r.branch-3.38996.json": "d0297329723b02effc2222e8707cd178c10ed720373e0547306bfaf936e2c2e9",
            "r.branch-9.32836.csv": "4465381d357b3fefd936944afa128e977b6d0d6e77b8e469b40c4205209732c9",
            "r.branch-9.32836.json": "ab4a09c94d13b8078080e2ff3bba16d35c6f13b3befe0081cf96ee4838b71f85",
        },
        ("so2-ring", "disk"): {
            "r": "5a3fbf391d5c82ede6a61dafb175d2efec1c1db4dde3b2821e67b2fd279e23b7",
            "r.branch-3.38996.csv": "2287a147eafbfd10a34f9c8e672f0e2e1e2f65af6afaaa3a10de7478b8420042",
            "r.branch-3.38996.json": "1c0544f26870828e6b81dcb282bd75804648c15aedae392a40bab0e5874666b9",
            "r.branch-9.32836.csv": "379d905a75ddde0af41ea71e66152e6f32307c5efc0b4749c129cab1c97804d7",
            "r.branch-9.32836.json": "c13d79bf2491bf9ddfd0f2134d08c468ac2bd4a768d90b1bacf9457d5a522c0a",
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
            "r": "0b2140f05f1ce4d86322022b26301e6a732d2fe639b9778fbb32d73aac568676",
            "r.branch-2.csv": "f2a862cddc2c3cd2584e5939f7e8c98b2038c447378ff45649769fe1c9c9b903",
            "r.branch-2.json": "97df0168a26593498a3d38796de9f292a0e16904ed23b2a4b0af40f51b19f82c",
            "r.branch-6.csv": "15ceb3688ee1df16aa2bff651d95bb570e8b76d0512afdef3114660fd5140cfd",
            "r.branch-6.json": "152fe95d77b9fa8124b8748075365e148cc960b9fb1a3436cc16e19768c4d404",
        },
        ("so2-ring", "24"): {
            "r": "29fd7a05b3b7f631abe71d2a582265df02087806f5ae3ced735cd36f68785748",
            "r.branch-2.csv": "bd30dbbb17fbee1a7dfc11eb0e47e2de2427cb5946e25064e36f32daab27625c",
            "r.branch-2.json": "f147793266cf8bd6b8321c30fa2efbb5082f69ce6433b2e6e7672ead23ba5d72",
            "r.branch-6.csv": "f290bb510df36fcd1690f44a126b9bbb405b733bbd90a97934ce6294c46dc793",
            "r.branch-6.json": "1c078ba2dcab8205b1b4e30ef2032913259e9e06737a4c05d5dc3580f90cd567",
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
            "r": "e644e9757369c0c5c2f9978e5f4b4077bd7f5980d0f79bd8d2771d6086e2c02c",
            "r.branch-1.csv": "c30d32d5b800581aac18d302c28253111b31baa2d5cccb60e1361599a339cc44",
            "r.branch-1.json": "03c32ba607293f42d4ba3014427a856719d0f182aa7a4fda459a6f9470ebd10e",
            "r.branch-4.csv": "245d0170cfd25d84484d8fd50954091c75f8020548d8358dea9fcc248b897a85",
            "r.branch-4.json": "1b3d8c73595d5393ff79d8bb7287cebb5bb1102c2b7891286b27f9df1b760398",
            "r.branch-9.csv": "d44896c4b3fbba6714dad5fea6d2ab2674e0ffba8ab38cbf9bd88fca85a73858",
            "r.branch-9.json": "35e3b99ce2be5d76c8e1f966a9348559808fb176cf53a4910c0e5dae0f574be3",
        },
        ("pitchfork-scalar", "disk"): {
            "r": "b5114ec0a8a09d21ca9f9344b24c100a181d042a547d407d6489a1b3ce0bae71",
            "r.branch-3.38996.csv": "5a32059b81027241da6c175f599bf4ccd3acb49a8805f6b4b74544a62da676c3",
            "r.branch-3.38996.json": "884b9d8bc2a96892ae00e4f5134f6fd2f4b6613ce3edb3c9e05c35755945b8cc",
            "r.branch-9.32836.csv": "e18e999b13b609fa31d025dfbcb821bb97d28ab2d244620e2848474d11adfdf7",
            "r.branch-9.32836.json": "997f905a7995ce310ededba6d585db10dd2eca9d0b88401a2906b44ed02ad981",
        },
        ("so2-ring", "disk"): {
            "r": "70d94e848d913eba4c313ecd0f49dd57b4e16c6e53ede2ac966e4ec20adae19d",
            "r.branch-3.38996.csv": "ece948c1eb8de79eb12c6e17d259542e6a7801446b1d2ba00024b3f1e981d05e",
            "r.branch-3.38996.json": "66331d169d2557f7d21e47a98371c018d30db8dea0456e237af097b693f23ef9",
            "r.branch-9.32836.csv": "292537a64780e3949cbc5c2074c52b72e45b33b20a895216ab46aba1f214956a",
            "r.branch-9.32836.json": "a9c731765bbb69d77793f506edac549ba35d78d232289ff0d74c6c3246fe8a9c",
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
        digests = {
            name: _sha256(data)
            for name, data in outputs(case, threads, AT_CENTRAL_DIFFERENCE).items()
        }
        assert digests == self.DIGESTS[case]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(PLANE_DIGESTS), ids=lambda case: "-".join(case))
    def test_circle_and_disk_outputs_match_recorded_digests(self, case, threads, outputs):
        digests = {
            name: _sha256(data)
            for name, data in outputs(case, threads, AT_CENTRAL_DIFFERENCE).items()
        }
        assert digests == self.PLANE_DIGESTS[case]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(EXACT_COLUMN_DIGESTS), ids=lambda case: "-".join(case))
    def test_exact_column_outputs_match_recorded_digests(self, case, threads, outputs):
        digests = {name: _sha256(data) for name, data in outputs(case, threads).items()}
        assert digests == self.EXACT_COLUMN_DIGESTS[case]

    @pytest.mark.parametrize("case", list(EXACT_COLUMN_DIGESTS), ids=lambda case: "-".join(case))
    def test_exact_column_keeps_every_count_and_every_end(self, case, outputs):
        # the column changes no decision of verify: the verdict, the
        # detected levels bit for bit, and per branch its termination, point
        # count, folds and block Morse indices are those of the central
        # difference, the ends agree to 1e-12 and every other point moves
        # by at most 1e-7 (1 + |x|) (measured: 1.0e-8)
        exact, difference = outputs(case, "1"), outputs(case, "1", AT_CENTRAL_DIFFERENCE)
        report, reference = json.loads(exact["r"]), json.loads(difference["r"])
        assert report["verdict"] == reference["verdict"]
        assert report["detected"] == reference["detected"]
        for rec, ref in zip(_branch_records(report), _branch_records(reference), strict=True):
            assert rec["termination"] == ref["termination"]
            for x, y in zip([*rec["lambda_range"], rec["max_sup_norm"]],
                            [*ref["lambda_range"], ref["max_sup_norm"]]):
                assert abs(x - y) <= 1e-12 * abs(y)
        names = _branch_files(exact)
        assert names == _branch_files(difference)
        for name in names:
            branch, ref = json.loads(exact[name]), json.loads(difference[name])
            assert branch["termination"] == ref["termination"]
            assert len(branch["points"]) == len(ref["points"])
            lams = [p["lambda"] for p in branch["points"]]
            assert _fold_indices(lams) == _fold_indices([p["lambda"] for p in ref["points"]])
            for p, q in zip(branch["points"], ref["points"]):
                assert p["block_morse_index"] == q["block_morse_index"]
                for field in ("lambda", "sup_norm", "min_offsym_singular"):
                    assert abs(p[field] - q[field]) <= 1e-7 * (1.0 + abs(q[field]))

    @pytest.mark.parametrize("case", list(FIXED_GROWTH_DIGESTS), ids=lambda case: "-".join(case))
    def test_fixed_growth_writes_the_previous_digests(self, case, outputs):
        # the step rule changes which points are taken, not how a point is
        # corrected or reported: with the fixed growth verify writes the
        # previous bytes, and the verdict, terminations and ends of every
        # branch are those of the default step, to 1e-8
        fixed = outputs(case, "1", AT_FIXED_GROWTH)
        digests = {name: _sha256(data) for name, data in fixed.items()}
        assert digests == self.FIXED_GROWTH_DIGESTS[case]
        _assert_same_ends(json.loads(outputs(case, "1")["r"]), json.loads(fixed["r"]))

    @pytest.mark.parametrize("case", list(OLD_STEP_DIGESTS), ids=lambda case: "-".join(case))
    def test_old_step_without_located_ends_writes_the_old_digests(self, case, outputs):
        # the located ends replace the last point and insert the folds, and
        # change no point that continue_branch accepts, bit for bit
        old = outputs(case, "1", AT_OLD_STEP_AND_ENDS)
        _assert_near_recorded(old, CHORD_BRANCHES["/".join(case)])
        assert {name: _sha256(data) for name, data in old.items()} == self.OLD_STEP_DIGESTS[case]

    # the prelude that replays each generation of recorded branches
    REPLAYS = {
        "exact-column": "",
        "central-difference": AT_CENTRAL_DIFFERENCE,
        "fixed-growth": AT_FIXED_GROWTH,
        "old-step": AT_OLD_STEP_AND_ENDS,
    }

    @pytest.mark.parametrize("recorded, generation, case, bound", NEAR_RECORDED_CASES)
    def test_branches_stay_near_their_records(self, recorded, generation, case, bound, outputs):
        # a change that moves branches in their last bits keeps the
        # verdict, the detected levels bit for bit, and per branch its
        # termination, point count, folds and block Morse indices, and
        # every value within bound (1 + |x|) of its record (NEAR_RECORDED_CASES)
        out = outputs(case, "1", self.REPLAYS[generation])
        _assert_near_recorded(out, recorded, bound)
        for name, rec in recorded["branches"].items():
            lams = [p["lambda"] for p in json.loads(out[name])["points"]]
            assert _fold_indices(lams) == _fold_indices(rec["lambda"])

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


class TestPredictGoldenDigests:
    """sha256 of what `symbif levels` and `symbif jump` write (stdout, then
    stderr) for every builtin on S^1, S^2, the disk and the 3-ball, with
    the exit code.  levels runs at --beta-cutoff 30; jump at a level of
    alpha = 1 with the default epsilon and cutoff: l = 2 on the spheres, the
    first radial level beta = x^2 > 0 (l = 0) on the balls.  A = 0 has no
    level, so so2-ring-degenerate's jump exits 2 with its error.

    The ball digests of the builtins with levels were re-recorded when every
    Bessel value came from one sweep of Miller's recurrence instead of the
    ascending series below x = 12; the outputs before are kept as
    SERIES_BESSEL_OUTPUTS and checked."""

    DOMAINS = {
        "sphere2": ("sphere", "2", "4"),
        "sphere3": ("sphere", "3", "6"),
        "ball2": ("ball", "2", "14.681970642123892"),
        "ball3": ("ball", "3", "20.19072855642663"),
    }
    LEVELS_DIGESTS = {
        ("pitchfork-scalar", "sphere2"): "8460c4f2d39fd23d7b89b7579af9aeff13c6b60d609dbb98e41d1afaf9de6329",
        ("pitchfork-degenerate", "sphere2"): "99f7b78b9578a5012ae623d1802e6e55e1ba42064a62a164c8c429dcc2346717",
        ("so2-ring", "sphere2"): "67325046dade1d62108b2e3854d72fef491f45fecd4af9b1d6567491a4d14b49",
        ("so2-ring-degenerate", "sphere2"): "6c3a6f0cec1fb97510e12616ccb414ffb1c7b94af03fce6db4d7e9bafb852b1a",
        ("pitchfork-scalar", "sphere3"): "45411f8728542ebb1bd68fb9b275db4eaaccca94f82e22fc07e5c8f666e1e059",
        ("pitchfork-degenerate", "sphere3"): "e14ff66b448be8891d0051ccaa6b5927e4fa640a51e61057fe579b09a7b014ec",
        ("so2-ring", "sphere3"): "6a2a6fc9fa91689f7ce9f816897c0e71e11c1f33b21211c7d2d4937ebdbecc59",
        ("so2-ring-degenerate", "sphere3"): "5ed07645364495983493b9a758419ca20da36a0afbea400c7e7abad276d68daf",
        ("pitchfork-scalar", "ball2"): "ef0b359cac468e456ee0c7004fd54ec602e4b8dfad952fbb27c67de02645ff85",
        ("pitchfork-degenerate", "ball2"): "c4a6ae0f41097f999b779fdd8464b521986b076cdf644fdfd0c7191fabc2659e",
        ("so2-ring", "ball2"): "62514d848702e66af8b2c18f44d05b410807be3686faafb6959119a805b4ed3d",
        ("so2-ring-degenerate", "ball2"): "07a531fd1aca73f16543a0d8d923adb2fbc0759c9adbd8b359c340e097778c29",
        ("pitchfork-scalar", "ball3"): "29b9576c70d9d6ee97993fa2a518ae4578d284db4cdc0be29fc14c6a2ac583fb",
        ("pitchfork-degenerate", "ball3"): "11c5e8085b6de9399cfdec2f63966725ecaf6d865b977f857896fbb09fda85c7",
        ("so2-ring", "ball3"): "e0676ac463c406e4b4cf6a10910b2d2967795cf94c43596ae5f2adb56e0b2b9b",
        ("so2-ring-degenerate", "ball3"): "60c2685baa9dd048df92e523a898fb360a8258d6f1006dba02ca1c9464fa7da2",
    }
    JUMP_DIGESTS = {
        ("pitchfork-scalar", "sphere2"): "1fe7b86c6fbe709af246a3c62957ae43178cb1940d0ea0103909fe2610cb23d0",
        ("pitchfork-degenerate", "sphere2"): "694e19dab02a5fd262c379773662c88aa08440bf9dbfa94935e9a6b86ebc2eb8",
        ("so2-ring", "sphere2"): "8519ef69b30cd27e5811743fd18eb49710992f44746c2f4ca5bdfe4a33c7dc30",
        ("so2-ring-degenerate", "sphere2"): "446a87afaf60369157d0215202d97e4d1b97e18aaecf491640d8d8bc8ed16002",
        ("pitchfork-scalar", "sphere3"): "537d904ed97b9715aaaa4a6842bda96d43d50ab7ce189cfdd70ca526a4bd5057",
        ("pitchfork-degenerate", "sphere3"): "2e5f90f0ea76a0d25f4bd4a0a67bb6f10dda55ae5e0d052a292bd1f774828e25",
        ("so2-ring", "sphere3"): "c84210b3a09115a6f3d3ba6aad1010cd61aad3e41e52992cf96e7ab54eaa156c",
        ("so2-ring-degenerate", "sphere3"): "0d199c8b3a778ba4bafa05dbf25193b75163820dc7cc1459c98839f41a08bd1c",
        ("pitchfork-scalar", "ball2"): "566123040d638ddcdbdb58bd6910cf3c948dbaa8dec8d5a5cd3f85c051bf6f05",
        ("pitchfork-degenerate", "ball2"): "08dadb931b59308a8b3eab28ef992cd5654e2ce63ae6622ff516abcde3206957",
        ("so2-ring", "ball2"): "7caa26b5954334ab057583943ca2a636618aa8962d5fd66eb1289aa2e3331b48",
        ("so2-ring-degenerate", "ball2"): "f73abd66e38e7c5bb2e25d7ebb9b52c5dacef4b7b48317388e490b12f592995d",
        ("pitchfork-scalar", "ball3"): "c15f2e87b369ddb8c61f2bec30ff596e911916493179a790c08f58ed2d945d7f",
        ("pitchfork-degenerate", "ball3"): "67c274d1321b72daa4813078a779cfdbb373831b150db43a307e1efef160e607",
        ("so2-ring", "ball3"): "3546ce3f106f53bfeb11b7cabd90119a5178c3d46c65e422ac28f7194f0f4075",
        ("so2-ring-degenerate", "ball3"): "83d610c920e5e0f6b6e2d98fbd9a8bb4f5eac7d911d9e5d1bebd7258f1e1f6ff",
    }

    def written(self, capsys, command, case, *options):
        potential, where = case
        kind, dim, _ = self.DOMAINS[where]
        code, out, err = run(
            capsys, command, "--potential", potential, "--domain", kind, "--dim", dim, *options
        )
        return code, _sha256((out + err).encode())

    @pytest.mark.parametrize("case", list(LEVELS_DIGESTS), ids=lambda case: "-".join(case))
    def test_levels_match_recorded_digests(self, capsys, case):
        written = self.written(capsys, "levels", case, "--beta-cutoff", "30")
        assert written == (0, self.LEVELS_DIGESTS[case])

    @pytest.mark.parametrize("case", list(JUMP_DIGESTS), ids=lambda case: "-".join(case))
    def test_jump_matches_recorded_digests(self, capsys, case):
        written = self.written(capsys, "jump", case, "--lambda0", self.DOMAINS[case[1]][2])
        code = 2 if case[0] == "so2-ring-degenerate" else 0
        assert written == (code, self.JUMP_DIGESTS[case])

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c in ("levels", "jump") for k in SERIES_BESSEL_OUTPUTS[c]],
        ids=lambda v: v.replace("/", "-"),
    )
    def test_ball_outputs_stay_near_the_series_records(self, capsys, command, key):
        # the exit code and stderr as recorded on the series Bessel values,
        # and stdout with the same keys, strings, integers and lists, every
        # number within 1e-13 relative of its record (measured: 4.8e-14 on
        # the disk, where the series' roots were off by up to 4.6e-14, and
        # 4.1e-16 on the 3-ball)
        where, potential = key.split("/")
        kind, dim, lam0 = self.DOMAINS[where]
        options = ["--beta-cutoff", "30"] if command == "levels" else ["--lambda0", lam0]
        code, out, err = run(
            capsys, command, "--potential", potential, "--domain", kind, "--dim", dim, *options
        )
        recorded = SERIES_BESSEL_OUTPUTS[command][key]
        assert (code, err) == (recorded["code"], recorded["stderr"])
        assert bool(out) == bool(recorded["stdout"])
        if out:
            _assert_near_document(json.loads(out), json.loads(recorded["stdout"]), 1e-13)


def _assert_near_document(value, recorded, rtol):
    """value has the structure of recorded, equal in everything but floats,
    and every float within rtol of its record, relative."""
    assert type(value) is type(recorded)
    if isinstance(recorded, dict):
        assert value.keys() == recorded.keys()
        for k in recorded:
            _assert_near_document(value[k], recorded[k], rtol)
    elif isinstance(recorded, list):
        assert len(value) == len(recorded)
        for v, r in zip(value, recorded):
            _assert_near_document(v, r, rtol)
    elif isinstance(recorded, float):
        assert abs(value - recorded) <= rtol * abs(recorded)
    else:
        assert value == recorded


# a p = 3 quartic with the trivial action, so its normal slice is all of R^3:
# F = lambda sum a_i y_i^2 / 2 - sum y_i^4 / 4, y = R^T u for a rational
# rotation R and a = (1, 5/4, 7/4): perfbench/inputs.py's slice3-degree input
# at seed 1
ROTATED_QUARTIC = (
    "[potential]\nname = rotated-quartic\np = 3\naction = trivial\nu0 = 0, 0, 0\n"
    "f = lambda*((1)*((739/1261)*u1 + (-60/1261)*u2 + (1020/1261)*u3)^2"
    " + (5/4)*((660/1261)*u1 + (989/1261)*u2 + (-420/1261)*u3)^2"
    " + (7/4)*((-60/97)*u1 + (60/97)*u2 + (47/97)*u3)^2)/2"
    " - (((739/1261)*u1 + (-60/1261)*u2 + (1020/1261)*u3)^4"
    " + ((660/1261)*u1 + (989/1261)*u2 + (-420/1261)*u3)^4"
    " + ((-60/97)*u1 + (60/97)*u2 + (47/97)*u3)^4)/4\n"
)


class TestSliceDegreeGoldenDigests:
    """sha256 of what `symbif levels` and `symbif jump` write (stdout, then
    stderr), with the exit code, for configs whose normal slice has 2 or 3
    dimensions, so that their degrees come from brouwer.degree_nd: levels at
    --beta-cutoff 30, jump at the given lambda0 with the default epsilon
    (the rotated quartic's at 0.2028)."""

    CONFIGS = {
        "double-resonance": TestVerifyCommand.DOUBLE_RESONANCE,
        "ring-times-quartic": TestVerifyCommand.RING_TIMES_QUARTIC,
        "rotated-quartic": ROTATED_QUARTIC,
    }
    # (config, sphere dim) -> (lambda0, extra jump options)
    CASES = {
        ("double-resonance", "2"): ("4", ()),
        ("double-resonance", "3"): ("2", ()),
        ("ring-times-quartic", "3"): ("2", ()),
        ("rotated-quartic", "2"): ("4", ("--epsilon", "0.2028")),
    }
    LEVELS_DIGESTS = {
        ("double-resonance", "2"): (0, "ed6630ec01d64a5efe0bb078dbd212146e29a4909d0368f64993efd1abbe3dc0"),
        ("double-resonance", "3"): (0, "eb0a70181f4f1b86cdd3abf294ee0e0e89116aa217b3d00ba7772c23df8044c7"),
        ("ring-times-quartic", "3"): (0, "91617722f874fd25bbabc0bd99ede2d99a8c54963e9ad2642422bac69ed35e8f"),
        ("rotated-quartic", "2"): (0, "9b33e1a9d48d75655d84ffd84c7cbc698bf3ce2c318e523bfa073389de3fb855"),
    }
    JUMP_DIGESTS = {
        ("double-resonance", "2"): (0, "e8153cc663d2cb289e87ba5e4c8aa172f0f31431efa3bab30237f4dae47bf4e1"),
        ("double-resonance", "3"): (0, "6f366bd3152c3fe34bc52ef6e4e2d1df69ccbbcb2855d3c591f20fd8f2a18ffd"),
        ("ring-times-quartic", "3"): (0, "32bba6acfea9bb4f61426a71b63a479d50e65a0f8641259a0237cf3e57d7da1b"),
        ("rotated-quartic", "2"): (0, "36329934ec9aa7c298f34f0ad927d3156f6cb2b196c4cb3c3589f8c35cc4dc93"),
    }

    def written(self, capsys, tmp_path, command, case, *options):
        pot = tmp_path / "potential.cfg"
        pot.write_text(self.CONFIGS[case[0]])
        code, out, err = run(capsys, command, "--potential-file", str(pot),
                             "--domain", "sphere", "--dim", case[1], *options)
        return code, _sha256((out + err).encode())

    @pytest.mark.parametrize("case", list(CASES), ids=lambda case: "-".join(case))
    def test_levels_match_recorded_digests(self, capsys, tmp_path, case):
        written = self.written(capsys, tmp_path, "levels", case, "--beta-cutoff", "30")
        assert written == self.LEVELS_DIGESTS[case]

    @pytest.mark.parametrize("case", list(CASES), ids=lambda case: "-".join(case))
    def test_jump_matches_recorded_digests(self, capsys, tmp_path, case):
        lam0, options = self.CASES[case]
        written = self.written(capsys, tmp_path, "jump", case, "--lambda0", lam0, *options)
        assert written == self.JUMP_DIGESTS[case]

    def test_jump_evaluates_each_mesh_level_in_one_gradient_call(
        self, capsys, tmp_path, monkeypatch
    ):
        # the two 3-D slice degrees at lambda0 -/+ epsilon each pass on
        # meshes of 26 and 98 vertices: 2 x (26 + 72) points in 4 calls
        calls, read = [], potentials.from_config_file

        def counted(path):
            spec = read(path)
            grad = lambda v, lam: calls.append(len(v)) or spec.grad(v, lam)
            return dataclasses.replace(spec, grad=grad)

        monkeypatch.setattr(potentials, "from_config_file", counted)
        case = ("rotated-quartic", "2")
        lam0, options = self.CASES[case]
        code, _ = self.written(capsys, tmp_path, "jump", case, "--lambda0", lam0, *options)
        assert code == 0
        assert calls == [26, 72, 26, 72]


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
                c, lam, _, _ = continuation._bordered_newton(
                    space, start[:n], bp.lam, border, np.zeros(n + 1), bp.lam, 0.0, 20
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
