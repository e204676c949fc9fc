import argparse
import csv
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

    def test_missing_command_is_config_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 2 and out == ""
        assert "required" in json.loads(err)["error"]["message"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert "--branch-coefficients" in capsys.readouterr().out


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
