"""End-to-end CLI: generation, analysis, certificates, verification."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entropic_doubling
from entropic_doubling.cli import main
from entropic_doubling.dist import random_dist, uniform_on_subspace
from entropic_doubling.gf2 import span


@pytest.fixture
def subspace_set_file(tmp_path):
    v = span([1, 2], 3)
    payload = {"n": 3, "elements": [format(x, "x") for x in v.elements()]}
    path = tmp_path / "set.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def dist_files(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for name in ("p", "q"):
        d = random_dist(3, rng)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d.to_json()))
        paths.append(path)
    return paths


class TestGen:
    def test_hamming_ball_json(self, tmp_path, capsys):
        out = tmp_path / "ball.json"
        code = main(
            ["gen", "--family", "hamming-ball", "--n", "4", "--radius", "1",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["stats"]["size"] == 5
        assert payload["stats"]["sumset_size"] == 11

    def test_deterministic_regeneration(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                ["gen", "--family", "union-cosets", "--n", "8", "--dim-v", "3",
                 "--count", "4", "--seed", "9", "--out", str(out)]
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "ball.csv"
        main(
            ["gen", "--family", "hamming-ball", "--n", "4", "--radius", "1",
             "--out", str(out), "--format", "csv"]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["family"] == "hamming-ball"
        assert rows[0]["eta"].startswith("0.510")
        assert set(rows[0]) == {
            "family", "n", "params", "set_size", "sumset_size", "eta",
            "dim_v", "achieved_epsilon", "seed",
        }

    def test_missing_parameter_exits(self):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "hamming-ball", "--n", "4"])


class TestAnalyze:
    def test_subspace_set(self, subspace_set_file, capsys):
        code = main(["analyze", "--set", str(subspace_set_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["eta"] == pytest.approx(1.0)
        assert payload["entropy"] == pytest.approx(2.0)

    def test_dist_pair(self, dist_files, capsys):
        code = main(
            ["analyze", "--dist", str(dist_files[0]), "--dist2", str(dist_files[1])]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "doubling_mass" in payload and "ruzsa_distance" in payload

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3}))
        assert main(["analyze", "--set", str(bad)]) == 2


class TestFindSubspaceAndVerify:
    def test_set_certificate_round_trip(self, tmp_path, subspace_set_file, capsys):
        out = tmp_path / "cert.json"
        code = main(
            ["find-subspace", "--set", str(subspace_set_file), "--epsilon", "0.3",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["verified"] is True
        assert main(["verify", "--certificate", str(out)]) == 0

    def test_dist_certificate_round_trip(self, tmp_path, dist_files, capsys):
        out = tmp_path / "cert.json"
        code = main(
            ["find-subspace", "--dist", str(dist_files[0]), "--dist2",
             str(dist_files[1]), "--eta", "0.3", "--epsilon", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        assert main(["verify", "--certificate", str(out)]) == 0
        capsys.readouterr()

    def test_set_file_with_repeated_element(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"n": 4, "elements": ["0", "1", "1", "2", "4", "8"]}))
        out = tmp_path / "cert.json"
        code = main(["find-subspace", "--set", str(path), "--epsilon", "0.2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verified"] is True
        assert main(["verify", "--certificate", str(out)]) == 0
        capsys.readouterr()

    def test_package_error_exits_two_with_one_line(self, tmp_path, capsys):
        # B(7, 1) needs the endgame above its n <= 6 cap: a CapacityError.
        ball = tmp_path / "ball.json"
        assert main(["gen", "--family", "hamming-ball", "--n", "7", "--radius", "1",
                     "--out", str(ball)]) == 0
        capsys.readouterr()
        assert main(["find-subspace", "--set", str(ball)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: CapacityError: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-subspace", "--dist", "{dist}", "--eta", "0.7"],
            ["find-subspace", "--dist", "{dist}", "--epsilon", "0"],
            ["find-subspace", "--set", "{set}", "--epsilon", "0"],
            ["gen", "--family", "hamming-ball", "--n", "0", "--radius", "1"],
            ["gen", "--family", "union-cosets", "--n", "3", "--dim-v", "5", "--count", "1"],
            ["verify", "--certificate", "{list}"],
            ["endgame", "--dist", "{dist}", "--eta", "0.6"],
            ["endgame", "--dist", "{dist}", "--eta", "0.3", "--kappa", "-1"],
            ["endgame", "--dist", "{dist}", "--eta", "0.3", "--kappa", "inf"],
        ],
        ids=["eta-above-half", "dist-epsilon-zero", "set-epsilon-zero", "ball-n-zero",
             "cosets-dim-above-n", "bundle-not-object", "endgame-eta-above-half",
             "endgame-kappa-negative", "endgame-kappa-infinite"],
    )
    def test_bad_input_exits_two_with_one_line(
        self, argv, tmp_path, dist_files, subspace_set_file, capsys
    ):
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]")
        paths = {"dist": dist_files[0], "set": subspace_set_file, "list": listing}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: ")

    def test_malformed_tolerances_fail_verification(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"kind": "STATEMENT_B", "tolerances": 5}))
        assert main(["verify", "--certificate", str(bundle)]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_tampered_certificate_fails(self, tmp_path, dist_files, capsys):
        out = tmp_path / "cert.json"
        main(
            ["find-subspace", "--dist", str(dist_files[0]), "--eta", "0.3",
             "--epsilon", "0.1", "--out", str(out)]
        )
        bundle = json.loads(out.read_text())
        bundle["certificate"]["achieved"]["lhs"] += 1.0
        out.write_text(json.dumps(bundle))
        assert main(["verify", "--certificate", str(out)]) == 1
        capsys.readouterr()


    def test_closed_stdout_exits_without_traceback(self):
        # As in `entropic-doubling verify --certificate ... | head -1`: the
        # reader is gone before the report is written.
        src = str(Path(entropic_doubling.__file__).resolve().parents[1])
        fixture = Path(__file__).parent / "fixtures" / "endgame.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "entropic_doubling.cli", "verify", "--certificate", str(fixture)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert b"Traceback" not in err
        assert proc.returncode == 1


class TestEndgameCommand:
    def test_uniform_subspace(self, tmp_path, capsys):
        dist_path = tmp_path / "u.json"
        dist_path.write_text(json.dumps(uniform_on_subspace(span([1, 2], 3)).to_json()))
        out = tmp_path / "transcript.json"
        code = main(
            ["endgame", "--dist", str(dist_path), "--eta", "0.5", "--out", str(out)]
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["transcript"]["expectation_holds"] is True
        assert main(["verify", "--certificate", str(out)]) == 0
        capsys.readouterr()


class TestVerifySuites:
    def test_small_suite_run_exits_zero(self, capsys):
        code = main(["verify", "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
