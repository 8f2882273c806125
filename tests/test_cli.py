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

    def test_missing_parameter_exits(self, capsys):
        assert main(["gen", "--family", "hamming-ball", "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: --radius is required")


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

    @pytest.mark.parametrize(
        "command, payload, error",
        [
            ("analyze --set", {"n": -1, "elements": ["0"]}, "ValidationError"),
            ("analyze --set", {"n": 0, "elements": ["0"]}, "ValidationError"),
            ("analyze --set", {"n": 40, "elements": ["0"]}, "ValidationError"),
            ("analyze --set", {"n": 64, "elements": ["0"]}, "ValidationError"),
            ("find-subspace --set", {"n": 40, "elements": ["0"]}, "ValidationError"),
            ("analyze --set", {"n": float("inf"), "elements": ["0"]}, "ValidationError"),
            ("analyze --set", {"n": 16, "elements": ["0", "1"]}, "CapacityError"),
            ("analyze --dist", {"n": 40, "support": {"0": 1.0}}, "CapacityError"),
            ("analyze --dist", {"n": -1, "support": {"0": 1.0}}, "CapacityError"),
            ("analyze --dist", {"n": float("inf"), "support": {"0": 1.0}}, "ValidationError"),
        ],
        ids=["set-n-negative", "set-n-zero", "set-n-40", "set-n-64", "find-set-n-40",
             "set-n-infinite", "set-n-above-dense-cap", "dist-n-40", "dist-n-negative",
             "dist-n-infinite"],
    )
    def test_out_of_range_n_exits_two_with_one_line(self, command, payload, error, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main([*command.split(), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize("command", ["analyze --set", "find-subspace --set"])
    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 4, "elements": "12"},
            {"n": 4.0, "elements": ["1", "2"]},
            {"n": True, "elements": ["1"]},
            {"n": "4", "elements": ["1", "2"]},
        ],
        ids=["elements-string", "n-float", "n-bool", "n-string"],
    )
    def test_set_n_must_be_an_integer_and_elements_a_list(self, command, payload, tmp_path, capsys):
        # The string "12" was read as the set {1, 2}, and find-subspace
        # certified it.
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main([*command.split(), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: malformed set payload: ")

    def test_csv_without_a_row_exits_two(self, dist_files, capsys):
        assert main(["analyze", "--dist", str(dist_files[0]), "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: ")


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

    @pytest.mark.parametrize(
        "source, note",
        [
            # A pair whose exhaustive statement-B minimum is F_2^5.
            ("random pair", "note: trivial certificate: V = F_2^5\n"),
            (["--family", "union-cosets", "--n", "4", "--dim-v", "2", "--count", "2",
              "--seed", "0"], ""),
            # The pipeline's V is F_2^5; the descent ends at dim 2.
            (["--family", "hamming-ball", "--n", "5", "--radius", "1"],
             "note: the pipeline's V was F_2^5; this dim-2 V comes from the hyperplane "
             "descent alone\n"),
        ],
        ids=["whole group", "proper subspace", "descent only"],
    )
    def test_trivial_certificate_notes_one_stderr_line(self, source, note, tmp_path, capsys):
        out = tmp_path / "cert.json"
        if source == "random pair":
            rng = np.random.default_rng(0)
            argv = ["--eta", "0.2", "--epsilon", "0.05"]
            for flag in ("--dist", "--dist2"):
                path = tmp_path / f"{flag[2:]}.json"
                path.write_text(json.dumps(random_dist(5, rng).to_json()))
                argv += [flag, str(path)]
        else:
            path = tmp_path / "set.json"
            assert main(["gen", *source, "--out", str(path)]) == 0
            argv = ["--set", str(path), "--epsilon", "0.2"]
        capsys.readouterr()
        code = main(["find-subspace", *argv, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == note
        bundle = json.loads(out.read_text())
        assert bundle["trivial"] is note.startswith("note: trivial")
        assert bundle["verified"] is True

    def test_package_error_exits_two_with_one_line(self, tmp_path, capsys):
        # A Hamming ball at n = 13 is above the dense-table cap n <= 12.
        ball = tmp_path / "ball.json"
        assert main(["gen", "--family", "hamming-ball", "--n", "13", "--radius", "1",
                     "--out", str(ball)]) == 0
        capsys.readouterr()
        assert main(["find-subspace", "--set", str(ball)]) == 2
        err = capsys.readouterr().err
        assert err == "error: CapacityError: dense distributions need 1 <= n <= 12, got 13\n"

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
            ["endgame", "--dist", "{dist}", "--eta", "0.3", "--kappa", "1e6"],
            ["gen", "--family", "random-subset", "--n", "4", "--count", "2"],
            ["gen", "--family", "union-cosets", "--n", "4", "--dim-v", "2"],
            ["analyze"],
            ["find-subspace"],
            ["analyze", "--dist", "{nan}"],
            ["find-subspace", "--dist", "{nan}"],
            ["analyze", "--dist", "{negative_key}"],
            ["find-subspace", "--dist", "{dist}", "--seed", "-1"],
            ["find-subspace", "--set", "{set}", "--seed", "-1"],
            ["gen", "--family", "random-subset", "--n", "4", "--dim-v", "2", "--count", "2",
             "--seed", "-1"],
            ["gen", "--family", "union-cosets", "--n", "4", "--dim-v", "2", "--count", "2",
             "--seed", "-1"],
            ["verify", "--seed", "-1"],
            ["verify", "--trials", "-3"],
            ["verify", "--n", "0"],
            ["verify", "--n", "100"],
            ["gen", "--family", "hamming-ball", "--n", "0", "--radius", "0"],
        ],
        ids=["eta-above-half", "dist-epsilon-zero", "set-epsilon-zero", "ball-n-zero",
             "cosets-dim-above-n", "bundle-not-object", "endgame-eta-above-half",
             "endgame-kappa-negative", "endgame-kappa-infinite", "endgame-kappa-above-moves",
             "subset-without-dim-v",
             "cosets-without-count", "analyze-without-input", "find-without-input",
             "analyze-nan-mass", "find-nan-mass", "analyze-negative-support-key",
             "dist-seed-negative", "set-seed-negative", "subset-seed-negative",
             "cosets-seed-negative", "suites-seed-negative", "suites-trials-negative",
             "suites-n-zero", "suites-n-above-cap", "ball-n-zero-radius-zero"],
    )
    def test_bad_input_exits_two_with_one_line(
        self, argv, tmp_path, dist_files, subspace_set_file, capsys
    ):
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]")
        nan = tmp_path / "nan.json"
        nan.write_text('{"n": 2, "mass": [NaN, 0.5, 0.5, 0]}')
        negative_key = tmp_path / "negative_key.json"
        negative_key.write_text(json.dumps({"n": 2, "support": {"-1": 1.0}}))
        paths = {"dist": dist_files[0], "set": subspace_set_file, "list": listing,
                 "nan": nan, "negative_key": negative_key}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: ")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["analyze", "--set", "{dir}"], "IsADirectoryError"),
            (["verify", "--certificate", "{dir}"], "IsADirectoryError"),
            (["endgame", "--dist", "{dist}", "--eta", "0.3", "--out", "{dir}"],
             "IsADirectoryError"),
            (["analyze", "--set", "{utf16}"], "UnicodeDecodeError"),
            (["analyze", "--dist", "{utf16}"], "UnicodeDecodeError"),
        ],
        ids=["set-is-directory", "certificate-is-directory", "endgame-out-is-directory",
             "set-not-utf8", "dist-not-utf8"],
    )
    def test_unreadable_path_exits_two_with_one_line(
        self, argv, error, tmp_path, dist_files, capsys
    ):
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + json.dumps({"n": 1, "mass": [1, 0]}).encode("utf-16-le"))
        paths = {"dir": tmp_path, "dist": dist_files[0], "utf16": utf16}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {error}: ")

    def test_malformed_tolerances_fail_verification(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"kind": "STATEMENT_B", "tolerances": 5}))
        assert main(["verify", "--certificate", str(bundle)]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_nan_tolerance_fails_verification(self, tmp_path, capsys):
        # A NaN tolerance would pass every stored value, tampered or not.
        fixture = Path(__file__).parent / "fixtures" / "theorem_11.json"
        bundle = json.loads(fixture.read_text())
        bundle["certificate"]["achieved"]["eta"] = -7.0
        bundle["tolerances"]["identity"] = float("nan")
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "--certificate", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    @pytest.mark.parametrize("command", ["analyze", "find-subspace"])
    def test_list_support_exits_two_with_one_line(self, command, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"n": 3, "support": [1, 2]}))
        assert main([command, "--dist", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: malformed distribution payload")

    @pytest.mark.parametrize(
        "fixture, block, key, value, failure",
        [
            ("statement_b", "inputs", "p", {"n": 3, "support": [1, 2]}, "bundle rejected: "),
            ("endgame", "transcript", "fiber_cap", [256], "fiber_cap: recomputed"),
            ("many_sums", "inputs", "dists", [], "bundle rejected: "),
        ],
        ids=["list-support", "fiber-cap-list", "no-dists"],
    )
    def test_malformed_bundle_fails_verification(
        self, fixture, block, key, value, failure, tmp_path, capsys
    ):
        path = Path(__file__).parent / "fixtures" / f"{fixture}.json"
        bundle = json.loads(path.read_text())
        bundle[block][key] = value
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "--certificate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["ok"] is False
        assert report["failures"][0].startswith(failure)

    def test_no_mode_option(self, dist_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["find-subspace", "--dist", str(dist_files[0]), "--mode", "practical"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode practical" in capsys.readouterr().err

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

    def test_no_format_option(self, dist_files, capsys):
        # The transcript has no CSV row, so endgame writes JSON only.
        with pytest.raises(SystemExit) as exc:
            main(["endgame", "--dist", str(dist_files[0]), "--eta", "0.3", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestVerifySuites:
    def test_small_suite_run_exits_zero(self, capsys):
        code = main(["verify", "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
