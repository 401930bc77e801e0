import json

import numpy as np
import pytest

from drfs import Task, serialize_libsvm, synth
from drfs.cli import main


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.libsvm"
    path.write_text("1 1:1\n-1 1:-1\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def reg_file(tmp_path_factory):
    dataset, _ = synth(Task.REGRESSION, 40, 15, 3, 0.1, 7)
    path = tmp_path_factory.mktemp("data") / "reg.libsvm"
    path.write_text(serialize_libsvm(dataset), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def clf_file(tmp_path_factory):
    dataset, _ = synth(Task.BINARY, 40, 15, 3, 0.1, 11)
    path = tmp_path_factory.mktemp("data") / "clf.libsvm"
    path.write_text(serialize_libsvm(dataset), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_emits_model_json(self, reg_file, capsys):
        code = main(["solve", reg_file, "--loss", "squared", "--lambda-ratio", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["loss", "lambda", "b", "b0", "gap", "support", "iterations"]
        assert payload["gap"] >= 0
        assert len(payload["b"]) == 15

    def test_ratio_one_empty_support(self, reg_file, capsys):
        code = main(["solve", reg_file, "--lambda-ratio", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["support"] == []
        assert max(abs(v) for v in payload["b"]) == 0.0

    def test_missing_file_exit_1(self, capsys):
        code = main(["solve", "/nonexistent/path.libsvm", "--lambda-ratio", "0.5"])
        assert code == 1
        assert "/nonexistent/path.libsvm" in capsys.readouterr().err

    def test_missing_lambda_flag_exit_3(self, reg_file):
        assert main(["solve", reg_file]) == 3

    def test_non_convergence_exit_2(self, reg_file, capsys):
        code = main(["solve", reg_file, "--lambda-ratio", "0.01", "--max-iter", "3"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_weights_file(self, toy_file, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text("1.0\n1.0\n", encoding="utf-8")
        code = main(["solve", toy_file, "--no-standardize", "--lambda-absolute", "0.1",
                     "--weights", str(wpath)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"][0] == pytest.approx(0.975, abs=1e-8)


class TestMalformedWeights:
    @pytest.mark.parametrize("entry", ["abc", "inf", "nan"])
    @pytest.mark.parametrize("command", [["solve", "--lambda-ratio", "0.5"], ["lambda-max"]])
    def test_non_finite_entry_exit_1(self, command, entry, toy_file, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(f"1.0\n{entry}\n", encoding="utf-8")
        code = main([command[0], toy_file, "--no-standardize", *command[1:],
                     "--weights", str(wpath)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"entry 2 is not a finite number: '{entry}'" in captured.err

    @pytest.mark.parametrize("entry", ["0.0", "-1"])
    def test_non_positive_entry_exit_3(self, entry, toy_file, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_text(f"1.0\n{entry}\n", encoding="utf-8")
        assert main(["lambda-max", toy_file, "--weights", str(wpath)]) == 3


class TestLambdaMax:
    def test_toy_value(self, toy_file, capsys):
        code = main(["lambda-max", toy_file, "--no-standardize"])
        assert code == 0
        assert float(capsys.readouterr().out) == 4.0

    def test_single_class_exit_3(self, tmp_path):
        path = tmp_path / "one.libsvm"
        path.write_text("1 1:1\n1 1:2\n", encoding="utf-8")
        assert main(["lambda-max", str(path), "--loss", "logistic"]) == 3

    def test_squared_on_single_label_is_fine(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1,0.5\n1,1.5\n", encoding="utf-8")
        assert main(["lambda-max", str(path), "--format", "csv"]) == 0


class TestScreen:
    def test_endpoint_ratio_one(self, reg_file, capsys):
        code = main(["screen", reg_file, "--lambda-ratio", "1.0", "--V", "0"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert all(payload["removed"])
        assert "removed_ratio 1.0" in captured.err

    def test_json_and_csv_outputs(self, reg_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        code = main(["screen", reg_file, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--output", str(out), "--csv", str(csv)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert list(payload) == [
            "lambda", "delta", "V", "bounds", "removed", "gap_at_reference", "q", "nu",
        ]
        lines = csv.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "index,bound,removed"
        assert len(lines) == 16
        assert capsys.readouterr().out.startswith("removed_ratio ")

    def test_shift_overflow_exit_4(self, toy_file):
        assert main(["screen", toy_file, "--lambda-ratio", "0.5", "--V", "10"]) == 4

    def test_delta_flag(self, reg_file, capsys):
        code = main(["screen", reg_file, "--lambda-ratio", "0.3", "--delta", "0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == 0.01


class TestGrid:
    def test_default_grid_shape_and_endpoint(self, reg_file, capsys):
        code = main(["grid", reg_file, "--loss", "squared"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "V,delta,lambda_ratio,lambda,removed_count,removed_ratio,gap_at_reference"
        assert len(rows) == 12 * 5
        table = [row.split(",") for row in rows]
        ratios = {float(r[5]) for r in table}
        assert all(0.0 <= x <= 1.0 for x in ratios)
        endpoint = [r for r in table if float(r[0]) == 0.0 and float(r[2]) == 1.0]
        assert float(endpoint[0][5]) == 1.0

    def test_squared_ratio_monotone_in_v(self, reg_file, capsys):
        code = main(["grid", reg_file, "--lambda-ratios", "0.1", "0.3"])
        assert code == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        for ratio in ("0.1", "0.3"):
            series = [float(r[5]) for r in rows if r[2] == ratio]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_rejects_bad_ratio(self, reg_file):
        assert main(["grid", reg_file, "--lambda-ratios", "1.5"]) == 3


@pytest.mark.parametrize("v", ["100", "-1", "nan"])
@pytest.mark.parametrize("command", [["screen", "--lambda-ratio", "0.3", "--V"],
                                     ["grid", "--V-values"]])
def test_unrepresentable_shift_exit_4(command, v, reg_file, capsys):
    assert main([command[0], reg_file, *command[1:], v]) == 4
    assert "V" in capsys.readouterr().err


class TestVerify:
    def test_clean_exit_0(self, reg_file, capsys):
        code = main(["verify", reg_file, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--trials", "30", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["inconclusive"] == 0
        assert payload["trials"] == 30

    def test_self_test_exit_5(self, reg_file, capsys):
        code = main(["verify", reg_file, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--trials", "10", "--seed", "5", "--self-test"])
        assert code == 5
        captured = capsys.readouterr()
        assert "violation" in captured.err
        assert json.loads(captured.out)["violations"]

    def test_zero_trials_exit_3(self, reg_file):
        assert main(["verify", reg_file, "--lambda-ratio", "0.3", "--trials", "0"]) == 3

    def test_seed_env_fallback(self, reg_file, capsys, monkeypatch):
        monkeypatch.setenv("DRFS_SEED", "7")
        code = main(["verify", reg_file, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--trials", "4"])
        assert code == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("DRFS_SEED", "8")
        main(["verify", reg_file, "--lambda-ratio", "0.3", "--V", "0.1", "--trials", "4"])
        second = capsys.readouterr().out
        assert json.loads(first)["trials"] == json.loads(second)["trials"] == 4


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["solve", "{data}", "--lambda-ratio", "0.2"],
        ["screen", "{data}", "--lambda-ratio", "0.3", "--V", "0.1"],
        ["grid", "{data}", "--lambda-ratios", "0.3", "--V-values", "0", "0.5"],
        ["verify", "{data}", "--lambda-ratio", "0.3", "--V", "0.1", "--trials", "8",
         "--seed", "1"],
    ])
    def test_identical_stdout_bytes(self, argv, reg_file, clf_file, capsys):
        for data in (reg_file, clf_file):
            loss = ["--loss", "logistic"] if data is clf_file else []
            cmd = [a.format(data=data) for a in argv] + loss
            assert main(cmd) == 0
            first = capsys.readouterr().out
            assert main(cmd) == 0
            second = capsys.readouterr().out
            assert first == second
