import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drfs
from drfs import Dataset, Task, cli, oracle, solver, synth
from drfs.cli import build_parser, main
from drfs.data import serialize_libsvm
from conftest import without_polish

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert not any(math.copysign(1.0, v) < 0 for v in payload["b"] if v == 0.0)

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

    def test_wrong_length_exit_3(self, toy_file, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text("1.0\n1.0\n1.0\n", encoding="utf-8")
        assert main(["lambda-max", toy_file, "--weights", str(wpath)]) == 3
        assert "3 entries" in capsys.readouterr().err

    def test_missing_file_exit_1(self, toy_file, tmp_path, capsys):
        wpath = str(tmp_path / "absent.txt")
        assert main(["lambda-max", toy_file, "--weights", wpath]) == 1
        assert wpath in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("suffix", [".libsvm", ".csv"])
def test_non_finite_data_value_exit_1(suffix, value, tmp_path, capsys):
    rows = {".libsvm": ["1 1:1 2:2", "1 1:3 2:1", f"-1 1:{value} 2:0"],
            ".csv": ["y,a,b", "1,3,1", f"-1,{value},0"]}[suffix]
    path = tmp_path / f"data{suffix}"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["lambda-max", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err


@pytest.mark.parametrize("line, message", [
    ("0 0:1", "feature index must be >= 1, got 0"),
    ("0 3:", "bad feature entry '3:'"),
    ("0 :5", "bad feature entry ':5'"),
    ("0 3:4:5", "bad feature entry '3:4:5'"),
    ("0 abc", "bad feature entry 'abc'"),
    ("0 1.5:2", "bad feature entry '1.5:2'"),
    ("0 2:1 1:1", "non-increasing feature index 1"),
    ("0 3:nan", "non-finite label or feature value"),
    ("nan 1:1", "non-finite label or feature value"),
    ("abc 1:1", "bad label 'abc'"),
    ("0 99999999999999999999:1", "feature index too large in '99999999999999999999:1'"),
    # with two faults on a line, the first entry in reading order is reported
    ("0 0:1 abc", "feature index must be >= 1, got 0"),
    ("0 2:1 1:x", "bad feature entry '1:x'"),
    ("0 1:nan 0:1", "feature index must be >= 1, got 0"),
])
def test_malformed_libsvm_line_exit_1(line, message, tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_text(f"1 1:1 2:2\n{line}\n1 1:3 2:1\n", encoding="utf-8")
    assert main(["lambda-max", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("1,abc", "non-numeric cell (could not convert string to float: 'abc')"),
    ("1, abc ", "non-numeric cell (could not convert string to float: 'abc')"),
    ("1,", "non-numeric cell (could not convert string to float: '')"),
    ("1,2,3", "ragged row: expected 2 cells, got 3"),
    ("nan,1", "non-finite cell"),
    ("1, 1e500", "non-finite cell"),
])
def test_malformed_csv_line_exit_1(line, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n{line}\n3,4\n", encoding="utf-8")
    assert main(["lambda-max", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("name, text, argv, message", [
    ("plain.csv", "1,2\n3,4\n", ["--label-column", "y"],
     "label column 'y' named but file has no header"),
    ("named.csv", "a,b\n1,2\n3,4\n", ["--label-column", "y"], "label column 'y' not in header"),
    ("three.csv", "0,1\n1,2\n2,3\n", ["--loss", "logistic"],
     "binary task needs exactly two distinct labels, got 3"),
    ("labels.libsvm", "1\n-1\n", [], "no feature entries found"),
], ids=["no header", "not in header", "three labels", "no features"])
def test_unusable_file_exit_1(name, text, argv, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["lambda-max", str(path), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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

    def test_logistic_on_zero_one_csv_labels(self, tmp_path, capsys):
        """CSV labels {0, 1} map onto {-1, +1}; the report is the same as for a
        file that holds -1/+1."""
        dataset, _ = synth(Task.BINARY, 40, 6, 2, 0.1, 3)
        outputs = []
        for name, labels in (("zero_one.csv", (dataset.y + 1) / 2), ("signed.csv", dataset.y)):
            path = tmp_path / name
            rows = [",".join(repr(float(v)) for v in (label, *row))
                    for label, row in zip(labels, dataset.x)]
            path.write_text("\n".join(["y,a,b,c,d,e,f", *rows]) + "\n", encoding="utf-8")
            assert main(["screen", str(path), "--loss", "logistic", "--lambda-ratio", "0.3",
                         "--V", "0.1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["bounds"]) == 6

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


@pytest.mark.parametrize("delta", ["100", "-1", "nan"])
def test_delta_out_of_range_exit_4(delta, reg_file, capsys):
    assert main(["screen", reg_file, "--lambda-ratio", "0.3", "--delta", delta]) == 4
    assert "delta" in capsys.readouterr().err


_RUN_COMMANDS = """
import json, sys
from drfs.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.mark.parametrize("feature_scale,label_scale,flags,message", [
    (1e159, 1.0, ["--no-standardize"], "the fit overflows: "),
    (1.0, 1e200, ["--no-standardize"], "the fit overflows: "),
    (1e159, 1.0, [], "column 0 overflows in standardize: "),
], ids=["features", "labels", "standardize"])
def test_overflowing_input_exit_3(feature_scale, label_scale, flags, message, tmp_path):
    """Squares of features or labels past the float range once made the fit's
    step search spin forever or fail through a NaN bound; every command now
    exits 3.  A separate process with a timeout turns a hang into a failure."""
    rng = np.random.default_rng(0)
    dataset = Dataset(x=rng.uniform(-1, 1, (20, 3)) * feature_scale,
                      y=rng.standard_normal(20) * label_scale, task=Task.REGRESSION)
    path = tmp_path / "huge.libsvm"
    path.write_text(serialize_libsvm(dataset), encoding="utf-8")
    fit = ["--lambda-ratio", "0.5", "--max-iter", "50"]
    commands = [["solve", str(path), *flags, *fit], ["screen", str(path), *flags, *fit],
                ["grid", str(path), *flags, "--max-iter", "50"],
                ["verify", str(path), *flags, *fit]]
    src = str(Path(drfs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == [3] * len(commands)
    # nothing but the error lines: no numpy overflow warning before them
    errors = done.stderr.splitlines()
    assert len(errors) == len(commands)
    assert all(line.startswith("error: " + message) for line in errors)


def test_non_finite_lambda_exit_3(reg_file):
    """An infinite lambda, given or from a ratio times lambda_max, is refused
    before the fit, which once failed through a NaN start objective and a
    numpy warning."""
    commands = [["solve", reg_file, "--lambda-absolute", "inf"],
                ["screen", reg_file, "--lambda-ratio", "1e308"]]
    src = str(Path(drfs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == [3, 3]
    assert done.stderr.splitlines() == ["error: lambda must be finite and > 0, got inf"] * 2


@pytest.mark.parametrize("argv,remedy", [
    (["solve", "--lambda-ratio", "0.5"], "pass --lambda-absolute"),
    (["screen", "--lambda-ratio", "0.5"], "pass --lambda-absolute"),
    (["grid"], "screen with `drfs screen --lambda-absolute` instead"),
])
def test_zero_lambda_max_exit_3(argv, remedy, tmp_path, capsys):
    """Constant squared-loss labels leave nothing to correlate with, so
    lambda_max is 0 and no ratio gives a usable lambda; an absolute one does."""
    path = tmp_path / "constant.csv"
    path.write_text("1,0.5\n1,1.5\n1,2.5\n", encoding="utf-8")
    assert main([argv[0], str(path), "--format", "csv", *argv[1:]]) == 3
    assert capsys.readouterr().err == (
        "error: lambda_max is 0 (no feature correlates with the residuals of the intercept-only "
        f"fit), so every lambda ratio gives lambda = 0; {remedy}\n")
    assert main(["solve", str(path), "--format", "csv", "--lambda-absolute", "0.1"]) == 0


@pytest.fixture(scope="module")
def large_label_file(tmp_path_factory):
    """20x3 regression with labels of order 1e8: the squared loss's dual shift
    leaves sum_i w_i alpha_i near 1e-7, far above 1e-10 * n."""
    rng = np.random.default_rng(4)
    dataset = Dataset(x=rng.standard_normal((20, 3)), y=rng.standard_normal(20) * 1e8,
                      task=Task.REGRESSION)
    path = tmp_path_factory.mktemp("data") / "large_labels.libsvm"
    path.write_text(serialize_libsvm(dataset), encoding="utf-8")
    return str(path)


class TestLargeLabels:
    def test_solve_and_verify_certify(self, large_label_file, capsys):
        """The dual equality is held to the rounding of the shift that zeroes
        it, so the fit certifies instead of running out of iterations."""
        assert main(["solve", large_label_file, "--lambda-ratio", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] < 1000
        assert main(["verify", large_label_file, "--lambda-ratio", "0.5", "--trials", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inconclusive"] == 0
        assert payload["violations"] == []

    def test_equality_failure_names_the_residual(self, large_label_file, monkeypatch, capsys):
        """Without the rounding allowance, and with a residual of 1e-3 forced
        onto every repaired dual point, the gap meets its tolerance and the
        dual equality does not; the message says which.  The forced residual
        dwarfs what the shift's rounding leaves (about 6e-8 here, and about 0
        under OpenBLAS's Sandybridge kernel), so the outcome holds on every
        BLAS kernel."""
        repair = solver._repair_from_margins

        def off_by_one_thousandth(*args):
            alpha, corr, shrink = repair(*args)
            alpha = alpha.copy()
            alpha[0] += 1e-3
            return alpha, corr, shrink

        monkeypatch.setattr(solver, "_repair_from_margins", off_by_one_thousandth)
        monkeypatch.setattr(solver, "_EQ_ROUNDING_PER_ROW", 0.0)
        assert main(["solve", large_label_file, "--lambda-ratio", "0.5", "--max-iter", "50"]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: dual equality residual (\S+) > tolerance (\S+) after 50 "
                             r"iterations \(gap (\S+) within tolerance (\S+)\)\n", err)
        assert match, err
        residual, eq_tol, gap, gap_tol = map(float, match.groups())
        assert residual > eq_tol == solver.DEFAULT_EQ_PER_ROW * 20
        assert gap <= gap_tol


@pytest.mark.parametrize("argv,message", [
    (["solve", "--lambda-ratio", "0"], "--lambda-ratio"),
    (["solve", "--lambda-absolute", "-1"], "--lambda-absolute"),
    (["verify", "--lambda-ratio", "1", "--self-test"], "--self-test"),
    # an infinite tolerance would certify the all-zero model
    (["solve", "--lambda-ratio", "0.1", "--gap-tol", "inf"], "gap_tolerance must be finite"),
])
def test_invalid_configuration_exit_3(argv, message, reg_file, capsys):
    assert main([argv[0], reg_file, *argv[1:]]) == 3
    assert message in capsys.readouterr().err


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

    def test_inconclusive_exit_2(self, reg_file, capsys, monkeypatch):
        """Re-solves warm-started from the zero model, with the support polish
        patched out and a budget of one iteration (one gap check), cannot
        certify."""
        verify = cli.verify_no_false_elimination

        def from_zero(*args, reference_model):
            zero = dataclasses.replace(reference_model, b=np.zeros_like(reference_model.b))
            return verify(*args, reference_model=zero)

        monkeypatch.setattr(cli, "verify_no_false_elimination", from_zero)
        without_polish(monkeypatch)
        monkeypatch.setattr(oracle, "RESOLVE_MAX_ITERATIONS", 1)
        code = main(["verify", reg_file, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--trials", "4", "--seed", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["inconclusive"] == 4
        assert captured.err == "4 inconclusive trial(s)\n"

    def test_zero_trials_exit_3(self, reg_file):
        assert main(["verify", reg_file, "--lambda-ratio", "0.3", "--trials", "0"]) == 3

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    @pytest.mark.parametrize("source", ["--seed", "DRFS_SEED"])
    def test_bad_seed_exit_3(self, reg_file, capsys, monkeypatch, source, value):
        """A seed that is not a non-negative integer exits 3 before any fit,
        with a message naming where it came from."""
        fit = []
        monkeypatch.setattr(cli, "fit_weighted_erm", lambda *args: fit.append(args))
        argv = ["verify", reg_file, "--lambda-ratio", "0.3", "--trials", "4"]
        if source == "--seed":
            monkeypatch.setenv("DRFS_SEED", "7")  # the flag wins over the environment
            argv += ["--seed", value]
        else:
            monkeypatch.setenv("DRFS_SEED", value)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not fit
        assert captured.err == (f"error: {source} must be a non-negative integer, "
                                f"got {value!r}\n")

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


@pytest.fixture(scope="module")
def index_files(tmp_path_factory):
    """Input feature 3 carries the signal in both files; feature 1 is a stuck
    sensor in the CSV and never appears (LIBSVM index 1:) in the LIBSVM file."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4))
    y = 2.0 * x[:, 3] + 0.05 * rng.standard_normal(30)
    folder = tmp_path_factory.mktemp("indices")
    stuck = x.copy()
    stuck[:, 1] = 2.5
    csv = folder / "stuck.csv"
    csv.write_text("y,a,b,c,d\n" + "".join(
        ",".join(repr(float(v)) for v in (label, *row)) + "\n" for label, row in zip(y, stuck)),
        encoding="utf-8")
    libsvm = folder / "gap.libsvm"
    libsvm.write_text("".join(
        f"{float(label)!r} " + " ".join(f"{j + 1}:{float(row[j])!r}" for j in (1, 2, 3)) + "\n"
        for label, row in zip(y, x)), encoding="utf-8")
    return {"csv": (str(csv), 1), "libsvm": (str(libsvm), 0)}


@pytest.mark.parametrize("kind", ["csv", "libsvm"])
class TestInputIndices:
    """Column j is input feature j in every command, standardized or not."""

    def test_solve_names_input_feature(self, kind, index_files, capsys):
        path, _ = index_files[kind]
        supports = []
        for extra in ([], ["--no-standardize"]):
            assert main(["solve", path, "--lambda-ratio", "0.3", *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["b"]) == 4
            supports.append(payload["support"])
        assert supports == [[3], [3]]

    def test_screen_removes_constant_column(self, kind, index_files, tmp_path, capsys):
        path, constant = index_files[kind]
        for extra in ([], ["--no-standardize"]):
            csv = tmp_path / "report.csv"
            assert main(["screen", path, "--lambda-ratio", "0.3", "--V", "0.1",
                         "--csv", str(csv), *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["bounds"]) == 4
            assert payload["removed"][3] is False
            if extra and kind == "csv":  # unstandardized, the stuck column is not zero
                continue
            assert payload["bounds"][constant] == 0.0 and payload["removed"][constant]
            lines = csv.read_text(encoding="utf-8").splitlines()
            assert lines[1 + constant] == f"{constant},0.0,true"

    def test_verify_exit_0(self, kind, index_files, capsys):
        path, _ = index_files[kind]
        assert main(["verify", path, "--lambda-ratio", "0.3", "--V", "0.1",
                     "--trials", "20", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []


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


def test_readme_cli_examples_parse():
    """Every documented command line must still be accepted by the parser."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("drfs ")]
    assert len(lines) >= 6
    for line in lines:
        argv = shlex.split(line)[1:]
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """README's Python block runs as written, next to the data file it reads."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    dataset, _ = synth(Task.REGRESSION, 60, 8, 3, 0.1, 4)
    x = dataset.x.copy()
    x[:, 0] = 0.0  # LIBSVM index 1 never occurs
    text = serialize_libsvm(Dataset(x=x, y=dataset.y, task=dataset.task))
    (tmp_path / "data.libsvm").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "8 [0]"
