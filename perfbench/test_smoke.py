"""Smoke test of the benchmark itself, at tiny sizes with every check on.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload once untraced and once traced, and shows that the op
checker counts a planted false removal, a truncated grid CSV and output
bytes that change between ops as failed ops.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TINY, WORKLOADS, Workload, bench_calls, check_grid_csv, setup_grid_cli,
    setup_verify_gate,
)


def _bench(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    out = _bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--tiny"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench(["--workload", "verify_gate", "--seed", "0", "--seconds", "1",
                  "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_planted_false_removal_fails_every_op(tmp_path):
    state = setup_verify_gate(0, TINY, tmp_path)
    cfg = next(c for c in state.configs if c.model.support.size and c.box.delta > 0)
    planted = int(cfg.model.support[np.argmax(np.abs(cfg.model.b[cfg.model.support]))])
    removed = cfg.report.removed.copy()
    removed[planted] = True
    bad = dataclasses.replace(cfg, report=dataclasses.replace(cfg.report, removed=removed))
    runner = run.Runner(WORKLOADS["verify_gate"], dataclasses.replace(state, configs=(bad,)),
                        bench_calls())
    runner.run(0.0)
    assert runner.attempted == 2
    assert len(runner.failures) == 2 and "violation" in runner.failures[0]


def test_truncated_grid_csv_fails_every_op(tmp_path):
    calls = bench_calls()
    real_main = calls.cli_main

    def truncating_main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real_main(argv)
        sys.stdout.write("".join(buf.getvalue().splitlines(keepends=True)[:-1]))
        return code

    calls.cli_main = truncating_main
    runner = run.Runner(WORKLOADS["grid_cli"], setup_grid_cli(0, TINY, tmp_path), calls)
    runner.run(0.0)
    assert runner.attempted == 2
    assert len(runner.failures) == 2 and "rows" in runner.failures[0]


def test_grid_checker_rules():
    rows = [f"{v},0.0,{r},1.0,3,{1.0 if (v, r) == (0.0, 1.0) else 0.5},0.0"
            for v in [0.0] + [0.1 * k for k in range(1, 12)] for r in (0.01, 0.1, 0.3, 0.5, 1.0)]
    good = "\n".join(["V,delta,lambda_ratio,lambda,removed_count,removed_ratio,gap_at_reference",
                      *rows]) + "\n"
    check_grid_csv(good)
    out_of_range = good.replace(",0.5,", ",1.5,", 1)
    endpoint_kept = good.replace("0.0,0.0,1.0,1.0,3,1.0,", "0.0,0.0,1.0,1.0,3,0.9,")
    headerless = good.split("\n", 1)[1]
    for broken in (out_of_range, endpoint_kept, headerless):
        with pytest.raises(Exception, match="grid CSV|removed ratio"):
            check_grid_csv(broken)


def test_changed_output_bytes_fail_the_op():
    digests = iter([b"a", b"a", b"b"])
    fake = Workload("fake", None, lambda state, calls: (next(digests), 1), None)
    runner = run.Runner(fake, None, None)
    for index in range(3):
        runner.op(index, traced=False)
    assert runner.attempted == 3 and len(runner.failures) == 1
    assert "differ" in runner.failures[0]


def test_vanished_or_uncalled_names_read_as_null():
    owner = SimpleNamespace(called=lambda: 1, uncalled=lambda: 2)
    tracer = Tracer([(owner, "called", "solver.called", None),
                     (owner, "uncalled", "solver.uncalled", None),
                     (owner, "gone", "oracle.gone", None)])
    with tracer.op(1):
        owner.called()
    assert tracer.missing == ["oracle.gone"]
    table = SpanTable(tracer, [1])
    assert table.mask(("oracle.gone",)) is None
    assert table.mask(("solver.uncalled",)) is None
    assert table.per_op_median(table.mask(("solver.called",)), table.duration) > 0.0
    assert table.self_time.sum() == pytest.approx(table.duration[0])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(k) for k in range(100)]) == (89.0, pytest.approx(89.89, abs=0.01), 10)
    assert run.tail([float(k) for k in range(21)]) == (10.0, 50.0, 10)
    assert run.tail([float(k) for k in range(20)]) == (19.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
