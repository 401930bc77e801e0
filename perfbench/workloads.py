"""The benchmark's workloads: set-up, one op, and the check of every op.

Each op is homogeneous (it always does the same bundle of work) and
returns a digest of everything it produced, so the runner can require
byte-identical output from every op of a run.  Inputs come from ``synth``
with fixed generator seeds; ``--seed`` permutes their rows and columns and,
for ``verify_gate``, picks the verifier's sampling seed.  Seed 0 keeps the
original order, so ``verify_gate`` at seed 0 is exactly the acceptance
gate's data.  Re-drawing the problems per seed instead moved solver
iteration counts by up to 25 % between seeds at these sizes, which would
make the ops of different seeds different amounts of work.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from drfs import cli, oracle, screening, solver, uncertainty
from drfs.data import Dataset, Task, serialize_libsvm, standardize, synth
from drfs.losses import LossKind
from drfs.uncertainty import WeightBox


class CheckFailed(Exception):
    """An op's output broke a correctness rule."""


@dataclass(frozen=True)
class Sizes:
    verify_trials: int
    wide_n: int
    wide_d: int
    grid_n: int
    grid_d: int


FULL = Sizes(verify_trials=4, wide_n=10_000, wide_d=2_000, grid_n=2_000, grid_d=200)
TINY = Sizes(verify_trials=2, wide_n=300, wide_d=60, grid_n=120, grid_d=20)

# tests/test_acceptance.py: reg_small (seed 7), clf_small (seed 11), verify seed 99
GATE_PROBLEMS = ((Task.REGRESSION, LossKind.SQUARED, 7), (Task.BINARY, LossKind.LOGISTIC, 11))
GATE_VERIFY_SEED = 99
GATE_RATIOS = (0.1, 0.3)
GATE_V = (0.01, 0.1, 1.0)

WIDE_PROBLEMS = ((Task.REGRESSION, LossKind.SQUARED, 0.1, 101),
                 (Task.BINARY, LossKind.LOGISTIC, 0.05, 103))
WIDE_V = 0.1

GRID_ROWS = 60  # the CLI's default 12 V values x 5 lambda ratios
GRID_HEADER = "V,delta,lambda_ratio,lambda,removed_count,removed_ratio,gap_at_reference"


def bench_calls() -> SimpleNamespace:
    """The drfs entry points the benchmark calls itself; the tracer wraps these."""
    return SimpleNamespace(
        lambda_max=solver.lambda_max,
        fit_weighted_erm=solver.fit_weighted_erm,
        build_reference=screening.build_reference,
        screen=screening.screen,
        delta_from_v=uncertainty.delta_from_v,
        verify_no_false_elimination=oracle.verify_no_false_elimination,
        cli_main=cli.main,
    )


def _fit_attrs(args, kwargs, result, exc):
    model = result if exc is None else getattr(exc, "model", None)
    if model is None:
        return None
    return {"iterations": model.iterations, "x_bytes": args[0].x.nbytes}


def _screen_attrs(args, kwargs, result, exc):
    return None if result is None else {"removed_ratio": result.removed_ratio}


def _verify_attrs(args, kwargs, result, exc):
    return None if result is None else {"inconclusive": result.inconclusive}


def trace_sites(calls: SimpleNamespace) -> list[tuple[object, str, str, Any]]:
    """Every caller-side name the traced run wraps, as (owner, attr, span, attrs)."""
    sites = []

    def add(owner, attr, layer, attrs=None):
        sites.append((owner, attr, f"{layer}.{attr}", attrs))

    for attr in ("loss_value", "loss_derivative", "dual_from_margin", "conjugate_neg",
                 "nu_constant"):
        add(solver, attr, "losses")
    for attr in ("loss_value", "conjugate_neg", "feasibility_q", "nu_constant"):
        add(screening, attr, "losses")
    for attr in ("max_linear", "worst_case_weights"):
        add(screening, attr, "uncertainty")
    add(oracle, "fit_weighted_erm", "solver", _fit_attrs)
    add(oracle, "objective_scale", "solver")
    add(oracle, "sample_feasible", "uncertainty")
    for attr in ("parse_libsvm", "parse_csv", "standardize"):
        add(cli, attr, "data")
    add(cli, "lambda_max", "solver")
    add(cli, "fit_weighted_erm", "solver", _fit_attrs)
    add(cli, "build_reference", "screening")
    add(cli, "screen", "screening", _screen_attrs)
    add(cli, "delta_from_v", "uncertainty")
    add(calls, "lambda_max", "solver")
    add(calls, "fit_weighted_erm", "solver", _fit_attrs)
    add(calls, "build_reference", "screening")
    add(calls, "screen", "screening", _screen_attrs)
    add(calls, "delta_from_v", "uncertainty")
    add(calls, "verify_no_false_elimination", "oracle", _verify_attrs)
    sites.append((calls, "cli_main", "cli.main", None))
    return sites


def _permuted(dataset: Dataset, seed: int, tag: int) -> Dataset:
    """Rows and columns in an order drawn from (seed, tag); seed 0 keeps the order."""
    if seed == 0:
        return dataset
    rng = np.random.default_rng((seed, tag))
    rows, cols = rng.permutation(dataset.n), rng.permutation(dataset.d)
    return Dataset(x=dataset.x[np.ix_(rows, cols)], y=dataset.y[rows], task=dataset.task)


def _shape(dataset: Dataset) -> dict:
    return {"n": dataset.n, "d": dataset.d, "x_bytes": dataset.x.nbytes}


# ----------------------------------------------------------------------------- verify_gate

@dataclass(frozen=True)
class VerifyConfig:
    dataset: Dataset
    kind: LossKind
    lam: float
    box: WeightBox
    report: Any
    model: Any


@dataclass(frozen=True)
class VerifyState:
    configs: tuple[VerifyConfig, ...]
    trials: int
    sample_seed: int


def setup_verify_gate(seed: int, sizes: Sizes, workdir: Path) -> VerifyState:
    """The 12 acceptance-gate configurations with their reference fits and screens."""
    configs = []
    for task, kind, data_seed in GATE_PROBLEMS:
        dataset, _ = synth(task, 40, 15, 3, 0.1, data_seed)
        dataset = _permuted(standardize(dataset)[0], seed, data_seed)
        w1 = np.ones(dataset.n)
        lam_max = solver.lambda_max(dataset, w1, kind)
        for ratio in GATE_RATIOS:
            lam = ratio * lam_max
            model = solver.fit_weighted_erm(dataset, w1, kind, lam)
            for v in GATE_V:
                box = WeightBox(dataset.n, uncertainty.delta_from_v(v, dataset.n))
                ref = screening.build_reference(dataset, model, box)
                report = screening.screen(dataset, ref, box)
                configs.append(VerifyConfig(dataset, kind, lam, box, report, model))
    return VerifyState(tuple(configs), sizes.verify_trials, GATE_VERIFY_SEED + 1000 * seed)


def op_verify_gate(state: VerifyState, calls: SimpleNamespace) -> tuple[bytes, int]:
    digest = hashlib.sha256()
    resolves = 0
    for k, c in enumerate(state.configs):
        outcome = calls.verify_no_false_elimination(
            c.dataset, c.kind, c.lam, c.box, c.report, state.trials, state.sample_seed,
            reference_model=c.model,
        )
        resolves += outcome.trials
        if outcome.violations or outcome.inconclusive:
            raise CheckFailed(f"config {k}: {len(outcome.violations)} violation(s), "
                              f"{outcome.inconclusive} inconclusive")
        digest.update(outcome.to_json().encode())
    return digest.digest(), resolves


def shape_verify_gate(state: VerifyState) -> dict:
    datasets = {id(c.dataset): c.dataset for c in state.configs}
    return {"problems": [_shape(ds) for ds in datasets.values()],
            "configs": len(state.configs), "trials_per_config": state.trials}


# ----------------------------------------------------------------------------- screen_wide

@dataclass(frozen=True)
class WideState:
    problems: tuple[tuple[Dataset, LossKind, float], ...]


def setup_screen_wide(seed: int, sizes: Sizes, workdir: Path) -> WideState:
    problems = []
    for task, kind, ratio, data_seed in WIDE_PROBLEMS:
        dataset, _ = synth(task, sizes.wide_n, sizes.wide_d, 20, 0.5, data_seed)
        dataset = _permuted(standardize(dataset)[0], seed, data_seed)
        problems.append((dataset, kind, ratio))
    return WideState(tuple(problems))


def op_screen_wide(state: WideState, calls: SimpleNamespace) -> tuple[bytes, int]:
    digest = hashlib.sha256()
    for dataset, kind, ratio in state.problems:
        w1 = np.ones(dataset.n)
        lam = ratio * calls.lambda_max(dataset, w1, kind)
        model = calls.fit_weighted_erm(dataset, w1, kind, lam)
        box = WeightBox(dataset.n, calls.delta_from_v(WIDE_V, dataset.n))
        report = calls.screen(dataset, calls.build_reference(dataset, model, box), box)
        if np.any(model.b[report.removed] != 0.0):
            raise CheckFailed(f"{kind.value}: a removed feature is nonzero in the reference fit")
        for part in (model.b, np.array([model.b0, lam]), report.bounds, report.removed):
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.digest(), len(state.problems)


def shape_screen_wide(state: WideState) -> dict:
    return {"problems": [_shape(ds) for ds, _, _ in state.problems]}


# ----------------------------------------------------------------------------- grid_cli

@dataclass(frozen=True)
class GridState:
    runs: tuple[tuple[str, ...], ...]  # argv after "grid"
    files: tuple[dict, ...]


def _write_csv(path: Path, dataset: Dataset) -> None:
    names = ["y"] + [f"x{j + 1}" for j in range(dataset.d)]
    table = np.column_stack([dataset.y, dataset.x])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def setup_grid_cli(seed: int, sizes: Sizes, workdir: Path) -> GridState:
    """A squared LIBSVM file and a logistic CSV with a header, written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    n, d = sizes.grid_n, sizes.grid_d
    squared = _permuted(synth(Task.REGRESSION, n, d, 10, 0.5, 201)[0], seed, 201)
    logistic = _permuted(synth(Task.BINARY, n, d, 10, 0.5, 203)[0], seed, 203)
    libsvm_path = workdir / "grid_squared.libsvm"
    libsvm_path.write_text(serialize_libsvm(squared), encoding="utf-8")
    csv_path = workdir / "grid_logistic.csv"
    _write_csv(csv_path, logistic)
    runs = ((str(libsvm_path), "--loss", "squared"),
            (str(csv_path), "--loss", "logistic", "--label-column", "y"))
    files = tuple({"file": p.name, "file_bytes": p.stat().st_size, **_shape(ds)}
                  for p, ds in ((libsvm_path, squared), (csv_path, logistic)))
    return GridState(runs, files)


def check_grid_csv(text: str) -> None:
    """60 rows, removed ratios in [0, 1], and everything removed at (V=0, lambda_max)."""
    lines = text.splitlines()
    if not lines or lines[0] != GRID_HEADER:
        raise CheckFailed("grid CSV header is missing or changed")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != GRID_ROWS or any(len(r) != 7 for r in rows):
        raise CheckFailed(f"grid CSV has {len(rows)} rows, expected {GRID_ROWS} of 7 cells")
    ratios = [float(r[5]) for r in rows]
    if not all(0.0 <= q <= 1.0 for q in ratios):
        raise CheckFailed("grid CSV has a removed ratio outside [0, 1]")
    endpoint = [float(r[5]) for r in rows if float(r[0]) == 0.0 and float(r[2]) == 1.0]
    if endpoint != [1.0]:
        raise CheckFailed(f"removed ratio at V=0, lambda=lambda_max is {endpoint}, expected [1.0]")


def op_grid_cli(state: GridState, calls: SimpleNamespace) -> tuple[bytes, int]:
    digest = hashlib.sha256()
    fits = 0
    for argv in state.runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = calls.cli_main(["grid", *argv])
        if code != 0:
            raise CheckFailed(f"drfs grid {argv[0]} exited {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        check_grid_csv(text)
        fits += len({line.split(",")[2] for line in text.splitlines()[1:]})
        digest.update(text.encode())
    return digest.digest(), fits


def shape_grid_cli(state: GridState) -> dict:
    return {"files": list(state.files)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Sizes, Path], Any]
    op: Callable[[Any, SimpleNamespace], tuple[bytes, int]]
    shape: Callable[[Any], dict]


WORKLOADS = {
    w.name: w for w in (
        Workload("verify_gate", setup_verify_gate, op_verify_gate, shape_verify_gate),
        Workload("screen_wide", setup_screen_wide, op_screen_wide, shape_screen_wide),
        Workload("grid_cli", setup_grid_cli, op_grid_cli, shape_grid_cli),
    )
}
