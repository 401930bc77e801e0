"""Command-line front end.

Subcommands: solve, lambda-max, screen, grid, verify.  All outputs are
machine-readable (JSON or CSV) and byte-deterministic for fixed flags and
seed.  Exit codes: 0 ok, 1 parse/input error, 2 solver non-convergence,
3 invalid flags, 4 uncertainty level not representable, 5 safety violation
found by the verifier.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .data import Dataset, ParseError, SingleClassError, Task, parse_csv, parse_libsvm, standardize
from .losses import LossKind
from .oracle import verify_no_false_elimination
from .screening import build_reference, screen
from .solver import (DEFAULT_MAX_ITERATIONS, ConvergenceError, FitConfig, FittedModel,
                     fit_weighted_erm, lambda_max)
from .uncertainty import ShiftOverflowError, WeightBox, delta_from_v

DEFAULT_V_GRID = (0.0,) + tuple(10.0 ** (k / 2.0) for k in range(-10, 1))
DEFAULT_LAMBDA_RATIOS = tuple(10.0 ** (-k / 2.0) for k in (4, 3, 2, 1, 0))

GRID_COLUMNS = ("V", "delta", "lambda_ratio", "lambda",
                "removed_count", "removed_ratio", "gap_at_reference")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 3 on bad flags, not argparse's 2
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="dataset file (LIBSVM or CSV)")
    p.add_argument("--format", choices=("libsvm", "csv", "auto"), default="auto")
    p.add_argument("--label-column", default="0",
                   help="CSV label column index or header name (default 0)")
    p.add_argument("--loss", choices=("squared", "logistic"), default="squared")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip centering/scaling of the features")
    p.add_argument("--output", default=None, help="write the result here instead of stdout")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-ratio", type=float, default=None,
                       help="regularization as a multiple of lambda_max")
    group.add_argument("--lambda-absolute", type=float, default=None)
    _add_tolerance_flags(p)


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gap-tol", type=float, default=None,
                   help="absolute duality-gap stopping tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)


def build_parser() -> _Parser:
    parser = _Parser(prog="drfs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="fit the weighted L1 model, emit JSON")
    _add_common(p)
    _add_fit_flags(p)
    p.add_argument("--weights", default=None, help="file with one weight per instance")

    p = sub.add_parser("lambda-max", help="print the all-zero-coefficients threshold")
    _add_common(p)
    p.add_argument("--weights", default=None)

    p = sub.add_parser("screen", help="certified robust feature elimination report")
    _add_common(p)
    _add_fit_flags(p)
    shift = p.add_mutually_exclusive_group()
    shift.add_argument("--V", type=float, default=None,
                       help="total weight-shift budget max ||w - 1||_1")
    shift.add_argument("--delta", type=float, default=None,
                       help="per-instance weight bound")
    p.add_argument("--csv", default=None, help="also write a per-feature CSV here")

    p = sub.add_parser("grid", help="removed-ratio table over (V, lambda) grid, CSV")
    _add_common(p)
    p.add_argument("--V-values", type=float, nargs="+", default=DEFAULT_V_GRID,
                   dest="v_values")
    p.add_argument("--lambda-ratios", type=float, nargs="+", default=DEFAULT_LAMBDA_RATIOS)
    _add_tolerance_flags(p)

    p = sub.add_parser("verify", help="brute-force check that no removal was false")
    _add_common(p)
    _add_fit_flags(p)
    p.add_argument("--V", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", default=None,
                   help="sampling seed, a non-negative integer (falls back to env "
                        "DRFS_SEED, then 0)")
    p.add_argument("--self-test", action="store_true",
                   help="plant a false removal and require the verifier to catch it")
    return parser


def _load_dataset(args: argparse.Namespace) -> Dataset:
    path = args.input
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if path.lower().endswith(".csv") else "libsvm"
    task = Task.BINARY if args.loss == "logistic" else Task.REGRESSION
    with open(path, encoding="utf-8") as handle:
        if fmt == "csv":
            label = args.label_column
            label_column: int | str = int(label) if label.lstrip("+-").isdigit() else label
            dataset = parse_csv(handle, label_column=label_column, task=task)
        else:
            dataset = parse_libsvm(handle, task=task)
    if not args.no_standardize:
        dataset, _ = standardize(dataset)
    return dataset


def _load_weights(path: str | None, n: int) -> np.ndarray:
    if path is None:
        return np.ones(n)
    if not os.path.exists(path):
        raise FileNotFoundError(f"weights file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    values = []
    for k, tok in enumerate(tokens, 1):
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"weights file {path}: entry {k} is not a finite number: {tok!r}")
        values.append(value)
    w = np.array(values)
    if w.shape != (n,):
        raise ValueError(f"weights file has {w.size} entries, dataset has {n} instances")
    return w


def _loss_kind(args: argparse.Namespace) -> LossKind:
    return LossKind.LOGISTIC if args.loss == "logistic" else LossKind.SQUARED


def _fit_config(args: argparse.Namespace) -> FitConfig:
    return FitConfig(gap_tolerance=args.gap_tol, max_iterations=args.max_iter)


def _resolve_lambda(args: argparse.Namespace, dataset: Dataset, weights: np.ndarray,
                    kind: LossKind) -> float:
    if args.lambda_absolute is not None:
        if not args.lambda_absolute > 0:
            raise ValueError("--lambda-absolute must be > 0")
        return args.lambda_absolute
    if not args.lambda_ratio > 0:
        raise ValueError("--lambda-ratio must be > 0")
    return args.lambda_ratio * _ratio_base(dataset, weights, kind, "pass --lambda-absolute")


def _ratio_base(dataset: Dataset, weights: np.ndarray, kind: LossKind, remedy: str) -> float:
    """lambda_max, the base of every lambda ratio; a zero one is refused with the remedy."""
    lam_max = lambda_max(dataset, weights, kind)
    if lam_max == 0.0:
        raise ValueError("lambda_max is 0 (no feature correlates with the residuals of the "
                         f"intercept-only fit), so every lambda ratio gives lambda = 0; {remedy}")
    return lam_max


def _resolve_delta(args: argparse.Namespace, n: int) -> float:
    delta = getattr(args, "delta", None)
    if delta is None:
        return delta_from_v(args.V if args.V is not None else 0.0, n)
    if not 0.0 <= delta < 1.0:
        raise ShiftOverflowError(f"delta must be in [0, 1), got {delta}")
    return delta


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _model_json(model: FittedModel) -> str:
    payload = {
        "loss": model.loss_kind.value,
        "lambda": model.lam,
        # + 0.0 turns the solver's -0.0 for an inactive coefficient into 0.0
        "b": [float(v) + 0.0 for v in model.b],
        "b0": float(model.b0) + 0.0,
        "gap": model.gap,
        "support": [int(j) for j in model.support],
        "iterations": model.iterations,
    }
    return json.dumps(payload)


def _cmd_solve(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    kind = _loss_kind(args)
    weights = _load_weights(args.weights, dataset.n)
    lam = _resolve_lambda(args, dataset, weights, kind)
    model = fit_weighted_erm(dataset, weights, kind, lam, _fit_config(args))
    _emit(_model_json(model), args.output)
    return 0


def _cmd_lambda_max(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    kind = _loss_kind(args)
    weights = _load_weights(args.weights, dataset.n)
    _emit(repr(lambda_max(dataset, weights, kind)), args.output)
    return 0


def _screen_once(args: argparse.Namespace):
    """Load, resolve the shift and lambda, fit at w = 1 and screen; returns
    (dataset, kind, model, report)."""
    dataset = _load_dataset(args)
    kind = _loss_kind(args)
    delta = _resolve_delta(args, dataset.n)
    lam = _resolve_lambda(args, dataset, np.ones(dataset.n), kind)
    model = fit_weighted_erm(dataset, np.ones(dataset.n), kind, lam, _fit_config(args))
    box = WeightBox(n=dataset.n, delta=delta)
    return dataset, kind, model, screen(dataset, build_reference(dataset, model, box), box)


def _cmd_screen(args: argparse.Namespace) -> int:
    _, _, _, report = _screen_once(args)
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report.to_csv())
    _emit(report.to_json(), args.output)
    ratio_line = f"removed_ratio {report.removed_ratio!r}\n"
    # keep stdout pure JSON when it carries the report
    (sys.stdout if args.output is not None else sys.stderr).write(ratio_line)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    kind = _loss_kind(args)
    if any(not 0.0 < r <= 1.0 for r in args.lambda_ratios):
        raise ValueError("lambda ratios must lie in (0, 1]")
    shifts = [(v, delta_from_v(v, dataset.n)) for v in sorted(args.v_values)]
    config = _fit_config(args)
    lam_max = _ratio_base(dataset, np.ones(dataset.n), kind,
                          "screen with `drfs screen --lambda-absolute` instead")
    rows = []
    for ratio in sorted(args.lambda_ratios):
        lam = ratio * lam_max
        model = fit_weighted_erm(dataset, np.ones(dataset.n), kind, lam, config)
        for v, delta in shifts:
            box = WeightBox(n=dataset.n, delta=delta)
            report = screen(dataset, build_reference(dataset, model, box), box)
            rows.append((v, delta, ratio, lam, int(np.sum(report.removed)),
                         report.removed_ratio, report.gap_at_reference))
    rows.sort(key=lambda r: (r[0], r[2]))
    lines = [",".join(GRID_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(val) if isinstance(val, float) else str(val)
                              for val in row))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _verify_seed(args: argparse.Namespace) -> int:
    """The sampling seed from --seed, else DRFS_SEED, else 0; ValueError
    naming its source unless it is a non-negative integer."""
    source, text = ("--seed", args.seed) if args.seed is not None else (
        "DRFS_SEED", os.environ.get("DRFS_SEED", "0"))
    try:
        seed = int(text)  # int's syntax: blanks around it, a sign and 1_000 pass
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    seed = _verify_seed(args)
    dataset, kind, model, report = _screen_once(args)
    if args.self_test:
        if model.support.size == 0:
            raise ValueError("--self-test needs at least one active feature; lower lambda")
        planted = int(model.support[np.argmax(np.abs(model.b[model.support]))])
        flipped = report.removed.copy()
        flipped[planted] = True
        report = dataclasses.replace(report, removed=flipped)
    outcome = verify_no_false_elimination(
        dataset, kind, model.lam, report.box, report, args.trials, seed, reference_model=model,
    )
    _emit(outcome.to_json(), args.output)
    if outcome.violations:
        for weight_hash, feature, coef in outcome.violations:
            sys.stderr.write(
                f"violation: feature {feature} active (|b|={coef!r}) under weights "
                f"{weight_hash}\n"
            )
        return 5
    if outcome.inconclusive:
        sys.stderr.write(f"{outcome.inconclusive} inconclusive trial(s)\n")
        return 2
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "lambda-max": _cmd_lambda_max,
    "screen": _cmd_screen,
    "grid": _cmd_grid,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SingleClassError as exc:  # a configuration problem, not file syntax
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ParseError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ShiftOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
