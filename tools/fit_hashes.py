"""Hash the fits of the acceptance gate's problems, to compare two source trees.

    python3 tools/fit_hashes.py path/to/src

Imports drfs from the given `src` directory and fits the gate's 40x15
squared and logistic problems, the logistic one also with the squared loss,
and the 506x13 squared and 690x14 logistic grid problems at lambda in
{0.1, 0.3, 0.7} * lambda_max.  Each (problem, lambda) runs two uniform fits
(default tolerance and 1e-10) and, warm-started from each, four re-weighted
fits (a corner and an interior weight vector at V = 0.1 and V = 1, at the
verifier's tolerance 1e-11 * scale).  One line per (problem, lambda) gives
the hash of b, b0, alpha, gap and iterations of its 10 fits, and the `all`
line hashes them all.  The `verify` line hashes the JSON outcomes of the
acceptance gate's 12 verify configurations (the 40x15 problems, lambda in
{0.1, 0.3} * lambda_max, V in {0.01, 0.1, 1}, seed 99) at 50 trials, whose
draws the verifier solves in batches.  Running it on two trees and diffing
the output shows whether any of those results changed by a single bit.

The `large` line covers inputs over the solver's 1 MiB threshold, whose
fits may round differently in the last bits between trees, so it hashes
each fit's support and each screen's removed mask, not floats.  The
problems are standardized 2000x200 synth draws (squared seed 201, logistic
seed 203, the grid benchmark's), fit at lambda in {0.01, 0.1, 0.3} *
lambda_max and screened at V in {0, 0.1, 1}.
"""

import hashlib
import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from drfs import (  # noqa: E402
    ConvergenceError,
    FitConfig,
    LossKind,
    Task,
    WeightBox,
    build_reference,
    delta_from_v,
    fit_weighted_erm,
    lambda_max,
    sample_feasible,
    screen,
    standardize,
    synth,
    verify_no_false_elimination,
)
from drfs.solver import objective_scale  # noqa: E402

SQ, LOG = LossKind.SQUARED, LossKind.LOGISTIC


def problem(task, n, d, sparsity, noise, seed):
    dataset, _ = synth(task, n, d, sparsity, noise, seed)
    return standardize(dataset)[0]


PROBLEMS = [
    ("reg40", problem(Task.REGRESSION, 40, 15, 3, 0.1, 7), SQ),
    ("clf40", problem(Task.BINARY, 40, 15, 3, 0.1, 11), LOG),
    ("clf40-squared", problem(Task.BINARY, 40, 15, 3, 0.1, 11), SQ),
    ("housing506", problem(Task.REGRESSION, 506, 13, 8, 3.0, 2026), SQ),
    ("australian690", problem(Task.BINARY, 690, 14, 8, 0.5, 4040), LOG),
]


LARGE = [
    ("squared2000", problem(Task.REGRESSION, 2000, 200, 10, 0.5, 201), SQ),
    ("logistic2000", problem(Task.BINARY, 2000, 200, 10, 0.5, 203), LOG),
]


def fits(dataset, kind, lam):
    w1 = np.ones(dataset.n)
    for config in (None, FitConfig(gap_tolerance=1e-10)):
        uniform = fit_weighted_erm(dataset, w1, kind, lam, config)
        yield uniform
        rng = np.random.default_rng(5)
        for v in (0.1, 1.0):
            box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
            for mode in ("corner", "interior"):
                w = sample_feasible(box, rng, mode)
                tol = FitConfig(gap_tolerance=1e-11 * objective_scale(dataset, w, kind))
                try:
                    yield fit_weighted_erm(dataset, w, kind, lam, tol,
                                           warm_start=(uniform.b, uniform.b0))
                except ConvergenceError as exc:
                    yield exc.model


def verify_outcomes():
    """The acceptance gate's 12 verify configurations, at 50 trials each."""
    for _, dataset, kind in PROBLEMS[:2]:
        w1 = np.ones(dataset.n)
        lam_max = lambda_max(dataset, w1, kind)
        for ratio in (0.1, 0.3):
            lam = ratio * lam_max
            model = fit_weighted_erm(dataset, w1, kind, lam)
            for v in (0.01, 0.1, 1.0):
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                report = screen(dataset, build_reference(dataset, model, box), box)
                yield verify_no_false_elimination(dataset, kind, lam, box, report, trials=50,
                                                  seed=99, reference_model=model)


def large_outcomes():
    """The support of each LARGE fit, then the removed mask of each screen."""
    for _, dataset, kind in LARGE:
        w1 = np.ones(dataset.n)
        lam_max = lambda_max(dataset, w1, kind)
        for ratio in (0.01, 0.1, 0.3):
            model = fit_weighted_erm(dataset, w1, kind, ratio * lam_max)
            yield model.support
            for v in (0.0, 0.1, 1.0):
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                yield screen(dataset, build_reference(dataset, model, box), box).removed


def main() -> None:
    total = hashlib.sha256()
    for name, dataset, kind in PROBLEMS:
        lam_max = lambda_max(dataset, np.ones(dataset.n), kind)
        for ratio in (0.1, 0.3, 0.7):
            digest = hashlib.sha256()
            for model in fits(dataset, kind, ratio * lam_max):
                for part in (model.b, [model.b0], model.alpha, [model.gap], [model.iterations]):
                    digest.update(np.asarray(part, dtype=float).tobytes())
            total.update(digest.digest())
            print(name, ratio, digest.hexdigest()[:16])
    print("all", total.hexdigest())
    outcomes = hashlib.sha256()
    for outcome in verify_outcomes():
        outcomes.update(outcome.to_json().encode())
    print("verify", outcomes.hexdigest())
    large = hashlib.sha256()
    for part in large_outcomes():
        large.update(np.asarray(part, dtype=np.int64).tobytes())
    print("large", large.hexdigest())


if __name__ == "__main__":
    main()
