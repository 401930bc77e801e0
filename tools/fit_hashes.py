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

The `bounds` lines hash the certificate itself: the bytes of the screen
bounds of the 40x15 problems' uniform fits at lambda in {0.1, 0.3} *
lambda_max, one line per V in {0, 0.01, 0.1, 1}.  A change to the bound's
formula shows there as the shifts whose lines moved; at V = 0 every weight
is 1, so the line moves only when the uniform fits or the no-shift bound do.
The `removed` line hashes the removed masks of the same screens, all V
together, so a change that moves the last bits of the bounds shows there
whether any removal moved with them.
The `ub` line hashes the bytes of the per-weight bound ub_for_weight of
every feature at 50 weight vectors per configuration of those problems and
V (corner and interior draws in turn, seed 5).

The `large` line covers inputs over the solver's 1 MiB threshold, whose
fits may round differently in the last bits between trees, so it hashes
each fit's support and each screen's removed mask, not floats.  The
problems are standardized 2000x200 synth draws (squared seed 201, logistic
seed 203, the grid benchmark's), fit at lambda in {0.01, 0.1, 0.3} *
lambda_max and screened at V in {0, 0.1, 1}.

The `batch` line covers batched fits over the threshold, as the verifier
runs them on large files: per LARGE problem, one fit of 8 corner draws at
V = 1 and lambda = 0.1 * lambda_max, warm-started from the w = 1 fit at
the verifier's tolerance and iteration cap.  It hashes each column's
support and whether it came back inconclusive.

The `wide` line covers the benchmark's 10000x2000 screen_wide problems at
seed 0 (standardized synth draws: squared seed 101 at lambda = 0.1 *
lambda_max, logistic seed 103 at 0.05 * lambda_max), where the fit runs
on small working sets for most of its iterations.  It hashes each fit's
support and the removed mask of its screen at V = 0.1.

The `path` line hashes the b, b0 and iterations of every fit behind the
`large`, `batch` and `wide` lines (in that order; an inconclusive batch
column counts with its best iterate), but not their alpha or gap.  A
change to how the fit checks its gap then shows there whenever a decision
moved (a stopping test, a working set, an iterate), while the last bits of
a gap that no decision read do not move it.

BLAS runs on one thread: the script sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, as the
benchmark does.  At OpenBLAS's default thread count the same tree printed
another `path` line on a 2-CPU machine (a2e49153...b307 against
7226e4c1...cd24 at one thread), so two trees compare only at a fixed count.
"""

import hashlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
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
    ub_for_weight,
    verify_no_false_elimination,
)
from drfs.oracle import RESOLVE_GAP_SCALE, RESOLVE_MAX_ITERATIONS  # noqa: E402
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


WIDE = [(Task.REGRESSION, SQ, 0.1, 101), (Task.BINARY, LOG, 0.05, 103)]


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


BOUNDS_V = (0.0, 0.01, 0.1, 1.0)


def screen_outcomes():
    """Per V in BOUNDS_V, the screen reports of the 40x15 problems' uniform
    fits at lambda in {0.1, 0.3} * lambda_max."""
    reports = {v: [] for v in BOUNDS_V}
    for _, dataset, kind in PROBLEMS[:2]:
        w1 = np.ones(dataset.n)
        lam_max = lambda_max(dataset, w1, kind)
        for ratio in (0.1, 0.3):
            model = fit_weighted_erm(dataset, w1, kind, ratio * lam_max)
            for v in BOUNDS_V:
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                reports[v].append(screen(dataset, build_reference(dataset, model, box), box))
    return reports


def ub_outcomes():
    """Per configuration of screen_outcomes, ub_for_weight of every feature
    at 50 sampled weight vectors, corner and interior in turn."""
    for _, dataset, kind in PROBLEMS[:2]:
        w1 = np.ones(dataset.n)
        lam_max = lambda_max(dataset, w1, kind)
        for ratio in (0.1, 0.3):
            model = fit_weighted_erm(dataset, w1, kind, ratio * lam_max)
            for v in BOUNDS_V:
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                ref = build_reference(dataset, model, box)
                rng = np.random.default_rng(5)
                for k in range(50):
                    w = sample_feasible(box, rng, "interior" if k % 2 else "corner")
                    yield [ub_for_weight(j, w, ref, dataset, box) for j in range(dataset.d)]


def large_outcomes(fitted):
    """The support of each LARGE fit, then the removed mask of each screen;
    each fit is appended to fitted."""
    for _, dataset, kind in LARGE:
        w1 = np.ones(dataset.n)
        lam_max = lambda_max(dataset, w1, kind)
        for ratio in (0.01, 0.1, 0.3):
            model = fit_weighted_erm(dataset, w1, kind, ratio * lam_max)
            fitted.append(model)
            yield model.support
            for v in (0.0, 0.1, 1.0):
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                yield screen(dataset, build_reference(dataset, model, box), box).removed


def batch_outcomes(fitted):
    """Per LARGE problem and column of one 8-draw batch: whether it was
    inconclusive, then its support; each column's model is appended to
    fitted."""
    for _, dataset, kind in LARGE:
        w1 = np.ones(dataset.n)
        lam = 0.1 * lambda_max(dataset, w1, kind)
        uniform = fit_weighted_erm(dataset, w1, kind, lam)
        box = WeightBox(dataset.n, delta_from_v(1.0, dataset.n))
        rng = np.random.default_rng(5)
        draws = np.stack([sample_feasible(box, rng, "corner") for _ in range(8)], axis=1)
        config = FitConfig(gap_tolerance=RESOLVE_GAP_SCALE * objective_scale(dataset, w1, kind),
                           max_iterations=RESOLVE_MAX_ITERATIONS)
        for result in fit_weighted_erm(dataset, draws, kind, lam, config,
                                       warm_start=(uniform.b, uniform.b0)):
            inconclusive = isinstance(result, ConvergenceError)
            model = result.model if inconclusive else result
            fitted.append(model)
            yield [inconclusive]
            yield model.support


def wide_outcomes(fitted):
    """The support of each WIDE fit, then the removed mask of its screen;
    each fit is appended to fitted."""
    for task, kind, ratio, seed in WIDE:
        dataset = problem(task, 10_000, 2_000, 20, 0.5, seed)
        w1 = np.ones(dataset.n)
        model = fit_weighted_erm(dataset, w1, kind, ratio * lambda_max(dataset, w1, kind))
        fitted.append(model)
        yield model.support
        box = WeightBox(dataset.n, delta_from_v(0.1, dataset.n))
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
    reports = screen_outcomes()
    for v, parts in reports.items():
        digest = hashlib.sha256()
        for part in parts:
            digest.update(np.asarray(part.bounds, dtype=float).tobytes())
        print("bounds", v, digest.hexdigest()[:16])
    digest = hashlib.sha256()
    for parts in reports.values():
        for part in parts:
            digest.update(np.asarray(part.removed, dtype=np.int64).tobytes())
    print("removed", digest.hexdigest())
    digest = hashlib.sha256()
    for part in ub_outcomes():
        digest.update(np.asarray(part, dtype=float).tobytes())
    print("ub", digest.hexdigest())
    fitted = []
    for name, outcomes in (("large", large_outcomes), ("batch", batch_outcomes),
                           ("wide", wide_outcomes)):
        digest = hashlib.sha256()
        for part in outcomes(fitted):
            digest.update(np.asarray(part, dtype=np.int64).tobytes())
        print(name, digest.hexdigest())
    path = hashlib.sha256()
    for model in fitted:
        for part in (model.b, [model.b0], [model.iterations]):
            path.update(np.asarray(part, dtype=float).tobytes())
    print("path", path.hexdigest())


if __name__ == "__main__":
    main()
