"""Hash the fits of the acceptance gate's problems, to compare two source trees.

    python3 tools/fit_hashes.py path/to/src

Imports drfs from the given `src` directory and fits the gate's 40x15
squared and logistic problems, the logistic one also with the squared loss,
and the 506x13 squared and 690x14 logistic grid problems at lambda in
{0.1, 0.3, 0.7} * lambda_max.  Each (problem, lambda) runs two uniform fits
(default tolerance and 1e-10) and, warm-started from each, four re-weighted
fits (a corner and an interior weight vector at V = 0.1 and V = 1, at the
verifier's tolerance 1e-11 * scale).  One line per (problem, lambda) gives
the hash of b, b0, alpha, gap and iterations of its 10 fits, and the last
line hashes them all.  Running it on two trees and diffing the output
shows whether any of those fits changed by a single bit.
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
    delta_from_v,
    fit_weighted_erm,
    lambda_max,
    sample_feasible,
    standardize,
    synth,
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


if __name__ == "__main__":
    main()
