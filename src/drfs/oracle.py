"""Brute-force falsification of the screening guarantees.

The math certifies that removed features stay inactive for every admissible
weight vector; this module attacks that claim by re-solving the weighted
problem at many concrete weights (all polytope corners when enumerable,
otherwise sampled corners and interior points) and checking the removed
coefficients.  It also cross-checks the sort-based polytope maximizers
against exhaustive corner enumeration at small n.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .losses import LossKind
from .screening import ScreeningReport
from .solver import ConvergenceError, FitConfig, FittedModel, fit_weighted_erm, objective_scale
from .uncertainty import (
    COLUMN_BLOCK_BYTES,
    CORNER_CAP,
    WeightBox,
    enumerate_corners,
    sample_feasible,
)

ACTIVITY_THRESHOLD = 1e-7
RESOLVE_GAP_SCALE = 1e-11
RESOLVE_MAX_ITERATIONS = 200_000


@dataclass
class VerificationOutcome:
    trials: int
    corner_trials: int
    violations: list[tuple[str, int, float]] = field(default_factory=list)
    max_coefficient_on_removed: float = 0.0
    resolve_gap_used: float = 0.0
    inconclusive: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.inconclusive == 0

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "corner_trials": self.corner_trials,
            "inconclusive": self.inconclusive,
            "violations": [
                {"weight_hash": h, "feature": j, "coefficient": c}
                for h, j, c in self.violations
            ],
            "max_coefficient_on_removed": self.max_coefficient_on_removed,
            "resolve_gap_used": self.resolve_gap_used,
        }
        return json.dumps(payload)


def _weight_hash(w: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()[:16]


def verify_no_false_elimination(
    dataset: Dataset,
    kind: LossKind,
    lam: float,
    box: WeightBox,
    report: ScreeningReport,
    trials: int,
    seed: int,
    *,
    reference_model: FittedModel,
) -> VerificationOutcome:
    """Re-solve at many admissible weights and flag removed-but-active features.

    Every re-solve is warm-started from reference_model, the w = 1 fit the
    report was screened from.  A trial whose solve does not converge is
    counted as inconclusive, never as a pass.  Corners come first: the
    bounds are maximized there, so they are the likeliest falsifiers.  The
    draws are solved together, in batches of T draws whose (n, T) and (d, T)
    work arrays each hold at most COLUMN_BLOCK_BYTES (T = 1 when one draw's
    arrays alone are larger).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if report.removed.shape != (dataset.d,):
        raise ValueError("report does not match the dataset's feature count")
    if report.box != box:
        raise ValueError("report was produced for a different weight box")
    if report.lam != lam:
        raise ValueError(f"report was produced at lambda={report.lam}, not {lam}")

    rng = np.random.default_rng(seed)
    if box.delta == 0.0:
        weight_draws = [np.ones(box.n)]
        corner_trials = 0
    elif box.n <= CORNER_CAP:
        weight_draws = list(enumerate_corners(box))
        corner_trials = len(weight_draws)
    else:
        corner_trials = (trials + 1) // 2
        weight_draws = [sample_feasible(box, rng, "corner") for _ in range(corner_trials)]
        weight_draws += [
            sample_feasible(box, rng, "interior") for _ in range(trials - corner_trials)
        ]

    gap_tol = RESOLVE_GAP_SCALE * objective_scale(dataset, np.ones(dataset.n), kind)
    config = FitConfig(gap_tolerance=gap_tol, max_iterations=RESOLVE_MAX_ITERATIONS)
    warm_start = (reference_model.b, reference_model.b0)

    removed_idx = np.nonzero(report.removed)[0]
    outcome = VerificationOutcome(
        trials=len(weight_draws), corner_trials=corner_trials, resolve_gap_used=gap_tol
    )
    batch = max(1, COLUMN_BLOCK_BYTES // (8 * max(dataset.n, dataset.d)))
    for start in range(0, len(weight_draws), batch):
        draws = weight_draws[start:start + batch]
        fits = fit_weighted_erm(dataset, np.stack(draws, axis=1), kind, lam, config, warm_start)
        for w, model in zip(draws, fits):
            if isinstance(model, ConvergenceError):
                outcome.inconclusive += 1
                continue
            if removed_idx.size == 0:
                continue
            coefs = np.abs(model.b[removed_idx])
            peak = float(np.max(coefs))
            outcome.max_coefficient_on_removed = max(outcome.max_coefficient_on_removed, peak)
            if peak > ACTIVITY_THRESHOLD:
                h = _weight_hash(w)
                for k in np.nonzero(coefs > ACTIVITY_THRESHOLD)[0]:
                    outcome.violations.append((h, int(removed_idx[k]), float(coefs[k])))
    return outcome


def brute_force_max(c, box: WeightBox, squared: bool = False) -> float:
    """Exhaustive maximum of c . w (or c . (w o w)) over all corners."""
    c = np.asarray(c, dtype=float)
    if c.shape != (box.n,):
        raise ValueError(f"expected {box.n} coefficients, got shape {c.shape}")
    best = -np.inf
    for w in enumerate_corners(box):
        value = float(np.dot(c, w * w)) if squared else float(np.dot(c, w))
        best = max(best, value)
    return best


def brute_force_v(box: WeightBox) -> float:
    """Exhaustive maximum of ||w - 1||_1 over all corners."""
    best = 0.0
    for w in enumerate_corners(box):
        best = max(best, float(np.sum(np.abs(w - 1.0))))
    return best
