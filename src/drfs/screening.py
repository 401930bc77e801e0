"""Certified feature elimination over the whole weight polytope.

Given an (approximately) optimal fit under uniform weights, each feature j
gets an upper bound on |sum_i w_i alpha_i^{*(w)} x_ij| that is valid for
every admissible weight vector simultaneously.  Features whose bound stays
below lambda can never enter the optimal support under any admissible
shift and are safe to drop.  The bound combines a rescaled dual point that
stays feasible for all weights, the duality-gap ball of radius sqrt(2 nu
gap) in ||a||_w^2 = sum_i w_i a_i^2 that holds the re-weighted dual optimum
around it, and two closed-form maximizations over the weight polytope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossKind, conjugate_neg, feasibility_q, loss_value, nu_constant
from .solver import FittedModel, _times_support, duality_gap
from .uncertainty import WeightBox, _pair_half_sums, contains, max_linear, v_from_delta

# strict-inequality guard: a bound within one part in 1e12 of lambda keeps
# the feature, so floating-point equality never removes anything
STRICT_BAND = 1e-12
# acceptance band for the all-zero-reference endpoint rule (see screen())
ZERO_REFERENCE_BAND = 1e-10
_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class ReferencePair:
    """Uniform-weight solution plus the dual point reused across all shifts."""

    b: np.ndarray
    b0: float
    alpha_star: np.ndarray
    q: float
    lam: float
    delta: float
    loss_kind: LossKind
    y: np.ndarray
    losses_at_optimum: np.ndarray
    gap: float


@dataclass(frozen=True)
class ScreeningReport:
    bounds: np.ndarray
    removed: np.ndarray
    lam: float
    box: WeightBox
    gap_at_reference: float
    q: float
    nu: float

    @property
    def removed_ratio(self) -> float:
        return float(np.mean(self.removed))

    @property
    def v(self) -> float:
        return v_from_delta(self.box)

    def to_json(self) -> str:
        payload = {
            "lambda": self.lam,
            "delta": self.box.delta,
            "V": self.v,
            "bounds": [float(u) for u in self.bounds],
            "removed": [bool(r) for r in self.removed],
            "gap_at_reference": self.gap_at_reference,
            "q": self.q,
            "nu": self.nu,
        }
        return json.dumps(payload)

    def to_csv(self) -> str:
        lines = ["index,bound,removed"]
        for j, (u, r) in enumerate(zip(self.bounds, self.removed)):
            lines.append(f"{j},{float(u)!r},{'true' if r else 'false'}")
        return "\n".join(lines) + "\n"


def build_reference(dataset: Dataset, model: FittedModel, box: WeightBox) -> ReferencePair:
    """Freeze the uniform-weight fit into the reference used by screen().

    The model must have been fit with all weights equal to one and at the
    same lambda that will be screened.
    """
    if model.weights.shape != (dataset.n,) or not np.all(model.weights == 1.0):
        raise ValueError("reference model must be fit with uniform weights w = 1")
    q = feasibility_q(model.loss_kind, box.delta)
    margins = _times_support(dataset.x, model.b) + model.b0
    losses = np.asarray(loss_value(model.loss_kind, dataset.y, margins))
    alpha = _into_domain(model.loss_kind, dataset.y, np.array(model.alpha, copy=True),
                         "reference dual point")
    return ReferencePair(
        b=np.array(model.b, copy=True),
        b0=float(model.b0),
        alpha_star=alpha,
        q=q,
        lam=model.lam,
        delta=box.delta,
        loss_kind=model.loss_kind,
        y=np.array(dataset.y, copy=True),
        losses_at_optimum=losses,
        gap=model.gap,
    )


def _into_domain(kind: LossKind, y: np.ndarray, alpha: np.ndarray, what: str) -> np.ndarray:
    """alpha moved into the conjugate domain of the loss: unchanged for the
    squared loss (its domain is all of R), y*alpha clipped into [0, 1] for
    the logistic loss.

    Callers construct alpha so the true values lie inside the domain; only
    rounding may push y*alpha past it, by at most _DOMAIN_SLACK.
    """
    if kind is LossKind.SQUARED:
        return alpha
    p = y * alpha
    if np.any(p < -_DOMAIN_SLACK) or np.any(p > 1.0 + _DOMAIN_SLACK):
        bad = int(np.argmax(np.maximum(p - 1.0, -p)))
        raise ValueError(
            f"instance {bad}: {what} outside the logistic conjugate domain (y*alpha={p[bad]})"
        )
    return y * np.clip(p, 0.0, 1.0)


def dg_radius(gap: float, nu: float, delta: float) -> float:
    """Euclidean radius of a ball certain to contain the re-weighted dual optimum."""
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    return math.sqrt(2.0 * nu / (1.0 - delta) * gap)


def _conjugate_at_scaled(ref: ReferencePair, factor: float) -> np.ndarray:
    """conj(y_i, -factor * alpha_i), guarded against rounding out of the domain."""
    alpha = _into_domain(ref.loss_kind, ref.y, factor * ref.alpha_star, "scaled dual point")
    return np.asarray(conjugate_neg(ref.loss_kind, ref.y, alpha))


def rho_vector(ref: ReferencePair) -> np.ndarray:
    """Per-instance worst-case gap contribution over the reference's weight range.

    rho_i = loss_i + max of the conjugate at the two extreme reweightings
    q/(1+delta) and q/(1-delta); convexity puts the maximum at an endpoint.
    """
    lo = _conjugate_at_scaled(ref, ref.q / (1.0 + ref.delta))
    hi = _conjugate_at_scaled(ref, ref.q / (1.0 - ref.delta))
    return ref.losses_at_optimum + np.maximum(lo, hi)


def _check_box(ref: ReferencePair, box: WeightBox, n: int) -> None:
    if box.n != n:
        raise ValueError(f"box is over {box.n} instances, dataset has {n}")
    if box.delta != ref.delta:
        raise ValueError(
            f"reference was built for delta={ref.delta}, screening box has delta={box.delta}"
        )


def ub_for_weight(j: int, w, ref: ReferencePair, dataset: Dataset, box: WeightBox) -> float:
    """Single-environment bound at a concrete weight vector.

    Uses the rescaled dual point q * alpha / w, whose feature correlations
    are weight-independent, and the duality gap actually attained at w.
    Always dominated by the screen() bound over the box.
    """
    if not 0 <= j < dataset.d:
        raise IndexError(f"feature index {j} out of range for d={dataset.d}")
    _check_box(ref, box, dataset.n)
    w = np.asarray(w, dtype=float)
    if not contains(box, w):
        raise ValueError("weight vector is not in the box")
    alpha_hat = _into_domain(ref.loss_kind, ref.y, ref.q * ref.alpha_star / w,
                             "rescaled dual point")
    gap = duality_gap(dataset, w, ref.loss_kind, ref.lam, ref.b, ref.b0, alpha_hat)
    col = dataset.x[:, j]
    first = abs(float(np.dot(w * alpha_hat, col)))
    norm_sq = float(np.dot(w, col * col))
    return first + math.sqrt(norm_sq * (2.0 * nu_constant(ref.loss_kind)) * gap)


def screen(dataset: Dataset, ref: ReferencePair, box: WeightBox) -> ScreeningReport:
    """Bound every feature and mark the ones that can never become active.

    Work is O(n d) for the correlations x.T @ alpha and O(n) for the
    worst-case gap.  The column term needs the half-sums of x*x, which each
    dataset computes on its first screen, in O(n d), and keeps; every later
    screen of it, at any delta, adds O(d).

    Removal uses the strict rule bounds_j < lambda * (1 - 1e-12), except at
    the all-removed endpoint: when delta = 0 and the reference coefficient
    vector is exactly zero, the reference pair is the intercept-only optimum
    whose duality gap vanishes in exact arithmetic, so the true bound equals
    the correlation term and is <= lambda for every feature.  That case
    accepts on the correlation term with a relative 1e-10 band, which is
    what realizes "all features removed at lambda_max" despite the exact
    floating-point tie at the argmax feature.
    """
    _check_box(ref, box, dataset.n)
    if ref.alpha_star.shape != (dataset.n,):
        raise ValueError("reference and dataset disagree on the number of instances")
    nu = nu_constant(ref.loss_kind)
    lam = ref.lam
    first = ref.q * np.abs(dataset.x.T @ ref.alpha_star)
    # worst-case duality gap over the box: the rho maximization plus the
    # regularizer term, clamped at zero against rounding
    gbar = max(0.0, max_linear(rho_vector(ref), box) + lam * float(np.sum(np.abs(ref.b))))
    bounds = first + np.sqrt(_pair_half_sums(dataset._x_sq_half_sums, box) * (2.0 * nu) * gbar)
    if box.delta == 0.0 and not np.any(ref.b):
        removed = first <= lam * (1.0 + ZERO_REFERENCE_BAND)
    else:
        removed = bounds < lam * (1.0 - STRICT_BAND)
    return ScreeningReport(
        bounds=bounds,
        removed=removed,
        lam=lam,
        box=box,
        gap_at_reference=ref.gap,
        q=ref.q,
        nu=nu,
    )
