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
from .duality import (_checked_gap, _correlations_at, _dual_value, _into_domain, _penalized,
                      _times_support, rho_vector)
from .losses import LossKind, feasibility_q, loss_value, nu_constant
from .solver import FittedModel
from .uncertainty import WeightBox, _pair_half_sums, contains, max_linear, v_from_delta

# strict-inequality guard: a bound within one part in 1e12 of lambda keeps
# the feature, so floating-point equality never removes anything
STRICT_BAND = 1e-12
# acceptance band for the all-zero-reference endpoint rule (see screen())
ZERO_REFERENCE_BAND = 1e-10


@dataclass(frozen=True)
class ReferencePair:
    """Uniform-weight solution plus the dual point reused across all shifts,
    with its correlations |x.T @ alpha_star| (d,), read-only."""

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
    correlations: np.ndarray


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

    The model must have been fit on this dataset's n x d shape with all
    weights equal to one, and at the same lambda that will be screened.  The
    reference's correlations |x.T @ alpha_star| are the ones the model's
    certifying gap check computed, where it kept them for this dual point;
    the columns it did not multiply, or all of them (x.T @ alpha_star
    itself) for a model that kept none, are multiplied here once per model,
    and the model keeps the result for the next box.
    """
    if model.alpha.shape + model.b.shape != dataset.x.shape:
        raise ValueError(f"reference model was fit on {model.alpha.size}x{model.b.size} data, "
                         f"dataset is {dataset.n}x{dataset.d}")
    if model.weights.shape != (dataset.n,) or not np.all(model.weights == 1.0):
        raise ValueError("reference model must be fit with uniform weights w = 1")
    q = feasibility_q(model.loss_kind, box.delta)
    margins = _times_support(dataset.x, model.b) + model.b0
    losses = np.asarray(loss_value(model.loss_kind, dataset.y, margins))
    alpha = _into_domain(model.loss_kind, dataset.y, np.array(model.alpha, copy=True),
                         "reference dual point")
    model._correlations = _correlations_at(dataset.x, alpha, model._correlations)
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
        correlations=model._correlations.values,
    )


def _check_inputs(ref: ReferencePair, box: WeightBox, dataset: Dataset) -> None:
    """Refuse a box or a dataset the reference does not belong to: the box
    must be over the dataset's n instances at the reference's delta, and the
    dataset must have the n instances and d features of the reference fit."""
    if box.n != dataset.n:
        raise ValueError(f"box is over {box.n} instances, dataset has {dataset.n}")
    if box.delta != ref.delta:
        raise ValueError(f"reference was built for delta={ref.delta}, "
                         f"screening box has delta={box.delta}")
    if ref.alpha_star.shape + ref.b.shape != dataset.x.shape:
        raise ValueError(f"reference was fit on {ref.alpha_star.size}x{ref.b.size} data, "
                         f"dataset is {dataset.n}x{dataset.d}")


def _at_weight(ref: ReferencePair, dataset: Dataset, box: WeightBox,
               w: np.ndarray) -> tuple[np.ndarray, float]:
    """w o alpha_hat and the gap at the weights w (n,) for ub_for_weight,
    alpha_hat = q alpha_star / w, after checking the inputs and that w is in
    the box.  Kept on ref for the last dataset, box and weight vector it was
    asked for, which are compared by identity, and by shape and bytes for
    the weights, so that a criterion looping over features at one weight
    vector computes them once."""
    weights = (w.shape, w.tobytes())
    last = ref.__dict__.get("_at_weight")
    if last is not None and last[0] is dataset and last[1] is box and last[2] == weights:
        return last[3]
    _check_inputs(ref, box, dataset)
    if not contains(box, w):
        raise ValueError("weight vector is not in the box")
    alpha_hat = _into_domain(ref.loss_kind, ref.y, ref.q * ref.alpha_star / w,
                             "rescaled dual point")
    primal = _penalized(w, ref.losses_at_optimum, ref.lam, ref.b)
    gap = _checked_gap(primal, _dual_value(ref.loss_kind, ref.y, w, alpha_hat))
    result = w * alpha_hat, gap
    ref.__dict__["_at_weight"] = dataset, box, weights, result
    return result


def ub_for_weight(j: int, w, ref: ReferencePair, dataset: Dataset, box: WeightBox) -> float:
    """Single-environment bound at a concrete weight vector.

    Uses the rescaled dual point q * alpha / w, whose feature correlations
    are weight-independent, and the duality gap actually attained at w: the
    primal objective from the reference's losses (ref.losses_at_optimum)
    and the dual one at q * alpha / w, clamped as duality_gap clamps.
    Dominated by the screen() bound over the box in exact arithmetic; in
    floating point it can lie above it by rounding (at delta = 0, by 9.4e-9
    on the bound at w = 1).  Calls in a row at one weight vector share the
    work that does not depend on j.
    """
    if not 0 <= j < dataset.d:
        raise IndexError(f"feature index {j} out of range for d={dataset.d}")
    w = np.asarray(w, dtype=float)
    wa, gap = _at_weight(ref, dataset, box, w)
    col = dataset.x[:, j]
    first = abs(float(np.dot(wa, col)))
    norm_sq = float(np.dot(w, col * col))
    return first + math.sqrt(norm_sq * (2.0 * nu_constant(ref.loss_kind)) * gap)


def screen(dataset: Dataset, ref: ReferencePair, box: WeightBox) -> ScreeningReport:
    """Bound every feature and mark the ones that can never become active.

    Work is O(n) for the worst-case gap and O(d) for the bounds: the
    correlation term reads the reference's correlations, and the column
    term the half-sums of x*x, which each dataset computes on its first
    screen, in O(n d), and keeps for every later screen of it, at any delta.

    Removal uses the strict rule bounds_j < lambda * (1 - 1e-12), except at
    the all-removed endpoint: when delta = 0 and the reference coefficient
    vector is exactly zero, the reference pair is the intercept-only optimum
    whose duality gap vanishes in exact arithmetic, so the true bound equals
    the correlation term and is <= lambda for every feature.  That case
    accepts on the correlation term with a relative 1e-10 band, which is
    what realizes "all features removed at lambda_max" despite the exact
    floating-point tie at the argmax feature.
    """
    _check_inputs(ref, box, dataset)
    nu = nu_constant(ref.loss_kind)
    lam = ref.lam
    first = ref.q * ref.correlations
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
