"""Weighted L1-regularized ERM solver with a certified duality gap.

Objective: sum_i w_i loss(y_i, x_i.b + b0) + lambda ||b||_1, intercept
unpenalized, no 1/n factor anywhere (the screening constants assume this
exact scaling).  The algorithm is accelerated proximal gradient on b with
backtracking, alternated with exact intercept minimization (closed form for
the squared loss, guarded 1-D Newton for the logistic loss).  Convergence
is certified by recovering a feasible dual point and evaluating the gap,
which is also what makes the result usable for screening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import (
    DomainError,
    LossKind,
    _sigmoid,
    conjugate_neg,
    dual_from_margin,
    loss_derivative,
    loss_value,
    nu_constant,
)
from .data import Dataset

DEFAULT_GAP_SCALE = 1e-9
DEFAULT_EQ_PER_ROW = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
_CHECK_EVERY = 5


class ConvergenceError(RuntimeError):
    """Tolerance not reached; carries the best iterate found so far."""

    def __init__(self, message: str, model: "FittedModel"):
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules.  A None gap tolerance resolves against the problem
    scale, 1e-9 * max(1, P(zero model)); the dual equality tolerance is
    always 1e-10 * n."""

    gap_tolerance: float | None = None
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self) -> None:
        if self.gap_tolerance is not None and not self.gap_tolerance > 0:
            raise ValueError("gap_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class FittedModel:
    b: np.ndarray
    b0: float
    alpha: np.ndarray
    lam: float
    weights: np.ndarray
    gap: float
    loss_kind: LossKind
    iterations: int = 0

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.b)[0]


def _check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have length {n}, got shape {w.shape}")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    return w


def objective_scale(dataset: Dataset, weights, kind: LossKind) -> float:
    """max(1, primal objective of the all-zero model); tolerance reference."""
    w = _check_weights(weights, dataset.n)
    zero_margins = np.zeros(dataset.n)
    return max(1.0, float(np.dot(w, loss_value(kind, dataset.y, zero_margins))))


def primal_objective(dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float) -> float:
    w = _check_weights(weights, dataset.n)
    b = np.asarray(b, dtype=float)
    if b.shape != (dataset.d,):
        raise ValueError(f"b must have length {dataset.d}, got shape {b.shape}")
    margins = dataset.x @ b + b0
    return float(np.dot(w, loss_value(kind, dataset.y, margins)) + lam * np.sum(np.abs(b)))


def dual_objective(dataset: Dataset, weights, kind: LossKind, alpha) -> float:
    """-sum_i w_i conj(y_i, -alpha_i); -inf when alpha leaves the conjugate domain."""
    w = _check_weights(weights, dataset.n)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (dataset.n,):
        raise ValueError(f"alpha must have length {dataset.n}, got shape {alpha.shape}")
    try:
        vals = conjugate_neg(kind, dataset.y, alpha)
    except DomainError:
        return float("-inf")
    return -float(np.dot(w, vals))


def duality_gap(
    dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float, alpha
) -> float:
    """Primal minus dual; clamped at zero against floating-point noise."""
    p = primal_objective(dataset, weights, kind, lam, b, b0)
    d = dual_objective(dataset, weights, kind, alpha)
    if d == float("-inf"):
        raise DomainError("alpha outside the conjugate domain")
    gap = p - d
    if gap < -1e-12 * max(1.0, abs(p), abs(d)):
        raise DomainError(f"weak duality violated (gap={gap}); alpha is not dual feasible")
    return max(0.0, gap)


def _repair_from_margins(
    kind: LossKind, y: np.ndarray, x: np.ndarray, w: np.ndarray, lam: float, margins: np.ndarray
) -> np.ndarray:
    alpha = dual_from_margin(kind, y, margins)
    if kind is LossKind.SQUARED:
        # domain is all of R, so the equality constraint can be zeroed exactly
        alpha = alpha - np.dot(w, alpha) / np.sum(w)
    corr = x.T @ (w * alpha)
    norm_inf = float(np.max(np.abs(corr))) if corr.size else 0.0
    if norm_inf > lam:
        # shrinking toward zero preserves both dual constraints and, for the
        # logistic loss, the conjugate domain
        alpha = alpha * (lam / norm_inf)
    return alpha


def recover_dual(dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float) -> np.ndarray:
    """Dual point from the primal margins, repaired to feasibility.

    Squared loss: shifted so the weighted sum is exactly zero.  Logistic
    loss: the shift is skipped (it could leave the conjugate domain); the
    intercept step of the solver is what drives the weighted sum down.
    Both: scaled by lam / max(lam, ||X^T (w o alpha)||_inf).
    """
    w = _check_weights(weights, dataset.n)
    b = np.asarray(b, dtype=float)
    margins = dataset.x @ b + b0
    return _repair_from_margins(kind, dataset.y, dataset.x, w, lam, margins)


def lambda_max(dataset: Dataset, weights, kind: LossKind) -> float:
    """Smallest lambda making the optimal coefficient vector all zero.

    Closed form from the intercept-only optimum: the dual of that fit is
    analytic, and lambda_max is the sup-norm of its feature correlations.
    """
    w = _check_weights(weights, dataset.n)
    y = dataset.y
    if kind is LossKind.SQUARED:
        b0 = float(np.dot(w, y) / np.sum(w))
        corr = dataset.x.T @ (w * (y - b0))
        return 2.0 * float(np.max(np.abs(corr)))
    pos = y == 1.0
    neg = y == -1.0
    if not (np.all(pos | neg) and np.any(pos) and np.any(neg)):
        raise ValueError("logistic lambda_max requires both classes present in {-1, +1}")
    b0 = math.log(float(np.sum(w[pos]))) - math.log(float(np.sum(w[neg])))
    alpha = y / (np.exp(y * b0) + 1.0)
    corr = dataset.x.T @ (w * alpha)
    return float(np.max(np.abs(corr)))


def _soft_threshold(z: np.ndarray, thresh: float) -> np.ndarray:
    # maps |z| <= thresh (the kink included) to exactly zero
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


_EQ_NEWTON_FLOOR = 64 * np.finfo(float).eps  # per unit of total weight


def _intercept_logistic(
    y: np.ndarray, t0: np.ndarray, w: np.ndarray, b0: float, eq_tol: float, sw: float
) -> float:
    """Guarded 1-D Newton for the intercept.

    Runs past eq_tol down to the floating-point floor: the dual equality
    residual it leaves behind enters the certified gap roughly as
    residual * |b0|, so stopping at eq_tol would put a floor under the gap.
    """
    target = min(eq_tol, _EQ_NEWTON_FLOOR * sw)
    for _ in range(200):
        s = _sigmoid(-y * (t0 + b0))
        grad = -float(np.dot(w, y * s))
        if abs(grad) <= target:
            return b0
        hess = float(np.dot(w, s * (1.0 - s)))
        if hess > 1e-300:
            step = -grad / hess
            step = min(10.0, max(-10.0, step))
        else:
            step = -math.copysign(1.0, grad)
        # halve until the gradient magnitude actually decreases
        for _ in range(60):
            s_new = _sigmoid(-y * (t0 + b0 + step))
            grad_new = -float(np.dot(w, y * s_new))
            if abs(grad_new) <= abs(grad):
                break
            step *= 0.5
        if abs(step) < 1e-16 * max(1.0, abs(b0)):  # no representable progress left
            return b0 + step
        b0 += step
    return b0


def fit_weighted_erm(
    dataset: Dataset,
    weights,
    kind: LossKind,
    lam: float,
    config: FitConfig | None = None,
    warm_start: tuple[np.ndarray, float] | None = None,
) -> FittedModel:
    """Solve the weighted problem to a certified duality gap.

    Deterministic for fixed inputs.  Raises ConvergenceError carrying the
    best iterate when max_iterations runs out first.
    """
    if config is None:
        config = FitConfig()
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    w = _check_weights(weights, dataset.n)
    x = dataset.x
    y = dataset.y
    n, d = x.shape
    nu = nu_constant(kind)
    sw = float(np.sum(w))

    scale = objective_scale(dataset, w, kind)
    gap_tol = config.gap_tolerance if config.gap_tolerance is not None else DEFAULT_GAP_SCALE * scale
    eq_tol = DEFAULT_EQ_PER_ROW * n

    def intercept(t0: np.ndarray, b0_init: float) -> float:
        if kind is LossKind.SQUARED:
            return float(np.dot(w, y - t0) / sw)
        return _intercept_logistic(y, t0, w, b0_init, eq_tol, sw)

    def smooth(t0: np.ndarray, b0: float) -> float:
        return float(np.dot(w, loss_value(kind, y, t0 + b0)))

    if warm_start is not None:
        b = np.array(warm_start[0], dtype=float, copy=True)
        if b.shape != (d,):
            raise ValueError(f"warm start b must have length {d}")
        b0 = float(warm_start[1])
    else:
        b = np.zeros(d)
        b0 = 0.0

    t0 = x @ b
    b0 = intercept(t0, b0)
    v = b.copy()
    t0_v = t0.copy()
    tk = 1.0
    l_min = max(nu * float(np.max((x * x).T @ w)), 1e-12)
    lip = l_min
    f_curr = smooth(t0, b0)
    obj_curr = f_curr + lam * float(np.sum(np.abs(b)))
    best_gap = math.inf
    best: tuple[np.ndarray, float, np.ndarray] | None = None

    def give_up(message: str) -> ConvergenceError:
        assert best is not None  # the iteration-0 check always ran
        model = FittedModel(b=best[0], b0=best[1], alpha=best[2], lam=lam, weights=w,
                            gap=best_gap, loss_kind=kind, iterations=iterations)
        return ConvergenceError(message, model)

    iterations = 0
    while True:
        if iterations % _CHECK_EVERY == 0 or iterations >= config.max_iterations:
            alpha = _repair_from_margins(kind, y, x, w, lam, t0 + b0)
            dual = dual_objective(dataset, w, kind, alpha)
            gap = max(0.0, obj_curr - dual)
            eq_residual = abs(float(np.dot(w, alpha)))
            if gap < best_gap:
                best_gap = gap
                best = (b.copy(), b0, alpha)
            if gap <= gap_tol and eq_residual <= eq_tol:
                return FittedModel(
                    b=b, b0=b0, alpha=alpha, lam=lam, weights=w, gap=gap,
                    loss_kind=kind, iterations=iterations,
                )
            if iterations >= config.max_iterations:
                raise give_up(f"gap {best_gap:.3e} > tolerance {gap_tol:.3e} "
                              f"after {iterations} iterations")

        b0_v = intercept(t0_v, b0)
        margins_v = t0_v + b0_v
        f_v = float(np.dot(w, loss_value(kind, y, margins_v)))
        grad = x.T @ (w * loss_derivative(kind, y, margins_v))

        while True:
            step = 1.0 / lip
            b_new = _soft_threshold(v - step * grad, lam * step)
            diff = b_new - v
            t0_new = x @ b_new
            f_new = smooth(t0_new, b0_v)
            bound = f_v + float(np.dot(grad, diff)) + 0.5 * lip * float(np.dot(diff, diff))
            if f_new <= bound + 1e-12 * max(1.0, abs(f_v)):
                break
            lip *= 2.0
            if lip > 1e22 * l_min:
                raise give_up("backtracking failed to find a valid step")

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        momentum = (tk - 1.0) / t_next
        v = b_new + momentum * (b_new - b)
        t0_v = t0_new + momentum * (t0_new - t0)
        b, t0 = b_new, t0_new
        tk = t_next
        b0 = intercept(t0, b0_v)
        f_curr = smooth(t0, b0)
        obj_new = f_curr + lam * float(np.sum(np.abs(b)))
        if obj_new > obj_curr:  # adaptive restart
            v = b.copy()
            t0_v = t0.copy()
            tk = 1.0
        obj_curr = obj_new
        lip = max(l_min, lip * 0.95)
        iterations += 1
