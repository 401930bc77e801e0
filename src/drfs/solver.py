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
    _check_labels,
    _conjugate_neg,
    _derivative,
    _dual_from_margin,
    _loss,
    _sigmoid_neg,
    loss_value,
    nu_constant,
)
from .data import Dataset
from .uncertainty import _column_blocks

DEFAULT_GAP_SCALE = 1e-9
DEFAULT_EQ_PER_ROW = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
_CHECK_EVERY = 5
# The size of x from which the solver exploits sparsity, on both sides:
# the Gap Safe working set drops columns the dual certifies zero, and
# _times_support multiplies only the columns of x under nonzero
# coefficients.  Below it the fit does exactly the float operations of a
# dense one.  A full x.T @ v there costs less than an iteration's
# interpreter overhead (2-CPU Intel VM, OpenBLAS on one thread: x.T @ v
# 18 us at 1 MiB; a 40x15 iteration 35 us squared, 200 us logistic), so
# neither saves anything.  Fit time with/without the working set, synth at
# 0.1 lambda_max: 0.12 MiB 1.01-1.02x, 0.98 MiB 0.77-0.99x, 1.95 MiB
# 0.77-0.92x, 3.05 MiB 0.65-0.77x.
_GAP_SAFE_MIN_BYTES = 1 << 20


class ConvergenceError(RuntimeError):
    """Tolerance not reached; carries the best iterate checked on the full
    matrix."""

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


class ColumnFits(tuple):
    """The per-column results of one batched fit, in column order: each a
    FittedModel, or the ConvergenceError carrying its best iterate."""

    @property
    def iterations(self) -> int:
        """Iterations the shared loop ran: those of its last column."""
        return max(r.model.iterations if isinstance(r, ConvergenceError) else r.iterations
                   for r in self)


def _check_weights(weights, shape: tuple[int, ...]) -> np.ndarray:
    """weights as floats of the given shape: (n,), or (n, T) with T >= 1 for
    the batched form fit_weighted_erm takes from the verifier."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape or w.size == 0:
        raise ValueError(f"weights must have shape {shape}, got shape {w.shape}")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    return w


def objective_scale(dataset: Dataset, weights, kind: LossKind) -> float:
    """max(1, primal objective of the all-zero model); tolerance reference."""
    w = _check_weights(weights, (dataset.n,))
    zero_margins = np.zeros(dataset.n)
    return max(1.0, float(np.dot(w, loss_value(kind, dataset.y, zero_margins))))


def _times_support(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ b for coefficients b of shape (d,) or (d, T).

    When x holds at least _GAP_SAFE_MIN_BYTES and at most half the rows of
    b hold a nonzero (in any column), only the columns of x under those rows
    are multiplied, gathered one _column_blocks block at a time so no copy
    larger than a block is made; the sum then rounds in another order than
    x @ b.  Otherwise this is x @ b itself, which also raises on a b whose
    length is not x's column count.
    """
    if x.nbytes < _GAP_SAFE_MIN_BYTES or b.shape[:1] != x.shape[1:]:
        return x @ b
    rows = np.flatnonzero(b if b.ndim == 1 else b.any(axis=1))
    if 2 * rows.size > b.shape[0]:
        return x @ b
    out = np.zeros(x.shape[:1] + b.shape[1:])
    # x[:, :rows.size] is a view of the gathered matrix's shape
    for block in _column_blocks(x[:, :rows.size]):
        cols = rows[block]
        out += x[:, cols] @ b[cols]
    return out


def primal_objective(dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float) -> float:
    w = _check_weights(weights, (dataset.n,))
    b = np.asarray(b, dtype=float)
    if b.shape != (dataset.d,):
        raise ValueError(f"b must have length {dataset.d}, got shape {b.shape}")
    margins = _times_support(dataset.x, b) + b0
    return float(np.dot(w, loss_value(kind, dataset.y, margins)) + lam * np.sum(np.abs(b)))


def dual_objective(dataset: Dataset, weights, kind: LossKind, alpha) -> float:
    """-sum_i w_i conj(y_i, -alpha_i); -inf when alpha leaves the conjugate domain."""
    w = _check_weights(weights, (dataset.n,))
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (dataset.n,):
        raise ValueError(f"alpha must have length {dataset.n}, got shape {alpha.shape}")
    _check_labels(kind, dataset.y)
    return float(_dual_value(kind, dataset.y, w, alpha))


def _dual_value(kind: LossKind, y: np.ndarray, w: np.ndarray, alpha: np.ndarray):
    """The dual objective of a 1-D alpha, or of each column of alpha (n, T)
    with y and w of the same shape; -inf when alpha leaves the conjugate
    domain."""
    try:
        vals = _conjugate_neg(kind, y, alpha)
    except DomainError:
        return float("-inf")
    return -np.vecdot(w, vals, axis=0)


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
) -> tuple[np.ndarray, np.ndarray]:
    """The repaired dual point and |x.T (w o alpha)| at it, for 1-D margins
    or for each column of margins (n, T) with y and w of the same shape."""
    alpha = _dual_from_margin(kind, y, margins)
    if kind is LossKind.SQUARED:
        # domain is all of R, so the equality constraint can be zeroed exactly
        alpha = alpha - np.vecdot(w, alpha, axis=0) / w.sum(axis=0)
    corr = np.abs(x.T @ (w * alpha))
    # shrinking toward zero preserves both dual constraints and, for the
    # logistic loss, the conjugate domain; a column within lam gets exactly 1.0
    shrink = lam / np.maximum(corr.max(axis=0, initial=0.0), lam)
    return alpha * shrink, corr * shrink


def recover_dual(dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float) -> np.ndarray:
    """Dual point from the primal margins, repaired to feasibility.

    Squared loss: shifted so the weighted sum is exactly zero.  Logistic
    loss: the shift is skipped (it could leave the conjugate domain); the
    intercept step of the solver is what drives the weighted sum down.
    Both: scaled by lam / max(lam, ||X^T (w o alpha)||_inf).
    """
    w = _check_weights(weights, (dataset.n,))
    _check_labels(kind, dataset.y)
    b = np.asarray(b, dtype=float)
    margins = _times_support(dataset.x, b) + b0
    return _repair_from_margins(kind, dataset.y, dataset.x, w, lam, margins)[0]


def lambda_max(dataset: Dataset, weights, kind: LossKind) -> float:
    """Smallest lambda making the optimal coefficient vector all zero.

    Closed form from the intercept-only optimum: the dual of that fit is
    analytic, and lambda_max is the sup-norm of its feature correlations.
    """
    w = _check_weights(weights, (dataset.n,))
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


def _ball_factor(nu: float, w_min: float) -> float:
    """2 nu / w_min: squared radius, per unit of duality gap, of the ball
    around a feasible dual point that holds the dual optimum when every
    weight is at least w_min (the weighted dual is w_min/nu strongly concave)."""
    return 2.0 * nu / w_min


def _column_square_sums(x: np.ndarray, *weights: np.ndarray) -> list[np.ndarray]:
    """sum_i v_i x_ij^2 for each weight vector v, or each column of v (n, T),
    one column block of x at a time so no full x*x copy is made; a single
    block gives exactly (x*x).T @ v."""
    sums = [np.empty(x.shape[1:] + v.shape[1:]) for v in weights]
    for cols in _column_blocks(x):
        sq = np.square(x[:, cols])
        for out, v in zip(sums, weights):
            out[cols] = sq.T @ v
    return sums


def _gap_safe_survivors(
    cols: np.ndarray, corr: np.ndarray, norms: np.ndarray, radius: float, lam: float,
    b: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    """The columns cols (indices into x) the Gap Safe sphere cannot certify
    zero at the optimum.

    corr holds |x_j.T (w o alpha)| at a feasible dual point alpha, norms
    ||w o x_j||, and the dual optimum lies within radius of alpha, so a
    column with corr + norms * radius < lam is zero in every optimum
    (Ndiaye, Fercoq, Gramfort & Salmon, JMLR 2017).  Columns with a nonzero
    iterate entry b_j or v_j stay, so dropping the rest leaves the margins
    as they are.
    """
    keep = (corr + norms * radius >= lam) | (b != 0.0) | (v != 0.0)
    return cols[keep]


_EQ_NEWTON_FLOOR = 64 * np.finfo(float).eps  # per unit of total weight
_PLATEAU_DOUBLINGS = 64


def _intercept_logistic(
    y: np.ndarray, t0: np.ndarray, w: np.ndarray, wy: np.ndarray, b0: list[float],
    target: list[float],
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Guarded 1-D Newton for the intercept of each column of t0 and w (n, T).

    y is (n, T) or (n, 1) and wy = w * y; b0 and target hold one start and
    one gradient magnitude to stop at per column.  Returns the intercepts,
    the margins t0 + b0 at them and _sigmoid_neg(y * margins), which the
    last gradient evaluation computed.  The gradients of all columns are
    evaluated together; each column takes its own steps, and a column that
    has stopped keeps its intercept while the others go on.  The targets
    are min(eq_tol, _EQ_NEWTON_FLOOR * sum w), past eq_tol down to the
    floating-point floor: the dual equality residual the Newton leaves
    behind enters the certified gap roughly as residual * |b0|, so stopping
    at eq_tol would put a floor under the gap.
    """
    b0 = list(b0)
    live = range(len(b0))

    # minus the gradient in b0 at b0 + step, per column; u is t0 + b0.  With
    # labels in {-1, +1}, wy . s rounds exactly as w . (y * s).
    def slope_at(step: list[float]) -> list[float]:
        return np.vecdot(wy, _sigmoid_neg(y * (u + step)), axis=0).tolist()

    for steps in range(201):
        u = t0 + b0
        s = _sigmoid_neg(y * u)
        slope = np.vecdot(wy, s, axis=0).tolist()
        live = [k for k in live if not abs(slope[k]) <= target[k]]
        if not live or steps == 200:
            break
        hess = np.vecdot(w, s * (1.0 - s), axis=0).tolist()
        step = [0.0] * len(b0)
        flat = []
        for k in live:
            if hess[k] > 1e-300:
                step[k] = min(10.0, max(-10.0, slope[k] / hess[k]))
            else:
                # every sigmoid saturated, so the gradient is flat here:
                # double the step until the gradient changes sign
                step[k] = math.copysign(1.0, slope[k])
                flat.append(k)
        for _ in range(_PLATEAU_DOUBLINGS):
            if not flat:
                break
            at = slope_at(step)
            flat = [k for k in flat if not at[k] * slope[k] <= 0.0]
            for k in flat:
                step[k] *= 2.0
        # halve until the gradient magnitude actually decreases
        halve = live
        for _ in range(60):
            at = slope_at(step)
            halve = [k for k in halve if not abs(at[k]) <= abs(slope[k])]
            if not halve:
                break
            for k in halve:
                step[k] *= 0.5
        moving = []
        for k in live:
            # a step below the resolution of b0 ends this column's Newton
            if not abs(step[k]) < 1e-16 * max(1.0, abs(b0[k])):
                moving.append(k)
            b0[k] += step[k]
        live = moving
    return b0, u, s


def fit_weighted_erm(
    dataset: Dataset,
    weights,
    kind: LossKind,
    lam: float,
    config: FitConfig | None = None,
    warm_start: tuple[np.ndarray, float] | None = None,
) -> FittedModel | ColumnFits:
    """Solve the weighted problem to a certified duality gap.

    Deterministic for fixed inputs.  Weights of shape (n,) give a
    FittedModel, or raise ConvergenceError carrying the best iterate when
    max_iterations runs out first.  Weights of shape (n, T) are the
    verifier's batched form: the T columns are solved together in one loop
    and give a ColumnFits, which holds rather than raises a column's
    ConvergenceError.  _fit_columns documents the algorithm; a vector is its
    one-column case.
    """
    # an (n, T) matrix keeps its T; any other shape but (n,) is refused
    w = _check_weights(weights, (dataset.n,) + np.shape(weights)[1:2])
    if w.ndim == 2:
        return ColumnFits(_fit_columns(dataset, w, kind, lam, config, warm_start))
    (result,) = _fit_columns(dataset, w[:, None], kind, lam, config, warm_start)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def _fit_columns(
    dataset: Dataset,
    weights: np.ndarray,
    kind: LossKind,
    lam: float,
    config: FitConfig | None = None,
    warm_start: tuple[np.ndarray, float] | None = None,
) -> list[FittedModel | ConvergenceError]:
    """Solve the weighted problem for each column of weights (n, T) at once.

    Returns, per column, its FittedModel or the ConvergenceError carrying its
    best iterate.  One accelerated proximal gradient loop runs on (d, T)
    coefficients: the products with x, the losses and the dot products are
    computed for all columns together, while each column keeps its own step
    size, backtracking, momentum, adaptive restart, intercept, best iterate
    and stopping test, as Python floats.  A certified column leaves the
    batch; the columns share the iteration count and the schedule of gap
    checks.  At T = 1 these are the float operations of a fit of that column
    alone.  For T > 1 the matrix products and the strided dot products may
    round differently in the last bits.

    When x holds at least _GAP_SAFE_MIN_BYTES, each gap check also applies
    the Gap Safe rule (Fercoq, Gramfort & Salmon, ICML 2015) to the working
    features of every column in the batch, and once the union of the
    survivors is at most half of them, the iterations multiply only that
    union.  Step sizes stay those of the full problem.  A column certifies
    its gap on the full matrix: when a column of the reduced problem
    converges, every feature rejoins and the check is repeated, and the fit
    goes on over all features without a working set.  At that size the
    products with the coefficients also skip their zero rows
    (_times_support).
    """
    if config is None:
        config = FitConfig()
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    x = dataset.x
    y = dataset.y
    n, d = x.shape
    _check_labels(kind, y)  # the loop calls the unchecked loss kernels
    batch = weights.shape[1]
    # y once per column: operands of one shape skip numpy's broadcasting set-up
    yc = np.repeat(y[:, None], batch, axis=1)
    w = weights
    sw = w.sum(axis=0)
    nu = nu_constant(kind)
    if config.gap_tolerance is not None:
        gap_tol = [config.gap_tolerance] * batch
    else:
        gap_tol = [DEFAULT_GAP_SCALE * objective_scale(dataset, w[:, k], kind)
                   for k in range(batch)]
    eq_tol = DEFAULT_EQ_PER_ROW * n
    wy = w * yc
    newton_target = [min(eq_tol, _EQ_NEWTON_FLOOR * s) for s in sw.tolist()]

    # intercept and smooth read the per-column arrays as they stand after
    # columns leave
    def intercept(t0: np.ndarray, b0_init: list[float]) -> tuple:
        """The intercepts, the margins t0 + b0 and, for the logistic loss,
        _sigmoid_neg(y * margins); see _intercept_logistic."""
        if kind is LossKind.SQUARED:
            b0 = np.vecdot(w, yc - t0, axis=0) / sw
            return b0.tolist(), t0 + b0, None
        return _intercept_logistic(yc, t0, w, wy, b0_init, newton_target)

    def smooth(t0: np.ndarray, b0: list[float]) -> np.ndarray:
        return np.vecdot(w, _loss(kind, yc, t0 + b0), axis=0)

    if warm_start is not None:
        b_start = np.asarray(warm_start[0], dtype=float)
        if b_start.shape != (d,):
            raise ValueError(f"warm start b must have length {d}")
        b = np.repeat(b_start[:, None], batch, axis=1)
        b0 = [float(warm_start[1])] * batch
    else:
        b = np.zeros((d, batch))
        b0 = [0.0] * batch

    t0 = _times_support(x, b)
    b0 = intercept(t0, b0)[0]
    v = b.copy()
    t0_v = t0.copy()
    tk = [1.0] * batch
    screening = x.nbytes >= _GAP_SAFE_MIN_BYTES
    norms, ball = np.empty((0, batch)), [0.0] * batch  # per column, used while screening
    if screening:
        w_sq_sums, norms = _column_square_sums(x, w, w * w)
        norms = np.sqrt(norms)
        ball = [_ball_factor(nu, w_min) for w_min in w.min(axis=0).tolist()]
    else:
        (w_sq_sums,) = _column_square_sums(x, w)
    l_min = [max(nu * m, 1e-12) for m in w_sq_sums.max(axis=0).tolist()]
    lip = list(l_min)
    # the working set: xa holds the columns cols of x, and the rows of b, v
    # and the gradient are indexed like them
    cols = np.arange(d)
    xa = x
    obj_curr = (smooth(t0, b0) + lam * np.abs(b).sum(axis=0)).tolist()
    # the best iterate of each column, from checks on the full matrix
    best_gap, best_b0 = [math.inf] * batch, [0.0] * batch
    best_b, best_alpha = np.zeros((d, batch)), np.zeros((n, batch))
    ids = list(range(batch))  # each batch column's index into weights
    results: list = [None] * batch

    def give_up(k: int, message: str) -> None:
        model = FittedModel(b=best_b[:, k].copy(), b0=best_b0[k], alpha=best_alpha[:, k].copy(),
                            lam=lam, weights=w[:, k], gap=best_gap[k], loss_kind=kind,
                            iterations=iterations)
        results[ids[k]] = ConvergenceError(message, model)

    def keep_columns(keep: list[int]) -> None:
        nonlocal yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha, norms
        nonlocal ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr, best_gap, best_b0
        nonlocal ball
        yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha, norms = (
            a[..., keep] for a in (yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha, norms))
        ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr, best_gap, best_b0, ball = (
            [a[k] for k in keep]
            for a in (ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr, best_gap,
                      best_b0, ball))

    # one proximal gradient step from v at step sizes 1/lip, and whether each
    # column's step passes the sufficient-decrease test; reads the iteration's
    # v, grad, f_v and b0_v
    def prox_step(lip: list[float]) -> tuple[np.ndarray, np.ndarray, list[bool]]:
        step = np.array([1.0 / lk for lk in lip])
        b_new = _soft_threshold(v - step * grad, lam * step)
        diff = b_new - v
        t0_new = _times_support(xa, b_new)
        f_new = smooth(t0_new, b0_v).tolist()
        along = np.vecdot(grad, diff, axis=0).tolist()
        sq = np.vecdot(diff, diff, axis=0).tolist()
        accepted = []
        for k, lk in enumerate(lip):
            bound = f_v[k] + along[k] + 0.5 * lk * sq[k]
            accepted.append(f_new[k] <= bound + 1e-12 * max(1.0, abs(f_v[k])))
        return b_new, t0_new, accepted

    iterations = 0
    while True:
        if iterations % _CHECK_EVERY == 0 or iterations >= config.max_iterations:
            alpha, corr = _repair_from_margins(kind, yc, xa, w, lam, t0 + b0)
            dual = _dual_value(kind, yc, w, alpha)
            gap = np.maximum(0.0, np.subtract(obj_curr, dual)).tolist()
            eq_residual = np.abs(np.vecdot(w, alpha, axis=0)).tolist()
            certified = [g <= tol and e <= eq_tol for g, tol, e in zip(gap, gap_tol, eq_residual)]
            out_of_iterations = iterations >= config.max_iterations
            if xa is not x and (out_of_iterations or any(certified)):
                # every feature rejoins, and the check runs again on the full matrix
                b_full, v_full = np.zeros((d, len(ids))), np.zeros((d, len(ids)))
                b_full[cols], v_full[cols] = b, v
                b, v, xa, screening = b_full, v_full, x, False
                t0, t0_v = _times_support(x, b), _times_support(x, v)
                obj_curr = (smooth(t0, b0) + lam * np.abs(b).sum(axis=0)).tolist()
                continue
            if xa is x:
                better = [k for k, g in enumerate(gap) if g < best_gap[k]]
                best_b[:, better] = b[:, better]
                best_alpha[:, better] = alpha[:, better]
                for k in better:
                    best_gap[k], best_b0[k] = gap[k], b0[k]
            stay = []
            for k, done in enumerate(certified):
                if done:
                    results[ids[k]] = FittedModel(
                        b=b[:, k].copy(), b0=b0[k], alpha=alpha[:, k].copy(), lam=lam,
                        weights=w[:, k], gap=gap[k], loss_kind=kind, iterations=iterations,
                    )
                elif out_of_iterations:
                    give_up(k, f"gap {best_gap[k]:.3e} > tolerance {gap_tol[k]:.3e} "
                               f"after {iterations} iterations")
                else:
                    stay.append(k)
            if not stay:
                return results
            if screening:
                survivors = np.unique(np.concatenate([
                    _gap_safe_survivors(cols, corr[:, k], norms[cols, k],
                                        math.sqrt(ball[k] * gap[k]), lam, b[:, k], v[:, k])
                    for k in stay
                ]))
            if len(stay) < len(ids):
                keep_columns(stay)
            if screening and 2 * survivors.size <= cols.size:
                keep = np.searchsorted(cols, survivors)
                b, v, cols = b[keep], v[keep], survivors
                xa = x[:, cols]

        b0_v, margins_v, sig_v = intercept(t0_v, b0)
        f_v = np.vecdot(w, _loss(kind, yc, margins_v), axis=0).tolist()
        grad = xa.T @ (w * _derivative(kind, yc, margins_v, sig_v))

        b_new, t0_new, accepted = prox_step(lip)
        failed = []
        while not all(accepted):
            retry = [k for k, ok in enumerate(accepted) if not ok]
            for k in retry:
                lip[k] *= 2.0
                if lip[k] > 1e22 * l_min[k]:
                    give_up(k, "backtracking failed to find a valid step")
                    failed.append(k)
                    accepted[k] = True
            b_try, t0_try, accepted_try = prox_step(lip)
            for k in retry:
                if k not in failed:
                    b_new[:, k], t0_new[:, k] = b_try[:, k], t0_try[:, k]
                    accepted[k] = accepted_try[k]

        t_next = [0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) for t in tk]
        momentum = np.array([(t - 1.0) / t_n for t, t_n in zip(tk, t_next)])
        v = b_new + momentum * (b_new - b)
        t0_v = t0_new + momentum * (t0_new - t0)
        b, t0 = b_new, t0_new
        b0, margins, _ = intercept(t0, b0_v)
        obj_new = (np.vecdot(w, _loss(kind, yc, margins), axis=0)
                   + lam * np.abs(b).sum(axis=0)).tolist()
        restart = [k for k, o in enumerate(obj_new) if o > obj_curr[k]]  # adaptive restart
        if restart:
            v[:, restart] = b[:, restart]
            t0_v[:, restart] = t0[:, restart]
            for k in restart:
                t_next[k] = 1.0
        tk = t_next
        obj_curr = obj_new
        lip = [max(lm, lk * 0.95) for lm, lk in zip(l_min, lip)]
        iterations += 1
        if failed:
            if len(failed) == len(ids):
                return results
            keep_columns([k for k in range(len(ids)) if k not in failed])
