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
from .uncertainty import _column_blocks, _column_square_sums

DEFAULT_GAP_SCALE = 1e-9
DEFAULT_EQ_PER_ROW = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
_CHECK_EVERY = 5
# The size of x from which the solver exploits sparsity, on both sides:
# the fit runs on prioritized working sets of the columns the Gap Safe rule
# cannot certify zero, _times_support multiplies only the columns of x
# under nonzero coefficients, and a full-matrix gap check multiplies only
# the columns whose correlation bound can reach lambda
# (_CorrelationBounds).  Below it the fit does exactly the float
# operations of a dense one.  A full x.T @ v there costs less than an
# iteration's interpreter overhead (2-CPU Intel VM, OpenBLAS on one thread:
# x.T @ v 18 us at 1 MiB; a 40x15 iteration 35 us squared, 200 us
# logistic), so neither saves anything.  Fit time with/without working
# sets, squared and logistic synth at 0.1 lambda_max, best of 7: 0.98 MiB
# (1000x128, 2000x64) 0.94-1.46x, 1.95 MiB (2000x128) 0.85-0.87x,
# 3.05 MiB (2000x200) 0.55-0.74x.
_GAP_SAFE_MIN_BYTES = 1 << 20
# The prioritized working set (see _fit_columns): at least
# _WORKING_SET_LEAST columns, and a reduced problem rejoins the full matrix
# once its gap is _REJOIN_RATIO of the best full-matrix one.  Chosen on the
# screen_wide problems (10000x2000, seeds 1-2; fit seconds, best of 5
# alternating runs) and the grid_cli ones (2000x200 at 4 lambda ratios,
# seeds 1-2; total iterations), same machine:
#   least / ratio   10/0.3   20/0.3   30/0.3   50/0.3   30/0.2   30/0.5
#   screen_wide s     1.10     1.04     1.08     1.04     1.01     1.11
#   grid_cli its     1655     1620     1045     1095     1630     1125
# The screen_wide times differ by less than their run-to-run spread, and
# take 4.9 s without any working set.  The grid_cli fits take 1175
# iterations without working sets and 1200 with the Gap Safe rule alone.
_WORKING_SET_LEAST = 30
_REJOIN_RATIO = 0.3
# The squared loss's dual shift leaves sum_i w_i alpha_i at rounding level:
# the weighted sum, the total weight and the residual's own sum each round
# by up to n u sum_i w_i |alpha_i|, the subtraction by u per entry (u =
# eps / 2), so (3n + 2) u = (1.5n + 1) eps per unit of sum_i w_i |alpha_i|;
# the dual equality test accepts 2 (n + 1) eps of it.
_EQ_ROUNDING_PER_ROW = 2 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """Tolerance not reached; carries the best iterate checked on the full
    matrix."""

    def __init__(self, message: str, model: "FittedModel"):
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules.  A None gap tolerance resolves against the problem
    scale, 1e-9 * max(1, P(zero model)); the dual equality |sum_i w_i
    alpha_i| is always held to max(1e-10 * n, 2 (n + 1) eps sum_i w_i
    |alpha_i|), the larger term being the rounding of the squared loss's
    dual shift."""

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


def _columns_times(x: np.ndarray, cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x[:, cols].T @ v for ascending column indices cols and v of shape (n,)
    or (n, T).

    When cols holds more than half of x's columns this is the rows cols of
    x.T @ v itself.  Otherwise each run of consecutive columns is
    multiplied as a view of x, so no copy of x is made.  OpenBLAS's x.T @ v
    takes the columns four at a time and the last d mod 4 by narrower
    kernels, so runs made of whole aligned groups of four (see
    _multiplied_columns) round as in x.T @ v for a vector v; a batch v, or
    another BLAS, may differ from it in the last bits.
    """
    if 2 * cols.size > x.shape[1]:
        return (x.T @ v)[cols]
    out = np.empty(cols.shape + v.shape[1:])
    starts = np.flatnonzero(np.diff(cols, prepend=-2) != 1).tolist()
    for lo, hi in zip(starts, starts[1:] + [cols.size]):
        out[lo:hi] = x[:, cols[lo]:cols[hi - 1] + 1].T @ v
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
    kind: LossKind, y: np.ndarray, x: np.ndarray, w: np.ndarray, lam: float, margins: np.ndarray,
    bounds: "_CorrelationBounds | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The repaired dual point, |x.T (w o alpha)| at it and the factor it was
    shrunk by, for 1-D margins or for each column of margins (n, T) with y
    and w of the same shape.

    With the _CorrelationBounds of x, only the columns whose bound can reach
    lam are multiplied; every other column is below lam and carries its
    bound in place of |x_j.T (w o alpha)|, so the shrink is the one the
    full product gives whenever the multiplied columns round as in x.T @ v.
    """
    alpha = _dual_from_margin(kind, y, margins)
    if kind is LossKind.SQUARED:
        # domain is all of R, so the equality constraint can be zeroed up to
        # the rounding of the shift (see _EQ_ROUNDING_PER_ROW)
        alpha = alpha - np.vecdot(w, alpha, axis=0) / w.sum(axis=0)
    corr = np.abs(x.T @ (w * alpha)) if bounds is None else bounds.correlations(w, alpha, lam)
    # shrinking toward zero preserves both dual constraints and, for the
    # logistic loss, the conjugate domain; a column within lam gets exactly 1.0
    shrink = lam / np.maximum(corr.max(axis=0, initial=0.0), lam)
    return alpha * shrink, corr * shrink, shrink


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
    else:
        pos = y == 1.0
        neg = y == -1.0
        if not (np.all(pos | neg) and np.any(pos) and np.any(neg)):
            raise ValueError("logistic lambda_max requires both classes present in {-1, +1}")
        b0 = math.log(float(np.sum(w[pos]))) - math.log(float(np.sum(w[neg])))
    corr = dataset.x.T @ (w * _dual_from_margin(kind, y, b0))
    return float(np.max(np.abs(corr)))


def _soft_threshold(z: np.ndarray, thresh: float) -> np.ndarray:
    # maps |z| <= thresh (the kink included) to exactly zero
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def _gap_safe_survivors(
    cols: np.ndarray, corr: np.ndarray, norms: np.ndarray, radius: float, lam: float,
    b: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    """The columns cols (indices into x) the Gap Safe sphere cannot certify
    zero at the optimum.

    corr holds |x_j.T (w o alpha)| at a feasible dual point alpha (for a
    column a _CorrelationBounds skipped, an upper bound this rule drops),
    norms sqrt(sum_i w_i x_ij^2), and the dual optimum lies within radius of
    alpha in the norm ||a||_w = sqrt(sum_i w_i a_i^2), so by Cauchy-Schwarz
    a column with corr + norms * radius < lam is zero in every optimum
    (Ndiaye, Fercoq, Gramfort & Salmon, JMLR 2017).  Columns with a nonzero
    iterate entry b_j or v_j stay, so dropping the rest leaves the margins
    as they are.
    """
    keep = (corr + norms * radius >= lam) | (b != 0.0) | (v != 0.0)
    return cols[keep]


def _prioritized(
    survivors: np.ndarray, corr: np.ndarray, norms: np.ndarray, lam: float, b: np.ndarray,
    v: np.ndarray, least: int,
) -> np.ndarray:
    """The working set a full-matrix check picks from the Gap Safe survivors
    (indices into x), in ascending order.

    It keeps every survivor with a nonzero b_j or v_j, and fills up to
    max(least, twice their count) with the survivors closest to entering
    the model: the smallest (lam - corr_j) / norms_j, a lower bound on how
    far the dual point must move in ||.||_w before x_j reaches the
    constraint (Celer: Massias, Gramfort & Salmon, ICML 2018).  corr, norms,
    b and v are indexed by column of x, as for _gap_safe_survivors.
    """
    held = (b[survivors] != 0.0) | (v[survivors] != 0.0)
    rest = survivors[~held]
    room = max(least, 2 * (survivors.size - rest.size)) - (survivors.size - rest.size)
    if rest.size > room:
        with np.errstate(divide="ignore"):  # a zero column scores inf
            score = (lam - corr[rest]) / norms[rest]
        rest = rest[np.argpartition(score, room)[:room]]
    return np.union1d(survivors[held], rest)


def _multiplied_columns(undecided: np.ndarray) -> np.ndarray:
    """The columns of x a full-matrix check multiplies, in ascending order,
    from the (d, T) mask of those whose bound cannot decide for a column of
    the batch: each aligned group of four columns (the last one holds d mod
    4) that holds a column undecided for any of them, so that
    _columns_times rounds them as x.T @ v does."""
    d = undecided.shape[0]
    groups = np.zeros(-(-d // 4) * 4, dtype=bool)
    groups[:d] = undecided.any(axis=1)
    return np.flatnonzero(groups.reshape(-1, 4).any(axis=1).repeat(4)[:d])


class _CorrelationBounds:
    """Upper bounds ub (d, T) on the raw correlations |x_j.T (w o alpha)|
    at each full-matrix check of a fit, per column of x and of the batch,
    so that a check multiplies only the columns whose bound cannot decide.

    From one check to the next, alpha moves by shift = ||alpha - alpha_prev||_w
    (||a||_w^2 = sum_i w_i a_i^2), so by the triangle inequality and
    Cauchy-Schwarz in ||.||_w a correlation moves by at most
    norms_j * shift, norms_j = sqrt(sum_i w_i x_ij^2).  Any computed product
    x_j.T (w o alpha) is off the exact one by at most
    gamma_{n+1} norms_j ||alpha||_w (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).  The update adds gamma = 2 (n + 4) eps
    times shift + ||alpha_prev||_w + ||alpha||_w, which covers both
    products and the rounding of the norms and of shift, and a factor
    1 + 4 eps for its own three roundings.  So every bound stays at least
    the correlation that x.T @ (w o alpha) computes.  A multiplied column's
    bound is reset to its computed correlation; at the first check every
    bound is inf, so every column is multiplied.
    """

    def __init__(self, x: np.ndarray, norms: np.ndarray):
        n = x.shape[0]
        self.x, self.norms = x, norms
        self.ub = np.full(norms.shape, np.inf)
        self.alpha, self.alpha_norm = np.zeros((n, norms.shape[1])), np.zeros(norms.shape[1])
        self.gamma = 2 * (n + 4) * np.finfo(float).eps
        # this check's w o alpha, and the columns it multiplied
        self.wa, self.exact = None, np.zeros(norms.shape[0], dtype=bool)

    def correlations(self, w: np.ndarray, alpha: np.ndarray, lam: float) -> np.ndarray:
        """Advance the bounds to the raw dual points alpha (n, T), multiply
        every column whose bound reaches lam and return the bounds, exact
        where multiplied.  A column it skips has ub_j < lam (1 - 4 eps), so
        every correlation that reaches lam, and so decides the shrink, is
        multiplied, and so is every column that could tie with the largest
        once shrunk."""
        eps = np.finfo(float).eps
        shift = np.sqrt(np.vecdot(w, np.square(alpha - self.alpha), axis=0))
        alpha_norm = np.sqrt(np.vecdot(w, np.square(alpha), axis=0))
        step = shift + self.gamma * (shift + self.alpha_norm + alpha_norm)
        self.ub = (self.ub + self.norms * step) * (1.0 + 4.0 * eps)
        self.alpha, self.alpha_norm, self.wa = alpha, alpha_norm, w * alpha
        self.exact[:] = False
        self.refine(self.ub >= lam * (1.0 - 4.0 * eps))
        return self.ub

    def refine(self, undecided: np.ndarray) -> np.ndarray:
        """Multiply the columns of the (d, T) mask undecided that this check
        has not multiplied yet; returns them."""
        cols = _multiplied_columns(undecided & ~self.exact[:, None])
        self.ub[cols] = np.abs(_columns_times(self.x, cols, self.wa))
        self.exact[cols] = True
        return cols

    def keep(self, columns: list[int]) -> None:
        """Keep the bounds of these batch columns only."""
        self.norms, self.ub, self.alpha, self.alpha_norm = (
            a[..., columns] for a in (self.norms, self.ub, self.alpha, self.alpha_norm))


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
    and stopping test, as Python floats.  The columns share the iteration
    count and the schedule of gap checks.  A column leaves the batch when it
    certifies at a check, or with a ConvergenceError when the iterations run
    out or its step search gives up (lip past 1e22 times its floor).  At
    T = 1 these are the float operations of a fit of that column alone.  For
    T > 1 the matrix products and the strided dot products may round
    differently in the last bits.  An overflowing step-size floor or start
    objective raises ValueError.  A check certifies a column when its gap is
    within its tolerance and |sum_i w_i alpha_i| within
    max(1e-10 n, 2 (n + 1) eps sum_i w_i |alpha_i|), the rounding the
    squared loss's dual shift leaves behind (_EQ_ROUNDING_PER_ROW).

    When x holds at least _GAP_SAFE_MIN_BYTES and has more than twice
    _WORKING_SET_LEAST columns, the fit runs on prioritized working sets
    (Blitz: Johnson & Guestrin, ICML 2015; Celer: Massias, Gramfort &
    Salmon, ICML 2018).  Each check on the full matrix applies the Gap Safe
    rule (Fercoq, Gramfort & Salmon, ICML 2015) to every column of the
    batch, keeps from its survivors the nonzero rows of b and v plus those
    closest to entering the model (_prioritized, at least `least` of them),
    and once the union over the batch is at most half of the columns of x,
    the iterations multiply only that union.  Its checks do not screen, for
    the Gap Safe certificate holds only for the full problem.  When a column
    of the reduced problem certifies there, or its gap falls to
    _REJOIN_RATIO of its best full-matrix gap, or the iterations run out,
    every feature rejoins and the check is repeated on the full matrix.  If
    that check finds a column's dual point shrunk for a feature outside the
    working set it left, the working set missed an active feature: the
    momentum restarts, `least` doubles, and once it reaches half the
    columns of x the fit goes on over all features (the restart took the
    grid_cli benchmark's 2000x200 fits, seeds 0-9, from 6110 to 5215
    iterations, against 5930 without working sets).  Otherwise the full gap
    equals the reduced one, so every round either certifies, shrinks a gap
    by _REJOIN_RATIO or doubles `least`.  A fit returns only from a check on
    the full matrix, the best iterate is taken only there, and step sizes
    stay those of the full problem.  At that size the products with the
    coefficients also skip their zero rows (_times_support), and the checks
    on the full matrix multiply only the columns a _CorrelationBounds cannot
    decide: first those whose bound reaches lam, which leaves the shrink as
    it is, then, once the gap is known, those the Gap Safe rule may keep,
    so its survivors, the _prioritized scores and the missed-feature test
    read the correlations a full product computes.  A fit at unit weights
    reads sum_i x_ij^2 from the dataset (Dataset._x_sq_sums).
    """
    if config is None:
        config = FitConfig()
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
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
    eq_tol = DEFAULT_EQ_PER_ROW * n
    eq_rounding = _EQ_ROUNDING_PER_ROW * (n + 1)
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
    least = _WORKING_SET_LEAST  # doubles when a working set misses a feature
    screening = x.nbytes >= _GAP_SAFE_MIN_BYTES and 2 * least < d
    # a fit at unit weights reads the sums cached on the dataset
    unit = batch == 1 and bool(np.all(w == 1.0))
    w_sq_sums = dataset._x_sq_sums if unit else _column_square_sums(x, w)
    with np.errstate(over="ignore"):  # an overflow fails the check below
        if config.gap_tolerance is not None:
            gap_tol = [config.gap_tolerance] * batch
        else:
            gap_tol = [DEFAULT_GAP_SCALE * objective_scale(dataset, w[:, k], kind)
                       for k in range(batch)]
        obj_curr = (smooth(t0, b0) + lam * np.abs(b).sum(axis=0)).tolist()
    l_min = [max(nu * m, 1e-12) for m in w_sq_sums.max(axis=0).tolist()]
    # the Gap Safe rule's column norms, per column of weights (see ids): the
    # weighted dual is 1/nu strongly concave in ||a||_w, so its optimum lies
    # within sqrt(2 nu gap) of alpha in that norm
    norms = np.sqrt(w_sq_sums)
    bounds = _CorrelationBounds(x, norms) if x.nbytes >= _GAP_SAFE_MIN_BYTES else None
    lip = list(l_min)
    if not all(map(math.isfinite, l_min + obj_curr)):
        raise ValueError("the fit overflows: the squared features or the starting losses "
                         "exceed the float range; rescale the features or labels")
    # the working set: xa holds the columns cols of x, and the rows of b, v
    # and the gradient are indexed like them; left is the working set the
    # last rejoin left, until the full check after it
    every = np.arange(d)
    cols, xa, left = every, x, None
    # the best iterate of each column, from checks on the full matrix, and
    # its dual equality residual
    best_gap, best_b0, best_eq = [math.inf] * batch, [0.0] * batch, [0.0] * batch
    best_b, best_alpha = np.zeros((d, batch)), np.zeros((n, batch))
    ids = list(range(batch))  # each batch column's index into weights
    results: list = [None] * batch
    finished: set[int] = set()  # columns with a result, until drop_finished

    def finish(k: int, message: str | None = None) -> None:
        """Record column k's result: without a message, the FittedModel of the
        current iterate, certified at this check; with one, a ConvergenceError
        carrying the best full-matrix iterate."""
        if message is None:
            b_k, b0_k, alpha_k, gap_k = b[:, k], b0[k], alpha[:, k], gap[k]
        else:
            b_k, b0_k, alpha_k, gap_k = best_b[:, k], best_b0[k], best_alpha[:, k], best_gap[k]
        model = FittedModel(b=b_k.copy(), b0=b0_k, alpha=alpha_k.copy(), lam=lam,
                            weights=w[:, k], gap=gap_k, loss_kind=kind, iterations=iterations)
        results[ids[k]] = model if message is None else ConvergenceError(message, model)
        finished.add(k)

    def out_of_iterations_message(k: int) -> str:
        """What column k's best iterate missed: its gap, or else the dual equality."""
        if not best_gap[k] <= gap_tol[k]:
            return (f"gap {best_gap[k]:.3e} > tolerance {gap_tol[k]:.3e} "
                    f"after {iterations} iterations")
        bound = max(eq_tol, eq_rounding * float(w[:, k] @ np.abs(best_alpha[:, k])))
        return (f"dual equality residual {best_eq[k]:.3e} > tolerance {bound:.3e} "
                f"after {iterations} iterations (gap {best_gap[k]:.3e} within "
                f"tolerance {gap_tol[k]:.3e})")

    def drop_finished() -> None:
        """Remove the finished columns from every per-column array and list."""
        nonlocal yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha
        nonlocal ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr
        nonlocal best_gap, best_b0, best_eq
        keep = [k for k in range(len(ids)) if k not in finished]
        yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha = (
            a[..., keep] for a in (yc, w, wy, sw, b, v, t0, t0_v, best_b, best_alpha))
        ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr, best_gap, best_b0, best_eq = (
            [a[k] for k in keep]
            for a in (ids, gap_tol, newton_target, l_min, lip, tk, b0, obj_curr, best_gap,
                      best_b0, best_eq))
        if bounds is not None:
            bounds.keep(keep)
        finished.clear()

    iterations = 0
    while ids:
        if iterations % _CHECK_EVERY == 0 or iterations >= config.max_iterations:
            alpha, corr, shrink = _repair_from_margins(kind, yc, xa, w, lam, t0 + b0,
                                                       bounds if xa is x else None)
            dual = _dual_value(kind, yc, w, alpha)
            gap = np.maximum(0.0, np.subtract(obj_curr, dual)).tolist()
            eq_residual = np.abs(np.vecdot(w, alpha, axis=0)).tolist()
            # the rounding term is computed only where 1e-10 n is not enough
            certified = [g <= tol and (e <= eq_tol or e <= eq_rounding * float(
                             w[:, k] @ np.abs(alpha[:, k])))
                         for k, (g, tol, e) in enumerate(zip(gap, gap_tol, eq_residual))]
            out_of_iterations = iterations >= config.max_iterations
            if xa is not x:
                if out_of_iterations or any(
                        c or g <= _REJOIN_RATIO * bg for c, g, bg in zip(certified, gap, best_gap)):
                    # every feature rejoins, and the check runs again on the full matrix
                    b_full, v_full = np.zeros((d, len(ids))), np.zeros((d, len(ids)))
                    b_full[cols], v_full[cols] = b, v
                    b, v, xa, cols, left = b_full, v_full, x, every, cols
                    t0, t0_v = _times_support(x, b), _times_support(x, v)
                    obj_curr = (smooth(t0, b0) + lam * np.abs(b).sum(axis=0)).tolist()
                    continue
            else:
                better = [k for k, g in enumerate(gap) if g < best_gap[k]]
                best_b[:, better] = b[:, better]
                best_alpha[:, better] = alpha[:, better]
                for k in better:
                    best_gap[k], best_b0[k] = gap[k], b0[k]
                    best_eq[k] = eq_residual[k]
                if left is not None:
                    # a dual point shrunk for a feature outside the working set
                    # means the set missed it, and the momentum carried over
                    # from that reduced problem points the wrong way
                    if np.any((shrink < 1.0) & ~np.isin(corr.argmax(axis=0), left)):
                        least *= 2
                        screening = screening and 2 * least < d
                        v, t0_v, tk = b.copy(), t0.copy(), [1.0] * len(ids)
                    left = None
                if bounds is not None and screening and not out_of_iterations:
                    # every column the Gap Safe rule below may keep gets its
                    # computed correlation; the rest stay below lam on their bound
                    radius = np.sqrt(2.0 * nu * np.array(gap))
                    undecided = (corr + bounds.norms * radius >= lam) & ~np.array(certified)
                    exact = bounds.refine(undecided)
                    corr[exact] = bounds.ub[exact] * shrink
                survivors = []
                for k, done in enumerate(certified):
                    if done:
                        finish(k)
                    elif out_of_iterations:
                        finish(k, out_of_iterations_message(k))
                    elif screening:
                        norms_k = norms[:, ids[k]]
                        safe = _gap_safe_survivors(cols, corr[:, k], norms_k,
                                                   math.sqrt(2.0 * nu * gap[k]), lam, b[:, k],
                                                   v[:, k])
                        survivors.append(_prioritized(safe, corr[:, k], norms_k, lam, b[:, k],
                                                      v[:, k], least))
                if finished:
                    drop_finished()
                    if not ids:
                        break
                if survivors:
                    union = np.unique(np.concatenate(survivors))
                    if 2 * union.size <= d:
                        b, v, cols = b[union], v[union], union
                        xa = x[:, cols]

        b0_v, margins_v, sig_v = intercept(t0_v, b0)
        f_v = np.vecdot(w, _loss(kind, yc, margins_v), axis=0).tolist()
        grad = xa.T @ (w * _derivative(kind, yc, margins_v, sig_v))

        # the proximal gradient step from v at step sizes 1/lip, recomputed
        # until every live column passes its sufficient-decrease test
        while True:
            step = np.array([1.0 / lk for lk in lip])
            b_new = _soft_threshold(v - step * grad, lam * step)
            diff = b_new - v
            t0_new = _times_support(xa, b_new)
            f_new = smooth(t0_new, b0_v).tolist()
            along = np.vecdot(grad, diff, axis=0).tolist()
            sq = np.vecdot(diff, diff, axis=0).tolist()
            retry = [k for k, lk in enumerate(lip) if k not in finished
                     and not f_new[k] <= (f_v[k] + along[k] + 0.5 * lk * sq[k]
                                          + 1e-12 * max(1.0, abs(f_v[k])))]
            if not retry:
                break
            for k in retry:
                lip[k] *= 2.0
                if lip[k] / l_min[k] > 1e22:
                    finish(k, "backtracking failed to find a valid step")

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
        if finished:
            drop_finished()
    return results
