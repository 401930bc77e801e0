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
# The prioritized working set (see _fit_column): at least
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
        # an infinite tolerance would certify any gap
        if self.gap_tolerance is not None and not (math.isfinite(self.gap_tolerance)
                                                   and self.gap_tolerance > 0):
            raise ValueError("gap_tolerance must be finite and > 0")
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
        """The most iterations any column ran.  A warm-started fit counts
        its support polish and the polish's gap checks as iteration 1."""
        return max(r.model.iterations if isinstance(r, ConvergenceError) else r.iterations
                   for r in self)


def _check_weights(weights, shape: tuple[int, ...]) -> np.ndarray:
    """weights as floats of the given shape: (n,), or (n, T) with T >= 1 for
    the batched form fit_weighted_erm takes from the verifier."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape or w.size == 0:
        raise ValueError(f"weights must have shape {shape}, got shape {w.shape}")
    if not (np.all(w > 0) and np.all(np.isfinite(w))):
        raise ValueError("weights must be finite and strictly positive")
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
    """x[:, cols].T @ v for ascending column indices cols and a vector v (n,).

    When cols holds more than half of x's columns this is the entries cols
    of x.T @ v itself.  Otherwise each run of consecutive columns is
    multiplied as a view of x, so no copy of x is made.  OpenBLAS's x.T @ v
    takes the columns four at a time and the last d mod 4 by narrower
    kernels, so runs made of whole aligned groups of four (see
    _multiplied_columns) round as in x.T @ v; another BLAS may differ from
    it in the last bits.
    """
    if 2 * cols.size > x.shape[1]:
        return (x.T @ v)[cols]
    out = np.empty(cols.size)
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

    With the _CorrelationBounds of x, for 1-D margins, only the columns
    whose bound can reach lam are multiplied; every other column is below
    lam and carries its bound in place of |x_j.T (w o alpha)|, so the
    shrink is the one the full product gives whenever the multiplied
    columns round as in x.T @ v.
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
    from the mask undecided (d,) of those whose bound cannot decide: each
    aligned group of four columns (the last one holds d mod 4) that holds an
    undecided column, so that _columns_times rounds them as x.T @ v does."""
    d = undecided.size
    groups = np.zeros(-(-d // 4) * 4, dtype=bool)
    groups[:d] = undecided
    return np.flatnonzero(groups.reshape(-1, 4).any(axis=1).repeat(4)[:d])


class _CorrelationBounds:
    """Upper bounds ub (d,) on the raw correlations |x_j.T (w o alpha)| at
    each full-matrix check of a one-vector fit, so that a check multiplies
    only the columns whose bound cannot decide.

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
        self.alpha, self.alpha_norm = np.zeros(n), 0.0
        self.gamma = 2 * (n + 4) * np.finfo(float).eps
        # this check's w o alpha, and the columns it multiplied
        self.wa, self.exact = None, np.zeros(norms.shape, dtype=bool)

    def correlations(self, w: np.ndarray, alpha: np.ndarray, lam: float) -> np.ndarray:
        """Advance the bounds to the raw dual point alpha (n,), multiply every
        column whose bound reaches lam and return the bounds, exact where
        multiplied.  A column it skips has ub_j < lam (1 - 4 eps), so every
        correlation that reaches lam, and so decides the shrink, is
        multiplied, and so is every column that could tie with the largest
        once shrunk."""
        eps = np.finfo(float).eps
        shift = math.sqrt(np.vecdot(w, np.square(alpha - self.alpha)))
        alpha_norm = math.sqrt(np.vecdot(w, np.square(alpha)))
        step = shift + self.gamma * (shift + self.alpha_norm + alpha_norm)
        self.ub = (self.ub + self.norms * step) * (1.0 + 4.0 * eps)
        self.alpha, self.alpha_norm, self.wa = alpha, alpha_norm, w * alpha
        self.exact[:] = False
        self.refine(self.ub >= lam * (1.0 - 4.0 * eps))
        return self.ub

    def refine(self, undecided: np.ndarray) -> np.ndarray:
        """Multiply the columns of the mask undecided (d,) that this check
        has not multiplied yet; returns them."""
        cols = _multiplied_columns(undecided & ~self.exact)
        self.ub[cols] = np.abs(_columns_times(self.x, cols, self.wa))
        self.exact[cols] = True
        return cols


_EQ_NEWTON_FLOOR = 64 * np.finfo(float).eps  # per unit of total weight
_PLATEAU_DOUBLINGS = 64
# The logistic support polish stops once every entry of its Newton step is
# within _POLISH_RESOLUTION of max(1, |entry|), or after _POLISH_NEWTON_STEPS
# steps (the squared loss takes one, which is exact).  On the acceptance
# gate's 40x15 logistic problem (lambda in {0.1, 0.3} * lambda_max, corner
# draws at V in {0.1, 3}) the steps fell quadratically, e.g. 1.6e-3, 1.0e-6,
# 7e-13, then to rounding noise at 1e-16 to 7e-16, which never shrinks
# further: 4-5 steps reached the resolution.
_POLISH_RESOLUTION = 64 * np.finfo(float).eps
_POLISH_NEWTON_STEPS = 8
# Sign patterns the polish tries per column: the warm start's, then up to
# _POLISH_ROUNDS - 1 corrected ones.  Over the acceptance gate's 12 verify
# configurations at sampling seeds 0-19, 10 of 240 polishes needed a second
# pattern (a feature entering at a corner draw, logistic, 0.3 lambda_max,
# V = 1) and none a third; from the first pattern alone those re-solves
# took 26-41 iterations.
_POLISH_ROUNDS = 4


def _pattern_newton(
    kind: LossKind, a: np.ndarray, y: np.ndarray, w: np.ndarray, penalty: np.ndarray,
    theta: np.ndarray,
) -> np.ndarray:
    """The minimizer over theta (k, T) of sum_i w_i loss(y_i, a_i . theta) +
    penalty . theta, by Newton steps from theta; NaN where a Hessian is
    singular.  y and w are (n, T); every column shares a = [x_S, 1]."""
    theta = theta.copy()
    live = np.arange(theta.shape[1])
    for _ in range(1 if kind is LossKind.SQUARED else _POLISH_NEWTON_STEPS):
        y_l, w_l = y[:, live], w[:, live]
        margins = a @ theta[:, live]
        if kind is LossKind.SQUARED:
            slope, curvature = _derivative(kind, y_l, margins), 2.0 * w_l
        else:
            sig = _sigmoid_neg(y_l * margins)
            slope, curvature = _derivative(kind, y_l, margins, sig), w_l * sig * (1.0 - sig)
        grad = a.T @ (w_l * slope) + penalty
        hess = (a.T * curvature.T[:, None, :]) @ a
        try:
            step = np.linalg.solve(hess, grad.T[..., None])[..., 0].T
        except np.linalg.LinAlgError:  # singular: every live column keeps its start
            theta[:, live] = np.nan
            break
        theta[:, live] -= step
        resolution = _POLISH_RESOLUTION * np.maximum(1.0, np.abs(theta[:, live]))
        live = live[np.any(np.abs(step) > resolution, axis=0)]
        if not live.size:
            break
    return theta


def _support_polish(
    problem: _WeightColumns, b: np.ndarray, b0: np.ndarray,
) -> tuple[list[FittedModel | None], np.ndarray, np.ndarray]:
    """The start of a warm-started fit, and its certificate where the start
    is optimal.  b (d, T) holds the warm start in each column and b0 (T,)
    its intercept.  Each column moves to the minimizer over (b_S, b0) of
    sum_i w_i loss(y_i, x_iS . b_S + b0) + lam s . b_S, S being the support
    of a sign pattern s, and the columns of each pattern take one gap check
    there together (_WeightColumns.check, a dense product on the full
    matrix), which is the L1 optimality test: first the warm start's
    pattern, then, for a column the check did not certify, a corrected one,
    for at most _POLISH_ROUNDS patterns.

    On a fixed support and sign pattern the L1 optimum moves smoothly with
    the weights (Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000), so
    from the optimum at other weights this lands on or next to the optimum
    at w.  Where the weights move the pattern, the check's correlations
    show it: a feature off S whose raw correlation |x_j . (w o alpha)|
    exceeds lam enters with its sign, and one whose coefficient crossed zero
    leaves, as in the active-set steps of the same paper.  The squared loss
    takes one Newton step per pattern, which is exact; the logistic loss
    steps until its step is below _POLISH_RESOLUTION, the resolution of
    (b_S, b0), or for _POLISH_NEWTON_STEPS steps.  The columns of one
    pattern share A = [x_S, 1], so each step solves their (T, k, k) Hessians
    A.T diag(w loss'') A in one call, over the columns still moving.

    Returns per column the FittedModel of the check that certified it
    (iteration 1) or None, and the start of _fit_column for the others: the
    pattern minimizer with the lowest objective at w, among those finite and
    no higher than the warm start's, or the warm start where none is (as
    when |S| + 1 > n or a Hessian is singular).  Overflows are silent here:
    an infinite or NaN gap certifies nothing, and _fit_column's set-up
    raises.  A one-vector fit at weights w (n,) polishes its point b (d,),
    b0 as a one-column batch: _support_polish(_WeightColumns(dataset,
    w[:, None], kind, lam, config), b[:, None], np.array([b0])).
    """
    kind, lam, w, y, x = problem.kind, problem.lam, problem.w, problem.y, problem.dataset.x
    n, batch = w.shape
    signs = np.sign(b)
    b, b0 = b.copy(), b0.copy()
    best_b, best_b0 = b.copy(), b0.copy()
    fits: list[FittedModel | None] = [None] * batch
    live = np.arange(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        best_obj = problem.objective(_times_support(x, b) + b0, b)
        for _ in range(_POLISH_ROUNDS):
            groups: dict[bytes, list[int]] = {}
            for j in live.tolist():
                groups.setdefault(signs[:, j].tobytes(), []).append(j)
            solved = []
            for members in groups.values():
                cols = np.array(members)
                support = np.flatnonzero(signs[:, cols[0]])
                if support.size + 1 > n:
                    continue
                a = np.empty((n, support.size + 1))
                a[:, :-1] = x[:, support]
                a[:, -1] = 1.0
                penalty = lam * np.append(signs[support, cols[0]], 0.0)[:, None]
                theta = _pattern_newton(kind, a, y[:, cols], w[:, cols], penalty,
                                        np.vstack([b[np.ix_(support, cols)], b0[cols]]))
                finite = np.isfinite(theta).all(axis=0)
                cols, theta = cols[finite], theta[:, finite]
                b[:, cols] = 0.0
                b[np.ix_(support, cols)] = theta[:-1]
                b0[cols] = theta[-1]
                solved.append(cols)
            live = np.sort(np.concatenate(solved)) if solved else live[:0]
            if not live.size:
                break
            b_live, b0_live = b[:, live], b0[live]
            margins = _times_support(x, b_live) + b0_live
            obj = problem.objective(margins, b_live, live)
            better = obj <= best_obj[live]
            kept = live[better]
            best_b[:, kept], best_b0[kept] = b_live[:, better], b0_live[better]
            best_obj[kept] = obj[better]
            alpha, corr, shrink, gap, _, certified = problem.check(x, margins, obj, None, live)
            for i in np.flatnonzero(certified).tolist():
                k = live[i]
                fits[k] = FittedModel(b=b_live[:, i].copy(), b0=b0_live[i].item(),
                                      alpha=alpha[:, i].copy(), lam=lam, weights=w[:, k],
                                      gap=gap[i], loss_kind=kind, iterations=1)
            left = np.logical_not(certified)
            live, b_live, alpha = live[left], b_live[:, left], alpha[:, left]
            if not live.size:
                break
            # the optimality conditions at each uncertified minimizer: a feature
            # off the support whose raw correlation exceeds lam (its shrunk one
            # exceeds lam * shrink) enters with its sign, and one whose
            # coefficient crossed zero leaves
            pattern = signs[:, live]
            enters = (b_live == 0.0) & (corr[:, left] > lam * shrink[left])
            rows = np.flatnonzero(enters.any(axis=1))
            corrected = np.where(np.sign(b_live) == -pattern, 0.0, pattern)
            corrected[rows] = np.where(enters[rows],
                                       np.sign(x[:, rows].T @ (w[:, live] * alpha)),
                                       corrected[rows])
            signs[:, live] = corrected
            live = live[np.any(corrected != pattern, axis=0)]
    return fits, best_b, best_b0


def _intercept_logistic(
    y: np.ndarray, t0: np.ndarray, w: np.ndarray, wy: np.ndarray, b0: float, target: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Guarded 1-D Newton for the intercept of margins t0, weights w and
    labels y (n,), wy = w * y, from the start b0 until the gradient
    magnitude is at most target.

    Returns the intercept, the margins t0 + b0 at it and _sigmoid_neg(y *
    margins), which the last gradient evaluation computed.  The target is
    min(eq_tol, _EQ_NEWTON_FLOOR * sum w), past eq_tol down to the
    floating-point floor: the dual equality residual the Newton leaves
    behind enters the certified gap roughly as residual * |b0|, so stopping
    at eq_tol would put a floor under the gap.
    """

    # minus the gradient in b0 at b0 + step; u is t0 + b0.  With labels in
    # {-1, +1}, wy . s rounds exactly as w . (y * s).
    def slope_at(step: float) -> float:
        return np.vecdot(wy, _sigmoid_neg(y * (u + step)))

    stopped = False
    for steps in range(201):
        u = t0 + b0
        s = _sigmoid_neg(y * u)
        slope = np.vecdot(wy, s)
        if stopped or abs(slope) <= target or steps == 200:
            break
        hess = np.vecdot(w, s * (1.0 - s))
        if hess > 1e-300:
            step = min(10.0, max(-10.0, slope / hess))
        else:
            # every sigmoid saturated, so the gradient is flat here: double
            # the step until the gradient changes sign
            step = math.copysign(1.0, slope)
            for _ in range(_PLATEAU_DOUBLINGS):
                if slope_at(step) * slope <= 0.0:
                    break
                step *= 2.0
        # halve until the gradient magnitude actually decreases
        for _ in range(60):
            if abs(slope_at(step)) <= abs(slope):
                break
            step *= 0.5
        # a step below the resolution of b0 ends the Newton
        stopped = abs(step) < 1e-16 * max(1.0, abs(b0))
        b0 += step
    return b0, u, s


_OVERFLOW = ("the fit overflows: the squared features or the starting losses exceed the "
             "float range; rescale the features or labels")


class _WeightColumns:
    """The weighted problem at weights w: at each column of w (n, T), as the
    support polish takes it, or at one weight vector w (n,), as _fit_column
    takes it.  Both shapes share its objective and gap check; cols picks the
    columns of a batch they are for, and the default, all of them, is the
    only choice at one vector."""

    def __init__(self, dataset: Dataset, w: np.ndarray, kind: LossKind, lam: float,
                 config: FitConfig):
        n = dataset.n
        self.dataset, self.kind, self.lam, self.w = dataset, kind, lam, w
        # y once per column: operands of one shape skip numpy's broadcasting set-up
        self.y = dataset.y if w.ndim == 1 else np.repeat(dataset.y[:, None], w.shape[1], axis=1)
        self.eq_tol = DEFAULT_EQ_PER_ROW * n
        self.eq_rounding = _EQ_ROUNDING_PER_ROW * (n + 1)
        if config.gap_tolerance is not None:
            self.gap_tol = np.full(w.shape[1:], config.gap_tolerance)
        else:
            columns = w.T if w.ndim == 2 else [w]
            with np.errstate(over="ignore"):  # an overflow fails the fit just below
                scales = [objective_scale(dataset, w_k, kind) for w_k in columns]
            self.gap_tol = DEFAULT_GAP_SCALE * np.reshape(scales, w.shape[1:])
            # an infinite tolerance would certify any gap, even an infinite one
            if not np.all(np.isfinite(self.gap_tol)):
                raise ValueError(_OVERFLOW)

    def losses(self, margins: np.ndarray, cols=...) -> np.ndarray:
        return np.vecdot(self.w[:, cols], _loss(self.kind, self.y[:, cols], margins), axis=0)

    def objective(self, margins: np.ndarray, b: np.ndarray, cols=...) -> np.ndarray:
        return self.losses(margins, cols) + self.lam * np.abs(b).sum(axis=0)

    def eq_bound(self, w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """The tolerance of the dual equality |sum_i w_i alpha_i| at the dual
        point alpha: max(1e-10 n, 2 (n + 1) eps sum_i w_i |alpha_i|), the
        larger term being the rounding the squared loss's dual shift leaves
        behind (_EQ_ROUNDING_PER_ROW)."""
        return np.maximum(self.eq_tol, self.eq_rounding * np.vecdot(w, np.abs(alpha), axis=0))

    def check(self, xa: np.ndarray, margins: np.ndarray, obj, bounds=None, cols=...) -> tuple:
        """The gap check at the margins with objectives obj: the repaired dual
        point, its correlations and shrink on the columns xa of x
        (_repair_from_margins, with the _CorrelationBounds bounds of a
        one-vector fit), and the gap, the dual equality residual and whether
        the check certifies, as floats and bools, or as lists of them per
        column: the gap is within its tolerance and the residual within
        eq_bound."""
        w, y = self.w[:, cols], self.y[:, cols]
        alpha, corr, shrink = _repair_from_margins(self.kind, y, xa, w, self.lam, margins, bounds)
        gap = np.maximum(0.0, np.subtract(obj, _dual_value(self.kind, y, w, alpha)))
        eq_residual = np.abs(np.vecdot(w, alpha, axis=0))
        certified = (gap <= self.gap_tol[cols]) & (eq_residual <= self.eq_bound(w, alpha))
        return alpha, corr, shrink, gap.tolist(), eq_residual.tolist(), certified.tolist()


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
    verifier's batched form: the T columns share one support polish, whose
    gap checks they take together, and give a ColumnFits, which holds rather
    than raises a column's ConvergenceError.  A warm_start (b, b0) is first
    polished to the optimum on its sign pattern at the given weights, or on
    a pattern corrected where the weights move it, and gap-checked there,
    which counts as iteration 1.  _fit_columns and _fit_column document the
    algorithm.
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
    """Solve the weighted problem for each column of weights (n, T).

    Returns, per column, its FittedModel or the ConvergenceError carrying its
    best iterate.  A cold fit runs _fit_column on each column from the zero
    model.  A warm start is polished for all columns at once
    (_support_polish), which counts as iteration 1: a column one of its gap
    checks certifies returns with iterations = 1, and _fit_column solves
    each other column alone from its polished start, checking again at
    iteration 1.  So a re-solve whose optimum's pattern the polish finds
    certifies at its first check, and with max_iterations = 1 the fit
    polishes and checks once.  The polish moves only the start: a fit still
    returns only from a gap check on the full matrix.  The batch ends at the
    polish: a column _fit_column solves runs the float operations of a fit
    of that column alone from the same start, whatever T, while the batched
    products of the polish may round differently in the last bits for
    T > 1.  An overflowing default gap tolerance raises ValueError before
    any check, and _fit_column's set-up raises it for an overflowing
    step-size floor or start objective, so a warm column on such input
    certifies at a finite gap in the polish or raises.
    """
    if config is None:
        config = FitConfig()
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    d = dataset.d
    batch = weights.shape[1]
    _check_labels(kind, dataset.y)  # the fit calls the unchecked loss kernels
    if warm_start is None:
        return [_fit_column(dataset, np.ascontiguousarray(weights[:, k]), kind, lam, config,
                            np.zeros(d), 0.0, 0)
                for k in range(batch)]
    b_start = np.asarray(warm_start[0], dtype=float)
    if b_start.shape != (d,):
        raise ValueError(f"warm start b must have length {d}")
    problem = _WeightColumns(dataset, weights, kind, lam, config)
    fits, b, b0 = _support_polish(problem, np.repeat(b_start[:, None], batch, axis=1),
                                  np.full(batch, float(warm_start[1])))
    return [fit if fit is not None
            else _fit_column(dataset, np.ascontiguousarray(weights[:, k]), kind, lam, config,
                             b[:, k], b0[k], 1)
            for k, fit in enumerate(fits)]


def _fit_column(
    dataset: Dataset,
    weights: np.ndarray,
    kind: LossKind,
    lam: float,
    config: FitConfig,
    b: np.ndarray,
    b0: float,
    iterations: int,
) -> FittedModel | ConvergenceError:
    """Solve the weighted problem at one weight vector (n,) from coefficients
    b (d,) and intercept start b0, at iteration `iterations`.

    Returns the FittedModel, or the ConvergenceError carrying the best
    iterate.  Accelerated proximal gradient on b, with backtracking,
    momentum, adaptive restart and exact intercept minimization (closed form
    for the squared loss, _intercept_logistic for the logistic one), checks
    its gap at iterations, iterations + _CHECK_EVERY, ... and at
    max_iterations: at 0, 5, ... from the zero model, and at 1, 6, ... from
    a polished warm start.  It fails when the iterations run out or its step
    search gives up (lip past 1e22 times its floor).  Every array of the
    loop is a vector, (n,) or (d,), and every scalar a float; its objective
    and gap check are those the support polish takes for a batch
    (_WeightColumns at weights (n,)).

    When x holds at least _GAP_SAFE_MIN_BYTES and has more than twice
    _WORKING_SET_LEAST columns, the fit runs on prioritized working sets
    (Blitz: Johnson & Guestrin, ICML 2015; Celer: Massias, Gramfort &
    Salmon, ICML 2018).  Each check on the full matrix applies the Gap Safe
    rule (Fercoq, Gramfort & Salmon, ICML 2015), keeps from its survivors
    the nonzero rows of b and v plus those closest to entering the model
    (_prioritized, at least `least` of them), and once they are at most half
    of the columns of x, the iterations multiply only those.  Its checks do
    not screen, for the Gap Safe certificate holds only for the full
    problem.  When the reduced problem certifies there, or its gap falls to
    _REJOIN_RATIO of its best full-matrix gap, or the iterations run out,
    every feature rejoins and the check is repeated on the full matrix.  If
    that check finds the dual point shrunk for a feature outside the working
    set it left, the working set missed an active feature: the momentum
    restarts, `least` doubles, and once it reaches half the columns of x the
    fit goes on over all features (the restart took the grid_cli benchmark's
    2000x200 fits, seeds 0-9, from 6110 to 5215 iterations, against 5930
    without working sets).  Otherwise the full gap equals the reduced one,
    so every round either certifies, shrinks the gap by _REJOIN_RATIO or
    doubles `least`.  A fit returns only from a check on the full matrix,
    the best iterate is taken only there, and step sizes stay those of the
    full problem.  At that size the products with the coefficients also skip
    their zero rows (_times_support), and the checks on the full matrix
    multiply only the columns a _CorrelationBounds cannot decide: first
    those whose bound reaches lam, which leaves the shrink as it is, then,
    once the gap is known, those the Gap Safe rule may keep, so its
    survivors, the _prioritized scores and the missed-feature test read the
    correlations a full product computes.  A fit at unit weights reads
    sum_i x_ij^2 from the dataset (Dataset._x_sq_sums).
    """
    x = dataset.x
    n, d = x.shape
    w, nu = weights, nu_constant(kind)
    col = _WeightColumns(dataset, w, kind, lam, config)
    y, sw = col.y, w.sum()
    wy, newton_target = w * y, min(col.eq_tol, _EQ_NEWTON_FLOOR * sw)

    def intercept(t0: np.ndarray, b0: float) -> tuple[float, np.ndarray, np.ndarray | None]:
        """The intercept of the margins t0, the margins t0 + b0 at it and, for
        the logistic loss, _sigmoid_neg(y * margins)."""
        if kind is LossKind.SQUARED:
            b0 = np.vecdot(w, y - t0) / sw
            return b0, t0 + b0, None
        return _intercept_logistic(y, t0, w, wy, b0, newton_target)

    t0 = _times_support(x, b)
    b0 = intercept(t0, b0)[0]
    with np.errstate(over="ignore"):  # an overflow fails the test below
        obj_curr = col.objective(t0 + b0, b)
    # a fit at unit weights reads the sums cached on the dataset
    w_sq_sums = dataset._x_sq_sums if np.all(w == 1.0) else _column_square_sums(x, w)
    l_min = max(nu * w_sq_sums.max(), 1e-12)
    if not (math.isfinite(l_min) and math.isfinite(obj_curr)):
        raise ValueError(_OVERFLOW)
    # the Gap Safe rule's column norms: the weighted dual is 1/nu strongly
    # concave in ||a||_w, so its optimum lies within sqrt(2 nu gap) of alpha
    # in that norm
    norms = np.sqrt(w_sq_sums)
    lip, tk, first_check = l_min, 1.0, iterations
    v, t0_v = b, t0
    least = _WORKING_SET_LEAST  # doubles when a working set misses a feature
    screening = x.nbytes >= _GAP_SAFE_MIN_BYTES and 2 * least < d
    bounds = _CorrelationBounds(x, norms) if x.nbytes >= _GAP_SAFE_MIN_BYTES else None
    # the working set: xa holds the columns cols of x, and the entries of b,
    # v and the gradient are indexed like them; left is the working set the
    # last rejoin left, until the full check after it
    every = np.arange(d)
    cols, xa, left = every, x, None
    # the best iterate, from checks on the full matrix, and its dual
    # equality residual
    best_gap, best_b, best_b0, best_alpha, best_eq = math.inf, np.zeros(d), 0.0, np.zeros(n), 0.0

    def model(b: np.ndarray, b0: float, alpha: np.ndarray, gap: float) -> FittedModel:
        return FittedModel(b=b.copy(), b0=b0, alpha=alpha, lam=lam, weights=w, gap=gap,
                           loss_kind=kind, iterations=iterations)

    def failed(message: str) -> ConvergenceError:
        return ConvergenceError(message, model(best_b, best_b0, best_alpha, best_gap))

    while True:
        if ((iterations - first_check) % _CHECK_EVERY == 0
                or iterations >= config.max_iterations):
            alpha, corr, shrink, gap, eq_residual, certified = col.check(
                xa, t0 + b0, obj_curr, bounds if xa is x else None)
            out_of_iterations = iterations >= config.max_iterations
            if xa is not x:
                if out_of_iterations or certified or gap <= _REJOIN_RATIO * best_gap:
                    # every feature rejoins, and the check runs again on the full matrix
                    b_full, v_full = np.zeros(d), np.zeros(d)
                    b_full[cols], v_full[cols] = b, v
                    b, v, xa, cols, left = b_full, v_full, x, every, cols
                    t0, t0_v = _times_support(x, b), _times_support(x, v)
                    obj_curr = col.objective(t0 + b0, b)
                    continue
            else:
                if gap < best_gap:
                    best_gap, best_b, best_b0, best_alpha, best_eq = gap, b, b0, alpha, eq_residual
                if left is not None:
                    # a dual point shrunk for a feature outside the working set
                    # means the set missed it, and the momentum carried over
                    # from that reduced problem points the wrong way
                    if shrink < 1.0 and corr.argmax() not in left:
                        least *= 2
                        screening = screening and 2 * least < d
                        v, t0_v, tk = b, t0, 1.0
                    left = None
                if certified:
                    return model(b, b0, alpha, gap)
                if out_of_iterations:
                    gap_tol = col.gap_tol
                    if not best_gap <= gap_tol:
                        return failed(f"gap {best_gap:.3e} > tolerance {gap_tol:.3e} "
                                      f"after {iterations} iterations")
                    return failed(f"dual equality residual {best_eq:.3e} > tolerance "
                                  f"{col.eq_bound(w, best_alpha):.3e} after {iterations} "
                                  f"iterations (gap {best_gap:.3e} within tolerance "
                                  f"{gap_tol:.3e})")
                if screening:
                    # every column the Gap Safe rule below may keep gets its
                    # computed correlation; the rest stay below lam on their bound
                    radius = math.sqrt(2.0 * nu * gap)
                    exact = bounds.refine(corr + norms * radius >= lam)
                    corr[exact] = bounds.ub[exact] * shrink
                    safe = _gap_safe_survivors(cols, corr, norms, radius, lam, b, v)
                    kept = _prioritized(safe, corr, norms, lam, b, v, least)
                    if 2 * kept.size <= d:
                        b, v, cols = b[kept], v[kept], kept
                        xa = x[:, cols]

        b0_v, margins_v, sig_v = intercept(t0_v, b0)
        f_v = col.losses(margins_v)
        grad = xa.T @ (w * _derivative(kind, y, margins_v, sig_v))

        # the proximal gradient step from v at step size 1/lip, recomputed
        # until it passes the sufficient-decrease test
        while True:
            step = 1.0 / lip
            b_new = _soft_threshold(v - step * grad, lam * step)
            diff = b_new - v
            t0_new = _times_support(xa, b_new)
            f_new = col.losses(t0_new + b0_v)
            along = np.vecdot(grad, diff)
            sq = np.vecdot(diff, diff)
            if f_new <= f_v + along + 0.5 * lip * sq + 1e-12 * max(1.0, abs(f_v)):
                break
            lip *= 2.0
            if lip / l_min > 1e22:
                return failed("backtracking failed to find a valid step")

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        momentum = (tk - 1.0) / t_next
        v = b_new + momentum * (b_new - b)
        t0_v = t0_new + momentum * (t0_new - t0)
        b, t0 = b_new, t0_new
        b0, margins, _ = intercept(t0, b0_v)
        obj_new = col.objective(margins, b)
        if obj_new > obj_curr:  # adaptive restart
            v, t0_v, t_next = b, t0, 1.0
        tk, obj_curr = t_next, obj_new
        lip = max(l_min, lip * 0.95)
        iterations += 1
