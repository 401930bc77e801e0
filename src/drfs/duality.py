"""The certificate's arithmetic: primal and dual objectives, the duality gap,
the feasible dual point it is evaluated at, and the gap ball around it.

The fit's stopping test, screen()'s worst-case gap and ub_for_weight all
evaluate the gap with these functions, so each formula lives here once.
Every bound rests on weak duality: the dual objective of a feasible dual
point never exceeds the primal one, and the weighted dual is 1/nu strongly
concave, so its optimum lies within sqrt(2 nu gap) of any feasible point
(Ndiaye, Fercoq, Gramfort & Salmon, JMLR 2017).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .losses import (DomainError, LossKind, _check_labels, _conjugate_neg, _dual_from_margin,
                     conjugate_neg, loss_value)
from .uncertainty import _column_blocks

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
# The squared loss's dual shift leaves sum_i w_i alpha_i at rounding level:
# the weighted sum, the total weight and the residual's own sum each round
# by up to n u sum_i w_i |alpha_i|, the subtraction by u per entry (u =
# eps / 2), so (3n + 2) u = (1.5n + 1) eps per unit of sum_i w_i |alpha_i|;
# the dual equality test accepts 2 (n + 1) eps of it.
_EQ_ROUNDING_PER_ROW = 2 * np.finfo(float).eps
_DOMAIN_SLACK = 1e-9


def _check_weights(weights, shape: tuple[int, ...]) -> np.ndarray:
    """weights as floats of the given shape: (n,), or (n, T) with T >= 1 for
    the batched form fit_weighted_erm takes from the verifier."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape or w.size == 0:
        raise ValueError(f"weights must have shape {shape}, got shape {w.shape}")
    if not (np.all(w > 0) and np.all(np.isfinite(w))):
        raise ValueError("weights must be finite and strictly positive")
    return w


def _check_lambda(lam: float) -> None:
    """Refuse a lambda that is NaN, infinite or not positive."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")


def _check_coefficients(dataset: Dataset, b) -> np.ndarray:
    """b as floats of shape (d,), the coefficients of a fit on dataset."""
    b = np.asarray(b, dtype=float)
    if b.shape != (dataset.d,):
        raise ValueError(f"b must have length {dataset.d}, got shape {b.shape}")
    return b


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
    solver._multiplied_columns) round as in x.T @ v; another BLAS may
    differ from it in the last bits.
    """
    if 2 * cols.size > x.shape[1]:
        return (x.T @ v)[cols]
    out = np.empty(cols.size)
    starts = np.flatnonzero(np.diff(cols, prepend=-2) != 1).tolist()
    for lo, hi in zip(starts, starts[1:] + [cols.size]):
        out[lo:hi] = x[:, cols[lo]:cols[hi - 1] + 1].T @ v
    return out


class _Correlations(NamedTuple):
    """|x_j.T v| (d,) for each column j of a matrix x at a vector v (n,),
    NaN where unknown, with a copy of v, so that a reader can tell whether
    they are still of its v."""

    v: np.ndarray
    values: np.ndarray


def _correlations_at(x: np.ndarray, v: np.ndarray, known: _Correlations | None) -> _Correlations:
    """|x.T @ v| for a matrix x and a vector v (n,), read-only: the entries
    known holds for v, where known was computed on this x, and every other
    column multiplied with _columns_times; all of them, which is then
    x.T @ v itself, when known is None or of another v."""
    if known is None or not np.array_equal(known.v, v):
        known = _Correlations(v.copy(), np.full(x.shape[1], np.nan))
    cols = np.flatnonzero(np.isnan(known.values))
    if not cols.size:
        return known
    values = known.values.copy()
    values[cols] = np.abs(_columns_times(x, cols, v))
    values.flags.writeable = False
    return known._replace(values=values)


def primal_objective(dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float) -> float:
    w = _check_weights(weights, (dataset.n,))
    _check_lambda(lam)
    b = _check_coefficients(dataset, b)
    margins = _times_support(dataset.x, b) + b0
    return float(_penalized(w, loss_value(kind, dataset.y, margins), lam, b))


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


def _penalized(w: np.ndarray, losses: np.ndarray, lam: float, b: np.ndarray):
    """sum_i w_i losses_i + lam ||b||_1, the primal objective from the losses
    at each instance: for 1-D w, losses and b, or for each column of w and
    losses (n, T) and b (d, T)."""
    return np.vecdot(w, losses, axis=0) + lam * np.abs(b).sum(axis=0)


def _clamped_gap(primal, dual):
    """primal minus dual, clamped at zero against floating-point noise: a
    float, or one per column of a batch."""
    return np.maximum(0.0, np.subtract(primal, dual))


def _checked_gap(primal, dual) -> float:
    """The clamped gap of one weight vector, refusing a dual objective of a
    point outside the conjugate domain (-inf) or one past the primal by more
    than 1e-12 of the larger of 1, |primal| and |dual|, which breaks weak
    duality: the gap of duality_gap and of screening.ub_for_weight."""
    if dual == float("-inf"):
        raise DomainError("alpha outside the conjugate domain")
    gap = primal - dual
    if gap < -1e-12 * max(1.0, abs(primal), abs(dual)):
        raise DomainError(f"weak duality violated (gap={gap}); alpha is not dual feasible")
    return float(_clamped_gap(primal, dual))


def duality_gap(
    dataset: Dataset, weights, kind: LossKind, lam: float, b, b0: float, alpha
) -> float:
    """Primal minus dual; clamped at zero against floating-point noise."""
    p = primal_objective(dataset, weights, kind, lam, b, b0)
    return _checked_gap(p, dual_objective(dataset, weights, kind, alpha))


def _repair_from_margins(
    kind: LossKind, y: np.ndarray, x: np.ndarray, w: np.ndarray, lam: float, margins: np.ndarray,
    bounds: "_CorrelationBounds | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The repaired dual point, |x.T (w o alpha)| at it and the factor it was
    shrunk by, for 1-D margins or for each column of margins (n, T) with y
    and w of the same shape.

    With the solver's _CorrelationBounds of x, for 1-D margins, only the
    columns that can decide the shrink are multiplied; every other column is
    below the larger of lam and the largest correlation multiplied, and
    carries its bound in place of |x_j.T (w o alpha)|, so the shrink is the
    one the full product gives whenever the multiplied columns round as in
    x.T @ v.
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
    _check_lambda(lam)
    _check_labels(kind, dataset.y)
    b = _check_coefficients(dataset, b)
    margins = _times_support(dataset.x, b) + b0
    return _repair_from_margins(kind, dataset.y, dataset.x, w, lam, margins)[0]


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
    if not gap >= 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    if not (nu > 0 and math.isfinite(nu)):
        raise ValueError(f"nu must be finite and > 0, got {nu}")
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
    ref is a screening.ReferencePair.
    """
    lo = _conjugate_at_scaled(ref, ref.q / (1.0 + ref.delta))
    hi = _conjugate_at_scaled(ref, ref.q / (1.0 - ref.delta))
    return ref.losses_at_optimum + np.maximum(lo, hi)
