"""Loss functions for the two supported learning tasks.

Each loss knows its value, derivative, Fenchel conjugate (evaluated at a
negated dual variable), the Lipschitz constant of its derivative, and the
shrink factor that keeps a rescaled dual point feasible after instance
weights change.  Exactly two losses exist on purpose: the curvature and
feasibility constants are loss-specific and hard-coded.

Only numpy is needed.  The logistic conjugate's entropy terms t*log(t) take
the log of t where t > 0 and of 1.0 elsewhere, so they are exactly 0 at
t = 0 and raise no divide warning.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class DomainError(ValueError):
    """A dual variable lies outside the conjugate's domain."""


class LossKind(Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"


_NU = {LossKind.SQUARED: 2.0, LossKind.LOGISTIC: 0.25}


def nu_constant(kind: LossKind) -> float:
    """Lipschitz constant of t -> d/dt loss(y, t); 2 for squared, 1/4 for logistic."""
    return _NU[kind]


def _sigmoid_neg(yt):
    # sigmoid(-yt), with yt clipped into [-500, 500] by two ufuncs: np.clip's
    # Python wrapper costs more than the arithmetic on the solver's short
    # vectors.  The clip is symmetric, so this is bit for bit the sigmoid of
    # the clipped -yt, one negation cheaper.
    return 1.0 / (1.0 + np.exp(np.minimum(np.maximum(yt, -500.0), 500.0)))


def _softplus(z):
    # log(1 + exp(z)) without overflow
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _check_labels(kind: LossKind, y) -> None:
    if kind is LossKind.LOGISTIC:
        y = np.asarray(y)
        bad = (y != 1.0) & (y != -1.0)
        if np.any(bad):
            raise ValueError("logistic loss requires labels in {-1, +1}")


def _maybe_scalar(value, *inputs):
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(value)
    return value


# Unchecked kernels on float arrays.  The solver validates labels once per
# fit and calls these in its inner loop; the public functions below check
# their arguments and then call the same kernel.


def _loss(kind: LossKind, y: np.ndarray, t: np.ndarray):
    if kind is LossKind.SQUARED:
        return (t - y) ** 2
    return _softplus(-y * t)


def _derivative(kind: LossKind, y: np.ndarray, t: np.ndarray, sig=None):
    # sig, when given, is the logistic _sigmoid_neg(y * t) its caller already has
    if kind is LossKind.SQUARED:
        return 2.0 * (t - y)
    if sig is None:
        sig = _sigmoid_neg(y * t)
    return -y * sig


def _dual_from_margin(kind: LossKind, y: np.ndarray, t: np.ndarray):
    if kind is LossKind.SQUARED:
        return 2.0 * (y - t)
    return y * _sigmoid_neg(y * t)


def _conjugate_neg(kind: LossKind, y: np.ndarray, a: np.ndarray):
    if kind is LossKind.SQUARED:
        return 0.25 * a * a - y * a
    p = y * a
    if np.any((p < 0.0) | (p > 1.0)):
        raise DomainError("logistic conjugate requires 0 <= y*alpha <= 1")
    q = 1.0 - p
    return p * np.log(np.where(p > 0.0, p, 1.0)) + q * np.log(np.where(q > 0.0, q, 1.0))


def _checked(kernel, kind: LossKind, y, t):
    _check_labels(kind, y)
    y_arr = np.asarray(y, dtype=float)
    out = kernel(kind, y_arr, np.asarray(t, dtype=float))
    return _maybe_scalar(out, y_arr, t)


def loss_value(kind: LossKind, y, t):
    """loss(y, t): squared residual or logistic negative log-likelihood."""
    return _checked(_loss, kind, y, t)


def loss_derivative(kind: LossKind, y, t):
    """d/dt loss(y, t)."""
    return _checked(_derivative, kind, y, t)


def dual_from_margin(kind: LossKind, y, t):
    """Dual variable attaining Fenchel-Young equality at margin t.

    Returns -loss_derivative(kind, y, t).  For the logistic loss the output
    always satisfies 0 < y*alpha < 1.
    """
    return _checked(_dual_from_margin, kind, y, t)


def conjugate_neg(kind: LossKind, y, alpha):
    """Convex conjugate of the loss in its second argument, at -alpha.

    Squared: alpha^2/4 - y*alpha, defined everywhere.
    Logistic: (1-p)log(1-p) + p log(p) with p = y*alpha, defined for
    p in [0, 1] with value 0 at both endpoints.
    """
    return _checked(_conjugate_neg, kind, y, alpha)


def feasibility_q(kind: LossKind, delta: float) -> float:
    """Shrink factor keeping q * alpha / w inside the conjugate domain.

    1 for the squared loss (unbounded domain), 1 - delta for the logistic
    loss (domain [0, 1] in y*alpha).
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if kind is LossKind.SQUARED:
        return 1.0
    return 1.0 - delta
