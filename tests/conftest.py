"""Shared fixtures: standardized synthetic problems and cached uniform fits."""

from __future__ import annotations

import numpy as np
import pytest

from drfs import (
    LossKind,
    Task,
    WeightBox,
    build_reference,
    delta_from_v,
    fit_weighted_erm,
    lambda_max,
    screen,
    standardize,
    synth,
)


@pytest.fixture(scope="session")
def reg40():
    dataset, _ = synth(Task.REGRESSION, 40, 15, 3, 0.1, 7)
    dataset, _ = standardize(dataset)
    return dataset


@pytest.fixture(scope="session")
def clf40():
    dataset, _ = synth(Task.BINARY, 40, 15, 3, 0.1, 11)
    dataset, _ = standardize(dataset)
    return dataset


@pytest.fixture(scope="session")
def toy_1d():
    """Two points, one feature: every optimum has a closed form."""
    from drfs import Dataset

    return Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, -1.0]), task=Task.REGRESSION)


def uniform_fit(dataset, kind, lam, **config_kwargs):
    from drfs import FitConfig

    weights = np.ones(dataset.n)
    config = FitConfig(**config_kwargs) if config_kwargs else None
    return fit_weighted_erm(dataset, weights, kind, lam, config)


def without_polish(monkeypatch):
    """Patch the support polish out: a warm-started fit certifies nothing
    there, and _fit_column solves each column from the warm start itself."""
    from drfs import solver

    monkeypatch.setattr(solver, "_support_polish",
                        lambda problem, b, b0: ([None] * b.shape[1], b, b0))


def screen_setup(dataset, kind, lambda_ratio, v, **config_kwargs):
    """Fit at w=1, build the reference, and screen; returns all pieces."""
    lam = lambda_ratio * lambda_max(dataset, np.ones(dataset.n), kind)
    model = uniform_fit(dataset, kind, lam, **config_kwargs)
    box = WeightBox(n=dataset.n, delta=delta_from_v(v, dataset.n))
    ref = build_reference(dataset, model, box)
    report = screen(dataset, ref, box)
    return lam, model, box, ref, report


KIND_OF = {Task.REGRESSION: LossKind.SQUARED, Task.BINARY: LossKind.LOGISTIC}


def random_feasible_pair(rng, dataset, weights, kind, lam):
    """A primal point plus a genuinely dual-feasible alpha.

    For the squared loss the recovery shift zeroes the equality constraint
    at any intercept.  For the logistic loss the domain forbids shifting, so
    the intercept is bisected to the point where the weighted dual sum
    changes sign; only there is the recovered alpha feasible.
    """
    from drfs import dual_from_margin, recover_dual

    b = rng.standard_normal(dataset.d)
    b0 = float(rng.standard_normal())
    if kind is LossKind.SQUARED:
        return b, b0, recover_dual(dataset, weights, kind, lam, b, b0)
    t0 = dataset.x @ b
    lo, hi = -60.0, 60.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.dot(weights, dual_from_margin(kind, dataset.y, t0 + mid)) > 0:
            lo = mid
        else:
            hi = mid
    b0 = 0.5 * (lo + hi)
    alpha = np.asarray(dual_from_margin(kind, dataset.y, t0 + b0))
    corr = dataset.x.T @ (weights * alpha)
    norm_inf = float(np.max(np.abs(corr)))
    if norm_inf > lam:
        alpha = alpha * (lam / norm_inf)
    return b, b0, alpha
