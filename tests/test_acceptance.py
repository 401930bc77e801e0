"""Acceptance gate: the guarantees the package ships with, each run at its
stated tolerance.  One PASS/FAIL line is printed per criterion (visible with
pytest -s or in the captured output section)."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from drfs import (
    Dataset,
    FitConfig,
    LossKind,
    Task,
    WeightBox,
    brute_force_max,
    brute_force_v,
    build_reference,
    conjugate_neg,
    delta_from_v,
    dg_radius,
    dual_from_margin,
    dual_objective,
    duality_gap,
    fit_weighted_erm,
    lambda_max,
    loss_derivative,
    loss_value,
    max_linear,
    max_linear_squared,
    nu_constant,
    primal_objective,
    recover_dual,
    sample_feasible,
    screen,
    standardize,
    synth,
    ub_for_weight,
    v_from_delta,
    verify_no_false_elimination,
)
from drfs.solver import objective_scale

SQ = LossKind.SQUARED
LOG = LossKind.LOGISTIC

V_GRID_DEFAULT = (0.0,) + tuple(10.0 ** (k / 2.0) for k in range(-10, 1))
LAMBDA_RATIOS_DEFAULT = tuple(sorted(10.0 ** (-k / 2.0) for k in (4, 3, 2, 1, 0)))


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


class SafetyConfig(NamedTuple):
    dataset: Dataset
    kind: LossKind
    lam: float
    lambda_ratio: float
    v: float
    box: WeightBox
    model: object
    ref: object
    report: object


def _standardized_synth(task: Task, n: int, d: int, sparsity: int, noise: float, seed: int):
    dataset, _ = synth(task, n, d, sparsity, noise, seed)
    dataset, _ = standardize(dataset)
    return dataset


@pytest.fixture(scope="module")
def reg_small():
    return _standardized_synth(Task.REGRESSION, 40, 15, 3, 0.1, 7)


@pytest.fixture(scope="module")
def clf_small():
    return _standardized_synth(Task.BINARY, 40, 15, 3, 0.1, 11)


@pytest.fixture(scope="module")
def safety_suite(reg_small, clf_small):
    """The twelve screen configurations shared by criteria 1, 3, and 4."""
    configs = []
    for dataset, kind in ((reg_small, SQ), (clf_small, LOG)):
        weights = np.ones(dataset.n)
        lam_max = lambda_max(dataset, weights, kind)
        for ratio in (0.1, 0.3):
            lam = ratio * lam_max
            model = fit_weighted_erm(dataset, weights, kind, lam)
            for v in (0.01, 0.1, 1.0):
                box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
                ref = build_reference(dataset, model, box)
                report = screen(dataset, ref, box)
                configs.append(
                    SafetyConfig(dataset, kind, lam, ratio, v, box, model, ref, report)
                )
    return configs


def test_criterion_1_safety_suite(safety_suite):
    """500-trial brute-force verification finds no false elimination and no
    inconclusive solve in any of the twelve configurations."""
    with criterion(1, "safety-suite"):
        for cfg in safety_suite:
            outcome = verify_no_false_elimination(
                cfg.dataset, cfg.kind, cfg.lam, cfg.box, cfg.report,
                trials=500, seed=99, reference_model=cfg.model,
            )
            context = f"{cfg.kind.value} ratio={cfg.lambda_ratio} V={cfg.v}"
            assert not outcome.violations, f"{context}: {outcome.violations[:3]}"
            assert outcome.inconclusive == 0, f"{context}: {outcome.inconclusive} inconclusive"
            assert outcome.trials >= 500


def test_criterion_2_polytope_oracle():
    """Sorted-pairing maximizers agree with exhaustive corner enumeration."""
    with criterion(2, "polytope-oracle"):
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            for delta in (0.05, 0.3, 0.9):
                box = WeightBox(n, delta)
                assert brute_force_v(box) == pytest.approx(v_from_delta(box), abs=1e-12)
                for _ in range(100):
                    c = rng.uniform(-5, 5, size=n)
                    assert max_linear(c, box) == pytest.approx(
                        brute_force_max(c, box), abs=1e-12
                    )
                    c_sq = np.abs(c)
                    assert max_linear_squared(c_sq, box) == pytest.approx(
                        brute_force_max(c_sq, box, squared=True), abs=1e-12
                    )


def test_criterion_3_dominance(safety_suite):
    """The robust bound dominates the per-environment bound at 1000 sampled
    weight vectors per configuration, for every feature."""
    with criterion(3, "dominance"):
        for cfg in safety_suite:
            rng = np.random.default_rng(321)
            bounds = cfg.report.bounds
            for k in range(1000):
                w = sample_feasible(cfg.box, rng, "corner" if k % 2 == 0 else "interior")
                for j in range(cfg.dataset.d):
                    ub = ub_for_weight(j, w, cfg.ref, cfg.dataset, cfg.box)
                    assert ub <= bounds[j] + 1e-9, (
                        f"{cfg.kind.value} ratio={cfg.lambda_ratio} V={cfg.v} "
                        f"j={j}: {ub} > {bounds[j]}"
                    )


def test_criterion_4_ball_containment(safety_suite):
    """Re-solved dual optima stay inside the duality-gap ball around the
    rescaled reference dual point (50 weight draws per configuration)."""
    with criterion(4, "ball-containment"):
        for cfg in safety_suite:
            rng = np.random.default_rng(777)
            scale = objective_scale(cfg.dataset, np.ones(cfg.dataset.n), cfg.kind)
            config = FitConfig(gap_tolerance=1e-12 * scale)
            nu = nu_constant(cfg.kind)
            for k in range(50):
                w = sample_feasible(cfg.box, rng, "corner" if k % 2 == 0 else "interior")
                alpha_hat = cfg.ref.q * cfg.ref.alpha_star / w
                gap = duality_gap(
                    cfg.dataset, w, cfg.kind, cfg.lam, cfg.ref.b, cfg.ref.b0, alpha_hat
                )
                radius = dg_radius(gap, nu, cfg.box.delta)
                resolved = fit_weighted_erm(
                    cfg.dataset, w, cfg.kind, cfg.lam, config,
                    warm_start=(cfg.model.b, cfg.model.b0),
                )
                distance = float(np.linalg.norm(resolved.alpha - alpha_hat))
                assert distance <= radius * (1 + 1e-6), (
                    f"{cfg.kind.value} ratio={cfg.lambda_ratio} V={cfg.v}: "
                    f"{distance} > {radius}"
                )


def test_criterion_5_lambda_max_endpoints(reg_small, clf_small):
    """At lambda_max the fit is exactly sparse and screening at (V=0,
    ratio=1) removes everything; just below lambda_max a feature activates."""
    with criterion(5, "lambda-max-endpoints"):
        for dataset, kind in ((reg_small, SQ), (clf_small, LOG)):
            weights = np.ones(dataset.n)
            lam_max = lambda_max(dataset, weights, kind)
            at_max = fit_weighted_erm(dataset, weights, kind, lam_max)
            assert np.max(np.abs(at_max.b)) <= 1e-8
            box = WeightBox(dataset.n, 0.0)
            report = screen(dataset, build_reference(dataset, at_max, box), box)
            assert report.removed_ratio == 1.0
            below = fit_weighted_erm(dataset, weights, kind, 0.99 * lam_max)
            assert np.max(np.abs(below.b)) > 0


def test_criterion_6_no_shift_reduction(reg_small, clf_small):
    """With a 1e-10 reference gap and delta=0, the removed set equals the
    plain correlation rule evaluated at the reference dual, exactly."""
    with criterion(6, "no-shift-reduction"):
        for dataset, kind in ((reg_small, SQ), (clf_small, LOG)):
            weights = np.ones(dataset.n)
            lam = 0.3 * lambda_max(dataset, weights, kind)
            model = fit_weighted_erm(
                dataset, weights, kind, lam, FitConfig(gap_tolerance=1e-10)
            )
            assert model.gap <= 1e-10
            box = WeightBox(dataset.n, 0.0)
            report = screen(dataset, build_reference(dataset, model, box), box)
            expected = np.abs(dataset.x.T @ model.alpha) < lam * (1 - 1e-12)
            assert np.array_equal(report.removed, expected)


def _grid_ratios(dataset: Dataset, kind: LossKind) -> dict[tuple[float, float], float]:
    weights = np.ones(dataset.n)
    lam_max = lambda_max(dataset, weights, kind)
    table = {}
    for ratio in LAMBDA_RATIOS_DEFAULT:
        model = fit_weighted_erm(dataset, weights, kind, ratio * lam_max)
        for v in V_GRID_DEFAULT:
            box = WeightBox(dataset.n, delta_from_v(v, dataset.n))
            report = screen(dataset, build_reference(dataset, model, box), box)
            table[(v, ratio)] = report.removed_ratio
    return table


def test_criterion_7_grid_reproduction():
    """Full default (V, lambda) grid on a housing-shaped regression problem
    (506 x 13, squared) and an australian-shaped classification problem
    (690 x 14, logistic): ratios in [0, 1], exact monotonicity in V for the
    squared loss, endpoint behavior at V=0 and at the largest V."""
    with criterion(7, "grid-reproduction"):
        housing_shaped = _standardized_synth(Task.REGRESSION, 506, 13, 8, 3.0, 2026)
        table = _grid_ratios(housing_shaped, SQ)
        assert all(0.0 <= r <= 1.0 for r in table.values())
        assert table[(0.0, 1.0)] == 1.0
        for ratio in LAMBDA_RATIOS_DEFAULT:
            series = [table[(v, ratio)] for v in V_GRID_DEFAULT]
            assert all(a >= b for a, b in zip(series, series[1:])), (
                f"squared ratio {ratio}: {series}"
            )

        australian_shaped = _standardized_synth(Task.BINARY, 690, 14, 8, 0.5, 4040)
        table = _grid_ratios(australian_shaped, LOG)
        assert all(0.0 <= r <= 1.0 for r in table.values())
        assert table[(0.0, 1.0)] == 1.0
        for ratio in LAMBDA_RATIOS_DEFAULT:
            assert table[(1.0, ratio)] <= table[(0.0, ratio)], f"logistic ratio {ratio}"


def test_criterion_8_numerics_suite():
    """Conjugacy, weak duality, derivative smoothness, and the conjugate's
    endpoint convention, 1000 random cases each."""
    with criterion(8, "numerics-suite"):
        rng = np.random.default_rng(2024)

        # conjugacy attains equality at the margin-matched dual point
        for kind in (SQ, LOG):
            y = (rng.uniform(-3, 3, size=1000) if kind is SQ
                 else rng.choice([-1.0, 1.0], size=1000))
            t = rng.uniform(-5, 5, size=1000)
            alpha = dual_from_margin(kind, y, t)
            residual = loss_value(kind, y, t) + conjugate_neg(kind, y, alpha) + alpha * t
            assert np.max(np.abs(residual)) <= 1e-10

        # weak duality, pre-clamp, on random small problems
        from conftest import random_feasible_pair

        worst = np.inf
        for trial in range(1000):
            kind = SQ if trial % 2 == 0 else LOG
            n, d = int(rng.integers(3, 10)), int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            if kind is SQ:
                ds = Dataset(x=x, y=rng.standard_normal(n), task=Task.REGRESSION)
            else:
                y = rng.choice([-1.0, 1.0], size=n)
                if np.all(y == y[0]):
                    y[0] *= -1
                ds = Dataset(x=x, y=y, task=Task.BINARY)
            w = rng.uniform(0.5, 1.5, size=n)
            lam = rng.uniform(0.05, 3.0)
            b, b0, alpha = random_feasible_pair(rng, ds, w, kind, lam)
            worst = min(worst, primal_objective(ds, w, kind, lam, b, b0)
                        - dual_objective(ds, w, kind, alpha))
        assert worst >= -1e-10

        # derivative Lipschitz bound
        for kind in (SQ, LOG):
            nu = nu_constant(kind)
            y = rng.choice([-1.0, 1.0], size=1000)
            t1 = rng.uniform(-8, 8, size=1000)
            t2 = rng.uniform(-8, 8, size=1000)
            lhs = np.abs(loss_derivative(kind, y, t1) - loss_derivative(kind, y, t2))
            assert np.all(lhs <= nu * np.abs(t1 - t2) + 1e-12)

        # endpoint convention of the logistic conjugate
        for y in (-1.0, 1.0):
            assert conjugate_neg(LOG, y, y * 1.0) == 0.0
            assert conjugate_neg(LOG, y, 0.0) == 0.0
        p = rng.uniform(0.0, 1.0, size=1000)
        y = rng.choice([-1.0, 1.0], size=1000)
        values = conjugate_neg(LOG, y, y * p)
        assert np.all(values <= 0.0)
        assert np.all(np.isfinite(values))
