import math

import numpy as np
import pytest

from drfs import (
    ConvergenceError,
    Dataset,
    FitConfig,
    LossKind,
    Task,
    dual_objective,
    duality_gap,
    fit_weighted_erm,
    lambda_max,
    primal_objective,
    recover_dual,
    synth,
)
from drfs.losses import _sigmoid
from drfs.solver import DEFAULT_EQ_PER_ROW, _intercept_logistic, objective_scale

SQ = LossKind.SQUARED
LOG = LossKind.LOGISTIC


def make(x, y, task=Task.REGRESSION):
    return Dataset(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float), task=task)


class TestObjectives:
    def test_primal_zero_model(self):
        ds = make([[3.0], [4.0]], [1.0, -1.0])
        assert primal_objective(ds, np.ones(2), SQ, 1.0, [0.0], 0.0) == pytest.approx(2.0)

    def test_primal_l1_term(self):
        ds = make([[0.0], [0.0]], [0.0, 0.0])
        w = np.ones(2)
        p1 = primal_objective(ds, w, SQ, 2.0, [1.5], 0.0)
        p2 = primal_objective(ds, w, SQ, 2.0, [3.0], 0.0)
        assert p2 - p1 == pytest.approx(2.0 * 1.5)

    def test_primal_weighted(self):
        ds = make([[0.0], [0.0]], [1.0, 2.0])
        p = primal_objective(ds, [2.0, 0.5], SQ, 1.0, [0.0], 0.0)
        assert p == pytest.approx(2.0 * 1.0 + 0.5 * 4.0)

    def test_dual_squared_at_zero(self):
        ds = make([[1.0], [2.0]], [1.0, -1.0])
        assert dual_objective(ds, np.ones(2), SQ, np.zeros(2)) == 0.0

    def test_dual_logistic_infeasible(self):
        ds = make([[1.0], [1.0]], [1.0, -1.0], Task.BINARY)
        assert dual_objective(ds, np.ones(2), LOG, np.array([1.5, -0.5])) == -math.inf

    def test_dual_logistic_half(self):
        ds = make([[1.0], [1.0]], [1.0, -1.0], Task.BINARY)
        value = dual_objective(ds, np.ones(2), LOG, np.array([0.5, -0.5]))
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_gap_rejects_infeasible(self):
        from drfs import DomainError

        ds = make([[1.0], [1.0]], [1.0, -1.0], Task.BINARY)
        with pytest.raises(DomainError):
            duality_gap(ds, np.ones(2), LOG, 1.0, [0.0], 0.0, np.array([2.0, 0.0]))

    def test_gap_at_intercept_only_model(self, reg40):
        """Below lambda_max the zero-coefficient model leaves a real gap."""
        w = np.ones(reg40.n)
        lam = 0.3 * lambda_max(reg40, w, SQ)
        b = np.zeros(reg40.d)
        b0 = float(np.mean(reg40.y))
        alpha = recover_dual(reg40, w, SQ, lam, b, b0)
        gap = duality_gap(reg40, w, SQ, lam, b, b0, alpha)
        assert np.isfinite(gap) and gap > 1e-3


class TestFit:
    def test_one_dim_closed_form(self, toy_1d):
        model = fit_weighted_erm(toy_1d, np.ones(2), SQ, 0.1)
        assert model.b[0] == pytest.approx(0.975, abs=1e-9)
        assert model.b0 == pytest.approx(0.0, abs=1e-9)

    def test_one_dim_at_lambda_max(self, toy_1d):
        model = fit_weighted_erm(toy_1d, np.ones(2), SQ, 4.0)
        np.testing.assert_array_equal(model.b, [0.0])
        assert model.support.size == 0

    def test_certificate_reverified(self, reg40):
        w = np.ones(reg40.n)
        lam = 0.2 * lambda_max(reg40, w, SQ)
        model = fit_weighted_erm(reg40, w, SQ, lam)
        scale = objective_scale(reg40, w, SQ)
        gap = duality_gap(reg40, w, SQ, lam, model.b, model.b0, model.alpha)
        assert gap <= 1e-9 * scale
        assert model.gap == pytest.approx(gap, abs=1e-15)

    def test_dual_constraints_hold(self, clf40):
        w = np.ones(clf40.n)
        lam = 0.2 * lambda_max(clf40, w, LOG)
        model = fit_weighted_erm(clf40, w, LOG, lam)
        corr = clf40.x.T @ (w * model.alpha)
        assert np.max(np.abs(corr)) <= lam * (1 + 1e-10)
        assert abs(np.dot(w, model.alpha)) <= 1e-10 * clf40.n

    def test_weight_scaling_consistency(self, reg40):
        w = np.ones(reg40.n)
        lam = 0.3 * lambda_max(reg40, w, SQ)
        base = fit_weighted_erm(reg40, w, SQ, lam)
        scaled = fit_weighted_erm(reg40, 2.5 * w, SQ, 2.5 * lam)
        np.testing.assert_allclose(scaled.b, base.b, atol=1e-7)
        assert scaled.b0 == pytest.approx(base.b0, abs=1e-7)

    def test_deterministic(self, clf40):
        w = np.ones(clf40.n)
        lam = 0.15 * lambda_max(clf40, w, LOG)
        a = fit_weighted_erm(clf40, w, LOG, lam)
        b = fit_weighted_erm(clf40, w, LOG, lam)
        np.testing.assert_array_equal(a.b, b.b)
        assert a.b0 == b.b0
        assert a.gap == b.gap

    def test_non_convergence_carries_best(self, reg40):
        w = np.ones(reg40.n)
        lam = 0.01 * lambda_max(reg40, w, SQ)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_weighted_erm(reg40, w, SQ, lam, FitConfig(max_iterations=3))
        model = excinfo.value.model
        assert model.gap > 0
        assert model.b.shape == (reg40.d,)

    def test_rejects_bad_inputs(self, toy_1d):
        with pytest.raises(ValueError):
            fit_weighted_erm(toy_1d, np.ones(2), SQ, 0.0)
        with pytest.raises(ValueError):
            fit_weighted_erm(toy_1d, np.array([1.0, 0.0]), SQ, 1.0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(gap_tolerance=-1.0)


class TestInterceptNewton:
    @pytest.mark.parametrize("t0,w,expected", [
        # every Newton step is clipped to +10 until the sigmoids leave saturation
        ([-800.0, -800.0], [1.0, 1.0], 800.0),
        # both sigmoids round to exactly 1: zero Hessian, unit-step fallback
        ([-40.0, 40.0], [2.0, 1.0], 40.0),
    ])
    def test_saturated_start_reaches_optimum(self, t0, w, expected):
        y = np.array([1.0, -1.0])
        t0, w = np.array(t0), np.array(w)
        b0 = _intercept_logistic(y, t0, w, 0.0, DEFAULT_EQ_PER_ROW * 2, float(np.sum(w)))
        assert b0 == expected
        assert float(np.dot(w, y * _sigmoid(-y * (t0 + b0)))) == 0.0


class TestLambdaMax:
    def test_toy_value(self, toy_1d):
        assert lambda_max(toy_1d, np.ones(2), SQ) == 4.0

    def test_balanced_logistic_uses_zero_intercept(self):
        x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        ds = make(x, y, Task.BINARY)
        # balanced classes put the intercept at 0, so every dual entry is y/2
        expect = abs(float(np.sum(x[:, 0] * y / 2)))
        assert lambda_max(ds, np.ones(4), LOG) == pytest.approx(expect, abs=1e-14)

    def test_weight_homogeneity(self, reg40):
        w = np.ones(reg40.n)
        assert lambda_max(reg40, 2 * w, SQ) == pytest.approx(
            2 * lambda_max(reg40, w, SQ), rel=1e-12
        )

    def test_single_class_rejected(self):
        ds = make([[1.0], [2.0]], [1.0, 1.0], Task.BINARY)
        with pytest.raises(ValueError, match="both classes"):
            lambda_max(ds, np.ones(2), LOG)

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_boundary(self, kind, fixture, request):
        """Solving at lambda_max leaves every coefficient at zero; just below
        it, the most correlated feature activates."""
        ds = request.getfixturevalue(fixture)
        w = np.ones(ds.n)
        lam = lambda_max(ds, w, kind)
        at_max = fit_weighted_erm(ds, w, kind, lam)
        assert np.max(np.abs(at_max.b)) <= 1e-8
        below = fit_weighted_erm(ds, w, kind, 0.99 * lam)
        assert np.max(np.abs(below.b)) > 0


class TestRecoverDual:
    def test_noop_at_optimum(self, reg40):
        w = np.ones(reg40.n)
        lam = 0.3 * lambda_max(reg40, w, SQ)
        model = fit_weighted_erm(reg40, w, SQ, lam, FitConfig(gap_tolerance=1e-12))
        raw = 2.0 * (reg40.y - (reg40.x @ model.b + model.b0))
        np.testing.assert_allclose(model.alpha, raw, atol=1e-10)

    def test_zero_residuals(self):
        ds = make([[1.0], [2.0]], [1.0, 2.0])
        alpha = recover_dual(ds, np.ones(2), SQ, 1.0, [1.0], 0.0)
        np.testing.assert_allclose(alpha, 0.0, atol=1e-15)

    def test_scaling_rule(self):
        # raw alpha after centering is [4, -4]; correlations reach 8 = 2*lam
        ds = make([[1.0], [-1.0]], [3.0, -1.0])
        alpha = recover_dual(ds, np.ones(2), SQ, 4.0, [0.0], 0.0)
        np.testing.assert_allclose(alpha, [2.0, -2.0], atol=1e-12)

    def test_logistic_domain_preserved(self, clf40):
        alpha = recover_dual(clf40, np.ones(clf40.n), LOG, 1e-3, np.zeros(clf40.d), 0.2)
        p = clf40.y * alpha
        assert np.all(p > 0) and np.all(p < 1)


class TestWeakDuality:
    def test_random_feasible_pairs(self):
        """P - D stays nonnegative (within noise) for dual-feasible points."""
        from conftest import random_feasible_pair

        rng = np.random.default_rng(6)
        worst = math.inf
        for trial in range(1000):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 5))
            kind = SQ if trial % 2 == 0 else LOG
            x = rng.standard_normal((n, d))
            if kind is SQ:
                y = rng.standard_normal(n)
                ds = make(x, y)
            else:
                y = rng.choice([-1.0, 1.0], size=n)
                if np.all(y == y[0]):
                    y[0] *= -1
                ds = make(x, y, Task.BINARY)
            w = rng.uniform(0.5, 1.5, size=n)
            lam = rng.uniform(0.1, 2.0)
            b, b0, alpha = random_feasible_pair(rng, ds, w, kind, lam)
            p = primal_objective(ds, w, kind, lam, b, b0)
            dv = dual_objective(ds, w, kind, alpha)
            worst = min(worst, p - dv)
        assert worst >= -1e-10
