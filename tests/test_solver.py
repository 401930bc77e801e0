import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from drfs import solver
from drfs.losses import _sigmoid
from drfs.solver import (
    DEFAULT_EQ_PER_ROW,
    _EQ_NEWTON_FLOOR,
    _column_square_sums,
    _intercept_logistic,
    objective_scale,
)
from drfs.uncertainty import COLUMN_BLOCK_BYTES

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
        # both sigmoids round to exactly 1: zero Hessian, doubling fallback
        ([-40.0, 40.0], [2.0, 1.0], 40.0),
        # a zero-Hessian plateau wider than 200 unit steps
        ([-1000.0, 1000.0], [2.0, 1.0], 1000.0),
    ])
    def test_saturated_start_reaches_optimum(self, t0, w, expected):
        y = np.array([1.0, -1.0])
        t0, w = np.array(t0), np.array(w)
        eq_tol = DEFAULT_EQ_PER_ROW * 2
        b0 = _intercept_logistic(y, t0, w, 0.0, eq_tol, float(np.sum(w)))
        grad = float(np.dot(w, y * _sigmoid(-y * (t0 + b0))))
        assert abs(grad) <= min(eq_tol, _EQ_NEWTON_FLOOR * float(np.sum(w)))
        assert b0 == expected
        assert grad == 0.0


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


def _random_problem(seed: int, n: int, d: int, kind: LossKind) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if kind is SQ:
        y = x[:, :3] @ np.array([2.0, -1.5, 1.0])
        return make(x, y + 0.3 * rng.standard_normal(n))
    y = np.where(x[:, 0] - 0.5 * x[:, 1] + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    return make(x, y, Task.BINARY)


def _assert_certified_on_full_matrix(ds, w, kind, lam, model, gap_tol):
    """The model's gap and dual point hold for the full problem."""
    gap = duality_gap(ds, w, kind, lam, model.b, model.b0, model.alpha)
    assert model.gap == pytest.approx(gap, abs=1e-15)
    assert np.max(np.abs(ds.x.T @ (w * model.alpha))) <= lam * (1 + 1e-12)
    if gap_tol is not None:
        assert gap <= gap_tol
        assert abs(float(np.dot(w, model.alpha))) <= DEFAULT_EQ_PER_ROW * ds.n


def _record_rule(monkeypatch, calls: list) -> None:
    """Wrap the Gap Safe rule, collecting (working columns, survivors) per call."""
    rule = solver._gap_safe_survivors

    def recording(cols, *args):
        survivors = rule(cols, *args)
        calls.append((cols, survivors))
        return survivors

    monkeypatch.setattr(solver, "_gap_safe_survivors", recording)


class TestGapSafeWorkingSet:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([SQ, LOG]),
        wide=st.booleans(),
        ratio=st.floats(0.05, 0.9),
        delta=st.floats(0.0, 0.9),
    )
    def test_screened_fit_certifies_and_drops_only_zeros(self, seed, kind, wide, ratio, delta):
        n, d = (12, 30) if wide else (40, 12)
        ds = _random_problem(seed, n, d, kind)
        w = np.random.default_rng(seed + 1).uniform(1.0 - delta, 1.0 + delta, size=n)
        lam = ratio * lambda_max(ds, w, kind)
        calls: list = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_GAP_SAFE_MIN_BYTES", 0)
            _record_rule(mp, calls)
            model = fit_weighted_erm(ds, w, kind, lam)
        _assert_certified_on_full_matrix(ds, w, kind, lam, model,
                                         1e-9 * objective_scale(ds, w, kind))
        dropped = [j for cols, survivors in calls for j in np.setdiff1d(cols, survivors)]
        plain = fit_weighted_erm(ds, w, kind, lam)
        assert np.all(plain.b[dropped] == 0.0)
        assert np.all(model.b[dropped] == 0.0)

    def test_working_set_compacts(self, monkeypatch, reg40):
        w = np.ones(reg40.n)
        lam = 0.5 * lambda_max(reg40, w, SQ)
        calls: list = []
        monkeypatch.setattr(solver, "_GAP_SAFE_MIN_BYTES", 0)
        _record_rule(monkeypatch, calls)
        model = fit_weighted_erm(reg40, w, SQ, lam)
        assert calls[-1][0].size < reg40.d  # the last check ran on a reduced working set
        _assert_certified_on_full_matrix(reg40, w, SQ, lam, model,
                                         1e-9 * objective_scale(reg40, w, SQ))

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_failed_full_check_readmits_every_column(self, monkeypatch, kind, fixture, request):
        """A wrong drop passes the reduced check but not the full one; the
        columns rejoin and the fit still certifies."""
        ds = request.getfixturevalue(fixture)
        w = np.ones(ds.n)
        lam = 0.3 * lambda_max(ds, w, kind)
        calls = []

        def drop_every_zero(cols, corr, norms, radius, lam, b, v):
            calls.append(cols.size)
            return cols[(b != 0.0) | (v != 0.0)]

        monkeypatch.setattr(solver, "_GAP_SAFE_MIN_BYTES", 0)
        monkeypatch.setattr(solver, "_gap_safe_survivors", drop_every_zero)
        model = fit_weighted_erm(ds, w, kind, lam)
        assert calls == [ds.d]  # the cold start drops all columns, then never screens again
        _assert_certified_on_full_matrix(ds, w, kind, lam, model,
                                         1e-9 * objective_scale(ds, w, kind))
        monkeypatch.undo()
        plain = fit_weighted_erm(ds, w, kind, lam)
        np.testing.assert_allclose(model.b, plain.b, atol=1e-6)
        assert np.count_nonzero(model.b) > 0

    @pytest.mark.parametrize("wrong_drop", [False, True])
    def test_convergence_error_carries_full_certificate(self, monkeypatch, clf40, wrong_drop):
        """Out of iterations on a working set: the best iterate carries a dual
        point and gap evaluated on the full matrix, even when a wrongly
        reduced problem reached a far smaller gap of its own."""
        w = np.ones(clf40.n)
        lam = 0.3 * lambda_max(clf40, w, LOG)
        monkeypatch.setattr(solver, "_GAP_SAFE_MIN_BYTES", 0)
        if wrong_drop:
            calls = []

            def drop_strongest_once(cols, corr, *rest):
                calls.append(cols.size)
                if len(calls) > 1:
                    return cols
                return np.sort(cols[np.argsort(corr)[-1 - cols.size // 2:-1]])

            monkeypatch.setattr(solver, "_gap_safe_survivors", drop_strongest_once)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_weighted_erm(clf40, w, LOG, lam, FitConfig(gap_tolerance=1e-300,
                                                           max_iterations=40))
        model = excinfo.value.model
        assert model.b.shape == (clf40.d,)
        _assert_certified_on_full_matrix(clf40, w, LOG, lam, model, None)

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_small_fit_never_screens(self, monkeypatch, kind, fixture, request):
        ds = request.getfixturevalue(fixture)

        def fail(*args):
            raise AssertionError("a fit below _GAP_SAFE_MIN_BYTES ran the Gap Safe rule")

        monkeypatch.setattr(solver, "_gap_safe_survivors", fail)
        w = np.ones(ds.n)
        lam_max = lambda_max(ds, w, kind)
        for ratio in (0.1, 0.3, 0.7):
            model = fit_weighted_erm(ds, w, kind, ratio * lam_max)
            shifted = np.linspace(0.8, 1.2, ds.n)
            fit_weighted_erm(ds, shifted, kind, ratio * lam_max, warm_start=(model.b, model.b0))

    def test_fit_above_threshold_certifies(self):
        """A matrix just over _GAP_SAFE_MIN_BYTES screens by default."""
        n, d = 1100, 120
        assert n * d * 8 >= solver._GAP_SAFE_MIN_BYTES
        ds = _random_problem(3, n, d, LOG)
        w = np.ones(n)
        lam = 0.2 * lambda_max(ds, w, LOG)
        model = fit_weighted_erm(ds, w, LOG, lam)
        _assert_certified_on_full_matrix(ds, w, LOG, lam, model,
                                         1e-9 * objective_scale(ds, w, LOG))


@pytest.mark.parametrize("n,d", [(40, 15), (700, 150)])
def test_column_square_sums(n, d):
    """One column block reproduces (x*x).T @ w bit for bit; several agree to rounding."""
    x = np.asfortranarray(np.random.default_rng(n).standard_normal((n, d)))
    w = np.random.default_rng(d).uniform(0.5, 1.5, size=n)
    sums, sums_sq = _column_square_sums(x, w, w * w)
    if x.nbytes <= COLUMN_BLOCK_BYTES:
        np.testing.assert_array_equal(sums, (x * x).T @ w)
    np.testing.assert_allclose(sums, (x * x).T @ w, rtol=1e-13)
    np.testing.assert_allclose(sums_sq, (x * x).T @ (w * w), rtol=1e-13)
