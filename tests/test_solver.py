import itertools
import math
import re
import tracemalloc
import warnings

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
    sample_feasible,
    synth,
)
from drfs import data, solver
from drfs.losses import _sigmoid_neg
from drfs.solver import (
    DEFAULT_EQ_PER_ROW,
    _EQ_NEWTON_FLOOR,
    _column_square_sums,
    _intercept_logistic,
    _times_support,
    objective_scale,
)
from drfs import uncertainty
from drfs.uncertainty import COLUMN_BLOCK_BYTES
from conftest import screen_setup, without_polish

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

    def test_rejects_wrong_lengths(self, reg40):
        w = np.ones(reg40.n)
        with pytest.raises(ValueError, match=r"^b must have length 15, got shape \(16,\)$"):
            primal_objective(reg40, w, SQ, 1.0, np.zeros(reg40.d + 1), 0.0)
        with pytest.raises(ValueError, match=r"^alpha must have length 40, got shape \(39,\)$"):
            dual_objective(reg40, w, SQ, np.zeros(reg40.n - 1))

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
        # an infinite tolerance would certify any gap: on the gate's 40x15
        # regression problem at lambda = 1, the zero model at gap 165.6
        for tolerance in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gap_tolerance must be finite and > 0"):
                FitConfig(gap_tolerance=tolerance)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
@pytest.mark.parametrize("entry_point", [
    "lambda_max", "objective_scale", "primal_objective", "dual_objective", "recover_dual",
    "fit_weighted_erm", "fit_weighted_erm (n, T)",
])
def test_non_finite_weights_are_refused(entry_point, kind, fixture, entry, request):
    """Every public entry that takes weights refuses a non-finite one by name,
    rather than failing later through a NaN (lambda_max, recover_dual), an
    infinite objective or an overflow blamed on the features (the fit)."""
    ds = request.getfixturevalue(fixture)
    w = np.ones(ds.n)
    w[3] = entry
    zeros = np.zeros(ds.d)
    call = {
        "lambda_max": lambda: lambda_max(ds, w, kind),
        "objective_scale": lambda: objective_scale(ds, w, kind),
        "primal_objective": lambda: primal_objective(ds, w, kind, 1.0, zeros, 0.0),
        "dual_objective": lambda: dual_objective(ds, w, kind, np.zeros(ds.n)),
        "recover_dual": lambda: recover_dual(ds, w, kind, 1.0, zeros, 0.0),
        "fit_weighted_erm": lambda: fit_weighted_erm(ds, w, kind, 1.0),
        "fit_weighted_erm (n, T)": lambda: fit_weighted_erm(ds, np.stack([w, w], axis=1), kind,
                                                            1.0, FitConfig(gap_tolerance=1e-6)),
    }[entry_point]
    with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
        call()


_SATURATED_STARTS = [
    # every Newton step is clipped to +10 until the sigmoids leave saturation
    ([-800.0, -800.0], [1.0, 1.0], 800.0),
    # both sigmoids round to exactly 1: zero Hessian, doubling fallback
    ([-40.0, 40.0], [2.0, 1.0], 40.0),
    # a zero-Hessian plateau wider than 200 unit steps
    ([-1000.0, 1000.0], [2.0, 1.0], 1000.0),
]


class TestInterceptNewton:
    @staticmethod
    def _solve(t0, w):
        """The intercept of margins t0 and weights w (2,), labels [1, -1]."""
        y = np.array([1.0, -1.0])
        target = min(DEFAULT_EQ_PER_ROW * 2, _EQ_NEWTON_FLOOR * w.sum())
        b0, margins, sig = _intercept_logistic(y, t0, w, w * y, 0.0, target)
        np.testing.assert_array_equal(margins, t0 + b0)
        np.testing.assert_array_equal(sig, _sigmoid_neg(y * margins))
        grad = np.vecdot(w, y * sig)
        assert abs(grad) <= target
        return b0, grad

    @pytest.mark.parametrize("t0,w,expected", _SATURATED_STARTS)
    def test_saturated_start_reaches_optimum(self, t0, w, expected):
        b0, grad = self._solve(np.array(t0), np.array(w))
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


def _assert_certified_on_full_matrix(ds, w, kind, lam, model, gap_tol, gap_atol=1e-15):
    """The model's gap and dual point hold for the full problem.  gap_atol
    bounds how far the fit's own gap may round away from duality_gap's."""
    gap = duality_gap(ds, w, kind, lam, model.b, model.b0, model.alpha)
    assert model.gap == pytest.approx(gap, abs=gap_atol)
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


def _record_checks(monkeypatch, widths: list, multiplied: list | None = None) -> None:
    """Wrap the dual repair, collecting the number of columns of x each gap
    check runs on: d on the full matrix, fewer on a working set.  multiplied,
    when given, collects how many of those columns each check multiplied:
    all of them on a dense check, and on a full check with correlation
    bounds the columns _columns_times took, in both phases."""
    repair = solver._repair_from_margins
    times = solver._columns_times

    def recording(kind, y, x, w, lam, margins, bounds=None):
        widths.append(x.shape[1])
        if multiplied is not None:
            multiplied.append(x.shape[1] if bounds is None else 0)
        return repair(kind, y, x, w, lam, margins, bounds)

    def counting(x, cols, v):
        multiplied[-1] += cols.size
        return times(x, cols, v)

    monkeypatch.setattr(solver, "_repair_from_margins", recording)
    if multiplied is not None:
        monkeypatch.setattr(solver, "_columns_times", counting)


def _working_sets(monkeypatch, least: int) -> None:
    """Working sets at every size: x counts as large, and sets of `least`
    columns are small enough to compact into."""
    monkeypatch.setattr(solver, "_GAP_SAFE_MIN_BYTES", 0)
    monkeypatch.setattr(solver, "_WORKING_SET_LEAST", least)


class TestGapSafeWorkingSet:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([SQ, LOG]),
        wide=st.booleans(),
        ratio=st.floats(0.05, 0.9),
        delta=st.floats(0.0, 0.9),
        least=st.integers(1, 5),
    )
    def test_screened_fit_certifies_and_drops_only_zeros(self, seed, kind, wide, ratio, delta,
                                                         least):
        """Every example runs a prioritized working set smaller than d: the
        cold start's check compacts to at most `least` columns, below d / 2."""
        n, d = (12, 30) if wide else (40, 12)
        ds = _random_problem(seed, n, d, kind)
        w = np.random.default_rng(seed + 1).uniform(1.0 - delta, 1.0 + delta, size=n)
        lam = ratio * lambda_max(ds, w, kind)
        calls: list = []
        widths: list = []
        multiplied: list = []
        gap_tol = 1e-9 * objective_scale(ds, w, kind)
        with pytest.MonkeyPatch.context() as mp:
            _working_sets(mp, least)
            _record_rule(mp, calls)
            _record_checks(mp, widths, multiplied)
            model = fit_weighted_erm(ds, w, kind, lam)
            # duality_gap takes the support products the fit took
            _assert_certified_on_full_matrix(ds, w, kind, lam, model, gap_tol)
        assert min(widths) <= least < d and widths[-1] == d
        # the first check multiplies every column, the others at most all
        assert multiplied[0] == d and all(m <= c for m, c in zip(multiplied, widths))
        # the rule certifies zeros of the full problem, so it sees every column
        assert all(cols.size == d for cols, _ in calls)
        # the dense x @ b sums in another order
        _assert_certified_on_full_matrix(ds, w, kind, lam, model, gap_tol,
                                         1e-13 * objective_scale(ds, w, kind))
        dropped = [j for cols, survivors in calls for j in np.setdiff1d(cols, survivors)]
        plain = fit_weighted_erm(ds, w, kind, lam)
        assert np.all(plain.b[dropped] == 0.0)
        assert np.all(model.b[dropped] == 0.0)

    def test_working_set_compacts(self, monkeypatch, reg40):
        """Checks on a working set alternate with checks on the full matrix,
        and only the full ones run the Gap Safe rule."""
        w = np.ones(reg40.n)
        lam = 0.5 * lambda_max(reg40, w, SQ)
        calls: list = []
        widths: list = []
        multiplied: list = []
        _working_sets(monkeypatch, 2)
        _record_rule(monkeypatch, calls)
        _record_checks(monkeypatch, widths, multiplied)
        model = fit_weighted_erm(reg40, w, SQ, lam)
        assert min(widths) < reg40.d and widths[0] == widths[-1] == reg40.d
        # a working-set check multiplies its columns; the first full check
        # multiplies every column, and a later one skips the columns whose
        # correlation bound stays below lam
        full = [m for m, c in zip(multiplied, widths) if c == reg40.d]
        assert [m for m, c in zip(multiplied, widths) if c < reg40.d] == [
            c for c in widths if c < reg40.d]
        assert full[0] == reg40.d and min(full) < reg40.d
        assert len(calls) == widths.count(reg40.d) - 1  # every full check but the last
        assert all(cols.size == reg40.d for cols, _ in calls)
        _assert_certified_on_full_matrix(reg40, w, SQ, lam, model,
                                         1e-9 * objective_scale(reg40, w, SQ))

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_failed_full_check_readmits_every_column(self, monkeypatch, kind, fixture, request):
        """A drop rule that removes every zero column leaves a working set of
        the nonzero rows alone.  Each full check after it finds the dual point
        shrunk for a column outside, so the least size doubles until it
        reaches half of d, and the fit ends on the full matrix, certified."""
        ds = request.getfixturevalue(fixture)
        w = np.ones(ds.n)
        lam = 0.3 * lambda_max(ds, w, kind)
        plain = fit_weighted_erm(ds, w, kind, lam)
        calls = []
        least = []

        def drop_every_zero(cols, corr, norms, radius, lam, b, v):
            calls.append(cols.size)
            return cols[(b != 0.0) | (v != 0.0)]

        prioritized = solver._prioritized

        def recording(*args):
            least.append(args[-1])
            return prioritized(*args)

        _working_sets(monkeypatch, 1)
        monkeypatch.setattr(solver, "_gap_safe_survivors", drop_every_zero)
        monkeypatch.setattr(solver, "_prioritized", recording)
        model = fit_weighted_erm(ds, w, kind, lam)
        assert set(calls) == {ds.d}
        # 1, 2, 4; at 8 >= 15 / 2 compaction stops
        assert sorted(set(least)) == [1, 2, 4]
        assert model.iterations <= plain.iterations + 5 * solver._CHECK_EVERY
        _assert_certified_on_full_matrix(ds, w, kind, lam, model,
                                         1e-9 * objective_scale(ds, w, kind))
        np.testing.assert_allclose(model.b, plain.b, atol=1e-6)
        assert np.count_nonzero(model.b) > 0

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_working_set_missing_an_active_feature(self, monkeypatch, kind, fixture, request):
        """A working set that never holds the strongest feature of the optimum
        converges to the wrong reduced problem every time; the fit still ends
        on the full matrix, certified, and finds that feature."""
        ds = request.getfixturevalue(fixture)
        w = np.ones(ds.n)
        lam = 0.3 * lambda_max(ds, w, kind)
        plain = fit_weighted_erm(ds, w, kind, lam)
        missing = int(np.argmax(np.abs(plain.b)))
        prioritized = solver._prioritized
        sets = []

        def without_missing(*args):
            cols = prioritized(*args)
            sets.append(cols)
            return cols[cols != missing]

        _working_sets(monkeypatch, 2)
        monkeypatch.setattr(solver, "_prioritized", without_missing)
        model = fit_weighted_erm(ds, w, kind, lam)
        assert len(sets) >= 2 and all(missing in cols for cols in sets)  # it was wanted
        assert model.iterations <= plain.iterations + 5 * solver._CHECK_EVERY
        _assert_certified_on_full_matrix(ds, w, kind, lam, model,
                                         1e-9 * objective_scale(ds, w, kind))
        np.testing.assert_allclose(model.b, plain.b, atol=1e-6)
        assert model.b[missing] != 0.0

    @pytest.mark.parametrize("wrong_drop", [False, True])
    def test_convergence_error_carries_full_certificate(self, monkeypatch, clf40, wrong_drop):
        """Out of iterations on a working set: the best iterate carries a dual
        point and gap evaluated on the full matrix, even when a wrongly
        reduced problem reached a far smaller gap of its own."""
        w = np.ones(clf40.n)
        lam = 0.3 * lambda_max(clf40, w, LOG)
        _working_sets(monkeypatch, 2)
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


def _results(fits) -> list:
    """b, b0, iterations and support of each result of _fit_columns, taken
    from the best iterate a ConvergenceError carries."""
    models = [r.model if isinstance(r, ConvergenceError) else r for r in fits]
    return [(isinstance(r, ConvergenceError), m.b, m.b0, m.iterations, m.support)
            for r, m in zip(fits, models)]


class TestLazyChecks:
    """A full-matrix check with correlation bounds multiplies only the
    columns whose bound can reach lambda, and the fit decides as if it had
    multiplied all of them."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([SQ, LOG]),
        n=st.integers(4, 40),
        d=st.integers(3, 30),
        batch=st.integers(1, 3),
        far_start=st.booleans(),
        ratio=st.floats(0.05, 0.9),
        delta=st.floats(0.0, 0.9),
        least=st.integers(1, 5),
    )
    def test_skipped_columns_are_bounded_and_decide_nothing(self, seed, kind, n, d, batch,
                                                            far_start, ratio, delta, least):
        """Each column a check skips has a bound at least its computed
        correlation |x_j.T (w o alpha)| and below lambda, and the fit returns
        what it returns when every column is multiplied.  A far-off warm start
        moves alpha a long way between checks, so the bounds grow past lambda
        and the Gap Safe survivors are multiplied after the gap is known."""
        ds = _random_problem(seed, n, d, kind)
        rng = np.random.default_rng(seed + 1)
        weights = rng.uniform(1.0 - delta, 1.0 + delta, size=(n, batch))
        lam = ratio * lambda_max(ds, np.ones(n), kind)
        warm = (3.0 * rng.standard_normal(d), 1.0) if far_start else None
        config = FitConfig(max_iterations=2000)  # the d > n squared fit can stall
        repair = solver._repair_from_margins
        skipped = []

        def checking(kind_, y, x, w, lam_, margins, bounds=None):
            out = repair(kind_, y, x, w, lam_, margins, bounds)
            if bounds is not None:
                rows = ~bounds.exact
                assert np.all(bounds.ub[rows] >= np.abs(x.T @ bounds.wa)[rows])
                assert np.all(bounds.ub[rows] < lam_)
                skipped.append(int(rows.sum()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            _working_sets(mp, least)
            mp.setattr(solver, "_repair_from_margins", checking)
            lazy = solver._fit_columns(ds, weights, kind, lam, config, warm)
            mp.setattr(solver, "_multiplied_columns", lambda undecided: np.arange(d))
            dense = solver._fit_columns(ds, weights, kind, lam, config, warm)
        # no bounded check runs where every warm column certified in the polish
        assert skipped or all(isinstance(r, solver.FittedModel) and r.iterations == 1
                              for r in lazy)
        for got, want in zip(_results(lazy), _results(dense), strict=True):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_multiplies_only_undecided_groups(self):
        """The chooser takes whole aligned groups of four columns, and their
        product rounds as the full x.T @ v, from views of x."""
        rng = np.random.default_rng(8)
        x = np.asfortranarray(rng.standard_normal((300, 23)))
        v = rng.standard_normal(300)
        undecided = np.zeros(23, dtype=bool)
        undecided[[1, 9, 21]] = True
        cols = solver._multiplied_columns(undecided)
        np.testing.assert_array_equal(cols, [0, 1, 2, 3, 8, 9, 10, 11, 20, 21, 22])
        tracemalloc.start()
        try:
            got = solver._columns_times(x, cols, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x[:, :1].nbytes  # no column of x was copied
        np.testing.assert_array_equal(got, (x.T @ v)[cols])
        np.testing.assert_array_equal(solver._columns_times(x, cols[:0], v), np.empty(0))

    def test_large_fit_skips_columns(self):
        """A default fit on x over _GAP_SAFE_MIN_BYTES multiplies every column
        at its first full check, and few at its last, near the optimum."""
        n, d = 1100, 120
        ds = _random_problem(5, n, d, SQ)
        w = np.ones(n)
        widths: list = []
        multiplied: list = []
        with pytest.MonkeyPatch.context() as mp:
            _record_checks(mp, widths, multiplied)
            model = fit_weighted_erm(ds, w, SQ, 0.2 * lambda_max(ds, w, SQ))
        full = [m for m, c in zip(multiplied, widths) if c == d]
        assert full[0] == d and 2 * full[-1] < d
        _assert_certified_on_full_matrix(ds, w, SQ, model.lam, model,
                                         1e-9 * objective_scale(ds, w, SQ))


class TestTimesSupport:
    """_times_support is x @ b; on a large x with at most half the rows of b
    nonzero it multiplies only the columns under them, one block at a time."""

    N, D = 700, 200  # 1.07 MiB of x, just over _GAP_SAFE_MIN_BYTES

    def operands(self, rows, batch=None, n=N, d=D):
        rng = np.random.default_rng(len(rows))
        x = np.asfortranarray(rng.standard_normal((n, d)))
        b = np.zeros((d,) if batch is None else (d, batch))
        b[rows] = rng.standard_normal((len(rows),) + b.shape[1:])
        return x, b

    @staticmethod
    def assert_rounds_like_product(x, b, got):
        """got agrees with x @ b to 1e-13 of the sum of the products' magnitudes."""
        assert np.all(np.abs(got - x @ b) <= 1e-13 * (np.abs(x) @ np.abs(b)))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_dense_product_keeps_its_bits(self, batch):
        """Below the size threshold, or with more than half the rows nonzero,
        the result is x @ b bit for bit."""
        small_x, small_b = self.operands([2, 9], batch, n=40, d=15)
        assert small_x.nbytes < solver._GAP_SAFE_MIN_BYTES
        np.testing.assert_array_equal(_times_support(small_x, small_b), small_x @ small_b)
        x, b = self.operands(np.arange(self.D // 2 + 1), batch)
        assert x.nbytes >= solver._GAP_SAFE_MIN_BYTES
        np.testing.assert_array_equal(_times_support(x, b), x @ b)

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("block_columns", [None, 3])
    def test_support_product_matches(self, monkeypatch, batch, block_columns):
        if block_columns is not None:
            monkeypatch.setattr(uncertainty, "COLUMN_BLOCK_BYTES", block_columns * 8 * self.N)
        for rows in ([7], np.arange(1, self.D, 7), np.arange(self.D // 2)):
            x, b = self.operands(rows, batch)
            got = _times_support(x, b)
            assert got.shape == (x @ b).shape
            self.assert_rounds_like_product(x, b, got)
        if batch is not None:  # a row nonzero in only one column joins the union
            x, b = self.operands([7], batch)
            b[self.D - 1, -1] = 1.0
            self.assert_rounds_like_product(x, b, _times_support(x, b))

    @pytest.mark.parametrize("batch", [None, 2])
    def test_zero_coefficients(self, batch):
        """An all-zero b gives zeros; a -0.0 entry is skipped (an inf under it
        would make x @ b NaN), and a NaN entry reaches the output."""
        x, b = self.operands([], batch)
        got = _times_support(x, b)
        assert got.shape == (self.N,) + b.shape[1:]
        np.testing.assert_array_equal(got, 0.0)
        x, b = self.operands([4, 50], batch)
        x[:, 11] = np.inf
        b[11] = -0.0
        got = _times_support(x, b)
        assert np.all(np.isfinite(got))
        x[:, 11] = 0.0
        self.assert_rounds_like_product(x, b, got)
        if batch is None:
            b[11] = np.nan
            assert np.all(np.isnan(_times_support(x, b)))
        else:
            b[11, 1] = np.nan
            got = _times_support(x, b)
            assert np.all(np.isnan(got[:, 1])) and np.all(np.isfinite(got[:, 0]))

    @pytest.mark.parametrize("length", [D - 1, D + 1])
    def test_mismatched_length_raises(self, length):
        """A b of the wrong length fails like x @ b, not with a product over
        the columns its nonzeros happen to index."""
        x, _ = self.operands([])
        b = np.zeros(length)
        b[3] = 1.0
        with pytest.raises(ValueError):
            _times_support(x, b)
        ds = make(x, np.ones(self.N))
        with pytest.raises(ValueError):
            recover_dual(ds, np.ones(self.N), SQ, 1.0, b, 0.0)

    def test_gathers_one_block_at_a_time(self):
        """The gathered columns never take more than a block at once."""
        n, d = 1000, 200
        x, b = self.operands(np.arange(d // 2 - 1), n=n, d=d)
        assert x.nbytes >= solver._GAP_SAFE_MIN_BYTES
        assert (d // 2 - 1) * 8 * n > 2 * COLUMN_BLOCK_BYTES  # a one-shot gather would not fit
        tracemalloc.start()
        try:
            got = _times_support(x, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * COLUMN_BLOCK_BYTES + got.nbytes
        self.assert_rounds_like_product(x, b, got)


class TestFitColumns:
    """_fit_columns solves T weight vectors, polished and first checked
    together; each column must come out as a fit of its own."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([SQ, LOG]),
        batch=st.sampled_from([1, 2, 7]),
        working_set=st.booleans(),
        ratio=st.floats(0.1, 0.9),
        delta=st.floats(0.0, 0.9),
    )
    def test_columns_certify_like_single_fits(self, seed, kind, batch, working_set, ratio,
                                              delta):
        n, d = 30, 12
        ds = _random_problem(seed, n, d, kind)
        rng = np.random.default_rng(seed + 1)
        weights = rng.uniform(1.0 - delta, 1.0 + delta, size=(n, batch))
        lam = ratio * lambda_max(ds, np.ones(n), kind)
        start = fit_weighted_erm(ds, np.ones(n), kind, lam)
        warm = (start.b, start.b0)
        config = FitConfig(gap_tolerance=1e-11 * objective_scale(ds, np.ones(n), kind))
        with pytest.MonkeyPatch.context() as mp:
            if working_set:
                _working_sets(mp, 2)
            results = solver._fit_columns(ds, weights, kind, lam, config, warm)
            alone = [fit_weighted_erm(ds, weights[:, k], kind, lam, config, warm_start=warm)
                     for k in range(batch)]
            if batch == 1:
                # the one-vector fit is the one-column batch, bit for bit
                for part in ("b", "b0", "alpha", "gap", "iterations"):
                    np.testing.assert_array_equal(getattr(results[0], part),
                                                  getattr(alone[0], part))
            # a column of a wider batch sums in another order than duality_gap
            rounding = 1e-13 * objective_scale(ds, np.ones(n), kind)
            for k, (model, single) in enumerate(zip(results, alone)):
                assert isinstance(model, solver.FittedModel)
                _assert_certified_on_full_matrix(ds, weights[:, k], kind, lam, model,
                                                 config.gap_tolerance, rounding)
                np.testing.assert_array_equal(model.support, single.support)
                np.testing.assert_allclose(model.b, single.b, atol=1e-6)

            # a budget that only the fastest columns meet: exactly the others
            # come back inconclusive, each carrying a full-matrix certificate
            iterations = [model.iterations for model in results]
            # a warm-started fit checks at 1, 1 + _CHECK_EVERY, ..., and every
            # column certified at one of them, so its count is a check iteration
            cap = min(iterations)
            assert all((it - 1) % solver._CHECK_EVERY == 0 for it in iterations)
            if cap < max(iterations):
                budget = FitConfig(gap_tolerance=config.gap_tolerance, max_iterations=cap)
                short = solver._fit_columns(ds, weights, kind, lam, budget, warm)
                for k, (result, full) in enumerate(zip(short, results)):
                    failed = isinstance(result, ConvergenceError)
                    assert failed == (full.iterations > cap)
                    if failed:
                        assert result.model.iterations == cap
                        _assert_certified_on_full_matrix(ds, weights[:, k], kind, lam,
                                                         result.model, None, rounding)
                    else:  # the same run up to the cap
                        np.testing.assert_array_equal(result.b, full.b)
                        assert result.iterations == full.iterations

    @pytest.mark.parametrize("kind", [SQ, LOG])
    @pytest.mark.parametrize("n,d", [(30, 12), (1100, 120)])
    def test_uncertified_columns_ignore_their_batch(self, monkeypatch, kind, n, d):
        """With the polish patched out, each of T = 3 warm columns runs its
        loop as a fit of that column alone does, bit for bit, on x below and
        above _GAP_SAFE_MIN_BYTES."""
        ds = _random_problem(7, n, d, kind)
        assert (ds.x.nbytes >= solver._GAP_SAFE_MIN_BYTES) == (n > 1000)
        ones = np.ones(n)
        lam = 0.2 * lambda_max(ds, ones, kind)
        start = fit_weighted_erm(ds, ones, kind, lam)
        warm = (start.b, start.b0)
        weights = np.random.default_rng(8).uniform(0.7, 1.3, size=(n, 3))
        without_polish(monkeypatch)
        for k, model in enumerate(solver._fit_columns(ds, weights, kind, lam, None, warm)):
            alone = fit_weighted_erm(ds, weights[:, k], kind, lam, warm_start=warm)
            assert model.iterations > 1  # past the loop's first check
            for part in ("b", "b0", "alpha", "gap", "iterations"):
                np.testing.assert_array_equal(getattr(model, part), getattr(alone, part))

    def test_fit_weighted_erm_takes_weight_columns(self, reg40):
        """Weights (n, T) give _fit_columns' results as a ColumnFits that holds,
        not raises, a column's ConvergenceError and reports the most
        iterations any column ran."""
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.5, 1.5, size=(reg40.n, 3))
        lam = 0.2 * lambda_max(reg40, np.ones(reg40.n), SQ)
        fits = fit_weighted_erm(reg40, weights, SQ, lam)
        assert isinstance(fits, solver.ColumnFits)
        for got, want in zip(fits, solver._fit_columns(reg40, weights, SQ, lam), strict=True):
            np.testing.assert_array_equal(got.b, want.b)
        assert fits.iterations == max(model.iterations for model in fits)
        short = fit_weighted_erm(reg40, weights, SQ, lam, FitConfig(max_iterations=1))
        assert all(isinstance(result, ConvergenceError) for result in short)
        assert short.iterations == 1
        for bad in (np.ones((reg40.n + 1, 2)), np.ones((reg40.n, 0)), -np.ones((reg40.n, 2)),
                    np.ones((reg40.n, 2, 1))):
            with pytest.raises(ValueError, match="weights"):
                fit_weighted_erm(reg40, bad, SQ, lam)
        # the batched form is fit_weighted_erm's alone: a square matrix, which
        # numpy would broadcast against the labels, is no weight vector
        for fn in (lambda_max, objective_scale):
            with pytest.raises(ValueError, match="weights"):
                fn(reg40, np.ones((reg40.n, reg40.n)), SQ)

    def test_rejects_bad_warm_start(self, reg40):
        with pytest.raises(ValueError, match="warm start"):
            solver._fit_columns(reg40, np.ones((reg40.n, 2)), SQ, 1.0, None,
                                (np.zeros(reg40.d + 1), 0.0))


class TestStepSearchGiveUp:
    """A column whose step search fails comes back as a ConvergenceError
    carrying its best iterate; the other columns go on as fits of their own."""

    @staticmethod
    def _nan_loss_in_column(monkeypatch, column: int, after: int) -> None:
        """Make _loss NaN in the fit of weight column `column`, which
        _fit_column runs alone, from that fit's call `after` + 1 on."""
        loss, fit_column = solver._loss, solver._fit_column
        fits = itertools.count()
        calls = None  # counts the _loss calls of the patched column's fit

        def fitting(*args):
            nonlocal calls
            calls = itertools.count(1) if next(fits) == column else None
            return fit_column(*args)

        def patched(kind, y, t):
            out = loss(kind, y, t)
            if calls is not None and next(calls) > after:
                out[:] = np.nan
            return out

        monkeypatch.setattr(solver, "_fit_column", fitting)
        monkeypatch.setattr(solver, "_loss", patched)

    @pytest.mark.parametrize("kind,fixture", [(SQ, "reg40"), (LOG, "clf40")])
    def test_failed_column_leaves_the_batch(self, monkeypatch, kind, fixture, request):
        ds = request.getfixturevalue(fixture)
        weights = np.random.default_rng(4).uniform(0.8, 1.2, size=(ds.n, 2))
        lam = 0.3 * lambda_max(ds, np.ones(ds.n), kind)
        alone = fit_weighted_erm(ds, weights[:, 0], kind, lam)
        # the start objective stays finite; the NaN reaches column 1 in the
        # step search of iteration 0
        self._nan_loss_in_column(monkeypatch, 1, 1)
        first, second = solver._fit_columns(ds, weights, kind, lam)
        assert isinstance(first, solver.FittedModel)
        gap_tol = 1e-9 * objective_scale(ds, weights[:, 0], kind)
        # a strided weights[:, 0] sums in another order than the fit's copy
        _assert_certified_on_full_matrix(ds, weights[:, 0], kind, lam, first, gap_tol,
                                         1e-13 * objective_scale(ds, weights[:, 0], kind))
        np.testing.assert_array_equal(first.support, alone.support)
        # a cold batch fits each column alone, bit for bit
        np.testing.assert_array_equal(first.b, alone.b)
        assert isinstance(second, ConvergenceError)
        assert str(second) == "backtracking failed to find a valid step"
        # given up in iteration 0, carrying the check of the cold start
        model = second.model
        assert model.iterations == 0
        assert np.all(model.b == 0.0)
        np.testing.assert_array_equal(model.weights, weights[:, 1])
        # the fit's contiguous copy: a strided weights[:, 1] rounds its dot
        # products in another order
        _assert_certified_on_full_matrix(ds, model.weights, kind, lam, model, None)

    def test_one_column_fit_raises(self, monkeypatch, reg40):
        lam = 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ)
        self._nan_loss_in_column(monkeypatch, 0, 1)
        with pytest.raises(ConvergenceError, match="backtracking failed") as excinfo:
            fit_weighted_erm(reg40, np.ones(reg40.n), SQ, lam)
        model = excinfo.value.model
        assert model.iterations == 0
        assert math.isfinite(model.gap)
        _assert_certified_on_full_matrix(reg40, np.ones(reg40.n), SQ, lam, model, None)

@pytest.mark.parametrize("n,d", [(40, 15), (700, 150)])
def test_column_square_sums(n, d):
    """One column block reproduces (x*x).T @ w bit for bit, for a weight vector
    and for weight columns (n, T); several agree to rounding."""
    x = np.asfortranarray(np.random.default_rng(n).standard_normal((n, d)))
    w = np.random.default_rng(d).uniform(0.5, 1.5, size=n)
    columns = np.stack([w, w * w], axis=1)
    sums, column_sums = _column_square_sums(x, w), _column_square_sums(x, columns)
    if x.nbytes <= COLUMN_BLOCK_BYTES:
        np.testing.assert_array_equal(sums, (x * x).T @ w)
        np.testing.assert_array_equal(column_sums, (x * x).T @ columns)
    np.testing.assert_allclose(sums, (x * x).T @ w, rtol=1e-13)
    np.testing.assert_allclose(column_sums, (x * x).T @ columns, rtol=1e-13)


def test_unit_weight_fit_reads_cached_square_sums(monkeypatch):
    """A fit at unit weights takes sum_i x_ij^2 from the dataset, computed
    once and bit-equal to _column_square_sums; so does each column of a cold
    batch of ones, which is fit alone.  Any other fit computes its own sums,
    and a warm batch that certifies in its support polish none."""
    calls = []

    def counting(x, w):
        calls.append(w.shape)
        return _column_square_sums(x, w)

    monkeypatch.setattr(solver, "_column_square_sums", counting)
    monkeypatch.setattr(data, "_column_square_sums", counting)
    ds = _random_problem(6, 30, 8, SQ)
    w = np.ones(ds.n)
    lam = 0.3 * lambda_max(ds, w, SQ)
    first = fit_weighted_erm(ds, w, SQ, lam)
    assert calls == [(ds.n,)]
    np.testing.assert_array_equal(ds._x_sq_sums, _column_square_sums(ds.x, np.ones(ds.n)))
    again = fit_weighted_erm(ds, w, SQ, lam)
    assert len(calls) == 1
    np.testing.assert_array_equal(again.b, first.b)
    other = _random_problem(6, 30, 8, SQ)
    fit_weighted_erm(other, np.linspace(0.5, 1.5, other.n), SQ, lam)
    assert calls[1:] == [(other.n,)]
    assert "_x_sq_sums" not in vars(other)
    fit_weighted_erm(other, np.ones((other.n, 2)), SQ, lam)
    assert calls[2:] == [(other.n,)]  # the cache, once for both columns
    np.testing.assert_array_equal(other._x_sq_sums,
                                  _column_square_sums(other.x, np.ones(other.n)))
    warm = fit_weighted_erm(other, np.ones((other.n, 2)), SQ, lam, warm_start=(first.b, first.b0))
    assert [model.iterations for model in warm] == [1, 1]
    assert len(calls) == 3


def _polish_problem(seed: int, n: int, d: int, kind: LossKind) -> Dataset:
    """_random_problem for any d >= 1: the labels read the first min(3, d)
    features."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    signal = x[:, :3] @ np.array([2.0, -1.5, 1.0])[:min(3, d)]
    if kind is SQ:
        return make(x, signal + 0.3 * rng.standard_normal(n))
    y = np.where(signal + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    return make(x, y, Task.BINARY)


class TestSupportPolish:
    """A warm-started fit starts at the optimum on its warm start's sign
    pattern, or on a corrected one, and ends where the same fit without the
    polish ends."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([SQ, LOG]),
        n=st.integers(4, 40),
        d=st.integers(1, 30),
        batch=st.integers(1, 7),
        ratio=st.floats(0.05, 0.9),
        delta=st.floats(0.0, 0.9),
        far_start=st.booleans(),
    )
    def test_polished_fit_ends_where_the_unpolished_one_does(self, seed, kind, n, d, batch,
                                                             ratio, delta, far_start):
        """From the w = 1 fit, or from a far-off start with every feature
        active (|S| + 1 > n whenever d >= n).  The tolerance is 1e-13 of the
        scale: at the verifier's 1e-11 a certified 4x1 logistic fit may sit
        1.4e-6 from the optimum.  A squared fit with d >= n may stall short
        of it with or without the polish, in the step search's known stall
        near the optimum (at 500 examples a 20x20 draw stalled on both
        paths from the same far-off start); wherever the unpolished fit
        certifies, the polished one must too."""
        ds = _polish_problem(seed, n, d, kind)
        rng = np.random.default_rng(seed + 1)
        weights = rng.uniform(1.0 - delta, 1.0 + delta, size=(n, batch))
        ones = np.ones(n)
        lam = ratio * lambda_max(ds, ones, kind)
        if far_start:
            warm = (3.0 * rng.standard_normal(d), 1.0)
        else:
            try:
                start = fit_weighted_erm(ds, ones, kind, lam, FitConfig(max_iterations=20_000))
            except ConvergenceError as exc:  # the d > n squared stall: a start all the same
                start = exc.model
            warm = (start.b, start.b0)
        config = FitConfig(gap_tolerance=1e-13 * objective_scale(ds, ones, kind),
                           max_iterations=20_000)
        starts = []
        polish = solver._support_polish

        def recording(problem, b, b0):
            fits, b_polished, b0_polished = polish(problem, b, b0)
            # the polished start: a certified column's model, or where
            # _fit_column starts
            starts.append((b, b0, [(b_polished[:, k], b0_polished[k]) if fit is None
                                   else (fit.b, fit.b0) for k, fit in enumerate(fits)]))
            return fits, b_polished, b0_polished

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_support_polish", recording)
            polished = solver._fit_columns(ds, weights, kind, lam, config, warm)
            without_polish(mp)
            raw = solver._fit_columns(ds, weights, kind, lam, config, warm)
        ((b, b0, polished_starts),) = starts
        # a column of a wider batch sums in another order than duality_gap
        rounding = 1e-13 * objective_scale(ds, ones, kind)
        for k, (b_polished, b0_polished) in enumerate(polished_starts):
            before = primal_objective(ds, weights[:, k], kind, lam, b[:, k], b0[k])
            after = primal_objective(ds, weights[:, k], kind, lam, b_polished, b0_polished)
            # the polish compares objectives it sums in its own order
            assert after <= before + 1e-14 * abs(before)
            if isinstance(raw[k], ConvergenceError):
                # the squared stall at d >= n, which the polish may leave behind
                assert kind is SQ and d >= n
                continue
            for model in (polished[k], raw[k]):
                assert isinstance(model, solver.FittedModel)
                _assert_certified_on_full_matrix(ds, weights[:, k], kind, lam, model,
                                                 config.gap_tolerance, rounding)
            np.testing.assert_array_equal(polished[k].support, raw[k].support)
            # relative too: a nearly separable 4-row logistic fit has b near 13
            # and so little curvature that certified fits differ by 4e-6
            np.testing.assert_allclose(polished[k].b, raw[k].b, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind,fixture,ratio,v,rounds", [
        (SQ, "reg40", 0.3, 1.0, 1),
        (LOG, "clf40", 0.3, 1.0, 2),  # a feature enters at one of the draws
        (LOG, "clf40", 0.1, 3.0, 2),  # two corrected patterns in round 2
    ])
    def test_certified_batch_checks_once_per_pattern(self, monkeypatch, request, kind, fixture,
                                                     ratio, v, rounds):
        """The acceptance gate's problems at four corner draws, all certified
        in the polish: each pattern round's Newton solves are followed by one
        gap check, and no intercept Newton, square sums or correlation bounds
        are computed."""
        ds = request.getfixturevalue(fixture)
        lam, model, box, _, _ = screen_setup(ds, kind, ratio, v)
        rng = np.random.default_rng(99)
        draws = np.stack([sample_feasible(box, rng, "corner") for _ in range(4)], axis=1)
        events = []

        def logged(event, fn):
            def logging(*args):
                events.append(event)
                return fn(*args)
            return logging

        def unused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(solver, "_pattern_newton", logged("N", solver._pattern_newton))
        monkeypatch.setattr(solver, "_repair_from_margins",
                            logged("R", solver._repair_from_margins))
        for name in ("_intercept_logistic", "_column_square_sums", "_CorrelationBounds"):
            monkeypatch.setattr(solver, name, unused)
        config = FitConfig(gap_tolerance=1e-11 * objective_scale(ds, np.ones(ds.n), kind))
        fits = fit_weighted_erm(ds, draws, kind, lam, config, (model.b, model.b0))
        assert all(isinstance(fit, solver.FittedModel) and fit.iterations == 1 for fit in fits)
        assert re.fullmatch("(N+R)+", "".join(events))
        assert events.count("R") == rounds

    @pytest.mark.parametrize("kind", [SQ, LOG])
    def test_check_on_large_input_equals_a_bounded_one(self, monkeypatch, kind):
        """On x over _GAP_SAFE_MIN_BYTES, each column of the polish's dense
        check, checked alone with fresh correlation bounds (which multiply
        every column), gives bit for bit the dual point, correlations and
        shrink of its dense one-vector check; the batched products of the
        polish agree with both to rounding."""
        n, d = 1100, 120
        ds = _random_problem(5, n, d, kind)
        assert ds.x.nbytes >= solver._GAP_SAFE_MIN_BYTES
        ones = np.ones(n)
        lam = 0.2 * lambda_max(ds, ones, kind)
        start = fit_weighted_erm(ds, ones, kind, lam)
        weights = np.random.default_rng(6).uniform(0.8, 1.2, size=(n, 3))
        repair, compared = solver._repair_from_margins, []

        def comparing(kind_, y, x, w, lam_, margins, bounds=None):
            out = repair(kind_, y, x, w, lam_, margins, bounds)
            if bounds is None and x.shape == ds.x.shape:  # the polish's check
                for k in range(w.shape[1]):
                    w_k = np.ascontiguousarray(w[:, k])
                    column = (kind_, y[:, k], x, w_k, lam_, margins[:, k])
                    norms = np.sqrt(_column_square_sums(x, w_k))
                    bounded = repair(*column, solver._CorrelationBounds(x, norms))
                    for got, dense, want in zip(out, repair(*column), bounded, strict=True):
                        np.testing.assert_array_equal(dense, want)
                        np.testing.assert_allclose(got[..., k], want, rtol=1e-12, atol=1e-12)
                compared.append(w.shape[1])
            return out

        monkeypatch.setattr(solver, "_repair_from_margins", comparing)
        solver._fit_columns(ds, weights, kind, lam, None, (start.b, start.b0))
        assert compared and compared[0] == 3

    @pytest.mark.parametrize("feature_scale,label_scale,warm_scale,ratio,certifies", [
        (1e159, 1.0, 0.0, 2.0, True),  # the intercept-only optimum, whose check is finite
        (1e159, 1.0, 0.0, 0.5, False),
        (1e159, 1.0, 1.0, 0.5, False),
        (1.0, 1e200, 1.0, 0.5, False),
    ])
    def test_overflowing_warm_batch_certifies_or_raises(self, feature_scale, label_scale,
                                                        warm_scale, ratio, certifies):
        """Features or labels whose squares pass the float range, as in the
        CLI's overflow test: a warm-started batch either certifies each column
        at a finite gap in the polish or raises the fit's overflow error,
        without a numpy warning or a NaN on the way."""
        rng = np.random.default_rng(0)
        ds = make(rng.uniform(-1, 1, (20, 3)) * feature_scale,
                  rng.standard_normal(20) * label_scale)
        lam = ratio * lambda_max(ds, np.ones(ds.n), SQ)
        weights = rng.uniform(0.5, 1.5, size=(ds.n, 4))
        warm = (warm_scale * rng.standard_normal(3) / feature_scale, label_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not certifies:
                with pytest.raises(ValueError, match="^the fit overflows: "):
                    fit_weighted_erm(ds, weights, SQ, lam, warm_start=warm)
                return
            fits = fit_weighted_erm(ds, weights, SQ, lam, warm_start=warm)
        for fit in fits:
            assert isinstance(fit, solver.FittedModel) and fit.iterations == 1
            assert math.isfinite(fit.gap)
