import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drfs import (
    DomainError,
    LossKind,
    conjugate_neg,
    dual_from_margin,
    loss_derivative,
    loss_value,
    nu_constant,
)
from drfs.losses import feasibility_q

SQ = LossKind.SQUARED
LOG = LossKind.LOGISTIC


class TestValues:
    def test_squared(self):
        assert loss_value(SQ, 1.0, 0.0) == 1.0
        assert loss_value(SQ, 2.0, 5.0) == 9.0

    def test_logistic_at_zero(self):
        assert loss_value(LOG, 1.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_logistic_rejects_bad_label(self):
        with pytest.raises(ValueError):
            loss_value(LOG, 0.5, 0.0)
        with pytest.raises(ValueError):
            loss_derivative(LOG, 2.0, 0.0)

    def test_vectorized_matches_scalar(self):
        y = np.array([1.0, -1.0, 1.0])
        t = np.array([0.3, -0.2, 1.5])
        for kind in (SQ, LOG):
            vec = loss_value(kind, y, t)
            assert vec == pytest.approx([loss_value(kind, yi, ti) for yi, ti in zip(y, t)])

    def test_overflow_free(self):
        assert np.isfinite(loss_value(LOG, 1.0, -1e4))
        assert np.isfinite(loss_derivative(LOG, -1.0, 1e4))


class TestDerivatives:
    def test_squared(self):
        assert loss_derivative(SQ, 1.0, 0.5) == pytest.approx(-1.0)

    def test_logistic(self):
        assert loss_derivative(LOG, 1.0, 0.0) == pytest.approx(-0.5)
        assert loss_derivative(LOG, -1.0, 0.0) == pytest.approx(0.5)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for kind in (SQ, LOG):
            y = rng.choice([-1.0, 1.0], size=200)
            t = rng.uniform(-3, 3, size=200)
            h = 1e-6
            numeric = (loss_value(kind, y, t + h) - loss_value(kind, y, t - h)) / (2 * h)
            np.testing.assert_allclose(loss_derivative(kind, y, t), numeric, atol=1e-6)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(1)
        for kind in (SQ, LOG):
            nu = nu_constant(kind)
            y = rng.choice([-1.0, 1.0], size=1000)
            t1 = rng.uniform(-10, 10, size=1000)
            t2 = rng.uniform(-10, 10, size=1000)
            lhs = np.abs(loss_derivative(kind, y, t1) - loss_derivative(kind, y, t2))
            assert np.all(lhs <= nu * np.abs(t1 - t2) + 1e-12)


class TestConjugate:
    def test_squared_value(self):
        assert conjugate_neg(SQ, 1.0, 2.0) == pytest.approx(-1.0)

    def test_logistic_interior(self):
        assert conjugate_neg(LOG, 1.0, 0.5) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_logistic_endpoints_are_zero(self):
        assert conjugate_neg(LOG, 1.0, 1.0) == 0.0
        assert conjugate_neg(LOG, 1.0, 0.0) == 0.0
        assert conjugate_neg(LOG, -1.0, -1.0) == 0.0

    def test_logistic_kernel_at_endpoints_and_subnormals(self):
        """The guarded logs give exactly 0 at p = 0 and p = 1 (the clip in
        duality._into_domain lands there) and warn nowhere."""
        tiny = sys.float_info.min
        p = np.array([0.0, 1.0, 5e-324, tiny / 2, tiny, 0.5, 1.0, 0.0])
        y = np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = conjugate_neg(LOG, y, y * p)
        assert values[[0, 1, 6, 7]].tolist() == [0.0, 0.0, 0.0, 0.0]
        # numpy's log and libm's may differ in the last bit; a subnormal
        # product may then round one step of 5e-324 apart
        expected = [v * math.log(v) for v in p[2:5]] + [math.log(0.5)]
        assert values[2:6] == pytest.approx(expected, rel=4 * sys.float_info.epsilon, abs=5e-324)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.0, 1.0), y=st.sampled_from([-1.0, 1.0]))
    def test_logistic_kernel_matches_math_log(self, p, y):
        q = 1.0 - p
        terms = [t * math.log(t) if t > 0.0 else 0.0 for t in (p, q)]
        value = conjugate_neg(LOG, np.array([y]), np.array([y * p]))[0]
        assert abs(value - sum(terms)) <= 4 * sys.float_info.epsilon * sum(map(abs, terms))

    def test_logistic_domain_error(self):
        with pytest.raises(DomainError):
            conjugate_neg(LOG, 1.0, 1.5)
        with pytest.raises(DomainError):
            conjugate_neg(LOG, 1.0, -0.1)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        for kind in (SQ, LOG):
            for _ in range(300):
                y = float(rng.choice([-1.0, 1.0]))
                if kind is SQ:
                    a, b = rng.uniform(-5, 5, size=2)
                else:
                    a, b = y * rng.uniform(0, 1, size=2)
                mid = conjugate_neg(kind, y, 0.5 * (a + b))
                avg = 0.5 * (conjugate_neg(kind, y, a) + conjugate_neg(kind, y, b))
                assert mid <= avg + 1e-12


class TestFenchelYoung:
    def test_equality_at_matched_dual(self):
        """value + conjugate at the margin-matched dual + alpha*t vanishes."""
        rng = np.random.default_rng(3)
        for kind in (SQ, LOG):
            if kind is SQ:
                y = rng.uniform(-3, 3, size=1000)
            else:
                y = rng.choice([-1.0, 1.0], size=1000)
            t = rng.uniform(-5, 5, size=1000)
            alpha = dual_from_margin(kind, y, t)
            residual = loss_value(kind, y, t) + conjugate_neg(kind, y, alpha) + alpha * t
            assert np.max(np.abs(residual)) <= 1e-10


class TestDualFromMargin:
    def test_values(self):
        assert dual_from_margin(SQ, 1.0, 0.5) == pytest.approx(1.0)
        assert dual_from_margin(LOG, 1.0, 0.0) == pytest.approx(0.5)
        assert dual_from_margin(SQ, 0.0, 0.0) == 0.0

    def test_logistic_stays_strictly_inside(self):
        rng = np.random.default_rng(4)
        y = rng.choice([-1.0, 1.0], size=1000)
        t = rng.uniform(-30, 30, size=1000)
        p = y * dual_from_margin(LOG, y, t)
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)

    def test_is_negated_derivative(self):
        rng = np.random.default_rng(5)
        y = rng.choice([-1.0, 1.0], size=100)
        t = rng.uniform(-4, 4, size=100)
        for kind in (SQ, LOG):
            np.testing.assert_allclose(
                dual_from_margin(kind, y, t), -loss_derivative(kind, y, t), atol=0
            )


class TestConstants:
    def test_nu(self):
        assert nu_constant(SQ) == 2.0
        assert nu_constant(LOG) == 0.25

    def test_feasibility_q(self):
        assert feasibility_q(SQ, 0.3) == 1.0
        assert feasibility_q(LOG, 0.3) == pytest.approx(0.7)
        assert feasibility_q(LOG, 0.0) == 1.0
        with pytest.raises(ValueError):
            feasibility_q(SQ, 1.0)
        with pytest.raises(ValueError):
            feasibility_q(LOG, -0.1)
