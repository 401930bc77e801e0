import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drfs import (
    ConvergenceError,
    Dataset,
    FitConfig,
    LossKind,
    Task,
    WeightBox,
    build_reference,
    conjugate_neg,
    delta_from_v,
    dg_radius,
    dual_objective,
    duality_gap,
    fit_weighted_erm,
    lambda_max,
    primal_objective,
    screen,
    sample_feasible,
    ub_for_weight,
    max_linear,
    nu_constant,
    standardize,
    synth,
)
from conftest import screen_setup, uniform_fit
from drfs import duality
from drfs.duality import rho_vector
from drfs.solver import objective_scale
from drfs.uncertainty import enumerate_corners, worst_case_weights

SQ = LossKind.SQUARED
LOG = LossKind.LOGISTIC


class TestDgRadius:
    def test_values(self):
        assert dg_radius(0.0, 2.0, 0.3) == 0.0
        assert dg_radius(2.0, 2.0, 0.0) == pytest.approx(math.sqrt(8.0))
        assert dg_radius(1.0, 0.25, 0.5) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dg_radius(-1.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            dg_radius(1.0, 2.0, 1.0)


class TestBuildReference:
    def test_q_squared(self, reg40):
        _, _, _, ref, _ = screen_setup(reg40, SQ, 0.3, 1.0)
        assert ref.q == 1.0

    def test_q_logistic(self, clf40):
        lam = 0.3 * lambda_max(clf40, np.ones(clf40.n), LOG)
        model = uniform_fit(clf40, LOG, lam)
        ref = build_reference(clf40, model, WeightBox(clf40.n, 0.2))
        assert ref.q == pytest.approx(0.8)

    def test_q_no_shift(self, clf40):
        lam = 0.3 * lambda_max(clf40, np.ones(clf40.n), LOG)
        model = uniform_fit(clf40, LOG, lam)
        ref = build_reference(clf40, model, WeightBox(clf40.n, 0.0))
        assert ref.q == 1.0

    def test_rejects_non_uniform_weights(self, reg40):
        w = np.ones(reg40.n)
        w[0] = 2.0
        lam = 0.3 * lambda_max(reg40, w, SQ)
        model = fit_weighted_erm(reg40, w, SQ, lam)
        with pytest.raises(ValueError, match="uniform"):
            build_reference(reg40, model, WeightBox(reg40.n, 0.1))

    def test_rejects_model_of_more_instances(self, reg40):
        """A dataset with fewer rows than the model's fit is named by shape,
        not as a weight problem."""
        model = uniform_fit(reg40, SQ, 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ))
        fewer = Dataset(x=reg40.x[:30], y=reg40.y[:30], task=reg40.task)
        with pytest.raises(ValueError, match="^reference model was fit on 40x15 data, "
                                             "dataset is 30x15$"):
            build_reference(fewer, model, WeightBox(fewer.n, 0.1))

    def test_rejects_model_of_more_features(self, reg40):
        """A dataset with fewer features than the model's fit is refused
        before any product with its x."""
        model = uniform_fit(reg40, SQ, 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ))
        narrower = Dataset(x=reg40.x[:, :10], y=reg40.y, task=reg40.task)
        with pytest.raises(ValueError, match="^reference model was fit on 40x15 data, "
                                             "dataset is 40x10$"):
            build_reference(narrower, model, WeightBox(reg40.n, 0.1))

    @pytest.mark.parametrize("n,d", [(40, 15), (1100, 120)])
    def test_replaced_dual_point_screens_as_a_fresh_product(self, n, d):
        """The correlations a fit keeps are read only for its own dual point:
        a model built by dataclasses.replace, one whose alpha was assigned
        (here one _into_domain clips) and the best iterate of a
        ConvergenceError each get x.T @ alpha_star itself, bit for bit, on
        both sides of the solver's 1 MiB threshold."""
        dataset = standardize(synth(Task.BINARY, n, d, 3, 0.5, 5)[0])[0]
        w = np.ones(n)
        lam = 0.1 * lambda_max(dataset, w, LOG)
        model = fit_weighted_erm(dataset, w, LOG, lam)
        box = WeightBox(n, delta_from_v(0.1, n))
        halved = dataclasses.replace(model, alpha=0.5 * model.alpha)
        same = dataclasses.replace(model, alpha=model.alpha)
        clipped = dataclasses.replace(model)
        clipped._correlations = model._correlations
        clipped.alpha = model.alpha.copy()
        top = int(np.argmax(dataset.y * model.alpha))
        clipped.alpha[top] = dataset.y[top] * (1.0 + 1e-12)
        with pytest.raises(ConvergenceError) as failed:
            fit_weighted_erm(dataset, w, LOG, lam, FitConfig(max_iterations=1))
        for other in (halved, same, clipped, failed.value.model):
            ref = build_reference(dataset, other, box)
            np.testing.assert_array_equal(ref.correlations, np.abs(dataset.x.T @ ref.alpha_star))
            fresh = dataclasses.replace(ref, correlations=np.abs(dataset.x.T @ ref.alpha_star))
            np.testing.assert_array_equal(screen(dataset, ref, box).bounds,
                                          screen(dataset, fresh, box).bounds)
        assert clipped.alpha[top] != build_reference(dataset, clipped, box).alpha_star[top]


class TestReferenceCorrelations:
    """screen's correlation term reads the correlations the reference fit's
    certifying check computed, completed once per model by build_reference."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from([SQ, LOG]),
           large=st.booleans(), n=st.integers(4, 40), d=st.integers(1, 12),
           wide=st.integers(120, 130), ratio=st.floats(0.05, 1.0), delta=st.floats(0.0, 0.9))
    def test_first_term_matches_a_fresh_product(self, seed, kind, large, n, d, wide, ratio,
                                                delta):
        """On both sides of the solver's 1 MiB threshold (n x d, or 1100 x
        wide), q |x_j.T alpha*| is within 1e-13 of itself computed afresh,
        relative, past the rounding of the two products where a correlation
        cancels: the fit multiplied alpha* before the shrink that made it
        alpha*, so each product rounds by up to (n + 2) eps
        sum_i |x_ij alpha*_i| (Higham, ch. 3)."""
        n, d = (1100, wide) if large else (n, d)
        dataset, _, _, _, ref, report = _drawn_screen(seed, kind, n, d, ratio, delta)
        assert (dataset.x.nbytes >= duality._GAP_SAFE_MIN_BYTES) == large
        fresh = ref.q * np.abs(dataset.x.T @ ref.alpha_star)
        first = ref.q * ref.correlations
        rounding = 2 * (n + 2) * np.finfo(float).eps * ref.q * (np.abs(dataset.x).T
                                                                @ np.abs(ref.alpha_star))
        assert np.all(np.abs(first - fresh) <= 1e-13 * fresh + rounding)
        assert np.all(report.bounds >= first)


class TestRhoVector:
    def test_no_shift_is_fenchel_young_product(self, reg40):
        """At delta=0 and a tight optimum, rho collapses to -alpha * margin."""
        lam = 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ)
        model = uniform_fit(reg40, SQ, lam, gap_tolerance=1e-12)
        ref = build_reference(reg40, model, WeightBox(reg40.n, 0.0))
        margins = reg40.x @ model.b + model.b0
        np.testing.assert_allclose(rho_vector(ref), -model.alpha * margins, atol=1e-9)

    def test_zero_dual_instance(self, reg40):
        _, model, _, ref, _ = screen_setup(reg40, SQ, 0.3, 0.5)
        idx = 3
        alpha = ref.alpha_star.copy()
        alpha[idx] = 0.0
        import dataclasses

        ref2 = dataclasses.replace(ref, alpha_star=alpha)
        rho = rho_vector(ref2)
        # conjugate of either loss vanishes at alpha = 0
        assert rho[idx] == pytest.approx(ref.losses_at_optimum[idx], abs=1e-14)

    @pytest.mark.parametrize("fixture,kind", [("reg40", SQ), ("clf40", LOG)])
    def test_dominates_interior_reweightings(self, fixture, kind, request):
        """rho_i bounds loss_i + conj(-q alpha_i / w) for every w in range."""
        ds = request.getfixturevalue(fixture)
        from drfs import conjugate_neg

        _, model, box, ref, _ = screen_setup(ds, kind, 0.2, 1.0)
        rho = rho_vector(ref)
        for w in np.linspace(1 - box.delta, 1 + box.delta, 100):
            vals = ref.losses_at_optimum + np.asarray(
                conjugate_neg(kind, ds.y, ref.q * ref.alpha_star / w)
            )
            assert np.all(rho >= vals - 1e-12)


def _hand_bound(ds, model, delta, lam, j, euclidean=False):
    """Sorted-pairing bound recomputed from scratch for the squared loss: the
    weighted gap ball sqrt(max sum_i w_i x_ij^2 * 2 nu gbar), or with
    euclidean the older ball sqrt(max sum_i w_i^2 x_ij^2 * 2 nu gbar / (1 - delta))."""
    y, x = ds.y, ds.x
    alpha = model.alpha
    margins = x @ model.b + model.b0
    losses = (margins - y) ** 2

    def conj(c):
        return (c * alpha) ** 2 / 4.0 - y * (c * alpha)

    rho = losses + np.maximum(conj(1.0 / (1 + delta)), conj(1.0 / (1 - delta)))
    half = ds.n // 2
    w_sharp = np.concatenate([
        np.full(half, 1 - delta),
        np.ones(ds.n % 2),
        np.full(half, 1 + delta),
    ])
    gbar = max(0.0, float(np.sort(rho) @ w_sharp) + lam * float(np.sum(np.abs(model.b))))
    first = abs(float(alpha @ x[:, j]))
    if euclidean:
        nmax2 = float(np.sort(x[:, j] ** 2) @ w_sharp**2)
        return first + math.sqrt(nmax2 * (2.0 * 2.0 / (1 - delta)) * gbar)
    nmax = float(np.sort(x[:, j] ** 2) @ w_sharp)
    return first + math.sqrt(nmax * (2.0 * 2.0) * gbar)


class TestUpperBounds:
    def test_tight_gap_no_shift_collapses_to_correlation(self, reg40):
        lam = 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ)
        model = uniform_fit(reg40, SQ, lam, gap_tolerance=1e-13)
        box = WeightBox(reg40.n, 0.0)
        ref = build_reference(reg40, model, box)
        first = np.abs(reg40.x.T @ model.alpha)
        for j in range(reg40.d):
            assert screen(reg40, ref, box).bounds[j] == pytest.approx(first[j], abs=1e-5)

    def test_zero_column_always_removed(self):
        ds = Dataset(x=np.array([[1.0, 0.0], [-1.0, 0.0]]), y=np.array([1.0, -1.0]),
                     task=Task.REGRESSION)
        model = fit_weighted_erm(ds, np.ones(2), SQ, 1.0)
        box = WeightBox(2, 0.4)
        ref = build_reference(ds, model, box)
        report = screen(ds, ref, box)
        assert screen(ds, ref, box).bounds[1] == 0.0
        assert report.removed[1]

    def test_matches_hand_formula(self, toy_1d):
        lam = 0.1
        model = uniform_fit(toy_1d, SQ, lam)
        delta = 0.5
        box = WeightBox(2, delta)
        ref = build_reference(toy_1d, model, box)
        bound = screen(toy_1d, ref, box).bounds[0]
        assert bound == pytest.approx(_hand_bound(toy_1d, model, delta, lam, 0), rel=1e-12)
        assert bound < _hand_bound(toy_1d, model, delta, lam, 0, euclidean=True)

    def test_hand_formula_on_wider_problem(self, reg40):
        lam, model, box, ref, _ = screen_setup(reg40, SQ, 0.2, 1.0)
        for j in (0, 7, 14):
            bound = screen(reg40, ref, box).bounds[j]
            assert bound == pytest.approx(_hand_bound(reg40, model, box.delta, lam, j), rel=1e-12)
            assert bound <= _hand_bound(reg40, model, box.delta, lam, j, euclidean=True)

    def test_dominates_corner_environment_bounds(self, toy_1d):
        """The robust bound beats the per-environment bound at every corner,
        with the latter recomputed from primal/dual evaluations directly; the
        per-environment bound is at most the Euclidean-ball one, whose radius
        sqrt(2 nu gap / (1 - delta)) multiplies sqrt(sum_i w_i^2 x_ij^2)."""
        lam = 0.1
        model = uniform_fit(toy_1d, SQ, lam)
        box = WeightBox(2, 0.5)
        ref = build_reference(toy_1d, model, box)
        robust = screen(toy_1d, ref, box).bounds[0]
        for w in enumerate_corners(box):
            alpha_hat = ref.q * ref.alpha_star / w
            p = primal_objective(toy_1d, w, SQ, lam, ref.b, ref.b0)
            d = dual_objective(toy_1d, w, SQ, alpha_hat)
            first = abs(float(np.dot(w * alpha_hat, toy_1d.x[:, 0])))
            direct = first + math.sqrt(float(np.dot(w, toy_1d.x[:, 0] ** 2)) * 4.0 * (p - d))
            euclidean = first + math.sqrt(
                float(np.dot(w * w, toy_1d.x[:, 0] ** 2)) * (4.0 / (1 - box.delta)) * (p - d)
            )
            assert ub_for_weight(0, w, ref, toy_1d, box) == pytest.approx(direct, rel=1e-12)
            assert direct <= robust + 1e-9
            assert direct <= euclidean


class TestUbForWeight:
    def test_uniform_weights_no_shift(self, reg40):
        lam = 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ)
        model = uniform_fit(reg40, SQ, lam, gap_tolerance=1e-13)
        box = WeightBox(reg40.n, 0.0)
        ref = build_reference(reg40, model, box)
        first = np.abs(reg40.x.T @ model.alpha)
        for j in (0, 5):
            assert ub_for_weight(j, np.ones(reg40.n), ref, reg40, box) == pytest.approx(
                first[j], abs=1e-5
            )

    def test_first_term_is_weight_independent(self, reg40):
        _, model, box, ref, _ = screen_setup(reg40, SQ, 0.2, 1.0)
        rng = np.random.default_rng(0)
        expect = ref.q * np.abs(reg40.x.T @ ref.alpha_star)
        for _ in range(20):
            w = sample_feasible(box, rng, "interior")
            alpha_hat = ref.q * ref.alpha_star / w
            got = np.abs(reg40.x.T @ (w * alpha_hat))
            np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_alternating_references_and_weights_get_fresh_values(self, reg40):
        """ub_for_weight keeps its weight-dependent work for the last
        dataset, box and weights asked of a reference: alternating two
        references and two weight vectors, one of them changed in place,
        every bound is the one a fresh reference gives."""
        lam_max = lambda_max(reg40, np.ones(reg40.n), SQ)
        box = WeightBox(reg40.n, delta_from_v(1.0, reg40.n))
        refs = [build_reference(reg40, uniform_fit(reg40, SQ, r * lam_max), box)
                for r in (0.1, 0.3)]
        rng = np.random.default_rng(3)
        weights = [sample_feasible(box, rng, "corner"), sample_feasible(box, rng, "interior")]
        expect = {(r, k, j): ub_for_weight(j, weights[k], dataclasses.replace(refs[r]), reg40, box)
                  for r in (0, 1) for k in (0, 1) for j in (0, 7)}
        assert len(set(expect.values())) == len(expect)
        moving = weights[0].copy()
        for _ in range(2):
            for k in (0, 1):
                moving[:] = weights[k]
                for r in (0, 1):
                    for j in (0, 7):
                        assert ub_for_weight(j, weights[k], refs[r], reg40, box) == expect[r, k, j]
                        assert ub_for_weight(j, moving, refs[r], reg40, box) == expect[r, k, j]

    def test_rejects_outside_weights(self, reg40):
        _, _, box, ref, _ = screen_setup(reg40, SQ, 0.2, 0.1)
        with pytest.raises(ValueError, match="not in the box"):
            ub_for_weight(0, np.full(reg40.n, 1.5), ref, reg40, box)

    def test_rejects_bad_index_and_box(self, reg40):
        _, _, box, ref, _ = screen_setup(reg40, SQ, 0.2, 0.1)
        w = np.ones(reg40.n)
        for j in (-1, reg40.d):
            with pytest.raises(IndexError, match=f"^feature index {j} out of range for d=15$"):
                ub_for_weight(j, w, ref, reg40, box)
        wider = WeightBox(reg40.n + 1, box.delta)
        message = "^box is over 41 instances, dataset has 40$"
        with pytest.raises(ValueError, match=message):
            ub_for_weight(0, np.ones(reg40.n + 1), ref, reg40, wider)
        with pytest.raises(ValueError, match=message):
            screen(reg40, ref, wider)
        # a dataset with the reference's n but fewer features than its fit
        narrower = Dataset(x=reg40.x[:, :10], y=reg40.y, task=reg40.task)
        message = "^reference was fit on 40x15 data, dataset is 40x10$"
        with pytest.raises(ValueError, match=message):
            ub_for_weight(0, w, ref, narrower, box)
        with pytest.raises(ValueError, match=message):
            screen(narrower, ref, box)

    def test_rejects_logistic_dual_outside_domain(self, clf40):
        """A dual point with y * alpha past 1 has no conjugate: both bounds
        name the instance instead of returning a NaN bound."""
        _, _, box, ref, _ = screen_setup(clf40, LOG, 0.2, 0.1)
        outside = dataclasses.replace(ref, alpha_star=3.0 * ref.alpha_star)
        p = clf40.y * outside.q * outside.alpha_star
        bad = int(np.argmax(np.maximum(p - 1.0, -p)))
        with pytest.raises(ValueError, match=f"^instance {bad}: rescaled dual point outside "
                                             r"the logistic conjugate domain \(y\*alpha="):
            ub_for_weight(0, np.ones(clf40.n), outside, clf40, box)
        with pytest.raises(ValueError, match=r"^instance \d+: scaled dual point outside "
                                             r"the logistic conjugate domain \(y\*alpha="):
            screen(clf40, outside, box)

    @pytest.mark.parametrize("fixture,kind", [("reg40", SQ), ("clf40", LOG)])
    def test_sampled_dominance(self, fixture, kind, request):
        """ub_for_weight lies between the Euclidean-ball bound at the same w,
        sqrt(sum_i w_i^2 x_ij^2 * 2 nu gap / (1 - delta)) past the correlation
        term, and the screen() bound."""
        ds = request.getfixturevalue(fixture)
        lam, model, box, ref, report = screen_setup(ds, kind, 0.3, 1.0)
        rng = np.random.default_rng(1)
        for k in range(100):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            alpha_hat = ref.q * ref.alpha_star / w
            gap = duality_gap(ds, w, kind, lam, ref.b, ref.b0, alpha_hat)
            for j in range(0, ds.d, 3):
                ub = ub_for_weight(j, w, ref, ds, box)
                col = ds.x[:, j]
                euclidean = abs(float(np.dot(w * alpha_hat, col))) + math.sqrt(
                    float(np.dot(w * w, col * col)) * 2.0 * nu_constant(kind) / (1 - box.delta)
                    * gap)
                assert ub <= euclidean * (1 + 1e-12)
                assert ub <= report.bounds[j] + 1e-9


class TestBallContainment:
    @pytest.mark.parametrize("fixture,kind", [("reg40", SQ), ("clf40", LOG)])
    def test_resolved_duals_stay_in_ball(self, fixture, kind, request):
        ds = request.getfixturevalue(fixture)
        lam, model, box, ref, _ = screen_setup(ds, kind, 0.3, 0.1)
        from drfs import nu_constant

        scale = objective_scale(ds, np.ones(ds.n), kind)
        rng = np.random.default_rng(2)
        for k in range(10):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            alpha_hat = ref.q * ref.alpha_star / w
            gap = duality_gap(ds, w, kind, lam, ref.b, ref.b0, alpha_hat)
            radius = dg_radius(gap, nu_constant(kind), box.delta)
            resolved = fit_weighted_erm(
                ds, w, kind, lam, FitConfig(gap_tolerance=1e-12 * scale),
                warm_start=(model.b, model.b0),
            )
            assert np.linalg.norm(resolved.alpha - alpha_hat) <= radius * (1 + 1e-6)


# random small problems: both losses, n <= 40, d <= 12, any lambda ratio and delta
_DRAWN = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([SQ, LOG]),
    n=st.integers(4, 40),
    d=st.integers(1, 12),
    ratio=st.floats(0.05, 1.0),
    delta=st.floats(0.0, 0.9),
)


def _fit_or_best(dataset, w, kind, lam, config, warm_start=None):
    """The fit, or the best iterate it carries when the iterations run out:
    its dual point is feasible and its gap is its own, which is all the ball
    needs."""
    try:
        return fit_weighted_erm(dataset, w, kind, lam, config, warm_start)
    except ConvergenceError as exc:
        return exc.model


def _drawn_screen(seed, kind, n, d, ratio, delta):
    """A standardized synth problem, its reference fit at ratio * lambda_max,
    the reference and the screen at delta."""
    task = Task.REGRESSION if kind is SQ else Task.BINARY
    dataset = standardize(synth(task, n, d, min(3, d), 0.5, seed)[0])[0]
    lam = ratio * lambda_max(dataset, np.ones(n), kind)
    model = _fit_or_best(dataset, np.ones(n), kind, lam, FitConfig(max_iterations=5000))
    box = WeightBox(n, delta)
    ref = build_reference(dataset, model, box)
    return dataset, lam, model, box, ref, screen(dataset, ref, box)


def _gap_rounding(dataset, w, kind, lam, b, b0, alpha):
    """An allowance for the rounding of a duality gap evaluation: gamma =
    2 (n + d) eps of the absolute sum of its terms (Higham, ch. 4).  Near
    zero the gap is a cancelling difference of that size, which max(0, .)
    may clamp to 0, so a radius from it alone can be too small."""
    n, d = dataset.x.shape
    terms = (primal_objective(dataset, w, kind, lam, b, b0)
             + float(np.dot(w, np.abs(conjugate_neg(kind, dataset.y, alpha)))))
    return 2 * (n + d) * np.finfo(float).eps * terms


class TestDrawnProblems:
    @settings(max_examples=40, deadline=None)
    @given(**_DRAWN)
    def test_robust_bound_dominates_per_weight_bound(self, seed, kind, n, d, ratio, delta):
        """Criterion 3 on random problems: at sampled corners and interior
        points, ub_for_weight stays within the screen() bound, up to the
        rounding of the two gaps (screen's rounds like the gap at w) and of
        the correlation terms, 2 (n + d) eps sum_i |q alpha_i x_ij| each.
        ub_for_weight is, bit for bit, its formula with duality_gap's gap."""
        dataset, lam, _, box, ref, report = _drawn_screen(seed, kind, n, d, ratio, delta)
        nu = nu_constant(kind)
        gamma = 2 * (n + d) * np.finfo(float).eps
        rng = np.random.default_rng(seed)
        for k in range(6):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            alpha_hat = ref.q * ref.alpha_star / w
            gap = duality_gap(dataset, w, kind, lam, ref.b, ref.b0, alpha_hat)
            err = 2 * _gap_rounding(dataset, w, kind, lam, ref.b, ref.b0, alpha_hat)
            for j in range(d):
                col = dataset.x[:, j]
                ub = ub_for_weight(j, w, ref, dataset, box)
                assert ub == (abs(float(np.dot(w * alpha_hat, col)))
                              + math.sqrt(float(np.dot(w, col * col)) * (2.0 * nu) * gap))
                rounding = (math.sqrt(float(np.dot(w, col * col)) * 2.0 * nu * err)
                            + 2 * gamma * float(np.abs(ref.q * ref.alpha_star) @ np.abs(col)))
                assert ub <= report.bounds[j] + rounding

    @settings(max_examples=30, deadline=None)
    @given(**_DRAWN)
    def test_resolved_duals_stay_in_weighted_ball(self, seed, kind, n, d, ratio, delta):
        """The re-weighted dual optimum lies within sqrt(2 nu gap_w) of the
        rescaled dual point in ||a||_w = sqrt(sum_i w_i a_i^2).  A re-solved
        dual point is itself within sqrt(2 nu gap) of that optimum, by the
        same strong concavity, so the two radii add up; each gap gets its
        rounding allowance."""
        dataset, lam, model, box, ref, _ = _drawn_screen(seed, kind, n, d, ratio, delta)
        nu = nu_constant(kind)
        config = FitConfig(gap_tolerance=1e-12 * objective_scale(dataset, np.ones(n), kind),
                           max_iterations=20_000)
        rng = np.random.default_rng(seed)
        for k in range(4):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            alpha_hat = ref.q * ref.alpha_star / w
            gap = (duality_gap(dataset, w, kind, lam, ref.b, ref.b0, alpha_hat)
                   + _gap_rounding(dataset, w, kind, lam, ref.b, ref.b0, alpha_hat))
            resolved = _fit_or_best(dataset, w, kind, lam, config, (model.b, model.b0))
            resolved_gap = resolved.gap + _gap_rounding(dataset, w, kind, lam, resolved.b,
                                                        resolved.b0, resolved.alpha)
            distance = math.sqrt(float(np.dot(w, (resolved.alpha - alpha_hat) ** 2)))
            assert distance <= math.sqrt(2.0 * nu * gap) + math.sqrt(2.0 * nu * resolved_gap)


class TestNoShiftReduction:
    """Acceptance criterion 6's check on reorderings of the gate's problems."""

    @pytest.mark.parametrize("fixture,kind,tag", [("reg40", SQ, 7), ("clf40", LOG, 11)])
    def test_holds_on_permuted_gate_problems(self, request, fixture, kind, tag):
        """At a 1e-10 reference gap and delta = 0, the removed set equals the
        plain correlation rule at the reference dual, on 40 row and column
        permutations of each gate problem: default_rng((seed, tag)) for seeds
        1-40, tag being the problem's synth seed."""
        base = request.getfixturevalue(fixture)
        failed = []
        for seed in range(1, 41):
            rng = np.random.default_rng((seed, tag))
            rows, cols = rng.permutation(base.n), rng.permutation(base.d)
            ds = Dataset(x=base.x[np.ix_(rows, cols)], y=base.y[rows], task=base.task)
            w = np.ones(ds.n)
            lam = 0.3 * lambda_max(ds, w, kind)
            model = fit_weighted_erm(ds, w, kind, lam, FitConfig(gap_tolerance=1e-10))
            box = WeightBox(ds.n, 0.0)
            report = screen(ds, build_reference(ds, model, box), box)
            expected = np.abs(ds.x.T @ model.alpha) < lam * (1 - 1e-12)
            if not (model.gap <= 1e-10 and np.array_equal(report.removed, expected)):
                failed.append(seed)
        assert failed == []


class TestScreen:
    def test_slightly_above_lambda_max_removes_all(self, toy_1d):
        lam = 4.0 * 1.000001
        model = uniform_fit(toy_1d, SQ, lam)
        box = WeightBox(2, 0.0)
        report = screen(toy_1d, build_reference(toy_1d, model, box), box)
        assert report.removed_ratio == 1.0

    def test_lambda_max_endpoint(self, reg40):
        _, _, _, _, report = screen_setup(reg40, SQ, 1.0, 0.0)
        assert report.removed_ratio == 1.0

    def test_no_shift_reduces_to_gap_screening(self, reg40):
        lam, model, box, ref, report = screen_setup(
            reg40, SQ, 0.3, 0.0, gap_tolerance=1e-10
        )
        expect = np.abs(reg40.x.T @ model.alpha) < lam * (1 - 1e-12)
        np.testing.assert_array_equal(report.removed, expect)

    def test_active_features_never_removed(self, reg40):
        lam, model, box, ref, report = screen_setup(reg40, SQ, 0.3, 0.5)
        assert not np.any(report.removed[model.support])

    def test_bounds_nonnegative(self, clf40):
        _, _, _, _, report = screen_setup(clf40, LOG, 0.1, 1.0)
        assert np.all(report.bounds >= 0)

    def test_squared_bounds_monotone_in_delta(self, reg40):
        lam = 0.3 * lambda_max(reg40, np.ones(reg40.n), SQ)
        model = uniform_fit(reg40, SQ, lam)
        prev_bounds = None
        prev_removed = None
        for delta in (0.0, 0.001, 0.01, 0.1, 0.5, 0.9):
            box = WeightBox(reg40.n, delta)
            report = screen(reg40, build_reference(reg40, model, box), box)
            if prev_bounds is not None:
                assert np.all(report.bounds >= prev_bounds - 1e-12)
                assert np.all(prev_removed | ~report.removed)  # removed set shrinks
            prev_bounds = report.bounds
            prev_removed = report.removed

    def test_mismatched_delta_rejected(self, reg40):
        _, model, _, ref, _ = screen_setup(reg40, SQ, 0.3, 0.1)
        with pytest.raises(ValueError, match="delta"):
            screen(reg40, ref, WeightBox(reg40.n, 0.5))

    def test_removed_mask_matches_bounds_rule(self, reg40):
        lam, _, _, _, report = screen_setup(reg40, SQ, 0.3, 0.5)
        np.testing.assert_array_equal(report.removed, report.bounds < lam * (1 - 1e-12))


class TestReportSerialization:
    def test_json_fields(self, reg40):
        _, _, _, _, report = screen_setup(reg40, SQ, 0.3, 0.1)
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "lambda", "delta", "V", "bounds", "removed", "gap_at_reference", "q", "nu",
        ]
        assert payload["V"] == pytest.approx(0.1)
        assert payload["nu"] == 2.0
        assert len(payload["bounds"]) == reg40.d
        assert isinstance(payload["removed"][0], bool)

    def test_csv_shape(self, reg40):
        _, _, _, _, report = screen_setup(reg40, SQ, 0.3, 0.1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "index,bound,removed"
        assert len(lines) == reg40.d + 1
        assert lines[1].startswith("0,")


def _reg_problem(n, d, seed):
    dataset, _ = standardize(synth(Task.REGRESSION, n, d, 3, 0.5, seed)[0])
    lam = 0.3 * lambda_max(dataset, np.ones(dataset.n), SQ)
    return dataset, uniform_fit(dataset, SQ, lam)


class TestColumnCache:
    """screen pairs each box with half-sums of x*x cached on the dataset."""

    @pytest.mark.parametrize("n", [41, 40])
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.99])
    def test_matches_sorted_oracle(self, n, delta):
        dataset, model = _reg_problem(n, 9, 5)
        box = WeightBox(n, delta)
        ref = build_reference(dataset, model, box)
        report = screen(dataset, ref, box)
        x = dataset.x
        first = ref.q * np.abs(x.T @ ref.alpha_star)
        gbar = max(0.0, max_linear(rho_vector(ref), box) + ref.lam * float(np.sum(np.abs(ref.b))))
        sorted_sq = np.sort(x * x, axis=0)
        nmax = worst_case_weights(box) @ sorted_sq
        oracle = first + np.sqrt(nmax * (2.0 * nu_constant(SQ)) * gbar)
        np.testing.assert_allclose(report.bounds, oracle, rtol=1e-13, atol=0)
        # the Euclidean ball's term, sqrt(max sum_i w_i^2 x_ij^2 * 2 nu gbar / (1 - delta))
        nmax_sq = worst_case_weights(box) ** 2 @ sorted_sq
        euclidean = first + np.sqrt(nmax_sq * (2.0 * nu_constant(SQ) / (1.0 - delta)) * gbar)
        assert np.all(report.bounds <= euclidean * (1 + 1e-13))

    def test_independent_of_screening_order(self):
        deltas = [0.0, 1e-3, 0.1, 0.5]

        def bounds_in_order(dataset, model, order):
            out = {}
            for delta in order:
                box = WeightBox(dataset.n, delta)
                out[delta] = screen(dataset, build_reference(dataset, model, box), box).bounds
            return out

        dataset, model = _reg_problem(41, 9, 6)
        up = bounds_in_order(dataset, model, deltas)
        down = bounds_in_order(dataset, model, deltas[::-1])
        fresh = Dataset(x=dataset.x.copy(), y=dataset.y.copy(), task=dataset.task)
        again = bounds_in_order(fresh, model, deltas[::-1])
        for delta in deltas:
            np.testing.assert_array_equal(up[delta], down[delta])
            np.testing.assert_array_equal(up[delta], again[delta])

    def test_first_screen_allocates_less_than_half_of_x(self):
        """No full-size x*x or sorted copy: the column term is built in blocks."""
        dataset, _ = synth(Task.REGRESSION, 8000, 250, 5, 0.5, 8)
        lam = 0.5 * lambda_max(dataset, np.ones(dataset.n), SQ)
        model = uniform_fit(dataset, SQ, lam)
        box = WeightBox(dataset.n, 1e-4)
        ref = build_reference(dataset, model, box)
        tracemalloc.start()
        try:
            screen(dataset, ref, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dataset.x.nbytes / 2
