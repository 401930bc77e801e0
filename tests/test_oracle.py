import dataclasses
import json

import numpy as np
import pytest

from drfs import (
    LossKind,
    WeightBox,
    brute_force_max,
    brute_force_v,
    max_linear,
    max_linear_squared,
    v_from_delta,
    verify_no_false_elimination,
)
from drfs import oracle
from conftest import screen_setup

SQ = LossKind.SQUARED
LOG = LossKind.LOGISTIC


class TestBruteForceMax:
    def test_matches_sorted_pairing(self):
        rng = np.random.default_rng(0)
        box = WeightBox(6, 0.3)
        for _ in range(100):
            c = rng.standard_normal(6)
            assert brute_force_max(c, box) == pytest.approx(max_linear(c, box), abs=1e-12)
            c2 = np.abs(c)
            assert brute_force_max(c2, box, squared=True) == pytest.approx(
                max_linear_squared(c2, box), abs=1e-12
            )

    def test_no_shift(self):
        c = np.array([1.0, -2.0, 0.5])
        assert brute_force_max(c, WeightBox(3, 0.0)) == pytest.approx(np.sum(c))

    def test_single_instance(self):
        assert brute_force_max([3.5], WeightBox(1, 0.2)) == pytest.approx(3.5)

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_max(np.ones(13), WeightBox(13, 0.1))


class TestBruteForceV:
    def test_even(self):
        assert brute_force_v(WeightBox(4, 0.25)) == pytest.approx(1.0, abs=1e-12)

    def test_odd(self):
        assert brute_force_v(WeightBox(3, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_no_shift(self):
        assert brute_force_v(WeightBox(5, 0.0)) == 0.0

    def test_matches_formula(self):
        for n in range(2, 9):
            for delta in (0.05, 0.3, 0.9):
                box = WeightBox(n, delta)
                assert brute_force_v(box) == pytest.approx(v_from_delta(box), abs=1e-12)


class TestVerify:
    def test_no_shift_single_trial(self, reg40):
        lam, model, box, _, report = screen_setup(reg40, SQ, 0.3, 0.0)
        outcome = verify_no_false_elimination(
            reg40, SQ, lam, box, report, trials=50, seed=0, reference_model=model
        )
        assert outcome.trials == 1
        assert outcome.corner_trials == 0
        assert outcome.ok

    def test_small_n_enumerates_all_corners(self, toy_1d):
        from drfs import build_reference, screen
        from drfs.uncertainty import corner_count
        from conftest import uniform_fit

        model = uniform_fit(toy_1d, SQ, 0.1)
        box = WeightBox(2, 0.25)
        report = screen(toy_1d, build_reference(toy_1d, model, box), box)
        outcome = verify_no_false_elimination(
            toy_1d, SQ, 0.1, box, report, trials=500, seed=0, reference_model=model
        )
        assert outcome.trials == corner_count(box) == 2
        assert outcome.corner_trials == 2
        assert outcome.ok

    def test_clean_run(self, clf40):
        lam, model, box, _, report = screen_setup(clf40, LOG, 0.3, 0.1)
        outcome = verify_no_false_elimination(
            clf40, LOG, lam, box, report, trials=60, seed=3, reference_model=model
        )
        assert outcome.ok
        assert outcome.trials == 60
        assert outcome.corner_trials == 30
        assert outcome.max_coefficient_on_removed <= 1e-7

    def test_planted_fault_is_caught(self, reg40):
        """Marking a genuinely active feature as removed must produce
        violations; this is the harness's own sanity check."""
        lam, model, box, _, report = screen_setup(reg40, SQ, 0.3, 0.1)
        planted = int(model.support[np.argmax(np.abs(model.b[model.support]))])
        flipped = report.removed.copy()
        flipped[planted] = True
        bad_report = dataclasses.replace(report, removed=flipped)
        outcome = verify_no_false_elimination(
            reg40, SQ, lam, box, bad_report, trials=20, seed=1, reference_model=model
        )
        assert not outcome.ok
        assert any(j == planted for _, j, _ in outcome.violations)
        assert outcome.max_coefficient_on_removed > 1e-7

    def test_non_convergence_is_inconclusive(self, reg40, monkeypatch):
        lam, model, box, _, report = screen_setup(reg40, SQ, 0.3, 0.1)
        monkeypatch.setattr(oracle, "RESOLVE_MAX_ITERATIONS", 2)
        outcome = verify_no_false_elimination(
            reg40, SQ, lam, box, report, trials=5, seed=2, reference_model=model,
        )
        assert outcome.inconclusive == outcome.trials
        assert not outcome.ok
        assert not outcome.violations

    def test_report_mismatch_rejected(self, reg40):
        lam, model, box, _, report = screen_setup(reg40, SQ, 0.3, 0.1)
        with pytest.raises(ValueError, match="different weight box"):
            verify_no_false_elimination(
                reg40, SQ, lam, WeightBox(reg40.n, 0.5), report, trials=5, seed=0,
                reference_model=model,
            )
        with pytest.raises(ValueError, match="trials"):
            verify_no_false_elimination(reg40, SQ, lam, box, report, trials=0, seed=0,
                                        reference_model=model)

    def test_outcome_json(self, reg40):
        lam, model, box, _, report = screen_setup(reg40, SQ, 0.3, 0.0)
        outcome = verify_no_false_elimination(
            reg40, SQ, lam, box, report, trials=1, seed=0, reference_model=model
        )
        payload = json.loads(outcome.to_json())
        assert list(payload) == [
            "trials", "corner_trials", "inconclusive", "violations",
            "max_coefficient_on_removed", "resolve_gap_used",
        ]
