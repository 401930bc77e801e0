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
from drfs.data import Task, standardize, synth
from drfs.solver import fit_weighted_erm
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
        # the 5 draws in one batch, then in batches of 2, 2 and 1
        for block in (oracle.COLUMN_BLOCK_BYTES, 2 * 8 * reg40.n):
            monkeypatch.setattr(oracle, "COLUMN_BLOCK_BYTES", block)
            outcome = verify_no_false_elimination(
                reg40, SQ, lam, box, report, trials=5, seed=2, reference_model=model,
            )
            assert outcome.inconclusive == outcome.trials == 5
            assert not outcome.ok
            assert not outcome.violations

    @pytest.mark.parametrize("kind,fixture,plant", [
        (SQ, "reg40", False), (LOG, "clf40", False), (SQ, "reg40", True),
    ])
    def test_batches_do_not_change_the_verdict(self, kind, fixture, plant, request,
                                               monkeypatch):
        """Draws solved in batches of 3 give the counts and violations of one
        batch of all 25; a violation's coefficient may move in its last bits."""
        ds = request.getfixturevalue(fixture)
        lam, model, box, _, report = screen_setup(ds, kind, 0.3, 0.1)
        if plant:
            flipped = report.removed.copy()
            flipped[int(np.argmax(np.abs(model.b)))] = True
            report = dataclasses.replace(report, removed=flipped)

        def verify():
            return verify_no_false_elimination(ds, kind, lam, box, report, trials=25, seed=4,
                                               reference_model=model)

        whole = verify()
        assert oracle.COLUMN_BLOCK_BYTES // (8 * ds.n) >= whole.trials
        monkeypatch.setattr(oracle, "COLUMN_BLOCK_BYTES", 3 * 8 * ds.n)
        chunked = verify()
        for field in ("trials", "corner_trials", "inconclusive"):
            assert getattr(chunked, field) == getattr(whole, field)
        assert [v[:2] for v in chunked.violations] == [v[:2] for v in whole.violations]
        np.testing.assert_allclose([v[2] for v in chunked.violations],
                                   [v[2] for v in whole.violations], rtol=1e-9)
        assert bool(whole.violations) == plant and whole.inconclusive == 0

    def test_wide_input_batches_fit_the_block(self, monkeypatch):
        """With d > n the (d, T) coefficient arrays set the batch size, so
        every work array of a batch holds at most COLUMN_BLOCK_BYTES."""
        ds, _ = synth(Task.REGRESSION, 20, 200, 3, 0.1, 5)
        ds, _ = standardize(ds)
        lam, model, box, _, report = screen_setup(ds, SQ, 0.5, 0.1)
        block = 3 * 8 * ds.d  # 30 draws by n alone
        monkeypatch.setattr(oracle, "COLUMN_BLOCK_BYTES", block)
        # only the batch shapes are checked here, not the re-solves' verdicts
        monkeypatch.setattr(oracle, "RESOLVE_MAX_ITERATIONS", 50)
        batches = []

        def spy(dataset, weights, *args):
            batches.append(weights.shape[1])
            return fit_weighted_erm(dataset, weights, *args)

        monkeypatch.setattr(oracle, "fit_weighted_erm", spy)
        outcome = verify_no_false_elimination(ds, SQ, lam, box, report, trials=10, seed=3,
                                              reference_model=model)
        assert batches == [3, 3, 3, 1]
        assert all(8 * max(ds.n, ds.d) * t <= block for t in batches)
        assert outcome.trials == 10

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
