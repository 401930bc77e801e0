import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drfs import (
    WeightBox,
    contains,
    corner_count,
    delta_from_v,
    enumerate_corners,
    max_linear,
    max_linear_squared,
    sample_feasible,
    v_from_delta,
    worst_case_weights,
)
from drfs.oracle import brute_force_max
from drfs.uncertainty import HALF_SUM_BLOCK_BYTES, _sorted_pairing, _squared_half_sums


class TestConversions:
    def test_delta_from_v(self):
        assert delta_from_v(0.4, 4) == pytest.approx(0.1)
        assert delta_from_v(0.4, 5) == pytest.approx(0.1)
        assert delta_from_v(0.0, 100) == 0.0

    def test_v_from_delta(self):
        assert v_from_delta(WeightBox(4, 0.25)) == pytest.approx(1.0)
        assert v_from_delta(WeightBox(3, 0.5)) == pytest.approx(1.0)

    def test_round_trip(self):
        for n in (2, 3, 6, 7):
            for delta in (0.0, 0.1, 0.4):
                box = WeightBox(n, delta)
                assert delta_from_v(v_from_delta(box), n) == pytest.approx(delta, abs=1e-15)

    def test_overflow(self):
        with pytest.raises(ValueError, match="exceeds representable"):
            delta_from_v(10.0, 4)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            WeightBox(4, 1.0)
        with pytest.raises(ValueError):
            WeightBox(0, 0.1)


class TestWorstCaseWeights:
    def test_even(self):
        np.testing.assert_allclose(worst_case_weights(WeightBox(4, 0.1)), [0.9, 0.9, 1.1, 1.1])

    def test_odd(self):
        np.testing.assert_allclose(worst_case_weights(WeightBox(5, 0.2)), [0.8, 0.8, 1, 1.2, 1.2])

    def test_single(self):
        np.testing.assert_array_equal(worst_case_weights(WeightBox(1, 0.7)), [1.0])

    def test_sums_to_n(self):
        for n in range(1, 9):
            w = worst_case_weights(WeightBox(n, 0.3))
            assert np.sum(w) == pytest.approx(n, abs=1e-12)


class TestMaximizers:
    def test_linear_example(self):
        assert max_linear([2, 0, 1], WeightBox(3, 0.5)) == pytest.approx(4.0)

    def test_linear_constant_vector(self):
        for delta in (0.0, 0.3, 0.9):
            assert max_linear([7.0] * 5, WeightBox(5, delta)) == pytest.approx(35.0)

    def test_linear_no_shift(self):
        c = np.array([3.0, -1.0, 2.0])
        assert max_linear(c, WeightBox(3, 0.0)) == pytest.approx(np.sum(c))

    def test_squared_example(self):
        assert max_linear_squared([1, 1], WeightBox(2, 0.5)) == pytest.approx(2.5)

    def test_squared_no_shift(self):
        c = np.array([1.0, 2.0, 0.5, 0.25])
        assert max_linear_squared(c, WeightBox(4, 0.0)) == pytest.approx(np.sum(c))

    def test_squared_zero(self):
        assert max_linear_squared(np.zeros(6), WeightBox(6, 0.4)) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        box = WeightBox(7, 0.3)
        c = rng.standard_normal(7)
        base = max_linear(c, box)
        for _ in range(20):
            assert max_linear(rng.permutation(c), box) == pytest.approx(base, abs=1e-12)

    def test_dominates_sampled_points(self):
        rng = np.random.default_rng(1)
        box = WeightBox(9, 0.6)
        c = rng.standard_normal(9)
        best = max_linear(c, box)
        for k in range(1000):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            assert float(c @ w) <= best + 1e-12

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(8)
        c_pos = np.abs(c)
        deltas = np.linspace(0, 0.95, 12)
        lin = [max_linear(c, WeightBox(8, d)) for d in deltas]
        sq = [max_linear_squared(c_pos, WeightBox(8, d)) for d in deltas]
        assert np.all(np.diff(lin) >= -1e-12)
        assert np.all(np.diff(sq) >= -1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            max_linear([1.0, 2.0], WeightBox(3, 0.1))


class TestCorners:
    def test_count_even(self):
        corners = list(enumerate_corners(WeightBox(2, 0.1)))
        assert len(corners) == 2 == corner_count(WeightBox(2, 0.1))
        got = {tuple(np.round(w, 12)) for w in corners}
        assert got == {(0.9, 1.1), (1.1, 0.9)}

    def test_count_odd(self):
        box = WeightBox(3, 0.1)
        corners = list(enumerate_corners(box))
        assert len(corners) == 6 == corner_count(box)
        for w in corners:
            assert sorted(np.round(w, 12)) == [0.9, 1.0, 1.1]

    def test_all_corners_feasible_and_distinct(self):
        for n in (4, 5):
            box = WeightBox(n, 0.25)
            corners = list(enumerate_corners(box))
            assert len({tuple(w) for w in corners}) == len(corners)
            for w in corners:
                assert contains(box, w)

    def test_cap(self):
        with pytest.raises(ValueError, match="sample_feasible"):
            list(enumerate_corners(WeightBox(13, 0.1)))


class TestSampling:
    def test_no_shift_gives_ones(self):
        rng = np.random.default_rng(3)
        for mode in ("corner", "interior"):
            np.testing.assert_array_equal(sample_feasible(WeightBox(5, 0.0), rng, mode), np.ones(5))

    def test_bulk_feasibility(self):
        rng = np.random.default_rng(4)
        box = WeightBox(11, 0.35)
        for k in range(10000):
            w = sample_feasible(box, rng, "corner" if k % 2 else "interior")
            assert np.all(w >= 1 - box.delta - 1e-12)
            assert np.all(w <= 1 + box.delta + 1e-12)
            assert abs(np.sum(w) - box.n) <= 1e-12 * box.n * 10

    def test_corner_samples_have_structure(self):
        rng = np.random.default_rng(5)
        box = WeightBox(8, 0.2)
        for _ in range(50):
            w = sample_feasible(box, rng, "corner")
            assert np.sum(w == 1 - box.delta) == 4
            assert np.sum(w == 1 + box.delta) == 4

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sample_feasible(WeightBox(3, 0.1), np.random.default_rng(0), "edge")


class TestContains:
    def test_ones_always_inside(self):
        for delta in (0.0, 0.2, 0.9):
            assert contains(WeightBox(6, delta), np.ones(6))

    def test_worst_case_inside(self):
        box = WeightBox(7, 0.45)
        assert contains(box, worst_case_weights(box))

    def test_violations(self):
        box = WeightBox(4, 0.1)
        w = np.ones(4)
        w[0] = 1 + 2 * box.delta
        assert not contains(box, w)
        assert not contains(box, np.full(4, 1.05))  # bounds ok, sum wrong

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contains(WeightBox(3, 0.1), np.ones(4))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matrix_pairing_matches_corner_enumeration_per_column(data):
    """The one-product matrix path agrees with exhaustive corners, column by column."""
    n = data.draw(st.integers(1, 8), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    c = data.draw(arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)), label="c")
    box = WeightBox(n, data.draw(st.floats(0.0, 1.0, exclude_max=True), label="delta"))
    linear = _sorted_pairing(c, box)
    squared = _sorted_pairing(np.abs(c), box, squared=True)
    assert linear.shape == squared.shape == (d,)
    for j in range(d):
        tol = 1e-12 * (1.0 + float(np.sum(np.abs(c[:, j]))))
        assert linear[j] == pytest.approx(brute_force_max(c[:, j], box), abs=tol)
        assert squared[j] == pytest.approx(
            brute_force_max(np.abs(c[:, j]), box, squared=True), abs=4 * tol
        )


@pytest.mark.parametrize("n", [2001, 2000])
def test_squared_half_sums_across_column_blocks(n):
    """Blocks of columns, the last one partial, give the sorted half-sums."""
    step = HALF_SUM_BLOCK_BYTES // (8 * n)
    x = np.random.default_rng(n).standard_normal((n, 2 * step + 3))
    sums = _squared_half_sums(np.asfortranarray(x))
    ordered = np.sort(x * x, axis=0)
    half = n // 2
    expected = [ordered[:half].sum(axis=0),
                ordered[half] if n % 2 else np.zeros(x.shape[1]),
                ordered[n - half:].sum(axis=0)]
    np.testing.assert_allclose(sums, expected, rtol=1e-13, atol=0)
