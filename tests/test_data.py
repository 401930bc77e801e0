import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drfs import (
    Dataset,
    LossKind,
    ParseError,
    Task,
    parse_csv,
    parse_libsvm,
    standardize,
    synth,
)
from drfs.data import serialize_libsvm


class TestDatasetValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[1.0], [np.nan]]), y=np.array([0.0, 1.0]), task=Task.REGRESSION)

    def test_rejects_bad_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(x=np.eye(2), y=np.array([1.0, 0.0]), task=Task.BINARY)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[1.0]]), y=np.array([1.0]), task=Task.REGRESSION)

    @pytest.mark.parametrize("x, y, names, message", [
        (np.ones(3), np.zeros(3), None, "x must be a 2-d matrix"),
        (np.ones((3, 2)), np.zeros(2), None, r"y must have length 3, got shape \(2,\)"),
        (np.ones((3, 2)), np.zeros(3), ["a"], "feature_names length must match feature count"),
    ], ids=["1-d x", "short y", "short names"])
    def test_rejects_mismatched_shapes(self, x, y, names, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(x=x, y=y, task=Task.REGRESSION, feature_names=names)

    def test_column_major_storage(self):
        ds = Dataset(x=np.ones((3, 2)), y=np.zeros(3), task=Task.REGRESSION)
        assert ds.x.flags["F_CONTIGUOUS"]

    def test_x_is_read_only(self):
        """screen caches column statistics of x, so x must not change under it."""
        x = np.asfortranarray(np.ones((3, 2)))
        ds = Dataset(x=x, y=np.zeros(3), task=Task.REGRESSION)
        with pytest.raises(ValueError, match="read-only"):
            ds.x[0, 0] = 2.0
        x[0, 0] = 2.0  # the caller's own array stays writable

    def test_cached_statistics_are_read_only(self):
        """A write to a cached statistic would move every later bound and fit
        of the dataset: lower column sums would make removals unsafe."""
        rng = np.random.default_rng(3)
        ds = Dataset(x=rng.standard_normal((10, 3)), y=np.repeat([1.0, -1.0], 5), task=Task.BINARY)
        caches = [ds._x_sq_half_sums, ds._x_sq_sums]
        for kind in LossKind:
            caches.extend(ds._unit_intercept_only(kind))
        for cache in caches:
            with pytest.raises(ValueError, match="read-only"):
                cache[...] = 0.0


class TestParseLibsvm:
    def test_basic(self):
        ds = parse_libsvm("1 1:2 3:1\n-1 2:4")
        np.testing.assert_array_equal(ds.x, [[2, 0, 1], [0, 4, 0]])
        np.testing.assert_array_equal(ds.y, [1, -1])

    def test_empty_is_error(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm("")

    def test_single_class_binary_is_error(self):
        with pytest.raises(ParseError, match="single class"):
            parse_libsvm("+1 1:1\n+1 2:1", task=Task.BINARY)

    def test_labels_without_features_is_error(self):
        with pytest.raises(ParseError, match="^no feature entries found$"):
            parse_libsvm("1\n-1\n")

    def test_label_mapping(self):
        ds = parse_libsvm("0 1:1\n2 1:2\n0 2:1", task=Task.BINARY)
        np.testing.assert_array_equal(ds.y, [-1, 1, -1])

    def test_non_increasing_indices(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:1 2:1\n1 2:1 2:3")

    def test_malformed_entry_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("1 1:x")

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("\n1 1:2 3:1\n  \t\n\n-1 2:4\n\n")
        np.testing.assert_array_equal(ds.x, [[2, 0, 1], [0, 4, 0]])
        np.testing.assert_array_equal(ds.y, [1, -1])
        with pytest.raises(ParseError, match="line 4"):
            parse_libsvm("1 1:1\n\n \n1 1:x\n")

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        x[rng.uniform(size=x.shape) < 0.3] = 0.0
        x[:, 0] = 1.0  # keep column count recoverable
        x[0, 3] = 2.0
        ds = Dataset(x=x, y=rng.standard_normal(6), task=Task.REGRESSION)
        again = parse_libsvm(serialize_libsvm(ds))
        np.testing.assert_array_equal(again.x, ds.x)
        np.testing.assert_array_equal(again.y, ds.y)


class TestParseCsv:
    def test_label_by_index(self):
        ds = parse_csv("1,2,3\n4,5,6\n", label_column=0)
        assert ds.d == 2
        np.testing.assert_array_equal(ds.y, [1, 4])
        np.testing.assert_array_equal(ds.x, [[2, 3], [5, 6]])

    def test_label_by_header_name(self):
        ds = parse_csv("a,b,target\n1,2,3\n4,5,6\n", label_column="target")
        np.testing.assert_array_equal(ds.y, [3, 6])
        assert ds.feature_names == ["a", "b"]

    def test_missing_value_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_csv("1,2\n3,4\n5,NA\n")

    def test_ragged_rejected(self):
        with pytest.raises(ParseError, match="ragged"):
            parse_csv("1,2\n3,4,5\n")

    def test_header_only_is_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_csv("a,b,c\n")

    def test_missing_label_column(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_csv("1,2\n3,4\n", label_column=5)

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,4\n", "label column 'y' named but file has no header"),
        ("a,b\n1,2\n3,4\n", "label column 'y' not in header"),
    ])
    def test_unknown_label_name(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_csv(text, label_column="y")

    def test_three_binary_labels_is_error(self):
        message = "^binary task needs exactly two distinct labels, got 3$"
        with pytest.raises(ParseError, match=message):
            parse_csv("0,1\n1,2\n2,3\n", task=Task.BINARY)

    def test_blank_lines_skipped(self):
        ds = parse_csv("\na,b\n\n1,2\n  \t\n3,4\n\n", label_column="a")
        assert ds.feature_names == ["b"]
        np.testing.assert_array_equal(ds.x, [[2], [4]])
        np.testing.assert_array_equal(ds.y, [1, 3])
        with pytest.raises(ParseError, match="line 4"):
            parse_csv("1,2\n\n \n1,x\n")

    def test_padded_cells(self):
        padded = parse_csv(" a , b\n 1 , 2\t\n3,  4 \n", label_column="a")
        plain = parse_csv("a,b\n1,2\n3,4\n", label_column="a")
        assert padded.feature_names == ["b"]
        np.testing.assert_array_equal(padded.x, plain.x)
        np.testing.assert_array_equal(padded.y, plain.y)


# zeros, +-subnormals, ordinary values and exponents near the float64 limit
_VALUES = st.one_of(
    st.just(0.0),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(-1e6, 1e6),
    st.floats(1e300, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 5)), elements=_VALUES),
       data=st.data())
def test_libsvm_round_trip_is_bit_exact(x, data):
    x = x + 0.0  # the format stores zeros by omission, so -0.0 comes back as 0.0
    if x[0, -1] == 0.0:
        x[0, -1] = 1.0  # a nonzero in the last column fixes the column count
    y = data.draw(arrays(np.float64, x.shape[0], elements=_VALUES), label="y")
    ds = Dataset(x=x, y=y, task=Task.REGRESSION)
    again = parse_libsvm(serialize_libsvm(ds))
    np.testing.assert_array_equal(_bits(again.x), _bits(ds.x))
    np.testing.assert_array_equal(_bits(again.y), _bits(ds.y))


@settings(max_examples=150, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                    elements=_VALUES))
def test_csv_round_trip_is_bit_exact(table):
    """Written as the benchmark writes its CSV: 17 significant digits, a header."""
    names = ["y"] + [f"x{j + 1}" for j in range(table.shape[1] - 1)]
    buffer = io.StringIO()
    np.savetxt(buffer, table, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    ds = parse_csv(buffer.getvalue(), label_column="y")
    np.testing.assert_array_equal(_bits(ds.y), _bits(table[:, 0]))
    np.testing.assert_array_equal(_bits(ds.x), _bits(table[:, 1:]))
    assert ds.feature_names == names[1:]


class TestStandardize:
    def test_example_column(self):
        ds = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.zeros(3), task=Task.REGRESSION)
        out, report = standardize(ds)
        np.testing.assert_allclose(out.x[:, 0], [-1, 0, 1], atol=1e-15)
        assert report.means[0] == 2.0
        assert report.stds[0] == 1.0

    def test_constant_column_zeroed(self):
        x = np.array([[5.0, 1.0, 0.3], [5.0, 2.0, 0.3], [5.0, 4.0, 0.3]])
        ds = Dataset(x=x, y=np.zeros(3), task=Task.REGRESSION, feature_names=["a", "b", "c"])
        out, report = standardize(ds)
        assert out.d == 3
        assert report.constant_columns == [0, 2]
        assert out.feature_names == ["a", "b", "c"]
        assert report.means.shape == report.stds.shape == (3,)
        assert report.means[0] == 5.0
        np.testing.assert_array_equal(out.x[:, [0, 2]], 0.0)
        assert not np.signbit(out.x[:, [0, 2]]).any()
        alone, _ = standardize(Dataset(x=x[:, [1]], y=np.zeros(3), task=Task.REGRESSION))
        np.testing.assert_array_equal(out.x[:, 1], alone.x[:, 0])

    def test_y_untouched(self):
        ds = Dataset(x=np.array([[1.0], [2.0]]), y=np.array([10.0, 20.0]), task=Task.REGRESSION)
        out, _ = standardize(ds)
        np.testing.assert_array_equal(out.y, [10.0, 20.0])

    def test_all_constant_is_error(self):
        ds = Dataset(x=np.full((3, 2), 7.0), y=np.zeros(3), task=Task.REGRESSION)
        with pytest.raises(ValueError):
            standardize(ds)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_column_is_error(self):
        """A std that overflows would make the column all zeros; the first such
        column is named instead."""
        x = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
        x[:, 1:] *= 1e159
        ds = Dataset(x=x, y=np.zeros(20), task=Task.REGRESSION)
        with pytest.raises(ValueError, match="column 1 overflows in standardize: .*std inf"):
            standardize(ds)

    def test_moments(self):
        rng = np.random.default_rng(1)
        ds = Dataset(x=rng.uniform(2, 9, size=(50, 6)), y=np.zeros(50), task=Task.REGRESSION)
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.x.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = Dataset(x=rng.standard_normal((30, 4)), y=np.zeros(30), task=Task.REGRESSION)
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.x, once.x, atol=1e-12)


class TestSynth:
    def test_deterministic(self):
        a, sup_a = synth(Task.REGRESSION, 40, 15, 3, 0.1, 7)
        b, sup_b = synth(Task.REGRESSION, 40, 15, 3, 0.1, 7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(sup_a, sup_b)

    def test_sparsity_zero_rejected(self):
        with pytest.raises(ValueError):
            synth(Task.REGRESSION, 10, 5, 0, 0.1, 0)

    def test_noise_free_regression_is_exact(self):
        ds, support = synth(Task.REGRESSION, 25, 8, 3, 0.0, 3)
        # y must be an affine function of the support columns only
        design = np.column_stack([ds.x[:, support], np.ones(ds.n)])
        coef, residuals, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        np.testing.assert_allclose(design @ coef, ds.y, atol=1e-10)

    def test_classification_labels(self):
        ds, _ = synth(Task.BINARY, 30, 6, 2, 0.1, 4)
        assert set(np.unique(ds.y)) == {-1.0, 1.0}
