"""Dataset loading, validation, standardization, and synthetic problems.

Storage is dense float64 in column-major order: every screening formula
sweeps one feature column across all rows, and at the target scale memory
is not a concern.  LIBSVM input is zero-filled for absent indices since
standardization densifies columns anyway.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from .losses import LossKind, _dual_from_margin
from .uncertainty import _column_square_sums, _squared_half_sums


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingleClassError(ParseError):
    """Binary task requested but the file holds only one label value."""


class Task(Enum):
    REGRESSION = "regression"
    BINARY = "binary"


@dataclass(frozen=True)
class Dataset:
    """A design matrix and its labels.

    `x` is stored read-only: three statistics of it are cached, read-only,
    for the life of the dataset: the half-sums of x*x that `screen` pairs
    with every weight box, the sums sum_i x_ij^2 that every unit-weight fit
    reads, and per loss the intercept-only dual point at unit weights with
    its correlations, which `lambda_max` reads and from which a cold
    unit-weight fit starts its correlation bounds.
    """

    x: np.ndarray
    y: np.ndarray
    task: Task
    feature_names: list[str] | None = None

    def __post_init__(self) -> None:
        x = np.asfortranarray(np.asarray(self.x, dtype=float)).view()
        x.flags.writeable = False
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        n, d = x.shape
        if n < 2 or d < 1:
            raise ValueError(f"need at least 2 rows and 1 feature, got {n}x{d}")
        if y.shape != (n,):
            raise ValueError(f"y must have length {n}, got shape {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in dataset")
        if self.task is Task.BINARY and np.any((y != 1.0) & (y != -1.0)):
            raise ValueError("binary task requires labels in {-1, +1}")
        if self.feature_names is not None and len(self.feature_names) != d:
            raise ValueError("feature_names length must match feature count")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def _x_sq_half_sums(self) -> np.ndarray:
        """The (3, d) half-sums of x*x that screen pairs with every weight box."""
        sums = _squared_half_sums(self.x)
        sums.flags.writeable = False  # lower sums would make removals unsafe
        return sums

    @cached_property
    def _x_sq_sums(self) -> np.ndarray:
        """The sums sum_i x_ij^2 (d,) a fit at unit weights reads, bit for bit
        those of _column_square_sums at a weight vector of ones."""
        sums = _column_square_sums(self.x, np.ones(self.n))
        sums.flags.writeable = False  # every such fit shares them
        return sums

    def _unit_intercept_only(self, kind: LossKind) -> tuple[np.ndarray, np.ndarray]:
        """_intercept_only at unit weights, computed once per loss: the dual
        point alpha (n,) and x.T @ alpha (d,), both read-only."""
        cache = self.__dict__.setdefault("_intercept_only_by_loss", {})
        if kind not in cache:
            alpha, corr = _intercept_only(self.x, self.y, np.ones(self.n), kind)
            alpha.flags.writeable = corr.flags.writeable = False
            cache[kind] = alpha, corr
        return cache[kind]


def _intercept_only(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                    kind: LossKind) -> tuple[np.ndarray, np.ndarray]:
    """The dual point alpha (n,) of the intercept-only optimum at weights w
    (n,), and its correlations x.T @ (w o alpha) (d,), whose sup-norm is
    lambda_max.  The intercept is analytic: w.y / sum w for the squared
    loss, the log-odds of the two classes' weights for the logistic one,
    which refuses labels of one class."""
    if kind is LossKind.SQUARED:
        b0 = float(np.dot(w, y) / np.sum(w))
    else:
        pos = y == 1.0
        neg = y == -1.0
        if not (np.all(pos | neg) and np.any(pos) and np.any(neg)):
            raise ValueError("logistic lambda_max requires both classes present in {-1, +1}")
        b0 = math.log(float(np.sum(w[pos]))) - math.log(float(np.sum(w[neg])))
    alpha = _dual_from_margin(kind, y, b0)
    return alpha, x.T @ (w * alpha)


@dataclass(frozen=True)
class StandardizationReport:
    means: np.ndarray
    stds: np.ndarray
    constant_columns: list[int]


def _as_lines(source: str | IO[str]) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _map_binary_labels(labels: np.ndarray) -> np.ndarray:
    distinct = np.unique(labels)
    if distinct.size == 1:
        raise SingleClassError("single class: binary task needs two distinct labels")
    if distinct.size != 2:
        raise ParseError(f"binary task needs exactly two distinct labels, got {distinct.size}")
    if set(distinct) == {-1.0, 1.0}:
        return labels
    return np.where(labels == distinct[0], -1.0, 1.0)


def _check_indices(idx: np.ndarray, lineno: int) -> None:
    """Reject the first index below 1 or not above the one before it."""
    bad = idx <= np.concatenate(([0], idx[:-1]))
    if bad.any():
        k = int(np.argmax(bad))
        if idx[k] < 1:
            raise ParseError(f"feature index must be >= 1, got {idx[k]}", lineno)
        raise ParseError(f"non-increasing feature index {idx[k]}", lineno)


def _bad_entry(entries: list[str], lineno: int) -> ParseError:
    """The error for the first entry that does not read as idx:val, unless an
    index before it is out of order, which is reported first."""
    indices = []
    for token in entries:
        idx_s, _, val_s = token.partition(":")
        try:
            idx = np.array(idx_s, dtype=np.int64)
            float(val_s)
        except OverflowError:
            big = int(idx_s)
            error = ParseError(f"feature index must be >= 1, got {big}" if big < 1
                               else f"feature index too large in {token!r}", lineno)
        except ValueError:
            error = ParseError(f"bad feature entry {token!r}", lineno)
        else:
            indices.append(idx)
            continue
        _check_indices(np.array(indices, dtype=np.int64), lineno)
        return error
    raise AssertionError(f"line {lineno}: no malformed entry among {entries!r}")


def parse_libsvm(source: str | IO[str], task: Task = Task.REGRESSION) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based strictly increasing indices.

    Absent indices are zero.  With a binary task, any two distinct label
    values are mapped onto {-1, +1} in sorted order.  Each line's indices
    and values are converted by one numpy call each, with Python's int and
    float syntax.
    """
    labels: list[float] = []
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    d = 0
    for lineno, raw in enumerate(_as_lines(source), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"bad label {parts[0]!r}", lineno) from None
        # label idx : val idx : val ...; with one part per entry, every part
        # is exactly idx:val
        tokens = raw.replace(":", " : ").split()
        m = len(parts) - 1
        try:
            if len(tokens) != 1 + 3 * m or raw.count(":") != m or tokens[2::3].count(":") != m:
                raise ValueError("not idx:val")
            idx = np.array(tokens[1::3], dtype=np.int64)
            val = np.array(tokens[3::3], dtype=float)
        except (ValueError, OverflowError):
            raise _bad_entry(parts[1:], lineno) from None
        _check_indices(idx, lineno)
        if not (math.isfinite(label) and np.isfinite(val).all()):
            raise ParseError("non-finite label or feature value", lineno)
        if m:
            d = max(d, int(idx[-1]))
        labels.append(label)
        rows.append((idx, val))
    if not rows:
        raise ParseError("empty dataset")
    if d == 0:
        raise ParseError("no feature entries found")
    x = np.zeros((len(rows), d), order="F")
    for i, (idx, val) in enumerate(rows):
        x[i, idx - 1] = val
    y = np.array(labels)
    if task is Task.BINARY:
        y = _map_binary_labels(y)
    return Dataset(x=x, y=y, task=task)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm; emits every nonzero entry with 1-based indices."""
    lines = []
    for i in range(dataset.n):
        parts = [repr(float(dataset.y[i]))]
        row = dataset.x[i]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_csv(
    source: str | IO[str],
    label_column: int | str = 0,
    task: Task = Task.REGRESSION,
) -> Dataset:
    """Parse a rectangular numeric CSV, optional header, one column as labels.

    Each row is converted by one numpy call, with Python's float syntax
    (cells may be padded with spaces).
    """
    header: list[str] | None = None
    rows: list[np.ndarray] = []
    width = None
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is not None and len(cells) != width:
            raise ParseError(f"ragged row: expected {width} cells, got {len(cells)}", lineno)
        try:
            row = np.array(cells, dtype=float)
        except ValueError:
            if header is None and not rows:
                header = [c.strip() for c in cells]
                width = len(cells)
                continue
            try:  # float() names the first bad cell without its padding
                [float(c.strip()) for c in cells]
            except ValueError as exc:
                raise ParseError(f"non-numeric cell ({exc})", lineno) from None
            raise  # unreachable: padding does not change what float() accepts
        if not np.isfinite(row).all():
            raise ParseError("non-finite cell", lineno)
        width = len(cells)
        rows.append(row)
    if not rows:
        raise ParseError("empty dataset")
    assert width is not None
    if isinstance(label_column, str):
        if header is None:
            raise ParseError(f"label column {label_column!r} named but file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ParseError(f"label column {label_column!r} not in header") from None
    else:
        label_idx = label_column
        if not -width <= label_idx < width:
            raise ParseError(f"label column {label_column} out of range for {width} columns")
        label_idx %= width
    table = np.array(rows)
    y = table[:, label_idx]
    x = np.delete(table, label_idx, axis=1)
    names = None
    if header is not None:
        names = [h for k, h in enumerate(header) if k != label_idx]
    if task is Task.BINARY:
        y = _map_binary_labels(y)
    return Dataset(x=x, y=y, task=task, feature_names=names)


CONSTANT_COLUMN_STD = 1e-12


def standardize(dataset: Dataset) -> tuple[Dataset, StandardizationReport]:
    """Center and scale each feature to sample mean 0 and sample std 1.

    Uses the n-1 denominator.  A constant column (std at most 1e-12) becomes
    exact zeros and is listed in the report, so column j of the result is
    still input feature j; a zero column is never active and screen()
    certifies it removed with bound 0.  The report's means and stds are per
    input column.  The response is left untouched.  A column whose mean or
    std overflows raises ValueError.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        means = dataset.x.mean(axis=0)
        stds = dataset.x.std(axis=0, ddof=1)
    bad = np.flatnonzero(~np.isfinite(means) | ~np.isfinite(stds))
    if bad.size:
        j = bad[0]
        raise ValueError(f"column {j} overflows in standardize: mean {float(means[j])!r}, "
                         f"std {float(stds[j])!r}; rescale the features")
    constant = stds <= CONSTANT_COLUMN_STD
    if np.all(constant):
        raise ValueError("all columns are constant; nothing to standardize")
    x = (dataset.x - means) / np.where(constant, 1.0, stds)
    x[:, constant] = 0.0
    out = Dataset(x=x, y=dataset.y, task=dataset.task, feature_names=dataset.feature_names)
    return out, StandardizationReport(means=means, stds=stds,
                                      constant_columns=[int(j) for j in np.flatnonzero(constant)])


def synth(
    task: Task,
    n: int,
    d: int,
    sparsity: int,
    noise: float,
    seed: int,
) -> tuple[Dataset, np.ndarray]:
    """Planted sparse linear problem with standard normal features.

    Returns the dataset and the sorted indices of the planted support.
    Deterministic for a fixed seed.
    """
    if not 1 <= sparsity <= d:
        raise ValueError(f"sparsity must be in [1, {d}], got {sparsity}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    support = np.sort(rng.choice(d, size=sparsity, replace=False))
    coefs = rng.uniform(1.0, 2.0, size=sparsity) * rng.choice([-1.0, 1.0], size=sparsity)
    b0 = rng.uniform(-0.5, 0.5)
    signal = x[:, support] @ coefs + b0
    if task is Task.REGRESSION:
        y = signal + noise * rng.standard_normal(n)
    else:
        y = np.sign(signal + noise * rng.standard_normal(n))
        y[y == 0] = 1.0
        if np.all(y == y[0]):  # degenerate draw; flip the weakest margin
            y[np.argmin(np.abs(signal))] *= -1.0
    return Dataset(x=x, y=y, task=task), support
