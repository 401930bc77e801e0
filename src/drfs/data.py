"""Dataset loading, validation, standardization, and synthetic problems.

Storage is dense float64 in column-major order: every screening formula
sweeps one feature column across all rows, and at the target scale memory
is not a concern.  LIBSVM input is zero-filled for absent indices since
standardization densifies columns anyway.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable

import numpy as np


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
    x: np.ndarray
    y: np.ndarray
    task: Task
    feature_names: list[str] | None = None

    def __post_init__(self) -> None:
        x = np.asfortranarray(np.asarray(self.x, dtype=float))
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


@dataclass(frozen=True)
class StandardizationReport:
    means: np.ndarray
    stds: np.ndarray
    dropped_constant: list[int] = field(default_factory=list)


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


def parse_libsvm(source: str | IO[str], task: Task = Task.REGRESSION) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based strictly increasing indices.

    Absent indices are zero.  With a binary task, any two distinct label
    values are mapped onto {-1, +1} in sorted order.
    """
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    d = 0
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"bad label {parts[0]!r}", lineno) from None
        entries: list[tuple[int, float]] = []
        prev = 0
        for token in parts[1:]:
            idx_s, _, val_s = token.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature entry {token!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"feature index must be >= 1, got {idx}", lineno)
            if idx <= prev:
                raise ParseError(f"non-increasing feature index {idx}", lineno)
            prev = idx
            entries.append((idx, val))
        if not all(map(math.isfinite, [label, *(val for _, val in entries)])):
            raise ParseError("non-finite label or feature value", lineno)
        d = max(d, prev)
        labels.append(label)
        rows.append(entries)
    if not rows:
        raise ParseError("empty dataset")
    if d == 0:
        raise ParseError("no feature entries found")
    x = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries:
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
    """Parse a rectangular numeric CSV, optional header, one column as labels."""
    header: list[str] | None = None
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None and not rows:
            try:
                [float(c) for c in cells]
            except ValueError:
                header = cells
                width = len(cells)
                continue
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"ragged row: expected {width} cells, got {len(cells)}", lineno)
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"non-numeric cell ({exc})", lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError("non-finite cell", lineno)
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

    Uses the n-1 denominator.  Constant columns (std below 1e-12) are
    dropped and recorded; the response is left untouched.
    """
    means = dataset.x.mean(axis=0)
    stds = dataset.x.std(axis=0, ddof=1)
    keep = stds > CONSTANT_COLUMN_STD
    dropped = [int(j) for j in np.nonzero(~keep)[0]]
    if not np.any(keep):
        raise ValueError("all columns are constant; nothing to standardize")
    x = (dataset.x[:, keep] - means[keep]) / stds[keep]
    names = None
    if dataset.feature_names is not None:
        names = [nm for nm, k in zip(dataset.feature_names, keep) if k]
    out = Dataset(x=x, y=dataset.y, task=dataset.task, feature_names=names)
    return out, StandardizationReport(means=means[keep], stds=stds[keep], dropped_constant=dropped)


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
