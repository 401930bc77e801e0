"""The admissible weight polytope and maximization over it.

The set of deployment weight vectors is a hypercube slice: every coordinate
lies in [1-delta, 1+delta] and the coordinates sum to n.  Linear and
squared-linear forms are maximized over it in closed form from the sums of
the lower and upper halves of the coefficients, which is what makes the
per-feature screening bound cheap.  The module also
converts between delta and the total-shift budget V = max ||w - 1||_1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

CORNER_CAP = 12
# column block of every pass over the squared columns of x (_squared_half_sums
# and _column_square_sums); the temporaries of this size stay in cache.
# Half-sums on 10000x2000 (2-CPU Intel VM): 0.06 s at 256 KiB, 0.17 s at
# 1 MiB, 0.32 s for x*x plus a full column sort
COLUMN_BLOCK_BYTES = 1 << 18


class ShiftOverflowError(ValueError):
    """Requested uncertainty level is not representable by any delta in [0, 1)."""


@dataclass(frozen=True)
class WeightBox:
    """Weight vectors in [1-delta, 1+delta]^n summing to n."""

    n: int
    delta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


def _moving(n: int) -> int:
    """Instances a worst-case corner moves off 1: all but the middle one of odd n."""
    return 2 * (n // 2)


def delta_from_v(v: float, n: int) -> float:
    """Per-instance bound delta realizing total-shift budget v = max ||w - 1||_1.

    Raises ShiftOverflowError when no delta in [0, 1) realizes v.
    """
    if not v >= 0:
        raise ShiftOverflowError(f"V must be >= 0, got {v}")
    if v == 0:
        return 0.0
    if n < 2:
        raise ShiftOverflowError("V > 0 is not representable with a single instance")
    delta = v / _moving(n)
    if delta >= 1.0:
        raise ShiftOverflowError(
            f"uncertainty level exceeds representable shift: V={v} needs delta={delta} >= 1"
        )
    return delta


def v_from_delta(box: WeightBox) -> float:
    """Total-shift budget max ||w - 1||_1 over the box."""
    return _moving(box.n) * box.delta


def worst_case_weights(box: WeightBox) -> np.ndarray:
    """The ascending corner weight vector: floor(n/2) lows, a middle 1 when
    n is odd, floor(n/2) highs."""
    n, delta = box.n, box.delta
    half = n // 2
    w = np.ones(n)
    w[:half] = 1.0 - delta
    w[n - half:] = 1.0 + delta
    return w


def _half_sums(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along axis 0: the sum of the n//2 smallest entries, the middle entry
    (0 for even n), and the sum of the n//2 largest.

    One partition at n//2 splits the halves, which is all the sorted pairing
    needs; it is about 1.7x faster than a full sort.
    """
    n = c.shape[0]
    half = n // 2
    part = np.partition(c, half, axis=0)
    low = part[:half].sum(axis=0)
    mid = part[half] if n % 2 else np.zeros_like(low)
    return low, mid, part[n - half:].sum(axis=0)


def _column_blocks(x: np.ndarray) -> list[slice]:
    """Consecutive column slices of x, COLUMN_BLOCK_BYTES of it each; a
    matrix that fits in one block gets the single slice of all its columns."""
    n, d = x.shape
    step = max(1, COLUMN_BLOCK_BYTES // (x.itemsize * n))
    return [slice(j, j + step) for j in range(0, d, step)]


def _squared_half_sums(x: np.ndarray) -> np.ndarray:
    """_half_sums of x*x as a (3, d) array, built one column block at a time
    so no full x*x copy is made."""
    sums = np.empty((3, x.shape[1]))
    for cols in _column_blocks(x):
        sums[:, cols] = _half_sums(np.square(x[:, cols]))
    return sums


def _column_square_sums(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i x_ij^2 for a weight vector w (n,), one column block of x at
    a time so no full x*x copy is made; a single block gives exactly
    (x*x).T @ w."""
    sums = np.empty(x.shape[1])
    for cols in _column_blocks(x):
        with np.errstate(over="ignore"):  # the fit checks the sums are finite
            sums[cols] = np.square(x[:, cols]).T @ w
    return sums


def _pair_half_sums(sums, box: WeightBox, squared: bool = False):
    """max of c . w (or c . (w o w)) over the box from the _half_sums of c:
    the worst-case corner puts 1-delta on the n//2 smallest entries, 1 on the
    middle one and 1+delta on the n//2 largest."""
    low, mid, high = sums
    p = 2 if squared else 1
    return (1.0 - box.delta) ** p * low + mid + (1.0 + box.delta) ** p * high


def _sorted_pairing(c, box: WeightBox, squared: bool = False):
    """max of c . w (or c . (w o w)) over the box, by pairing the sorted c with
    the ascending worst-case corner; a matrix c is maximized column by column."""
    c = np.asarray(c, dtype=float)
    if c.shape[:1] != (box.n,) or c.ndim > 2:
        raise ValueError(f"expected {box.n} coefficients, got shape {c.shape}")
    return _pair_half_sums(_half_sums(c), box, squared)


def max_linear(c, box: WeightBox) -> float:
    """max of c . w over the box."""
    return float(_sorted_pairing(c, box))


def max_linear_squared(c, box: WeightBox) -> float:
    """max of c . (w o w) over the box; intended for nonnegative c."""
    return float(_sorted_pairing(c, box, squared=True))


def corner_count(box: WeightBox) -> int:
    half = box.n // 2
    return math.comb(box.n, half) * math.comb(box.n - half, box.n - _moving(box.n))


def enumerate_corners(box: WeightBox) -> Iterator[np.ndarray]:
    """Yield every extreme point of the box exactly once.

    Combinatorial: C(n, n/2) corners for even n, C(n, (n-1)/2) * (n+1)/2 for
    odd n, so enumeration is refused above CORNER_CAP instances.
    """
    n, delta = box.n, box.delta
    if n > CORNER_CAP:
        raise ValueError(
            f"corner enumeration capped at n={CORNER_CAP} ({corner_count(box)} corners for "
            f"n={n}); use sample_feasible instead"
        )
    indices = range(n)
    for lows in itertools.combinations(indices, n // 2):
        rest = [i for i in indices if i not in lows]
        for mids in itertools.combinations(rest, n - _moving(n)):
            w = np.full(n, 1.0 + delta)
            w[list(lows)] = 1.0 - delta
            w[list(mids)] = 1.0
            yield w


def sample_feasible(box: WeightBox, rng: np.random.Generator, mode: str = "corner") -> np.ndarray:
    """Draw one feasible weight vector.

    "corner": a uniformly random permutation of the worst-case corner.
    "interior": uniform noise on [-delta, delta]^n, centered, then shrunk
    back into the cube; covers the interior without being uniform over it.
    """
    if mode == "corner":
        return rng.permutation(worst_case_weights(box))
    if mode != "interior":
        raise ValueError(f"mode must be 'corner' or 'interior', got {mode!r}")
    n, delta = box.n, box.delta
    if delta == 0.0 or n == 1:
        return np.ones(n)
    u = rng.uniform(-delta, delta, size=n)
    u -= u.mean()
    u -= u.mean()  # second pass mops up the first pass's rounding
    peak = np.max(np.abs(u))
    if peak > delta:
        u *= delta / peak
    return 1.0 + u


def contains(box: WeightBox, w) -> bool:
    """Membership test with floating-point slack on bounds and sum."""
    w = np.asarray(w, dtype=float)
    if w.shape != (box.n,):
        raise ValueError(f"expected weight vector of length {box.n}, got shape {w.shape}")
    lo = 1.0 - box.delta - 1e-12
    hi = 1.0 + box.delta + 1e-12
    if np.any(w < lo) or np.any(w > hi):
        return False
    return abs(float(np.sum(w)) - box.n) <= 1e-9 * box.n
