"""Uniform binning of the scalar output range and histogram tallying; a
histogram is the plain counts array tally returns for the in-range values."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Binning", "tally"]


@dataclass(frozen=True)
class Binning:
    """M equal-width, half-open bins [lo + i*delta, lo + (i+1)*delta).

    The single closure point y == hi belongs to the last bin, so the closed
    interval [lo, hi] is covered exactly once. m must be an integer, a
    Python or a numpy one.
    """

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bin range must be finite")
        if not self.hi > self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"bin count m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"need at least one bin, got m={self.m}")

    @cached_property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.m

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.m) + 0.5) * self.delta

    @property
    def edges(self) -> np.ndarray:
        """m + 1 edges; edges[i], edges[i+1] bound bin i."""
        return self.lo + np.arange(self.m + 1) * self.delta

    def index(self, y: float) -> int | None:
        """Bin index of y, or None if y lies outside [lo, hi].

        Raises ValueError on non-finite y: NaN has no meaningful bin and
        silently dropping it would corrupt tallies downstream.
        """
        if not math.isfinite(y):
            raise ValueError(f"cannot bin non-finite value {y!r}")
        if y < self.lo or y > self.hi:
            return None
        if y == self.hi:
            return self.m - 1
        # floor can land on m for y just below hi after rounding; clamp.
        return min(int((y - self.lo) / self.delta), self.m - 1)

    def indices(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized index; out-of-range entries map to -1."""
        ys = np.asarray(ys, dtype=float)
        if not np.all(np.isfinite(ys)):
            raise ValueError("cannot bin non-finite values")
        idx = np.floor((ys - self.lo) / self.delta).astype(np.int64)
        np.clip(idx, 0, self.m - 1, out=idx)
        idx[(ys < self.lo) | (ys > self.hi)] = -1
        return idx


def tally(binning: Binning, ys: np.ndarray) -> np.ndarray:
    """Length-m integer counts of the values in [lo, hi], per bin.

    Values outside the range are not counted, so the counts sum to the
    number of in-range values; a non-finite value raises ValueError
    (Binning.indices).
    """
    idx = binning.indices(ys)
    return np.bincount(idx[idx >= 0], minlength=binning.m)
