"""Points and arcs on the unit circle, with wraparound-aware metric helpers.

The circle is parameterized by angle in units of full turns, so every point
lives in [0, 1) and the circumference is 1.  All distances returned here are
arc-length distances, capped at 1/2 (the antipodal maximum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Values this close to 1.0 collapse to 0.0 so that both endpoints of the
# fundamental domain denote the same circle point.
_WRAP_SNAP = 1e-15


def normalize(x: float) -> float:
    """Reduce a real angle to the canonical representative in [0, 1)."""
    v = x - math.floor(x)
    if v >= 1.0 - _WRAP_SNAP:
        return 0.0
    # math.floor(-0.0) is the int 0, so v is -0.0 there; adding 0.0 gives
    # +0.0 as normalize_array does and leaves every other value as it is
    return v + 0.0


def normalize_array(x: np.ndarray) -> np.ndarray:
    """`normalize` over an array, bitwise equal element by element."""
    v = x - np.floor(x)
    v[v >= 1.0 - _WRAP_SNAP] = 0.0
    return v


def as_value(p) -> float:
    """Accept a CirclePoint or a bare number and return the normalized angle."""
    if isinstance(p, CirclePoint):
        return p.value
    return normalize(float(p))


@dataclass(frozen=True, slots=True)
class CirclePoint:
    """A point of the circle, stored as its canonical angle in [0, 1)."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", normalize(self.value))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class Arc:
    """Closed counterclockwise arc: start point plus length in [0, 1].

    Length 1 is the whole circle, length 0 a single point.  A point p belongs
    to the arc iff (p - start) mod 1 <= length.
    """

    start: CirclePoint
    length: float

    def __post_init__(self):
        if isinstance(self.start, (int, float)):
            object.__setattr__(self, "start", CirclePoint(float(self.start)))
        if not 0.0 <= self.length <= 1.0:
            raise ValueError(f"arc length must lie in [0, 1], got {self.length}")

    def contains(self, p, tol: float = 1e-12) -> bool:
        if self.length >= 1.0 - tol:
            return True
        off = (as_value(p) - self.start.value) % 1.0
        return off <= self.length + tol or off >= 1.0 - tol


def circ_dist(a, b) -> float:
    """Arc-length distance between two points, in [0, 1/2]."""
    d = abs(as_value(a) - as_value(b))
    return d if d <= 0.5 else 1.0 - d


def _circ_dist_array(a, b) -> np.ndarray:
    """`circ_dist` over arrays of angles in [0, 1), broadcast, bitwise equal
    element by element."""
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)
