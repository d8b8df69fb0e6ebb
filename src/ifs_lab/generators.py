"""Primitive circle maps: rigid rotations, the flip, north-south maps,
piecewise-linear homeomorphisms and linear expanding maps.

Every generator exposes an exact evaluation on the circle, a monotone lift
on the real line, an analytic derivative of that lift, and an inverse when
one exists.  Images of arcs are computed from lift values at the endpoints,
so they stay consistent with wraparound.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circle import CirclePoint, normalize, normalize_array


class NonInvertible(Exception):
    """Raised when an inverse is requested from a non-injective map."""


class NotDifferentiable(Exception):
    """Raised at a corner point; carries the one-sided slopes."""

    def __init__(self, location: float, left: float, right: float):
        super().__init__(f"one-sided slopes {left}/{right} at {location}")
        self.location = location
        self.left = left
        self.right = right


def _require_finite(field: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{field} must be finite, got {values[0] if len(values) == 1 else values}")


class Generator:
    """Base class: a continuous self-map of the circle with a monotone lift."""

    invertible: bool = True
    # Degree of the lift: lift(t + 1) = lift(t) + degree.
    degree: int = 1

    def lift(self, t: float) -> float:
        raise NotImplementedError

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, x: float) -> float:
        """Value on the circle; accepts any real, returns the canonical angle."""
        return normalize(self.lift(x))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return normalize_array(self.lift_array(x))

    def derivative(self, x: float) -> float:
        """Signed derivative of the lift at x (periodic in x)."""
        raise NotImplementedError

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        """`derivative` over an array, NaN where the lift has a corner."""
        raise NotImplementedError

    def eval_and_derivative_array(self, x: np.ndarray):
        """`eval` and `derivative` over an array, each element bitwise equal
        to the scalar methods (NaN where `derivative` raises): the array
        methods, for a map whose array arithmetic is IEEE-exact."""
        return self.eval_array(x), self.derivative_array(x)

    def inverse(self) -> "Generator":
        raise NonInvertible(f"{self!r} has no inverse")

    @property
    def orientation(self) -> int:
        return 1 if self.degree > 0 else -1


def _libm(f, x: np.ndarray, *args) -> np.ndarray:
    """The scalar function f (a `math` function) over an array, element by
    element."""
    return np.fromiter(map(f, x.tolist(), *args), float, x.size)


@dataclass(frozen=True, slots=True)
class Rotation(Generator):
    """x -> x + alpha (mod 1)."""

    alpha: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha)
        object.__setattr__(self, "alpha", normalize(self.alpha))

    def lift(self, t: float) -> float:
        return t + self.alpha

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        return t + self.alpha

    def derivative(self, x: float) -> float:
        return 1.0

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        return np.ones(len(x))

    def inverse(self) -> "Rotation":
        return Rotation(-self.alpha)


@dataclass(frozen=True, slots=True)
class Flip(Generator):
    """The orientation-reversing involution x -> -x (mod 1)."""

    def lift(self, t: float) -> float:
        return -t

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        return -t

    def derivative(self, x: float) -> float:
        return -1.0

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(x), -1.0)

    def inverse(self) -> "Flip":
        return self


Flip.degree = -1


@dataclass(frozen=True, slots=True)
class NorthSouth(Generator):
    """Hyperbolic north-south map: repelling fixed point q with multiplier
    lam > 1, attracting fixed point antipodal to q with multiplier 1/lam.

    The canonical model with q = 0 has lift t -> atan(lam * tan(pi t)) / pi,
    extended continuously across the half-integers; a general q conjugates
    that model by the rotation taking 0 to q.  Both fixed points and both
    multipliers are exact in this parameterization.
    """

    q: float
    lam: float

    def __post_init__(self):
        _require_finite("q", self.q)
        _require_finite("lam", self.lam)
        object.__setattr__(self, "q", normalize(self.q))
        if not self.lam > 1.0:
            raise ValueError(f"multiplier must exceed 1, got {self.lam}")

    def _core(self, s: float) -> float:
        # s in [-1/2, 1/2); the cotangent form keeps precision near +-1/2.
        if abs(s) <= 0.25:
            return math.atan(self.lam * math.tan(math.pi * s)) / math.pi
        sp = 0.5 - abs(s)
        u = 0.5 - math.atan(math.tan(math.pi * sp) / self.lam) / math.pi
        return u if s > 0 else -u

    def lift(self, t: float) -> float:
        tq = t - self.q
        n = math.floor(tq + 0.5)
        return self.q + n + self._core(tq - n)

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        tq = t - self.q
        n = np.floor(tq + 0.5)
        s = tq - n
        out = np.empty_like(s)
        inner = np.abs(s) <= 0.25
        si = s[inner]
        out[inner] = np.arctan(self.lam * np.tan(np.pi * si)) / np.pi
        so = s[~inner]
        sp = 0.5 - np.abs(so)
        u = 0.5 - np.arctan(np.tan(np.pi * sp) / self.lam) / np.pi
        out[~inner] = np.where(so > 0, u, -u)
        return self.q + n + out

    def derivative(self, x: float) -> float:
        tq = x - self.q
        s = tq - math.floor(tq + 0.5)
        if abs(s) <= 0.25:
            T = math.tan(math.pi * s) ** 2
            return self.lam * (1.0 + T) / (1.0 + self.lam * self.lam * T)
        Tp = math.tan(math.pi * (0.5 - abs(s))) ** 2
        return self.lam * (1.0 + Tp) / (self.lam * self.lam + Tp)

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        tq = x - self.q
        s = tq - np.floor(tq + 0.5)
        inner = np.abs(s) <= 0.25
        T = np.tan(np.pi * np.where(inner, s, 0.5 - np.abs(s))) ** 2
        lam2 = self.lam * self.lam
        return np.where(inner, self.lam * (1.0 + T) / (1.0 + lam2 * T),
                        self.lam * (1.0 + T) / (lam2 + T))

    def eval_and_derivative_array(self, x: np.ndarray):
        # numpy's SIMD tan and arctan may differ from libm's in the last bit,
        # so the scalar methods' libm calls run element by element; lift and
        # derivative share the one tan per point, and the square is libm's
        # pow, as Python's ** takes it
        tq = x - self.q
        n = np.floor(tq + 0.5)
        s = tq - n
        inner = np.abs(s) <= 0.25
        tan = _libm(math.tan, np.pi * np.where(inner, s, 0.5 - np.abs(s)))
        T = _libm(math.pow, tan, itertools.repeat(2.0))
        lam2 = self.lam * self.lam
        deriv = np.where(inner, self.lam * (1.0 + T) / (1.0 + lam2 * T),
                         self.lam * (1.0 + T) / (lam2 + T))
        core = _libm(math.atan, np.where(inner, self.lam * tan, tan / self.lam)) / np.pi
        u = 0.5 - core
        core = np.where(inner, core, np.where(s > 0, u, -u))
        return normalize_array(self.q + n + core), deriv

    def inverse(self) -> "NorthSouth":
        # Swapping the roles of the two fixed points inverts the map exactly.
        return NorthSouth(self.q + 0.5, self.lam)


@dataclass(frozen=True, slots=True)
class PiecewiseLinear(Generator):
    """Circle homeomorphism given by breakpoints of its lift on [0, 1].

    Breakpoints are (x_i, y_i) with x_0 = 0, x_n = 1, strictly increasing x,
    strictly monotone y, and y_n - y_0 = +1 (orientation-preserving) or -1
    (orientation-reversing).
    """

    breakpoints: tuple
    _xs: tuple = field(init=False, repr=False, compare=False, default=())
    _ys: tuple = field(init=False, repr=False, compare=False, default=())
    _slopes: tuple = field(init=False, repr=False, compare=False, default=())
    _deg: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self):
        bps = tuple((float(x), float(y)) for x, y in self.breakpoints)
        for bp in bps:
            _require_finite("breakpoints", *bp)
        object.__setattr__(self, "breakpoints", bps)
        xs = [x for x, _ in bps]
        ys = [y for _, y in bps]
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("breakpoint x-values must run from 0 to 1")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-values must increase strictly")
        span = ys[-1] - ys[0]
        if abs(abs(span) - 1.0) > 1e-12:
            raise ValueError("lift must satisfy lift(x+1) = lift(x) +- 1")
        deg = 1 if span > 0 else -1
        if any((b - a) * deg <= 0 for a, b in zip(ys, ys[1:])):
            raise ValueError("lift must be strictly monotone")
        object.__setattr__(self, "_xs", tuple(xs))
        object.__setattr__(self, "_ys", tuple(ys))
        # the slopes np.interp uses, so lift and lift_array agree bitwise
        object.__setattr__(self, "_slopes", tuple(
            (y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])))
        object.__setattr__(self, "_deg", deg)

    @property
    def degree(self) -> int:  # type: ignore[override]
        return self._deg

    def _segment(self, s: float) -> int:
        i = bisect.bisect_right(self._xs, s) - 1
        return min(max(i, 0), len(self._xs) - 2)

    def lift(self, t: float) -> float:
        n = math.floor(t)
        s = t - n
        if s >= 1.0:  # t just below an integer: np.interp's right end value
            return n * self._deg + self._ys[-1]
        i = self._segment(s)
        # np.interp's formula, operation for operation
        return n * self._deg + (self._slopes[i] * (s - self._xs[i]) + self._ys[i])

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        n = np.floor(t)
        s = t - n
        return n * self._deg + np.interp(s, self._xs, self._ys)

    def derivative(self, x: float) -> float:
        s = x - math.floor(x)
        if s in self._xs:
            i = self._xs.index(s)
            left = self._slopes[i - 1] if i > 0 else self._slopes[-1]
            right = self._slopes[i] if i < len(self._slopes) else self._slopes[0]
            raise NotDifferentiable(s, left, right)
        return self._slopes[self._segment(s)]

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        s = x - np.floor(x)
        i = np.clip(np.searchsorted(self._xs, s, side="right") - 1, 0, len(self._slopes) - 1)
        out = np.asarray(self._slopes)[i]
        out[np.isin(s, self._xs)] = np.nan
        return out

    def inverse(self) -> "PiecewiseLinear":
        # Knots of the inverse lift, (y, x) ascending in y; the period shifted
        # by n is (y + n, x + n * deg).  The periods n with low + n <= 0 and
        # low + n + 1 >= 1 span y in [0, 1], and the knots are cut back to it.
        pairs = list(zip(self._ys, self._xs))[::self._deg]
        low = pairs[0][0]
        periods = range(math.floor(-low), math.ceil(-low) + 1)
        ext = [(y + n, x + n * self._deg) for n in periods[:-1] for y, x in pairs[:-1]]
        ext += [(y + periods[-1], x + periods[-1] * self._deg) for y, x in pairs]
        out = []
        for (y0, x0), (y1, x1) in zip(ext, ext[1:]):
            if y1 <= 0.0 or y0 >= 1.0:
                continue
            lo, hi = max(y0, 0.0), min(y1, 1.0)
            g = (x1 - x0) / (y1 - y0)
            if not out:
                out.append((lo, x0 + (lo - y0) * g))
            out.append((hi, x0 + (hi - y0) * g))
        knots = [(round(y, 15), x) for y, x in out]
        knots[0] = (0.0, knots[0][1])
        knots[-1] = (1.0, knots[-1][1])
        return PiecewiseLinear(tuple(knots))


# The largest expanding degree: `fixed_points(Expanding(m))` lists all m - 1
# fixed points, so a huge m would allocate that many.
MAX_DEGREE = 2 ** 16


@dataclass(frozen=True, slots=True)
class Expanding(Generator):
    """The standard m-fold covering x -> m x (mod 1), 2 <= m <= MAX_DEGREE."""

    m: int

    invertible = False

    def __post_init__(self):
        if isinstance(self.m, float):
            _require_finite("m", self.m)
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"expanding factor must be an integer >= 2, got {self.m}")
        if self.m > MAX_DEGREE:
            raise ValueError(f"expanding factor m must be at most {MAX_DEGREE}, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def degree(self) -> int:  # type: ignore[override]
        return self.m

    def lift(self, t: float) -> float:
        return self.m * t

    def lift_array(self, t: np.ndarray) -> np.ndarray:
        return self.m * t

    def derivative(self, x: float) -> float:
        return float(self.m)

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(x), float(self.m))


def map_arcs(g: Generator, starts: np.ndarray, lengths: np.ndarray):
    """Images of arcs given as arrays of (start, length): the image starts
    and lengths.  Endpoint images plus orientation fix each result."""
    if isinstance(g, Expanding):
        return g.eval_array(starts), np.minimum(g.m * lengths, 1.0)
    lo, hi = g.lift_array(np.concatenate([starts, starts + lengths])).reshape(2, -1)
    return (normalize_array(lo if g.orientation > 0 else hi),
            np.minimum(np.abs(hi - lo), 1.0))


@dataclass(frozen=True, slots=True)
class FixedPointRecord:
    """A fixed point with its one-sided multipliers and type."""

    location: CirclePoint
    one_sided_multipliers: tuple
    classification: str


# Non-hyperbolicity margin for classifying multipliers against 1.
_CLASS_TOL = 1e-9
_FP_GRID = 4096
# Root tolerance: a lift within it of a branch fixes the point.
_FP_TOL = 1e-12


def _lift_fixed_values(lift_array, identity_samples: int):
    """Roots in [0, 1) of lift(x) - x - m over all integer branches m.

    One array pass: lift(x) - x on a grid of _FP_GRID cells, every (cell,
    branch) crossing listed at once, and all crossings bisected together.
    Returns (values, identity) where identity=True means the map fixes every
    point up to _FP_TOL; in that case `values` is a uniform sample of
    `identity_samples` points.
    """
    n = _FP_GRID
    xs = np.arange(n + 1) / n
    phi = lift_array(xs) - xs
    lo = math.ceil(phi.min() - _FP_TOL)
    hi = math.floor(phi.max() + _FP_TOL)
    # a lift can stay within _FP_TOL of one branch only if it is nearly constant
    if phi.max() - phi.min() <= 4 * _FP_TOL:
        for m in range(lo, hi + 1):
            if np.abs(phi - m).max() <= _FP_TOL:
                return [(i + 0.5) / identity_samples for i in range(identity_samples)], True
    a, b = phi[:-1], phi[1:]
    # a grid point lying on its branch m = phi[i] is a root as it stands
    on_grid = np.flatnonzero(a == np.floor(a))
    # every branch m strictly between phi[i] and phi[i + 1], cell by cell
    first = np.floor(np.minimum(a, b)) + 1.0
    count = np.maximum(np.ceil(np.maximum(a, b)) - first, 0.0).astype(np.int64)
    cell = np.repeat(np.arange(n), count)
    m = np.repeat(first, count) + (np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count))
    fa = phi[cell] - m
    cross = fa * (phi[cell + 1] - m) < 0.0
    cell, m, fa = cell[cross], m[cross], fa[cross]
    branches = np.concatenate([a[on_grid], m])
    ra, rb = xs[cell], xs[cell + 1]
    bisected = np.empty(cell.size)
    live = np.arange(cell.size)
    for _ in range(64):
        if not live.size:
            break
        mid = 0.5 * (ra + rb)
        fm = lift_array(mid) - mid - m
        done = (fm == 0.0) | (rb - ra <= _FP_TOL * 0.5)
        bisected[live[done]] = mid[done]
        go = ~done
        live, ra, rb, fa, m, mid, fm = (v[go] for v in (live, ra, rb, fa, m, mid, fm))
        left = fa * fm < 0.0
        rb = np.where(left, mid, rb)
        ra = np.where(left, ra, mid)
        fa = np.where(left, fa, fm)
    bisected[live] = 0.5 * (ra + rb)
    roots = np.concatenate([xs[on_grid], bisected])
    # x = 1 is a root on the lowest branch that phi(1) meets within _FP_TOL/2,
    # unless a root of a branch up to that one already lies within 4 * _FP_TOL of 1
    end = [k for k in range(max(lo, math.floor(phi[n])), min(hi, math.ceil(phi[n])) + 1)
           if abs(phi[n] - k) <= _FP_TOL * 0.5]
    if end and not np.any((np.abs(roots - 1.0) <= 4 * _FP_TOL) & (branches <= end[0])):
        roots = np.append(roots, 1.0)
    # roots within 1e-11 of each other, around the circle too, are one
    out = []
    for r in np.sort(normalize_array(roots)).tolist():
        if not out or r - out[-1] > 1e-11:
            out.append(r)
    if len(out) > 1 and (1.0 - out[-1] + out[0]) <= 1e-11:
        out.pop()
    return out, False


def _one_sided_multipliers(g: Generator, x: float) -> tuple:
    try:
        d = g.derivative(x)
        return abs(d), abs(d)
    except NotDifferentiable as nd:
        return abs(nd.left), abs(nd.right)


def _classify(mult: tuple) -> str:
    left, right = mult
    if abs(left - 1.0) <= _CLASS_TOL or abs(right - 1.0) <= _CLASS_TOL:
        return "nonhyperbolic"
    if left > 1.0 and right > 1.0:
        return "repelling"
    if left < 1.0 and right < 1.0:
        return "attracting"
    return "semistable"


def fixed_points(g: Generator):
    """All fixed points of the map, each a `FixedPointRecord`: its location,
    its one-sided multipliers and its class (repelling, attracting,
    semistable or nonhyperbolic).  A map fixing every point gives 16 uniform
    samples, each nonhyperbolic with multipliers (1, 1)."""
    values, identity = _lift_fixed_values(g.lift_array, 16)
    if identity:
        return [FixedPointRecord(CirclePoint(v), (1.0, 1.0), "nonhyperbolic") for v in values]
    mults = [_one_sided_multipliers(g, v) for v in values]
    return [FixedPointRecord(CirclePoint(v), mult, _classify(mult)) for v, mult in zip(values, mults)]
