"""Derivative-based structure: expanding systems, pointwise expanding covers,
Lebesgue numbers, and itineraries through a cover.

On the circle all operator norms collapse to the absolute derivative, so the
expanding conditions are scalar inequalities checked on deterministic grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circle import Arc, CirclePoint, as_value, normalize
from .generators import NotDifferentiable
from .detectors import Resolution, DEFAULT_RESOLUTION, uniform_net
from .semigroup import IfsSystem, word_derivative
from .symbolic import Word, enumerate_words


class NotLocallyExpanding(Exception):
    """No word expands at the carried point within the search bounds."""

    def __init__(self, point: float, depth: int, budget: int):
        super().__init__(f"no expanding word at {point} within depth {depth}, budget {budget}")
        self.point = point


class NotACover(Exception):
    """The given arcs leave part of the circle (or an iterate) uncovered."""

    def __init__(self, message: str, point: Optional[float] = None):
        super().__init__(message)
        self.point = point


@dataclass
class CoverPiece:
    arc: Arc
    word: Word
    sigma_local: float

    def to_dict(self) -> dict:
        return {
            "arc": {"start": self.arc.start.value, "length": self.arc.length},
            "word": list(self.word),
            "sigma_local": self.sigma_local,
        }


@dataclass
class ExpandingCover:
    """Arcs V_i with words h_i expanding on them: 1/|h_i'| <= sigma_local < 1."""

    pieces: List[CoverPiece]
    sigma: float
    lebesgue: float
    system: IfsSystem

    def to_dict(self) -> dict:
        return {
            "pieces": [p.to_dict() for p in self.pieces],
            "sigma": self.sigma,
            "lebesgue": self.lebesgue,
        }


def _abs_derivative(ifs: IfsSystem, w: Word, x: float) -> Optional[float]:
    """|word derivative| at x, or None when a corner is hit on the way."""
    try:
        return abs(word_derivative(ifs, w, x))
    except NotDifferentiable:
        return None


def expanding_verdict(ifs: IfsSystem, grid: int = 1024) -> Tuple[bool, Optional[float]]:
    """Whether every generator has |derivative| > 1 on the grid; eta is the
    largest reciprocal when it does."""
    if grid < 2:
        raise ValueError("grid must be at least 2")

    def sweep(offset: float):
        # the first weak point, generator by generator, decides
        xs = (np.arange(grid) + offset) / grid
        d = np.abs([g.derivative_array(xs) for g in ifs.generators]).ravel()
        weak = np.flatnonzero(~(d > 1.0))  # |d| <= 1, or NaN at a corner
        if weak.size == 0:
            return True, float(np.max(1.0 / d))
        if np.isnan(d[weak[0]]):  # a corner, where the scalar derivative raises
            ifs.generators[weak[0] // grid].derivative(float(xs[weak[0] % grid]))
        return False, None

    try:
        return sweep(0.0)
    except NotDifferentiable:
        return sweep(0.5)


# Words only count as expanding with this much derivative margin, so grown
# pieces keep sigma_local bounded away from 1 and survive finer re-sampling.
_MARGIN = 1e-3


def local_expanding_cover(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> ExpandingCover:
    """Build arcs-with-words certifying pointwise expansion everywhere.

    For each net point the shortest word with |derivative| > 1 is found
    breadth-first; an arc on which the inequality persists is grown around
    the point by bisection, and overlapping arcs sharing a word are merged.
    """
    net = uniform_net(res.net_size)
    raw: List[CoverPiece] = []
    for x in net:
        piece = None
        for w in enumerate_words(ifs.k, res.depth, res.budget):
            if not w:
                continue
            d = _abs_derivative(ifs, w, x)
            if d is None or d <= 1.0 + _MARGIN:
                continue
            # the expansion must persist on an open arc around the point,
            # otherwise the word cannot anchor a cover piece
            left = _grow_extent(ifs, w, x, -1.0)
            right = _grow_extent(ifs, w, x, +1.0)
            if left > 0.0 and right > 0.0:
                arc = Arc(CirclePoint(x - left), min(left + right, 1.0))
                piece = CoverPiece(arc, w, _sigma_on(ifs, w, arc))
                break
        if piece is None:
            raise NotLocallyExpanding(x, res.depth, res.budget)
        raw.append(piece)
    pieces = _merge_pieces(raw)
    sigma = max(p.sigma_local for p in pieces)
    try:
        leb = lebesgue_number([p.arc for p in pieces], net=10_000)
    except NotACover as exc:
        raise NotLocallyExpanding(exc.point, res.depth, res.budget)
    return ExpandingCover(pieces, sigma, leb, ifs)


_GROW_SAMPLES = 17


def _holds_on(ifs: IfsSystem, w: Word, a: float, b: float) -> bool:
    for t in np.linspace(a, b, _GROW_SAMPLES):
        d = _abs_derivative(ifs, w, normalize(float(t)))
        if d is None or d <= 1.0 + _MARGIN:
            return False
    return True


def _grow_extent(ifs: IfsSystem, w: Word, x: float, sign: float) -> float:
    """Largest one-sided extent (capped at 1/4) keeping |derivative| > 1."""
    cap = 0.25
    t = 1.0 / 512.0
    if not _holds_on(ifs, w, x, x + sign * t):
        return 0.0
    while t < cap and _holds_on(ifs, w, x, x + sign * min(2.0 * t, cap)):
        t = min(2.0 * t, cap)
    if t >= cap:
        return cap
    lo, hi = t, min(2.0 * t, cap)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if _holds_on(ifs, w, x, x + sign * mid):
            lo = mid
        else:
            hi = mid
    return lo


def _sigma_on(ifs: IfsSystem, w: Word, arc: Arc, samples: int = 257) -> float:
    worst, best = 0.0, math.inf
    for t in np.linspace(0.0, arc.length, samples):
        d = _abs_derivative(ifs, w, normalize(arc.start.value + float(t)))
        if d is None:
            continue
        worst = max(worst, 1.0 / d)
        best = min(best, 1.0 / d)
    # pad by a slice of the observed variation to absorb between-sample dips;
    # exact for constant-derivative words
    pad = 0.05 * (worst - best) if math.isfinite(best) else 0.0
    return min(worst + pad, 1.0 / (1.0 + _MARGIN))


def _merge_pieces(pieces: List[CoverPiece]) -> List[CoverPiece]:
    by_word = {}
    for p in pieces:
        by_word.setdefault(p.word, []).append(p)
    merged: List[CoverPiece] = []
    for word, group in sorted(by_word.items()):
        group.sort(key=lambda p: p.arc.start.value)
        pool = [(p.arc.start.value, p.arc.length, p.sigma_local) for p in group]
        changed = True
        while changed and len(pool) > 1:
            changed = False
            out = []
            used = [False] * len(pool)
            for i in range(len(pool)):
                if used[i]:
                    continue
                s, ln, sg = pool[i]
                for j in range(i + 1, len(pool)):
                    if used[j]:
                        continue
                    s2, ln2, sg2 = pool[j]
                    u = _arc_union(s, ln, s2, ln2)
                    if u is not None:
                        s, ln = u
                        sg = max(sg, sg2)
                        used[j] = True
                        changed = True
                used[i] = True
                out.append((s, ln, sg))
            pool = out
        for s, ln, sg in pool:
            merged.append(CoverPiece(Arc(CirclePoint(s), ln), word, sg))
    merged.sort(key=lambda p: (p.arc.start.value, -p.arc.length))
    return merged


def _arc_union(s1: float, l1: float, s2: float, l2: float):
    """Union of two overlapping arcs as one arc, or None when disjoint."""
    if l1 >= 1.0 or l2 >= 1.0:
        return 0.0, 1.0
    off = (s2 - s1) % 1.0
    if off <= l1 + 1e-12:
        total = max(l1, off + l2)
        return (s1, 1.0) if total >= 1.0 - 1e-12 else (s1, total)
    off2 = (s1 - s2) % 1.0
    if off2 <= l2 + 1e-12:
        total = max(l2, off2 + l1)
        return (s2, 1.0) if total >= 1.0 - 1e-12 else (s2, total)
    return None


def lebesgue_number(cover: Sequence[Arc], net: int = 10_000) -> float:
    """Largest rho (up to the net) such that every radius-rho ball centered on
    the net sits inside a single cover arc; capped at 1/2."""
    if not cover:
        raise NotACover("empty cover")
    rho = 0.5
    for i in range(net):
        x = (i + 0.5) / net
        best = None
        for a in cover:
            if a.length >= 1.0 - 1e-15:
                best = 0.5
                break
            dl = (x - a.start.value) % 1.0
            if dl <= a.length:
                slack = min(dl, a.length - dl)
                if best is None or slack > best:
                    best = slack
        if best is None:
            raise NotACover(f"net point {x} lies in no cover arc", point=x)
        rho = min(rho, best)
    return rho


def admissible_itinerary(cover: ExpandingCover, x, length: int) -> List[int]:
    """Indices of cover pieces visited by iterating the pieces' words.

    At each step the smallest index whose arc contains the current point is
    chosen, then that piece's word is applied.
    """
    if length < 1:
        raise ValueError("length must be positive")
    ifs = cover.system
    v = as_value(x)
    out: List[int] = []
    for _ in range(length):
        idx = None
        for i, p in enumerate(cover.pieces):
            if p.arc.contains(v, tol=1e-10):
                idx = i
                break
        if idx is None:
            raise NotACover(f"iterate {v} escaped every cover piece")
        out.append(idx)
        v = ifs.apply_word(cover.pieces[idx].word, v)
    return out
