"""Derivative-based structure: expanding systems, pointwise expanding covers,
Lebesgue numbers, and itineraries through a cover.

On the circle all operator norms collapse to the absolute derivative, so the
expanding conditions are scalar inequalities checked on deterministic grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .circle import Arc, CirclePoint, as_value, normalize_array
from .generators import NotDifferentiable
from .detectors import (Resolution, DEFAULT_RESOLUTION, Verdict, _chunks, _letter_rows,
                        _stopped_by, _word_images, uniform_net)
from .semigroup import IfsSystem
from .symbolic import Word


class NotLocallyExpanding(Exception):
    """No word expands at the carried point within the search bounds."""

    def __init__(self, point: float, depth: int, budget: int, stop_reason: str,
                 words_examined: int):
        super().__init__(f"no expanding word at {point} within depth {depth}, budget {budget}")
        self.point = point
        # where the word search gave up: the bound that ended it, and the words
        # it enumerated (the identity included)
        self.stop_reason = stop_reason
        self.words_examined = words_examined


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


def expanding_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Whether every generator has |derivative| > 1 at max(net_size, 2) grid
    points; eta is the largest reciprocal when it does."""
    grid = max(res.net_size, 2)

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
        holds, eta = sweep(0.0)
    except NotDifferentiable:
        holds, eta = sweep(0.5)
    return Verdict("expanding", holds, res, {"eta": eta}, "checked on a finite grid")


# Words only count as expanding with this much derivative margin, so grown
# pieces keep sigma_local bounded away from 1 and survive finer re-sampling.
_MARGIN = 1e-3


def local_expanding_cover(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> ExpandingCover:
    """Build arcs-with-words certifying pointwise expansion everywhere.

    Each net point takes the first word, in `enumerate_words` order within
    the depth and budget, with |derivative| > 1 + _MARGIN that keeps that
    margin _EXTENT to either side; an arc on which it persists is grown
    around the point by doubling and bisection, and overlapping arcs sharing
    a word are merged.  Net points are searched a chunk at a time, in net
    order; the first chunk with a point that has no such word raises
    NotLocallyExpanding there, before any later chunk is searched.  Pieces
    that leave a point of the Lebesgue sweep uncovered raise NotACover.
    """
    net = np.array(uniform_net(res.net_size))
    words: List[Word] = []
    for found, _rows in _chunks(net.size, _FIRST_POINTS,
                                lambda lo, hi: _first_words(ifs, net[lo:hi], res),
                                lambda result: result[1]):
        words += found
    letters = _letter_rows(ifs, words)
    sides = np.repeat([-1.0, 1.0], net.size)
    extent = _extents(ifs, np.tile(letters, (2, 1)), np.tile(net, 2), sides)
    arcs = [Arc(CirclePoint(x - left), min(left + right, 1.0)) for x, left, right in
            zip(net.tolist(), extent[:net.size].tolist(), extent[net.size:].tolist())]
    raw = [CoverPiece(arc, w, sg) for arc, w, sg in zip(arcs, words, _sigmas(ifs, letters, arcs))]
    pieces = _merge_pieces(raw)
    sigma = max(p.sigma_local for p in pieces)
    return ExpandingCover(pieces, sigma, lebesgue_number([p.arc for p in pieces]), ifs)


def local_expanding_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Pointwise expansion: the cover of `local_expanding_cover`, the net
    point at which no expanding word was found, or a point that the pieces
    grown around the net points leave uncovered."""
    try:
        cover = local_expanding_cover(ifs, res)
    except NotLocallyExpanding as exc:
        witnesses = {"stuck_point": exc.point, "stop_reason": exc.stop_reason,
                     "words_examined": exc.words_examined}
        caveat = "no expanding word found within bounds: " + _stopped_by(exc.stop_reason, res)
        return Verdict("local_expanding", False, res, witnesses, caveat)
    except NotACover as exc:
        caveat = ("the pieces grown around the net points leave a gap: a finer net"
                  f" (--net, now {res.net_size}) may close it")
        return Verdict("local_expanding", False, res, {"uncovered_point": exc.point}, caveat)
    return Verdict("local_expanding", True, res, cover.to_dict())


# Net points are searched _FIRST_POINTS at a time, then in chunks that double
# up to about _CHUNK_NODES evaluated words (`_chunks`).  A word anchors a
# piece at x when it expands on [x - _EXTENT, x + _EXTENT]; the piece grows
# to at most _CAP on either side.
_FIRST_POINTS = 1
_EXTENT = 1.0 / 512.0
_CAP = 0.25
_GROW_SAMPLES = 17
_SIGMA_SAMPLES = 257


def _holds(ifs: IfsSystem, letters: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether its word expands at all _GROW_SAMPLES points of
    np.linspace(a, b).  Row by row, np.linspace over arrays matches the
    scalar calls bitwise while no row has a == b; here b - a >= _EXTENT."""
    t = normalize_array(np.linspace(a, b, _GROW_SAMPLES, axis=1))
    d = _word_images(ifs, letters, t)[1]
    return (np.abs(d) > 1.0 + _MARGIN).all(axis=1)


def _first_words(ifs: IfsSystem, xs: np.ndarray, res: Resolution):
    """Per point of xs, its word as `local_expanding_cover` defines it, and
    the number of words evaluated; raises NotLocallyExpanding at the first
    point that has none.

    One prefix tree in `enumerate_words` order serves all points: a level
    extends each open point's words of the level before by one letter, in
    value and derivative, and the budget (which counts the identity) may end
    it part way.  Each round then tests every open point's next candidate,
    a word of the level that expands at the point, on both sides.
    """
    k = ifs.k
    found: List[Word] = [()] * xs.size
    live = np.arange(xs.size)  # the open points
    val, der = xs[:, None], np.ones((xs.size, 1))
    spent, rows, reason = 1, 0, "depth"
    for length in range(1, res.depth + 1):
        width = min(k ** length, res.budget - spent)
        if width < k ** length:
            reason = "budget"
        if width <= 0:
            break
        spent += width
        # word j of this length extends word j // k of the last by letter j % k + 1
        parent = (np.arange(live.size) * val.shape[1])[:, None] + np.arange(width) // k
        letters = np.broadcast_to(np.arange(width) % k + 1, parent.shape).reshape(-1, 1)
        v, d = _word_images(ifs, letters, val.ravel()[parent.reshape(-1, 1)])
        val, der = v.reshape(parent.shape), der.ravel()[parent] * d.reshape(parent.shape)
        rows += v.size
        point, index = np.nonzero(np.abs(der) > 1.0 + _MARGIN)
        rank = np.arange(point.size) - np.searchsorted(point, point)
        done = np.zeros(live.size, dtype=bool)
        for r in range(int(rank.max(initial=-1)) + 1):
            at = np.flatnonzero((rank == r) & ~done[point])
            x, words = xs[live[point[at]]], _level_words(index[at], k, length)
            ok = _holds(ifs, np.tile(words, (2, 1)), np.tile(x, 2),
                        np.r_[x - _EXTENT, x + _EXTENT]).reshape(2, -1).all(axis=0)
            done[point[at[ok]]] = True
            for i, w in zip(live[point[at[ok]]].tolist(), words[ok].tolist()):
                found[i] = tuple(w)
        live, val, der = live[~done], val[~done], der[~done]
        if not live.size:
            return found, rows
    raise NotLocallyExpanding(float(xs[live[0]]), res.depth, res.budget, reason, spent)


def _level_words(index: np.ndarray, k: int, length: int) -> np.ndarray:
    """Letter rows of the words of one length at their enumeration indices."""
    out = np.empty((index.size, length), dtype=np.int64)
    for j in range(length - 1, -1, -1):
        index, out[:, j] = np.divmod(index, k)
    return out + 1


def _extents(ifs: IfsSystem, letters: np.ndarray, x: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Per row, the largest extent t <= _CAP such that its word expands on the
    samples from x to x + sign * t: _EXTENT doubled while that holds, then 20
    bisection steps.  Below _CAP, t is a power of two, so 2 t <= _CAP."""
    t = np.full(x.size, _EXTENT)
    grow = np.arange(x.size)
    while grow.size:
        ok = _holds(ifs, letters[grow], x[grow], x[grow] + sign[grow] * (2.0 * t[grow]))
        t[grow[ok]] *= 2.0
        grow = grow[ok][t[grow[ok]] < _CAP]
    part = np.flatnonzero(t < _CAP)
    lo, hi = t[part], 2.0 * t[part]
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        ok = _holds(ifs, letters[part], x[part], x[part] + sign[part] * mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    t[part] = lo
    return t


def _sigmas(ifs: IfsSystem, letters: np.ndarray, arcs: List[Arc]) -> List[float]:
    """Per arc, the largest 1/|derivative| of its word over _SIGMA_SAMPLES
    points, padded by 5% of the spread to absorb dips between samples (exact
    for constant-derivative words) and capped below 1; corners are skipped."""
    start, length = np.array([(a.start.value, a.length) for a in arcs]).T
    t = normalize_array(start[:, None] + np.linspace(0.0, length, _SIGMA_SAMPLES, axis=1))
    inv = 1.0 / np.abs(_word_images(ifs, letters, t)[1])
    corner = np.isnan(inv)
    return [min(w + (0.05 * (w - b) if math.isfinite(b) else 0.0), 1.0 / (1.0 + _MARGIN))
            for w, b in zip(np.where(corner, 0.0, inv).max(axis=1).tolist(),
                            np.where(corner, math.inf, inv).min(axis=1).tolist())]


def _merge_pieces(pieces: List[CoverPiece]) -> List[CoverPiece]:
    by_word = {}
    for p in pieces:
        by_word.setdefault(p.word, []).append(p)
    merged: List[CoverPiece] = []
    for word, group in sorted(by_word.items()):
        group.sort(key=lambda p: p.arc.start.value)
        pool = [(p.arc.start.value, p.arc.length, p.sigma_local) for p in group]
        # each pass: every arc joins the first union so far that overlaps it
        while True:
            out = []
            for s2, ln2, sg2 in pool:
                for k, (s, ln, sg) in enumerate(out):
                    u = _arc_union(s, ln, s2, ln2)
                    if u is not None:
                        out[k] = (*u, max(sg, sg2))
                        break
                else:
                    out.append((s2, ln2, sg2))
            if len(out) == len(pool):
                break
            pool = out
        merged += [CoverPiece(Arc(CirclePoint(s), ln), word, sg) for s, ln, sg in pool]
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


# The Lebesgue number is sampled at the points (i + 0.5) / _LEBESGUE_NET; the
# acceptance suite and the tests' reference loops define rho on this same net.
_LEBESGUE_NET = 10_000


def lebesgue_number(cover: Sequence[Arc]) -> float:
    """Largest rho (up to the net) such that every radius-rho ball centered on
    the net sits inside a single cover arc; capped at 1/2."""
    if not cover:
        raise NotACover("empty cover")
    starts, lengths = np.array([(a.start.value, a.length) for a in cover]).T
    if (lengths >= 1.0 - 1e-15).any():
        return 0.5
    rho = 0.5
    net = _LEBESGUE_NET
    # 1,024 net points at a time against every arc, so memory stays flat
    for lo in range(0, net, 1024):
        x = (np.arange(lo, min(lo + 1024, net)) + 0.5) / net
        dl = (x[:, None] - starts) % 1.0
        slack = np.where(dl <= lengths, np.minimum(dl, lengths - dl), -1.0).max(axis=1)
        if (slack < 0.0).any():
            x0 = float(x[np.argmax(slack < 0.0)])
            raise NotACover(f"net point {x0} lies in no cover arc", point=x0)
        rho = min(rho, float(slack.min()))
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
