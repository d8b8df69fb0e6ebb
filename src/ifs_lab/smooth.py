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

from . import certify
from .circle import Arc, CirclePoint, as_value, normalize_array
from .detectors import (Resolution, DEFAULT_RESOLUTION, Verdict, _CHUNK_NODES, _chunks,
                        _letter_rows, _stopped_by, _word_images, uniform_net)
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
    for offset in (0.0, 0.5):
        # the first weak point, generator by generator, decides; a corner
        # moves the sweep to the next offset
        xs = (np.arange(grid) + offset) / grid
        d = np.abs([g.derivative_array(xs) for g in ifs.generators]).ravel()
        weak = np.flatnonzero(~(d > 1.0))  # |d| <= 1, or NaN at a corner
        if weak.size == 0 or not np.isnan(d[weak[0]]):
            break
    else:  # a corner first at both offsets, where the scalar derivative raises
        ifs.generators[weak[0] // grid].derivative(float(xs[weak[0] % grid]))
    holds = weak.size == 0
    eta = float(np.max(1.0 / d)) if holds else None
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
    # a point's words take at most budget - 1 rows, the identity aside
    for found, _rows in _chunks(net.size, _FIRST_POINTS, max(1, res.budget - 1),
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
    if (certified := certify.local_expanding(ifs, res)) is not None:
        return certified
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


# Net points are searched _FIRST_POINTS at a time, or as many as _CHUNK_NODES
# evaluated words hold at budget - 1 a point, then in chunks that double up
# to about _CHUNK_NODES evaluated words (`_chunks`).  A word anchors a
# piece at x when it expands on [x - _EXTENT, x + _EXTENT]; the piece grows
# to at most _CAP on either side, _EXTENT doubled _DOUBLINGS times.
_FIRST_POINTS = 1
_EXTENT = 1.0 / 512.0
_DOUBLINGS = 7
_CAP = _EXTENT * 2.0 ** _DOUBLINGS
_HALVINGS = 2  # levels of midpoints a pass at most: three or more were no faster
_PASS_SAMPLES = 1 << 12  # below this many samples a pass costs mostly per-call overhead
_GROW_SAMPLES = 17
_SIGMA_SAMPLES = 257


def _holds(ifs: IfsSystem, letters: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per extent j and row i, whether word i expands at all _GROW_SAMPLES
    points of np.linspace(a[i], b[j, i]), in one pass: row by row bitwise the
    scalar calls', while no row has a == b (here |b - a| >= _EXTENT)."""
    t = normalize_array(np.linspace(np.tile(a, b.shape[0]), b.ravel(), _GROW_SAMPLES, axis=1))
    d = _word_images(ifs, np.tile(letters, (b.shape[0], 1)), t)[1]
    return (np.abs(d) > 1.0 + _MARGIN).all(axis=1).reshape(b.shape)


def _first_words(ifs: IfsSystem, xs: np.ndarray, res: Resolution):
    """Per point of xs, its word as `local_expanding_cover` defines it, and
    the number of words evaluated; raises NotLocallyExpanding at the first
    point that has none.

    One prefix tree in `enumerate_words` order serves all points: a level
    extends each open point's words of the level before by one letter, in
    value and derivative, and the budget (which counts the identity) may end
    it part way.  Rounds then test the open points' candidates, the words
    of the level that expand at the point, on both sides, a block of
    candidates at a time: the first of each point, then its next two, four
    and so on, while a block tests at most about _CHUNK_NODES samples.  A
    point takes its first candidate that holds, so one whose word is its
    r-th candidate costs at most about 2r tests, and a point with many
    candidates and no word a few rounds, not one per candidate.
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
        lo, size = 0, 1
        most = max(1, _CHUNK_NODES // (2 * _GROW_SAMPLES * live.size))
        while (at := np.flatnonzero((rank >= lo) & (rank < lo + size) & ~done[point])).size:
            x, words = xs[live[point[at]]], _level_words(index[at], k, length)
            ok = _holds(ifs, words, x, x + np.array([[-_EXTENT], [_EXTENT]])).all(axis=0)
            # each point's first candidate that holds: `at` ascends by point, then rank
            got = np.flatnonzero(ok)
            owner = point[at[got]]
            lead = np.ones(got.size, dtype=bool)
            lead[1:] = owner[1:] != owner[:-1]
            got = got[lead]
            done[point[at[got]]] = True
            for i, w in zip(live[point[at[got]]].tolist(), words[got].tolist()):
                found[i] = tuple(w)
            lo, size = lo + size, min(2 * size, most)
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
    bisection steps, each t the float one step a pass would reach.  Blocks of
    rows hold at most _CHUNK_NODES samples; a pass tests the next doublings or
    levels of midpoints 0.5 * (lo + hi) that _PASS_SAMPLES samples hold, then
    reads each row's path.  Below _CAP, t is a power of two."""
    t = np.full(x.size, _EXTENT)
    block = max(1, _CHUNK_NODES // _GROW_SAMPLES)
    room = max(1, min(_PASS_SAMPLES, _CHUNK_NODES) // _GROW_SAMPLES)
    for at in range(0, x.size, block):
        rows, left = np.arange(at, min(at + block, x.size)), _DOUBLINGS
        while rows.size and left:
            grown = t[rows] * 2.0 ** np.arange(1, min(left, max(1, room // rows.size)) + 1)[:, None]
            ok = _holds(ifs, letters[rows], x[rows], x[rows] + sign[rows] * grown)
            t[rows] *= 2.0 ** np.logical_and.accumulate(ok).sum(0)
            rows, left = rows[ok.all(0)], left - len(grown)
        rows = at + np.flatnonzero(t[at:at + block] < _CAP)
        ends, left, col = np.stack([t[rows], 2.0 * t[rows]]), 20, np.arange(rows.size)
        while rows.size and left:
            levels = max(1, min(left, _HALVINGS, (room // rows.size + 1).bit_length() - 1))
            for _ in range(levels):  # the ends, and every midpoint the next steps may take
                ends = np.insert(ends, np.arange(1, len(ends)), 0.5 * (ends[:-1] + ends[1:]), 0)
            ok = _holds(ifs, letters[rows], x[rows], x[rows] + sign[rows] * ends[1:-1])
            lo, hi = np.zeros(rows.size, dtype=int), np.full(rows.size, len(ends) - 1)
            for _ in range(levels):  # each row's path, as one step a pass takes it
                mid = (lo + hi) // 2
                lo, hi = np.where(ok[mid - 1, col], mid, lo), np.where(ok[mid - 1, col], hi, mid)
            ends, left = np.stack([ends[lo, col], ends[hi, col]]), left - levels
        t[rows] = ends[0]
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
        d = x[:, None] - starts
        dl = d - np.floor(d)  # d % 1.0 bitwise (`detectors._target_ranges`)
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
        idx = next((i for i, p in enumerate(cover.pieces) if p.arc.contains(v, tol=1e-10)), None)
        if idx is None:
            raise NotACover(f"iterate {v} escaped every cover piece")
        out.append(idx)
        v = ifs.apply_word(cover.pieces[idx].word, v)
    return out
