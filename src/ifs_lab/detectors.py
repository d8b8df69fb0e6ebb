"""Resolution-bounded property detectors with explicit witnesses.

Every universally quantified property is discretized over deterministic
nets.  Verdicts are one-sided: a positive verdict carries a witness that
replays, a negative verdict means the search exhausted its stated bounds.
Searches that key off orbit points or image arcs merge states at a fraction
of the density tolerance `eps`; every retained point/arc still comes from an
exactly evaluated word, so witnesses are always genuine.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# circ_dist stays bound here, where the benchmark's tracer tests read it
from .circle import Arc, as_value, circ_dist, normalize, normalize_array  # noqa: F401
from .generators import _require_finite, map_arcs
from .semigroup import (STOP_REASONS, IfsSystem, _BUDGET, _DEPTH, _EXHAUSTED, _FOUND,
                        _SearchNodes, _word_values, orbit_cloud, periodic_points)
from .symbolic import Word


class NotApplicable(Exception):
    """Raised when a detector's precondition fails at the given resolution."""


@dataclass(frozen=True)
class Resolution:
    """Discretization contract shared by all detectors."""

    eps: float = 0.01      # density / covering tolerance
    r: float = 0.01        # test-ball radius
    depth: int = 60        # maximum word length
    net_size: int = 100    # sample points on the circle
    budget: int = 100_000  # search states per quantified instance

    def __post_init__(self):
        if not 0.0 < self.eps <= 0.5 or not 0.0 < self.r <= 0.5:
            raise ValueError("eps and r must lie in (0, 1/2]")
        if self.depth < 1 or self.net_size < 1 or self.budget < 1:
            raise ValueError("depth, net_size and budget must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    def replaced(self, **kw) -> "Resolution":
        return replace(self, **kw)


DEFAULT_RESOLUTION = Resolution()


@dataclass
class Verdict:
    """A property decision plus the evidence that supports it."""

    property_name: str
    holds: bool
    resolution: Resolution
    witnesses: dict
    caveat: str = ""

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "holds": self.holds,
            "resolution": self.resolution.to_dict(),
            "witnesses": self.witnesses,
            "caveat": self.caveat,
        }


@dataclass
class SensitivityReport:
    """Separation evidence per net point and radius rung."""

    delta_hat: float
    per_point: list
    strategy_notes: dict

    def to_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "per_point": self.per_point,
            "strategy_notes": self.strategy_notes,
        }


# ---------------------------------------------------------------------------
# nets and density helpers


def uniform_net(n: int) -> List[float]:
    """Deterministic sample of the circle with offset half a step."""
    return [(i + 0.5) / n for i in range(n)]


def _sorted_distinct(values) -> List[float]:
    """Sorted values, dropping each one within 1e-12 of the last one kept."""
    out: List[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > 1e-12:
            out.append(v)
    return out


def generator_fixed_values(ifs: IfsSystem) -> List[float]:
    return _sorted_distinct(rec.location.value for _, rec in ifs.generator_fixed_points())


def system_net(ifs: IfsSystem, n: int) -> List[float]:
    """Uniform net augmented with every generator fixed point.

    Fixed points are the places where orbit closures degenerate, so point
    quantifiers are evaluated there as well as on the uniform grid.
    """
    return _sorted_distinct(set(uniform_net(n)) | set(generator_fixed_values(ifs)))


def max_cyclic_gap(values: np.ndarray) -> Tuple[float, float]:
    """Largest gap between consecutive points and its midpoint."""
    s = np.sort(np.asarray(values, dtype=float))
    if s.size == 0:
        return 1.0, 0.0
    gap, mid = _cyclic_gaps(s, np.zeros(s.size, dtype=np.int64), 1)
    return float(gap[0]), float(mid[0])


def _cyclic_gaps(s: np.ndarray, seg: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per segment id below n of s (ascending within a segment, segment ids
    non-decreasing), the largest cyclic gap between consecutive values, the
    first on ties unless the wrap-around gap is larger, and its midpoint;
    inf and nan for an id with no values.  A single value's gap is 1.0."""
    gap, mid = np.full(n, np.inf), np.full(n, np.nan)
    if s.size == 0:
        return gap, mid
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    ends = np.r_[starts[1:], s.size] - 1
    d = np.append(np.where(seg[1:] == seg[:-1], np.diff(s), -np.inf), -np.inf)
    top = np.maximum.reduceat(d, starts)
    # the first diff reaching its segment's top
    reach = np.flatnonzero(d == np.repeat(top, ends - starts + 1))
    first = reach[np.unique(np.searchsorted(starts, reach, side="right"), return_index=True)[1]]
    wrap = 1.0 - s[ends] + s[starts]
    single, by_wrap = ends == starts, wrap > top
    ids = seg[starts]
    gap[ids] = np.where(single, 1.0, np.where(by_wrap, wrap, top))
    mid[ids] = normalize_array(np.where(single, s[starts] + 0.5,
                                        np.where(by_wrap, s[ends] + wrap / 2.0,
                                                 s[first] + top / 2.0)))
    return gap, mid


def _merge_cell(res: Resolution) -> float:
    # Orbit/arc states are merged at this scale; small enough that an
    # eps-density or eps-cover certificate is unaffected.
    return res.eps / 8.0


# ---------------------------------------------------------------------------
# batched arc-image search: many source arcs, breadth first, level by level,
# with state merging and dominance pruning

# Working-set bounds.  Sources, here and in the orbit searches, are searched
# a chunk at a time (`_chunks`); a chunk holds about _CHUNK_NODES nodes at
# the rate per source of the chunk before it, and, here, at most
# _CHUNK_NODES (source, target) pairs.  The first chunk has _FIRST_CHUNK
# arcs.  Target hits expand at most _HIT_PAIRS (arc, target) pairs at once.
# A pass of the word evaluator (`_word_images`) holds at most _CHUNK_NODES
# (word, point) rows.
_CHUNK_NODES = 1 << 14
_FIRST_CHUNK = 16
_HIT_PAIRS = 1 << 13
_FULL = 1.0 - 1e-12      # lengths from here on are the whole circle
_NEST_TOL = 1e-12        # containment tolerance of the dominance rule
# A sweep margin farther than this from the tolerance decides containment
# whatever the rounding; nearer ones are re-tested exactly, in rule order.
_CLEAR = 1e-13


def _chunks(n: int, first: int, search, nodes, most=np.inf):
    """`search(lo, hi)` over consecutive chunks [lo, hi) of n sources, each
    result yielded in turn.  The first chunk has `first` sources, each later
    one at most twice as many as the one before, at most `most`, and about
    _CHUNK_NODES nodes at the rate per source of the one before, which held
    `nodes(result)` of them."""
    lo, size = 0, first
    while lo < n:
        hi = min(n, lo + max(1, min(size, most)))
        result = search(lo, hi)
        size = min(2 * (hi - lo), _CHUNK_NODES * (hi - lo) // nodes(result))
        yield result
        del result  # free this chunk before the next one is searched
        lo = hi


class ArcImages(_SearchNodes):
    """One chunk of sources of the batched arc search, the first of them
    source `first` of the batch.

    Node arrays hold every arc the search visited, in visit order: nodes
    0..n-1 are the sources' own arcs, each later node links to its parent and
    letter as in `OrbitCloud`, and `kept` marks the nodes that entered a
    frontier.  Per source: `words` examined, `depth_reached` (levels
    expanded) and `stop` (one of STOP_REASONS).  With targets,
    `first_hit[j, t]` is the first node of source j whose arc, fattened,
    contains target t (-1 if none).
    """

    def __init__(self, first, nodes, words, depth_reached, stop, first_hit):
        self.first = first
        (self.starts, self.lengths, self.parents, self.letters, self.source,
         self.level, self.kept) = nodes
        self.words = words
        self.depth_reached = depth_reached
        self.stop = [STOP_REASONS[c] for c in stop]
        self.first_hit = first_hit


def _arc_search(ifs: IfsSystem, starts, lengths, depth, budget: int, cell: float,
                targets=None, fat: float = 0.0, stop_above: Optional[float] = None):
    """Breadth-first search over the image arcs of many source arcs at once.

    Yields one `ArcImages` per chunk of sources.  Each source runs its own
    search, as if alone: every level expands (frontier arc x letter), parent
    first, then letter, skipping full circles; each expansion counts as one
    word.  A child whose (start, length) cell of size `cell` was already
    reached by its source is dropped, the first occurrence winning.  The
    survivors are visited in order, and then arcs contained in a longer
    sibling are pruned, which is sound because every detector objective is
    monotone under arc inclusion and the containing arc carries a word that
    is never longer.  A source stops once its `budget` of words is spent
    (the rest of the parent's letters are still examined until one yields a
    fresh cell), after `depth` levels (an int, or one per source), when its
    frontier empties, or early: when every point of `targets` (sorted) lies
    within `fat` of a visited arc, or when a visited arc is longer than
    `stop_above`.
    """
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    depths = np.broadcast_to(np.asarray(depth, dtype=np.int64), starts.shape)
    scale = max(2, round(1.0 / cell))
    tv = None if targets is None else np.asarray(targets, dtype=float)
    # merge-cell keys of a chunk's sources must fit in an int64
    keyed = 2 ** 62 // (scale * (scale + 1))
    if keyed < 1:
        raise ValueError(f"merge cell {cell} is too fine for the arc search")
    most = min(keyed, max(1, _CHUNK_NODES // (1 if tv is None else tv.size)))
    yield from _chunks(starts.size, _FIRST_CHUNK, lambda lo, hi: _search_chunk(
        lo, ifs.generators, starts[lo:hi], lengths[lo:hi], depths[lo:hi], budget, scale,
        tv, fat, stop_above), lambda images: images.starts.size, most)


def _arc_keys(src, s, ln, scale):
    ks = np.floor(s * scale).astype(np.int64) % scale
    kl = np.minimum(np.floor(ln * scale).astype(np.int64), scale)
    return (src * scale + ks) * (scale + 1) + kl


def _target_ranges(s, ln, targets, fat):
    """Per arc, the (sorted) targets within `fat` of it: the index ranges
    [a, b) and [0, c), the second non-empty only where the arc wraps past 1."""
    span = ln + 2.0 * fat
    lo = (s - fat) % 1.0
    hi = lo + span
    full = span >= 1.0
    a = np.where(full, 0, np.searchsorted(targets, lo, side="left"))
    b = np.where(full, targets.size, np.searchsorted(targets, np.minimum(hi, 1.0), side="right"))
    c = np.where(~full & (hi > 1.0), np.searchsorted(targets, hi - 1.0, side="right"), 0)
    return a, b, c


def _first_hits(src, s, ln, targets, fat, open_pairs, n):
    """Per open (source, target) pair, the first of the arcs (in order) within
    `fat` of the target; -1 where none is.  Pairs are numbered
    source * targets.size + target, and `open_pairs` lists them sorted.  The
    matching (arc, pair) hits are expanded a block of arcs at a time."""
    nt = targets.size
    hit = np.full(n * nt, -1, dtype=np.int64)
    if s.size == 0 or open_pairs.size == 0:
        return hit
    a, b, c = _target_ranges(s, ln, targets, fat)
    base = src * nt
    # two ranges per arc, interleaved so that hits stay in arc order
    lo = np.searchsorted(open_pairs, np.stack([base + a, base], axis=1).reshape(-1))
    cnt = np.maximum(np.searchsorted(open_pairs, np.stack([base + b, base + c],
                                                          axis=1).reshape(-1)) - lo, 0)
    cum = np.cumsum(cnt)
    first = 0
    while first < cnt.size:
        last = max(first + 1, int(np.searchsorted(cum, cum[first] - cnt[first] + _HIT_PAIRS,
                                                   side="right")))
        k = cnt[first:last]
        piece = np.repeat(np.arange(first, last), k)
        offset = np.arange(piece.size) - np.repeat(np.cumsum(k) - k, k)
        pair, at = np.unique(open_pairs[lo[piece] + offset], return_index=True)
        new = hit[pair] < 0
        hit[pair[new]] = piece[at[new]] // 2
        first = last
    return hit


def _search_chunk(first, gens, starts, lengths, depths, budget, scale, targets, fat, stop_above):
    n = starts.size
    words = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=np.int64)
    stop = np.full(n, -1, dtype=np.int64)
    first_hit = None if targets is None else np.full((n, targets.size), -1, dtype=np.int64)
    # node columns: starts, lengths, parents, letters, source, level, kept
    dtypes = (float, float, np.int32, np.int16, np.int16, np.int32, bool)
    cols = [[] for _ in dtypes]
    kept, count = [], 0
    seen = np.zeros(0, dtype=np.int64)

    def early_stop(src, s, ln):
        """Per source, the position among the arcs (in visit order) where
        its early stop fires (-1 where it does not), and the positions of
        the first arcs within `fat` of each target it still needs."""
        at = np.full(n, -1, dtype=np.int64)
        if stop_above is not None:
            fire = np.flatnonzero(np.minimum(ln, 0.5) > stop_above)
            firsts, pos = np.unique(src[fire], return_index=True)
            at[firsts] = fire[pos]
        if targets is None:
            return at, None
        open_pairs = np.flatnonzero(first_hit.reshape(-1) < 0)
        hit = _first_hits(src, s, ln, targets, fat, open_pairs, n)
        got = np.flatnonzero(hit >= 0)
        owner = got // targets.size
        # a source is done once every target it still needed is hit
        gained = np.bincount(owner, minlength=n)
        done = (gained > 0) & (gained == np.bincount(open_pairs // targets.size, minlength=n))
        last = np.full(n, -1, dtype=np.int64)
        np.maximum.at(last, owner, hit[got])
        at[done] = last[done]
        return at, hit.reshape(n, targets.size)

    # level 0 visits the sources' own arcs, for no words
    src, s, ln = np.arange(n), starts, lengths
    parents, letters, j = np.full(n, -1), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    keys = _arc_keys(src, s, ln, scale)
    for level in range(int(depths.max(initial=0)) + 1):
        if level:
            present = np.bincount(f_src, minlength=n) > 0
            stop[(stop < 0) & ~present] = _EXHAUSTED
            stop[(stop < 0) & (depths < level)] = _DEPTH
            active = stop < 0
            if not active.any():
                break
            reached[active] += 1
            par = np.flatnonzero(active[f_src] & (f_l < _FULL))
            src, s, ln, parents, letters, keys, j, spent = _expand(
                gens, f_s[par], f_l[par], f_src[par], f_id[par], budget - words, seen, scale)
        at, hit_at = early_stop(src, s, ln)
        found = at >= 0
        inside = np.arange(src.size) <= np.where(found, at, src.size)[src]
        if level:
            spent[found] = j[at[found]] + 1
            words += spent
        stop[found] = _FOUND
        stop[(stop < 0) & (words >= budget)] = _BUDGET
        # the visited arcs become nodes
        node = count - 1 + np.cumsum(inside)
        for col, v, t in zip(cols, (s, ln, parents, letters, src, level, False), dtypes):
            col.append(np.asarray(np.broadcast_to(v, src.shape)[inside], dtype=t))
        count += int(inside.sum())
        if hit_at is not None:
            got = hit_at >= 0
            first_hit[got] = node[hit_at[got]]
        ins = np.sort(keys[inside])
        seen = np.insert(seen, np.searchsorted(seen, ins), ins)
        # the next frontier: the visited arcs no sibling contains
        go = np.flatnonzero(inside & (stop[src] != _FOUND))
        nxt = go[_dominance_keep(src[go], s[go], ln[go])]
        f_s, f_l, f_src, f_id = s[nxt], ln[nxt], src[nxt], node[nxt]
        kept.append(f_id)
    stop[stop < 0] = np.where(np.bincount(f_src, minlength=n)[stop < 0] > 0, _DEPTH, _EXHAUSTED)
    # one column at a time, so the pieces of only one are held twice
    nodes = [np.concatenate(cols.pop(0)) for _ in dtypes]
    for ids in kept:
        nodes[6][ids] = True
    return ArcImages(first, nodes, words, reached, stop, first_hit)


def _expand(gens, f_s, f_l, f_src, f_id, room, seen, scale):
    """The next level's arcs, in visit order: the children of each parent,
    letter by letter, whose merge cell is new to their source (the first
    occurrence wins), up to the source's word budget `room`: the child that
    spends it ends the level or, if its cell was seen, the parent's next
    fresh child or last letter does.  Returns their sources, starts,
    lengths, parents, letters, cell keys and word positions, and per source
    the words the level spends if no early stop ends it."""
    k, n = len(gens), room.size
    cs, cl = np.empty((f_s.size, k)), np.empty((f_s.size, k))
    for i, g in enumerate(gens):
        cs[:, i], cl[:, i] = map_arcs(g, f_s, f_l)
    cs, cl = cs.reshape(-1), cl.reshape(-1)
    csrc = np.repeat(f_src, k)
    keys = _arc_keys(csrc, cs, cl, scale)
    ncand = np.bincount(csrc, minlength=n)
    first_row = np.cumsum(ncand) - ncand
    j = np.arange(cs.size) - first_row[csrc]
    fresh = np.zeros(cs.size, dtype=bool)
    fresh[np.unique(keys, return_index=True)[1]] = True
    if seen.size:
        pos = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
        fresh &= seen[pos] != keys
    cut = np.full(n, np.iinfo(np.int64).max)
    for src in np.flatnonzero((ncand > 0) & (ncand >= room)).tolist():
        jb = room[src] - 1
        pend = (jb // k) * k + k - 1
        later = np.flatnonzero(fresh[first_row[src] + jb:first_row[src] + pend + 1])
        cut[src] = jb + later[0] if later.size else pend
    rows = np.flatnonzero(fresh & (j <= cut[csrc]))
    return (csrc[rows], cs[rows], cl[rows], f_id[rows // k], rows % k + 1, keys[rows],
            j[rows], np.minimum(cut, ncand - 1) + 1)


def _dominance_keep(src, s, ln) -> np.ndarray:
    """Indices of the arcs the greedy dominance rule keeps, in its order.

    The rule, per source: take the arcs longest first (ties in input order)
    and keep each one unless a kept arc is the full circle or contains it,
    with tolerance 1e-12.  The sweep: sorted by start, each arc meets the
    arc reaching farthest past its end among those of its source that start
    before it, or after it and wrap past 1.  A reach clear of the tolerance
    by more than rounding settles the arc (containment in a dropped arc
    passes on to the kept arc that dropped it); the few others are re-tested
    exactly against the kept arcs, in rule order.
    """
    n = s.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(n)
    order = np.lexsort((idx, -ln, src))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = idx
    by_src = src[order]
    head = np.zeros(n, dtype=bool)
    head[order[np.r_[True, by_src[1:] != by_src[:-1]]]] = True
    end = s + ln
    pos = np.lexsort((rank, s, src))
    seg, reach = src[pos], np.where(ln >= _FULL, np.inf, end)[pos]
    farthest = np.maximum(_prior_max(seg, reach),
                          _prior_max(seg[-1] - seg[::-1], reach[::-1])[::-1] - 1.0)
    margin = np.empty(n)
    margin[pos] = farthest - end[pos]
    keep = head | (margin <= _CLEAR)
    unsure = np.flatnonzero(~head & (margin >= -(_NEST_TOL + _CLEAR)) & (margin <= _CLEAR))
    for c in unsure[np.argsort(rank[unsure])].tolist():
        b = order[np.searchsorted(by_src, src[c]):rank[c]]
        b = b[keep[b]]
        keep[c] = not np.any((ln[b] >= _FULL)
                             | (((s[c] - s[b]) % 1.0) + ln[c] <= ln[b] + _NEST_TOL))
    return order[keep[order]]


def _prior_max(seg, v) -> np.ndarray:
    """Per position, the largest v at the earlier positions of its segment
    (-inf if none); segment ids are non-decreasing.  Ranks of v offset by
    segment make one running maximum restart at each segment."""
    n = v.size
    by_v = np.argsort(v, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_v] = np.arange(n)
    base = seg.astype(np.int64) * n
    prev = np.r_[-1, np.maximum.accumulate(base + rank)[:-1]]
    return np.where(prev >= base, v[by_v[prev % n]], -np.inf)


# ---------------------------------------------------------------------------
# orbit-density detectors


_FIRST_ORBITS = 4  # orbit roots in the first chunk (see `_chunks`)


def _orbit_chunks(ifs: IfsSystem, roots, res: Resolution, make_test):
    """(first root, cloud, stop test) per chunk of roots, each orbit merged
    at eps/8 within the depth and budget bounds; `make_test(chunk_roots)`
    builds the chunk's stop test."""

    def search(lo, hi):
        chunk = np.asarray(roots[lo:hi], dtype=float)
        test = make_test(chunk)
        return lo, orbit_cloud(ifs, chunk, res.depth, res.budget, stop_when=test,
                               merge=_merge_cell(res)), test

    yield from _chunks(len(roots), _FIRST_ORBITS, search, lambda r: r[1].values.size)


class _Density:
    """Stop test: a source stops once it holds 1/target points with no
    cyclic gap above target.  `gap` and `mid` keep each source's largest
    gap and its midpoint as of its last level, the roots' to start with.
    Unless `every`, a source that ends above target also stops every later
    source of the chunk."""

    def __init__(self, target: float, every: bool, roots: np.ndarray):
        self.target, self.every = target, every
        self.gap, self.mid = np.ones(roots.size), normalize_array(roots + 0.5)

    def __call__(self, level) -> np.ndarray:
        fire = np.zeros(level.counts.size, dtype=bool)
        if not (level.running & (level.ending | (level.counts >= 1.0 / self.target))).any():
            return fire
        gap, mid = _cyclic_gaps(level.cell_values, level.cell_source, level.counts.size)
        self.gap[level.running], self.mid[level.running] = gap[level.running], mid[level.running]
        fire = (level.counts >= 1.0 / self.target) & (gap <= self.target)
        failed = np.flatnonzero(level.ending & ~(gap <= self.target))
        if failed.size and not self.every:
            fire[failed[0] + 1:] = True
        return fire


_NOT_DENSE = "orbit not eps-dense within depth/budget bounds"


def minimality_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Every net point's forward orbit must be eps-dense in the circle."""
    net = system_net(ifs, res.net_size)
    worst = None
    for first, cloud, density in _orbit_chunks(
            ifs, net, res, lambda chunk: _Density(2.0 * res.eps, False, chunk)):
        sizes = np.bincount(cloud.source, minlength=density.gap.size).tolist()
        for j, (gap, mid) in enumerate(zip(density.gap.tolist(), density.mid.tolist())):
            x = net[first + j]
            if worst is None or gap > worst["gap"]:
                worst = {"point": x, "gap": gap, "gap_midpoint": mid, "orbit_points": sizes[j]}
            if not gap <= 2.0 * res.eps:
                reason = cloud.stop[j]
                return Verdict(
                    "minimality", False, res,
                    {"witness_point": x, "uncovered_gap": gap, "gap_midpoint": mid,
                     "orbit_points": sizes[j], "checked_points": len(net),
                     "stop_reason": reason, "depth_reached": int(cloud.depths[j])},
                    caveat=f"{_NOT_DENSE}: {_stopped_by(reason, res, orbit=True)}",
                )
    return Verdict(
        "minimality", True, res,
        {"checked_points": len(net), "worst": worst},
        caveat="density certified on the net at resolution eps",
    )


def strong_transitivity_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Minimality of the system of inverse generators (backward minimality)."""
    inner = minimality_verdict(ifs.inverse_system(), res)
    witnesses = dict(inner.witnesses)
    witnesses["orbit_direction"] = "backward"
    caveat = "witness orbits use inverse generators"
    if inner.holds:
        caveat = f"{inner.caveat}; {caveat}"
    else:
        caveat = f"{_NOT_DENSE}; {caveat}: " + _stopped_by(witnesses["stop_reason"], res, orbit=True)
    return Verdict("strong_transitivity", inner.holds, res, witnesses, caveat=caveat)


class _Coverage:
    """Stop test: a source stops once its orbit comes within eps of every
    closure point, that is min(|a - v|, 1 - |a - v|) <= eps for some orbit
    point v of each closure point a.  `covered` is the sources x closure
    points record of it, the roots counted from the start; a source that
    ends short of it also stops every later source of the chunk."""

    def __init__(self, closure: np.ndarray, eps: float, roots: np.ndarray):
        self.closure, self.eps = closure, eps
        # the closure repeated one turn either way, so that the closure
        # points near v form one run of it
        self._ring = np.concatenate([closure - 1.0, closure, closure + 1.0])
        self.covered = np.zeros((roots.size, closure.size), dtype=bool)
        self._mark(roots, np.arange(roots.size))

    def _mark(self, v: np.ndarray, src: np.ndarray):
        reach = self.eps + 1e-9  # beyond any rounding of the test below
        lo = np.searchsorted(self._ring, v - reach)
        cnt = np.searchsorted(self._ring, v + reach, side="right") - lo
        pair = np.repeat(np.arange(v.size), cnt)
        m = (np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(pair.size)) % self.closure.size
        d = np.abs(self.closure[m] - v[pair])
        near = np.minimum(d, 1.0 - d) <= self.eps
        self.covered[src[pair[near]], m[near]] = True

    def __call__(self, level) -> np.ndarray:
        self._mark(level.values, level.source)
        fire = self.covered.all(axis=1)
        failed = np.flatnonzero(level.ending & ~fire)
        if failed.size:
            fire[failed[0] + 1:] = True
        return fire


def _nearest_distances(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per point, min(|a - v|, 1 - |a - v|) over the values v, a block of
    points at a time."""
    out = np.empty(points.size)
    block = max(1, (1 << 16) // max(1, values.size))
    for b in range(0, points.size, block):
        d = np.abs(points[b:b + block, None] - values[None, :])
        out[b:b + block] = np.minimum(d, 1.0 - d).min(axis=1)
    return out


def almost_periodic_verdict(ifs: IfsSystem, x, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Whether the orbit closure of x is minimal at resolution eps.

    The closure is approximated by the eps-thinned orbit of x, augmented with
    any generator fixed point that the orbit approaches within eps/2 (those
    are the accumulation points a finite orbit sample cannot reach exactly).
    Then the orbit of every closure point must come within eps of each.
    """
    _require_finite("x", float(x))
    x = as_value(x)
    # no early density exit here: the closure sample must include the slow
    # tails that accumulate on fixed points
    cloud = orbit_cloud(ifs, x, res.depth, res.budget, merge=_merge_cell(res))
    vals = np.sort(cloud.values)
    nbins = max(1, round(1.0 / res.eps))
    # the least orbit value of each eps-bin
    firsts = np.unique(np.minimum((vals * nbins).astype(np.int64), nbins - 1),
                       return_index=True)[1]
    fps = np.array(generator_fixed_values(ifs))
    near = fps[_nearest_distances(fps, vals) <= res.eps / 2.0]
    closure = np.unique(np.r_[x, vals[firsts], near])  # all canonical values already
    for first, cloud, coverage in _orbit_chunks(ifs, closure, res,
                                                lambda chunk: _Coverage(closure, res.eps, chunk)):
        short = np.flatnonzero(~coverage.covered.all(axis=1))
        if short.size:
            j = int(short[0])
            vals = cloud.values[cloud.source == j]
            d = _nearest_distances(closure, vals)
            far = int(np.argmax(d))
            reason = cloud.stop[j]
            return Verdict(
                "almost_periodic", False, res,
                {"base_point": x, "witness_y": float(closure[first + j]),
                 "closure_size": closure.size, "unreached_example": float(closure[far]),
                 "unreached_distance": float(d[far]),
                 "stop_reason": reason, "depth_reached": int(cloud.depths[j]),
                 "orbit_points": int(vals.size)},
                caveat="orbit of witness_y not eps-dense in the orbit closure of x "
                       "within bounds: " + _stopped_by(reason, res, orbit=True),
            )
    return Verdict(
        "almost_periodic", True, res,
        {"base_point": x, "closure_size": closure.size},
        caveat="closure approximated by eps-thinned orbit sample",
    )


# ---------------------------------------------------------------------------
# periodic and fixed points


def dense_periodic_verdict(ifs: IfsSystem, max_len: int,
                           res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """The fixed points of the words of length 1..max_len must leave no
    cyclic gap above 2 eps.  Every such word is solved, so their number
    k + k**2 + ... + k**max_len may not exceed the budget."""
    words, level = 0, 1
    for _ in range(max_len):
        level *= ifs.k
        words += level
        if words > res.budget:
            raise ValueError(f"max_len {max_len}: the words of length up to {max_len} "
                             f"over {ifs.k} letters exceed the budget ({res.budget})")
    pts = periodic_points(ifs, max_len)
    gap = max_cyclic_gap([p.value for p, _ in pts])[0]
    witnesses = {"count": len(pts), "max_gap": gap, "max_word_length": max_len,
                 "example_words": [list(pts[0][1])] if pts else []}
    return Verdict("dense_periodic", bool(pts) and gap <= 2.0 * res.eps, res,
                   witnesses, "density measured at resolution eps")


def repelling_fixed_point_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """The first repelling generator fixed point, in letter order."""
    for letter, rec in ifs.generator_fixed_points():
        if rec.classification == "repelling":
            return Verdict("repelling_fixed_point", True, res, {
                "generator": letter, "location": rec.location.value,
                "multipliers": list(rec.one_sided_multipliers)})
    return Verdict("repelling_fixed_point", False, res, {},
                   "no generator has a repelling fixed point")


# ---------------------------------------------------------------------------
# arc-quantified detectors


def _net_arcs(centers: Sequence[float], r: float):
    """Starts and lengths of the radius-r arcs around the given centers."""
    c = np.asarray(centers, dtype=float)
    return normalize_array(c - r), np.full(c.size, 2.0 * r)


def _stopped_by(reason: str, res: Resolution, orbit: bool = False) -> str:
    """The bound that ended a search (of image arcs, or of orbit points), for
    a negative verdict's caveat."""
    states, spent = ("orbit points", "point") if orbit else ("image arcs", "word")
    return {"depth": f"the search reached its depth bound (depth={res.depth})",
            "budget": f"the search spent its {spent} budget (budget={res.budget})",
            "exhausted": f"the search ran out of new {states} at merge cell eps/8",
            }[reason]


def topological_transitivity_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """For every pair of radius-r net arcs U, V some word image of U meets V."""
    centers = system_net(ifs, res.net_size)
    starts, lengths = _net_arcs(centers, res.r)
    hardest: Optional[dict] = None
    for images in _arc_search(ifs, starts, lengths, res.depth, res.budget,
                              _merge_cell(res), centers, res.r):
        for j, hits in enumerate(images.first_hit):
            cu = centers[images.first + j]
            missed = np.flatnonzero(hits < 0)
            if missed.size:
                reason = images.stop[j]
                return Verdict(
                    "topological_transitivity", False, res,
                    {"stuck_source_center": cu,
                     "unreached_target_centers": [centers[i] for i in missed[:16]],
                     "unreached_count": int(missed.size),
                     "stop_reason": reason,
                     "depth_reached": int(images.depth_reached[j]),
                     "words_examined": int(images.words[j])},
                    caveat="image arcs of the stuck source never met the listed "
                           "targets: " + _stopped_by(reason, res),
                )
            # the target met last, the larger center on ties
            levels = images.level[hits]
            t = levels.size - 1 - int(np.argmax(levels[::-1]))
            if hardest is None or levels[t] > len(hardest["word"]):
                hardest = {"source_center": cu, "target_center": centers[t],
                           "word": list(images.words_for([hits[t]])[0])}
        del images  # free this chunk before the next one is searched
    return Verdict(
        "topological_transitivity", True, res,
        {"pairs_checked": len(centers) ** 2, "hardest_pair": hardest},
        caveat="",
    )


def s_transitivity_verdict(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> Verdict:
    """Finitely many word images of each net arc must eps-cover the circle."""
    centers = system_net(ifs, res.net_size)
    starts, lengths = _net_arcs(centers, res.r)
    covers: Dict[str, list] = {}
    worst_len = 0
    for images in _arc_search(ifs, starts, lengths, res.depth, res.budget,
                              _merge_cell(res), centers, res.eps):
        for j, hits in enumerate(images.first_hit):
            cu = centers[images.first + j]
            # each image arc that first covered some center, in visit order
            chosen = sorted(set(hits[hits >= 0].tolist()))
            missed = np.flatnonzero(hits < 0)
            if missed.size:
                reason = images.stop[j]
                return Verdict(
                    "s_transitivity", False, res,
                    {"stuck_arc_center": cu,
                     "uncovered_centers": [centers[i] for i in missed[:16]],
                     "uncovered_count": int(missed.size),
                     "partial_cover_size": len(chosen),
                     "stop_reason": reason,
                     "depth_reached": int(images.depth_reached[j]),
                     "words_examined": int(images.words[j])},
                    caveat="no eps-cover by image arcs: " + _stopped_by(reason, res),
                )
            covers[f"{cu:.10f}"] = [list(w) for w in images.words_for(chosen)]
            worst_len = max(worst_len, len(chosen))
        del images  # free this chunk before the next one is searched
    return Verdict(
        "s_transitivity", True, res,
        {"covers": covers, "largest_cover_size": worst_len},
        caveat="coverage certified on the net at resolution eps",
    )


# ---------------------------------------------------------------------------
# rule-driven chains: each arc follows one letter per step, picked by a rule


def periodic_rule(pattern: Sequence[int]):
    """Extension rule cycling through a fixed pattern of letters."""
    pattern = tuple(pattern)
    if not pattern or any(not isinstance(v, Integral) or v < 1 for v in pattern):
        raise ValueError(f"a rule needs one or more integer letters >= 1; got {pattern}")
    pattern = tuple(int(v) for v in pattern)

    def rule(ifs: IfsSystem, step: int, s, ln, c):
        letter = pattern[step % len(pattern)]
        return (np.full(s.size, letter), *map_arcs(ifs.generator(letter), s, ln))

    rule.label = f"periodic{pattern}"
    return rule


def constant_rule(letter: int):
    """Extension rule that always plays the same letter."""
    rule = periodic_rule((letter,))
    rule.label = f"constant({letter})"
    return rule


def greedy_diameter_rule():
    """Extension rule that picks the letter maximizing the next image diameter,
    breaking ties toward the smallest letter."""

    def rule(ifs: IfsSystem, step: int, s, ln, c):
        # no "no letter" column: a diameter is never below 0, so letter 1 leads
        im = np.array([map_arcs(g, s, ln) for g in ifs.generators])
        at = _best_from(np.minimum(im[:, 1].T, 0.5), 0)[1]
        return (at + 1, *im[at, :, np.arange(s.size)].T)

    rule.label = "greedy_diameter"
    return rule


def _greedy_derivative_rule(ifs: IfsSystem, step: int, s, ln, c) -> np.ndarray:
    """Extension rule that picks the letter maximizing the absolute derivative
    at the tracked center, ties toward the smallest letter; a chain whose
    center is a corner of every letter stops."""
    # column 0, -1, stands for no letter; a NaN derivative (at a corner) never wins
    d = [np.full(c.size, -1.0)] + [np.abs(g.derivative_array(c)) for g in ifs.generators]
    return _best_from(np.array(d).T, 0)[1]


_greedy_derivative_rule.label = "greedy_derivative"


def _rule_paths(ifs: IfsSystem, s, ln, c, steps: int, rule) -> Tuple[np.ndarray, np.ndarray]:
    """Letters (n x steps) and image diameters (times 0..steps) along one
    chain per arc [s, s + ln].

    Each step, `rule(ifs, step, s, ln, c)` picks the letters of all live
    arcs at once from their current starts, lengths and tracked centers `c`
    (each arc's center moves with it; None tracks none).  Letter 0 stops a
    chain: letter 0 and diameter -1 from there on.  A rule may map the arcs
    itself and return (letters, starts, lengths), the images under its
    letters; they are not mapped again."""
    s, ln = np.array(s, dtype=float), np.array(ln, dtype=float)
    c = None if c is None else np.array(c, dtype=float)
    letters = np.zeros((s.size, steps), dtype=np.int16)
    diams = np.full((s.size, steps + 1), -1.0)
    diams[:, 0] = np.minimum(ln, 0.5)
    live = slice(None)  # the chains still running (all until one stops); s, ln, c hold theirs
    for step in range(steps):
        out = rule(ifs, step, s, ln, c)
        pick, *images = out if isinstance(out, tuple) else (out,)
        if not pick.all():
            go = pick != 0
            live, pick, s, ln = np.arange(len(diams))[live][go], pick[go], s[go], ln[go]
            images, c = [v[go] for v in images], None if c is None else c[go]
            if live.size == 0:
                break
        s, ln = images or (s, ln)  # the rule's own images, if it mapped the arcs
        if not images or c is not None:
            for letter in np.unique(pick).tolist():
                m = pick == letter
                g = ifs.generator(letter)
                if not images:
                    s[m], ln[m] = map_arcs(g, s[m], ln[m])
                if c is not None:
                    c[m] = g.eval_array(c[m])
        letters[live, step] = pick
        diams[live, step + 1] = np.minimum(ln, 0.5)
    return letters, diams


def _best_from(diams: np.ndarray, first: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per chain, the best image diameter from time `first` on and the time
    reaching it; a later time wins only on a gain above 1e-15."""
    best, at = diams[:, first].copy(), np.full(diams.shape[0], first)
    for t in range(first + 1, diams.shape[1]):
        up = diams[:, t] > best + 1e-15
        best[up], at[up] = diams[:, t][up], t
    return best, at


def separation_times(ifs: IfsSystem, U: Arc, omega_rule, delta: float,
                     horizon: int) -> List[int]:
    """Times n <= horizon at which the image of U, extended letter by letter
    by `omega_rule` (its tracked center the midpoint of U), exceeds diameter
    delta."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    s, ln = U.start.value, U.length
    diams = _rule_paths(ifs, [s], [ln], [normalize(s + ln / 2.0)], horizon, omega_rule)[1]
    return np.flatnonzero(diams[0] > delta).tolist()


# ---------------------------------------------------------------------------
# sensitivity machinery


def _radius_ladder(r: float) -> List[float]:
    rungs = []
    v = 0.1
    while v > r:
        rungs.append(v)
        v /= 2.0
    rungs.append(v)
    return rungs


# words at points on arrays, for the partner refinement here and the cover
# search in `smooth`

def _letter_rows(ifs: IfsSystem, words: Sequence[Word]) -> np.ndarray:
    """The words as rows of letters, zero-padded on the right, in the
    smallest unsigned dtype holding letter k."""
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    out = np.zeros((lengths.size, lengths.max(initial=0)), dtype=np.min_scalar_type(ifs.k))
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(words), out.dtype, lengths.sum())
    return out


def _word_images(ifs: IfsSystem, letters: np.ndarray, x: np.ndarray):
    """Images and derivatives, shaped like the 2-d x, of the word of
    `letters[i]` at every point of x[i]: `_word_values` over the points in
    passes of at most _CHUNK_NODES rows."""
    flat, m = x.ravel(), x.shape[1]
    parts = [_word_values(ifs, letters[np.arange(lo, min(lo + _CHUNK_NODES, flat.size)) // m],
                          flat[lo:lo + _CHUNK_NODES])
             for lo in range(0, max(1, flat.size), _CHUNK_NODES)]
    return [np.concatenate(column).reshape(x.shape) for column in zip(*parts)]


_PARTNERS = 16


def _refined_separations(ifs: IfsSystem, words: Sequence[Word], x: np.ndarray, r: np.ndarray):
    """Per ball B(x[i], r[i]), the largest separation words[i] makes between
    x[i] and one of _PARTNERS partners evenly spaced across the ball, and the
    first partner reaching it: lists (separations, partners).  Each
    separation is circ_dist(w(x), w(y)) bit for bit."""
    y = normalize_array((x - r)[:, None] + 2.0 * r[:, None] * np.arange(_PARTNERS)
                        / (_PARTNERS - 1))
    images = _word_images(ifs, _letter_rows(ifs, words), np.column_stack([x, y]))[0]
    d = np.abs(images[:, :1] - images[:, 1:])
    sep = np.where(d <= 0.5, d, 1.0 - d)
    first = np.arange(x.size), sep.argmax(axis=1)
    return sep[first].tolist(), y[first].tolist()


def _most_separating(ifs: IfsSystem, words: Sequence[Sequence[Word]], x: np.ndarray, r: float,
                     best: Sequence[Tuple[float, Word]], enough: float = np.inf
                     ) -> List[Tuple[float, Word]]:
    """Per point x[i], the (separation, word) of the first of words[i]
    separating B(x[i], r) more than best[i] and every word before it; each
    scan stops past `enough`.  All the words are refined in one batch."""
    owner = np.repeat(np.arange(len(words)), [len(ws) for ws in words])
    seps = _refined_separations(ifs, [w for ws in words for w in ws], x[owner],
                                np.full(owner.size, r))[0]
    out, at = [], 0
    for ws, b in zip(words, best):
        for w, sep in zip(ws, seps[at:at + len(ws)]):
            if sep > b[0]:
                b = (sep, w)
            if b[0] > enough:
                break
        at += len(ws)
        out.append(b)
    return out


def _repeller_steering_data(ifs: IfsSystem, res: Resolution):
    """Backward-orbit clouds of every repelling generator fixed point."""
    if not ifs.all_invertible:
        return []
    repellers = [(rec.location.value, letter) for letter, rec in ifs.generator_fixed_points()
                 if rec.classification == "repelling"]
    clouds = orbit_cloud(ifs.inverse_system(), [q for q, _ in repellers], res.depth, res.budget,
                         merge=_merge_cell(res))
    return [(q, letter, clouds.of(j)) for j, (q, letter) in enumerate(repellers)]


def _bfs_best(ifs: IfsSystem, starts, lengths, depth, budget: int, cell: float,
              stop_above: Optional[float] = None) -> List[Tuple[float, Word]]:
    """Per source arc, the widest (diameter, word) its search visits, as a
    scan in visit order finds it that takes a new best only on a gain of
    more than 1e-15; only the strict running maxima can be one."""
    out = []
    for images in _arc_search(ifs, starts, lengths, depth, budget, cell,
                              stop_above=stop_above):
        order = np.argsort(images.source, kind="stable")
        seg, d = images.source[order], np.minimum(images.lengths[order], 0.5)
        best: Dict[int, int] = {}
        for i in np.flatnonzero(d > _prior_max(seg, d)).tolist():
            j = int(seg[i])
            if j not in best or d[i] > d[best[j]] + 1e-15:
                best[j] = i
        ids = order[[best[j] for j in range(len(images.words))]]
        out += zip(np.minimum(images.lengths[ids], 0.5).tolist(), images.words_for(ids))
        del images  # free this chunk before the next one is searched
    return out


def _greedy_chains(ifs: IfsSystem, x: np.ndarray, r: np.ndarray, depth: int,
                   by_derivative: bool):
    """The best diameter along the greedy chain of each ball B(x, r), by
    image diameter or by the derivative at the ball's tracked center, and
    the word of ball i reaching it.  Cheap, and it follows exactly the
    growth mechanism that expanding words certify."""
    rule = _greedy_derivative_rule if by_derivative else greedy_diameter_rule()
    letters, diams = _rule_paths(ifs, normalize_array(x - r), 2.0 * r,
                                 x if by_derivative else None, depth, rule)
    best, size = _best_from(diams, 0)
    return best, lambda i: tuple(letters[i, :size[i]].tolist())


def _first_within(values: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per pair, the first index of `values` within r of x (-1 if none)."""
    out = np.full(x.size, -1, dtype=np.int64)
    block = max(1, (1 << 12) // max(1, values.size))
    for b in range(0, x.size, block):
        d = np.abs(values[None, :] - x[b:b + block, None])
        near = np.minimum(d, 1.0 - d) <= r[b:b + block, None]
        out[b:b + block] = np.where(near.any(axis=1), near.argmax(axis=1), -1)
    return out


def _steered_candidates(ifs: IfsSystem, steering, x: np.ndarray, r: np.ndarray, depth: int):
    """Per (x, r) pair, the best diameter found by pulling a repeller q into
    B(x, r) and iterating its generator (-1 if no repeller can be pulled
    in), that q, and the word of pair i reaching it; mirrors the
    unstable-point separation argument."""
    best, which = np.full(x.size, -1.0), np.full(x.size, -1)
    pulled, reps = np.zeros(x.size, dtype=np.int64), np.zeros(x.size, dtype=np.int64)
    for e, (q, letter, cloud) in enumerate(steering):
        # earliest found = shortest pull-back word: the cloud node's letters
        # back to its root, replayed on the ball
        first = _first_within(cloud.values, x, r)
        rows = np.flatnonzero(first >= 0)
        first = first[rows]
        s, ln = normalize_array(x[rows] - r[rows]), 2.0 * r[rows]
        node, steps = first.copy(), np.full(rows.size, depth)
        while (live := np.flatnonzero(node > 0)).size:
            lets = cloud.letters[node[live]]
            for let, g in enumerate(ifs.generators, start=1):
                m = live[lets == let]
                s[m], ln[m] = map_arcs(g, s[m], ln[m])
            steps[live] -= 1
            node[live] = cloud.parents[node[live]]
        # then the repeller's letter, for the rest of each pair's depth
        horizon = int(steps.max(initial=0))
        if horizon < 1:
            continue
        diams = _rule_paths(ifs, s, ln, None, horizon, constant_rule(letter))[1]
        diams[np.arange(horizon + 1) > steps[:, None]] = -1.0
        local, local_n = _best_from(diams, 1)
        up = (steps > 0) & (local > best[rows] + 1e-15)
        best[rows[up]], which[rows[up]] = local[up], e
        pulled[rows[up]], reps[rows[up]] = first[up], local_n[up]

    # the pull-back words of a repeller's pairs, read back in one call
    words = [None] * x.size
    for e, (_, letter, cloud) in enumerate(steering):
        mine = np.flatnonzero(which == e).tolist()
        for i, w in zip(mine, cloud.words_for(pulled[mine])):
            words[i] = w[::-1] + (letter,) * int(reps[i])
    return best, [steering[e][0] if e >= 0 else None for e in which.tolist()], words.__getitem__


def _cheap_candidates(ifs: IfsSystem, res: Resolution, x: np.ndarray, r: np.ndarray):
    """Per (x, r) pair, the best diameters of repeller steering and of the
    greedy diameter and derivative chains, in that order, as (diameters,
    word of pair i, strategy label of pair i); -1 where steering finds
    nothing."""
    best, q, word = _steered_candidates(ifs, _repeller_steering_data(ifs, res), x, r, res.depth)
    return [(best, word, lambda i: f"repeller_steered(q={q[i]:.6f})")] + [
        (*_greedy_chains(ifs, x, r, res.depth, flag), lambda i, label=label: label)
        for flag, label in ((False, "greedy_diameter"), (True, "greedy_derivative"))]


def sensitivity_estimate(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION
                         ) -> Tuple[SensitivityReport, Verdict]:
    """Estimate the sensitivity constant from below.

    For each net point and each radius rung the ball around the point is
    tracked through word images.  Search strategies, in order: plain
    breadth-first arc images; repeller steering (pull a repelling fixed
    point into the ball, then iterate its generator); and two greedy
    extension chains for expanding structure without repellers.  Every
    (point, rung) pair runs through each strategy in one batch.  The
    recorded separation always replays as circ_dist(w(x), w(y)) for the
    listed partner y.
    """
    net = system_net(ifs, res.net_size)
    rungs = _radius_ladder(res.r)
    slice_budget = max(64, res.budget // max(1, len(net) * len(rungs)))
    xs = np.repeat(np.asarray(net, dtype=float), len(rungs))
    rs = np.tile(np.asarray(rungs, dtype=float), len(net))
    bfs = _bfs_best(ifs, normalize_array(xs - rs), 2.0 * rs, res.depth,
                    slice_budget, _merge_cell(res))
    # steering and the chains (which catch expanding structure that has no
    # repelling fixed point to steer by) only claim strictly better results
    cheap = _cheap_candidates(ifs, res, xs, rs)
    strategies = [([d for d, _ in bfs], lambda i: bfs[i][1], lambda i: "bfs")] + cheap
    best, at = _best_from(np.column_stack([diams for diams, _, _ in strategies]), 0)
    chosen = [(strategies[k][1](i), strategies[k][2](i)) for i, k in enumerate(at.tolist())]
    seps, partners = _refined_separations(ifs, [w for w, _ in chosen], xs, rs)
    per_point = []
    notes: Dict[str, int] = {}
    delta_hat = None
    for x, r, best_diam, (best_word, strategy), sep, partner in zip(
            xs.tolist(), rs.tolist(), best.tolist(), chosen, seps, partners):
        note_key = strategy.split("(")[0]
        notes[note_key] = notes.get(note_key, 0) + 1
        per_point.append({
            "x": x,
            "r": r,
            "best_word": list(best_word),
            "best_partner_y": partner,
            "separation": sep,
            "image_diameter": best_diam,
            "diameter_capped": best_diam >= 0.5 - 1e-12,
            "strategy": strategy,
        })
        if r == rungs[-1] and (delta_hat is None or sep < delta_hat):
            delta_hat = sep
    report = SensitivityReport(delta_hat=float(delta_hat), per_point=per_point,
                               strategy_notes=notes)
    verdict = Verdict(
        "sensitivity", bool(delta_hat >= res.eps), res,
        {"delta_hat": float(delta_hat), "smallest_radius": rungs[-1],
         "points": len(net), "rungs": rungs},
        caveat="delta_hat is a lower estimate; negative verdicts are "
               "search-bounded",
    )
    return report, verdict


# ---------------------------------------------------------------------------
# cofinite sensitivity


def cofinite_sensitivity_verdict(ifs: IfsSystem, delta: float,
                                 res: Resolution = DEFAULT_RESOLUTION,
                                 window: int = 100) -> Verdict:
    """Each net arc needs one extension rule separating it beyond delta on a
    full window [N, N + window] of times.

    The rules, tried in order, are `greedy_diameter_rule()` and each
    `constant_rule`; every net arc follows them together, as
    `separation_times` follows one arc."""
    if window < 1:
        raise ValueError("window must be positive")
    if not 0.0 < delta < 0.5:  # image diameters are capped at 1/2
        raise ValueError(f"delta must be finite and lie in (0, 1/2), got {delta}")
    horizon = res.depth + window
    rules = [greedy_diameter_rule()] + [constant_rule(i) for i in range(1, ifs.k + 1)]
    centers = system_net(ifs, res.net_size)
    starts, lengths = _net_arcs(centers, res.r)
    first_n = np.full(len(centers), -1)
    rule = np.zeros(len(centers), dtype=np.int64)
    for i, omega in enumerate(rules):
        todo = np.flatnonzero(first_n < 0)
        if todo.size == 0:
            break
        diams = _rule_paths(ifs, starts[todo], lengths[todo], None, horizon, omega)[1]
        # the times N with every n in [N, N + window] separated
        run = np.cumsum(np.pad(diams > delta, ((0, 0), (1, 0))), axis=1)
        full = run[:, window + 1:] - run[:, :horizon - window + 1] == window + 1
        ok = full.any(axis=1)
        first_n[todo[ok]], rule[todo[ok]] = full[ok].argmax(axis=1), i
    if (first_n < 0).any():
        return Verdict(
            "cofinite_sensitivity", False, res,
            {"stuck_arc_center": centers[int(np.argmax(first_n < 0))], "delta": delta,
             "window": window, "rules_tried": [omega.label for omega in rules]},
            caveat="no rule produced a separation window within the horizon",
        )
    j = int(np.argmax(first_n))
    worst = {"arc_center": centers[j], "rule": rules[rule[j]].label, "N": int(first_n[j])}
    return Verdict(
        "cofinite_sensitivity", True, res,
        {"delta": delta, "window": window, "max_N": worst["N"],
         "hardest": worst, "horizon": horizon},
        caveat="cofiniteness beyond the checked window is extrapolated",
    )


# ---------------------------------------------------------------------------
# sensitivity witness from a non-dense orbit


def sensitivity_witness_from_nonminimality(ifs: IfsSystem,
                                           res: Resolution = DEFAULT_RESOLUTION
                                           ) -> Tuple[float, Verdict]:
    """Derive a candidate sensitivity constant from a non-dense orbit closure
    and verify it pointwise with the covering double search.

    The candidate is one quarter of the distance from the farthest point to
    the non-dense orbit closure.  Verification demands, for every net point,
    a word separating its r-ball beyond the candidate; the search tries
    repeller steering and the greedy chains, then the covering words of the
    ball, then extensions of each covering word.
    """
    net = system_net(ifs, res.net_size)
    worst_gap, worst_point = 0.0, None
    for first, cloud, density in _orbit_chunks(
            ifs, net, res, lambda chunk: _Density(2.0 * res.eps, True, chunk)):
        for j, (gap, mid) in enumerate(zip(density.gap.tolist(), density.mid.tolist())):
            if not gap <= 2.0 * res.eps and gap > worst_gap:
                worst_gap, worst_point, z = gap, net[first + j], mid
                worst_vals = cloud.values[cloud.source == j]
    if worst_point is None:
        raise NotApplicable("every net orbit is eps-dense at this resolution")
    dist = float(_nearest_distances(np.array([z]), worst_vals)[0])
    delta_candidate = dist / 4.0

    cell = _merge_cell(res)
    r = _radius_ladder(res.r)[-1]
    cover_budget = min(res.budget, 20_000)
    ext_budget = 1_000
    xs = np.asarray(net, dtype=float)
    cheap = _cheap_candidates(ifs, res, xs, np.full(xs.size, r))
    achieved = _most_separating(ifs, [[word(i) for diams, word, _ in cheap if diams[i] >= 0]
                                      for i in range(xs.size)], xs, r, [(0.0, ())] * xs.size)
    # net points the cheap candidates leave unseparated: cover the circle
    # with images of the ball, then extend each covering word
    hard = [i for i, (sep, _) in enumerate(achieved) if sep <= delta_candidate]
    starts, lengths = _net_arcs(xs[hard], r)
    for images in _arc_search(ifs, starts, lengths, res.depth, cover_budget, cell,
                              net, res.eps):
        points = hard[images.first:images.first + len(images.first_hit)]
        candidates = []
        for hits in images.first_hit:
            cover = sorted(set(hits[hits >= 0].tolist()))
            words = images.words_for(cover)
            ext = _bfs_best(ifs, images.starts[cover], images.lengths[cover],
                            [max(1, res.depth - len(w)) for w in words], ext_budget,
                            cell, stop_above=2.5 * delta_candidate)
            candidates.append([w for T, (_, e) in zip(words, ext) for w in (T, T + e)])
        got = _most_separating(ifs, candidates, xs[points], r, [achieved[i] for i in points],
                               delta_candidate)
        for i, sep_word in zip(points, got):
            achieved[i] = sep_word
        del images  # free this chunk before the next one is searched
    failures: List[float] = []
    example = None
    for x, (sep, w) in zip(net, achieved):
        if sep <= delta_candidate:
            failures.append(x)
        elif example is None or len(w) > len(example["word"]):
            example = {"x": x, "word": list(w), "separation": sep}
    holds = not failures
    verdict = Verdict(
        "sensitivity_witness_from_nonminimality", holds, res,
        {"nondense_point_y": worst_point, "farthest_point_z": z,
         "distance_to_closure": dist, "delta_candidate": delta_candidate,
         "checked_points": len(net),
         "failing_points": failures[:16],
         "hardest_verified": example},
        caveat="closure distance measured against the sampled orbit",
    )
    return delta_candidate, verdict
