"""Finitely generated systems of circle maps and their semigroup action.

Words act by applying their letters left to right: letter w[0] first,
letter w[-1] last.  Orbits are computed breadth-first by `orbit_cloud`, one
level at a time, with points deduplicated at resolution 1e-12, keeping the
first (hence shortest) witness word per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .circle import CirclePoint, as_value, normalize, normalize_array
from .generators import Generator, NonInvertible, _lift_fixed_values, fixed_points
from .symbolic import Word, enumerate_words, validate_word

# Orbit points closer than this are treated as the same point.
DEDUP_RESOLUTION = 1e-12
_KEY_SCALE = round(1.0 / DEDUP_RESOLUTION)


class IfsSystem:
    """An ordered finite family of generators; letter i names generators[i-1]."""

    def __init__(self, generators: Iterable[Generator]):
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("need at least one generator")
        self._inverse: Optional["IfsSystem"] = None
        self._fixed_points: Optional[tuple] = None

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def all_invertible(self) -> bool:
        return all(g.invertible for g in self.generators)

    def generator(self, letter: int) -> Generator:
        if not 1 <= letter <= self.k:
            raise ValueError(f"letter {letter} outside 1..{self.k}")
        return self.generators[letter - 1]

    def inverse_system(self) -> "IfsSystem":
        if not self.all_invertible:
            raise NonInvertible("system contains a non-injective generator")
        if self._inverse is None:
            self._inverse = IfsSystem(g.inverse() for g in self.generators)
        return self._inverse

    def generator_fixed_points(self) -> tuple:
        """(letter, FixedPointRecord) per generator fixed point, in letter
        order, found on first use; a map fixing every point gives 16 samples."""
        if self._fixed_points is None:
            self._fixed_points = tuple((letter, rec) for letter, g in enumerate(self.generators, 1)
                                       for rec in fixed_points(g, identity_samples=16))
        return self._fixed_points

    def apply_word(self, w: Word, x: float) -> float:
        v = normalize(x)
        for letter in w:
            v = self.generators[letter - 1].eval(v)
        return v

    def apply_inverse_word(self, w: Word, x: float) -> float:
        """Apply the inverse of the word map: inverse letters in reverse order."""
        inv = self.inverse_system()
        v = normalize(x)
        for letter in reversed(w):
            v = inv.generators[letter - 1].eval(v)
        return v

    def word_lift(self, w: Word):
        gens = [self.generators[letter - 1] for letter in w]

        def lifted(t: float) -> float:
            for g in gens:
                t = g.lift(t)
            return t

        return lifted

    def __repr__(self):
        return f"IfsSystem({list(self.generators)!r})"


@dataclass(frozen=True)
class OrbitSet:
    """Deduplicated orbit points together with one witness word per point."""

    base: CirclePoint
    direction: str
    depth: int
    points: tuple  # of (CirclePoint, Word), sorted by point value

    def values(self) -> List[float]:
        return [p.value for p, _ in self.points]

    def __len__(self):
        return len(self.points)


def compose_word(ifs: IfsSystem, w: Word, x) -> CirclePoint:
    validate_word(w, ifs.k)
    return CirclePoint(ifs.apply_word(w, as_value(x)))


def word_derivative(ifs: IfsSystem, w: Word, x) -> float:
    """Chain-rule product of generator derivatives along the trajectory of x."""
    validate_word(w, ifs.k)
    v = as_value(x)
    deriv = 1.0
    for letter in w:
        g = ifs.generators[letter - 1]
        deriv *= g.derivative(v)
        v = g.eval(v)
    return deriv


def _word_values(ifs: IfsSystem, letters: np.ndarray, x: np.ndarray):
    """Images and chain-rule derivatives of many words at many points: row i
    applies `letters[i]` (0 meaning no letter) to x[i], position by position,
    the rows of each letter at once.  Each row is bitwise equal to `apply_word`
    and `word_derivative` (NaN where a corner makes it raise), for every
    generator type: each step is the generator's `eval_and_derivative_array`.
    """
    v = normalize_array(np.array(x, dtype=float))
    d = np.ones(v.size)
    for column in np.asarray(letters).T:
        for letter, g in enumerate(ifs.generators, 1):
            rows = np.flatnonzero(column == letter)
            if rows.size:
                v[rows], step = g.eval_and_derivative_array(v[rows])
                d[rows] *= step
    return v, d


def _orbit_set(ifs: IfsSystem, x, depth: int, cap: int, inverse: bool) -> OrbitSet:
    if depth < 0:
        raise ValueError("depth must be non-negative")
    cloud = orbit_cloud(ifs.inverse_system() if inverse else ifs, x, depth, cap)
    # A backward cloud applies inverse letters in path order, so the word
    # carrying a point back to x is that path reversed.
    words = [w[::-1] if inverse else w for w in cloud.words_for(np.arange(cloud.values.size))]
    pts = tuple(sorted(zip(map(CirclePoint, cloud.values.tolist()), words),
                       key=lambda e: e[0].value))
    return OrbitSet(CirclePoint(as_value(x)), "backward" if inverse else "forward",
                    depth, pts)


def forward_orbit(ifs: IfsSystem, x, depth: int, cap: int = 100_000) -> OrbitSet:
    """All images of x under words of length <= depth (breadth-first, capped)."""
    return _orbit_set(ifs, x, depth, cap, inverse=False)


def backward_orbit(ifs: IfsSystem, x, depth: int, cap: int = 100_000) -> OrbitSet:
    """All preimages of x under word maps of length <= depth; raises
    NonInvertible unless every generator is invertible."""
    return _orbit_set(ifs, x, depth, cap, inverse=True)


def _word_lift_array(ifs: IfsSystem, w: Word):
    gens = [ifs.generators[letter - 1] for letter in w]

    def lifted(t: np.ndarray) -> np.ndarray:
        for g in gens:
            t = g.lift_array(t)
        return t

    return lifted


def periodic_points(ifs: IfsSystem, max_len: int, tol: float = 1e-12,
                    identity_samples: int = 512) -> List[Tuple[CirclePoint, Word]]:
    """Fixed points of every word map of length 1..max_len.

    Words whose composed lift is the identity fix the whole circle; they
    contribute a uniform sample of `identity_samples` points.  Points are
    deduplicated at tol, keeping the first (shortest) witness word.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    found: List[Tuple[float, Word]] = []
    seen_keys = set()
    for w in enumerate_words(ifs.k, max_len):
        if not w:
            continue
        values, _identity = _lift_fixed_values(_word_lift_array(ifs, w), tol, identity_samples)
        for v in values:
            key = round(v / max(tol, 1e-15))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            found.append((v, w))
    found.sort(key=lambda e: e[0])
    return [(CirclePoint(v), w) for v, w in found]


# ---------------------------------------------------------------------------
# multi-source orbit expansion (used by the detectors, where only the point
# clouds and optional parent links matter, not OrbitSet packaging)

# Why a source's search ended: its stop test fired, it ran out of new
# points, or it reached its depth or point bound.
STOP_REASONS = ("found", "exhausted", "depth", "budget")
_FOUND, _EXHAUSTED, _DEPTH, _BUDGET = range(4)


class _SearchNodes:
    """Nodes of a breadth-first search: `parents` and `letters` link each
    node to its parent and the letter mapping the parent onto it (-1 and 0
    at a root)."""

    def words_for(self, index) -> List[Word]:
        """The words of the given nodes, read back along the links one step
        for all of them at once."""
        node = np.array(index, dtype=np.int64).reshape(-1)
        back = [np.zeros(node.size, dtype=self.letters.dtype)]  # a zero, then letters last first
        while (up := node >= 0).any():
            back.append(np.where(up, self.letters[node], 0))
            node = np.where(up, self.parents[node], -1)
        rows = np.stack(back, axis=1)
        return [tuple(r[n:0:-1]) for r, n in zip(rows.tolist(), np.count_nonzero(rows, 1).tolist())]

    def word_for(self, index: int) -> Word:
        return self.words_for([index])[0]


class OrbitCloud(_SearchNodes):
    """Breadth-first orbit points of one or more roots (sources) as flat
    arrays with parent/letter links.

    Rows are in visit order: the roots (row j is source j's root), then each
    level's new points.  A row links to its parent row and the letter mapping
    the parent onto it (-1 and 0 at a root) and names its source; restricted
    to one source, the rows are exactly those a search from that root alone
    visits.  Per source: `depths` (levels expanded) and `stop` (one of
    STOP_REASONS); `depth_reached` is the most levels any source expanded.
    """

    def __init__(self, values, parents, letters, source, depths, stop):
        self.values = values
        self.parents = parents
        self.letters = letters
        self.source = source
        self.depths = depths
        self.stop = [STOP_REASONS[c] for c in stop]
        self.depth_reached = int(depths.max(initial=0))

    def of(self, j: int) -> "OrbitCloud":
        """Source j alone, its rows re-indexed from 0."""
        rows = np.flatnonzero(self.source == j)
        at = np.full(self.values.size, -1, dtype=np.int64)
        at[rows] = np.arange(rows.size)
        parents = self.parents[rows]
        parents = np.where(parents < 0, -1, at[parents])
        return OrbitCloud(self.values[rows], parents, self.letters[rows],
                          np.zeros(rows.size, dtype=self.source.dtype), self.depths[j:j + 1],
                          [STOP_REASONS.index(self.stop[j])])


class OrbitLevel:
    """What the stop test of `orbit_cloud` sees after each completed level.

    `values` and `source` are the level's new points, in visit order.
    `cell_values` and `cell_source` hold the points so far of at least every
    running source, ordered by (source, merge cell).  With a `merge` width
    that orders each source's values ascending (a value stops short of 1 by
    more than any rounding of its cell); in DEDUP_RESOLUTION cells, a value
    within half a cell of 1 shares cell 0 and comes first.  Per source:
    `counts` (points so far), `running` (expanded this level) and `ending`
    (a bound ends its search after this level, whatever the test says).
    """

    def __init__(self, values, source, seen, seen_values, scale, counts, running, ending):
        self.values = values
        self.source = source
        self.cell_values = seen_values
        self._seen, self._scale = seen, scale
        self.counts = counts
        self.running = running
        self.ending = ending

    @property
    def cell_source(self) -> np.ndarray:
        return self._seen // self._scale


def orbit_cloud(ifs: IfsSystem, x, depth: int, cap: int,
                stop_when=None, merge: Optional[float] = None) -> OrbitCloud:
    """Breadth-first orbits of the root x, or of each root of an array x,
    in one level-synchronous pass.

    Each root is a source that runs its own search, as if alone.  A level
    maps the source's frontier by each letter in turn; a child is kept when
    its cell (of width `merge`, or DEDUP_RESOLUTION) is new to its source,
    the first occurrence in letter-then-parent order winning, until the
    source holds `cap` points, which may cut a level short.  A source stops
    when a level adds nothing ("exhausted"), at its cap ("budget"), after
    `depth` levels ("depth"), or when `stop_when(level)`, called with an
    `OrbitLevel` after each completed level and returning one bool per
    source, says so ("found").  Every retained value is an exactly
    evaluated orbit point, so witnesses stay genuine.
    """
    if merge is None:
        scale, cell_of = _KEY_SCALE, np.round
    else:
        scale, cell_of = max(2, round(1.0 / merge)), np.floor
    roots = (np.array([as_value(x)]) if np.ndim(x) == 0
             else normalize_array(np.array(x, dtype=float)))
    n, k = roots.size, ifs.k
    # merge-cell keys, offset by source, must fit in an int64
    if n > 2 ** 62 // scale:
        raise ValueError(f"merge cell {merge} is too fine for {n} orbit roots")

    def keys_of(src: np.ndarray, v: np.ndarray) -> np.ndarray:
        return src * scale + cell_of(v * scale).astype(np.int64) % scale

    src = np.arange(n)
    # node columns: values, parents, letters, source
    cols = [[roots], [np.full(n, -1, dtype=np.int32)], [np.zeros(n, dtype=np.int16)],
            [src.astype(np.int32)]]
    count = n
    counts = np.ones(n, dtype=np.int64)
    depths = np.zeros(n, dtype=np.int64)
    stop = np.where(counts >= cap, _BUDGET, -1)
    keys = keys_of(src, roots)
    by_cell = np.argsort(keys)
    # the cells each source has reached, sorted, and (for a stop test) the
    # value in each
    seen = keys[by_cell]
    seen_values = roots[by_cell] if stop_when is not None else None
    f_val, f_src, f_id = roots, src, src
    stopped = True  # some source stopped since the frontier was built
    for level in range(1, depth + 1):
        run = stop < 0
        if stopped:
            if not run.any():
                break
            live = run[f_src]
            f_val, f_src, f_id = f_val[live], f_src[live], f_id[live]
        width = f_val.size
        cv = np.concatenate([g.eval_array(f_val) for g in ifs.generators])
        csrc = np.tile(f_src, k)
        # per (source, cell), the first child in letter-then-parent order,
        # kept if its cell is new to the source
        uk, first = np.unique(keys_of(csrc, cv), return_index=True)
        at = np.searchsorted(seen, uk)
        fresh = seen[np.minimum(at, seen.size - 1)] != uk
        uk, first, at = uk[fresh], first[fresh], at[fresh]
        got = np.bincount(csrc[first], minlength=n)
        room = cap - counts
        if (got > room).any():
            # each source keeps its first `room` fresh children in visit order
            visit = np.sort(first)
            vs = csrc[visit]
            by_src = np.argsort(vs, kind="stable")
            rank = np.empty(visit.size, dtype=np.int64)
            rank[by_src] = np.arange(visit.size) - (np.cumsum(got) - got)[vs[by_src]]
            kept = np.zeros(cv.size, dtype=bool)
            kept[visit[rank < room[vs]]] = True
            keep = kept[first]
            uk, first, at = uk[keep], first[keep], at[keep]
            got = np.minimum(got, room)
        # merge the new cells into the sorted ones
        at += np.arange(at.size)
        old = np.ones(seen.size + at.size, dtype=bool)
        old[at] = False
        seen = _merged(seen, old, at, uk)
        if seen_values is not None:
            seen_values = _merged(seen_values, old, at, cv[first])
        visit = np.sort(first)
        parents = f_id[visit % width]
        f_val, f_src, f_id = cv[visit], csrc[visit], np.arange(count, count + visit.size)
        for col, v in zip(cols, (f_val, parents, visit // width + 1, f_src)):
            col.append(v.astype(col[0].dtype, copy=False))
        count += visit.size
        counts += got
        depths[run] = level
        empty = run & (got == 0)
        stop[empty] = _EXHAUSTED
        if stop_when is not None:
            ending = run & (empty | (counts >= cap) | (level == depth))
            fire = np.asarray(stop_when(OrbitLevel(f_val, f_src, seen, seen_values, scale,
                                                   counts, run, ending)), dtype=bool)
            stop[run & ~empty & fire] = _FOUND
        stop[(stop < 0) & (counts >= cap)] = _BUDGET
        stopped = bool((stop[run] >= 0).any())
        # drop the cells of stopped sources once they are most of them
        if stopped and 0 < 2 * counts[stop < 0].sum() < seen.size:
            alive = stop[seen // scale] < 0
            seen = seen[alive]
            seen_values = None if seen_values is None else seen_values[alive]
    stop[stop < 0] = _DEPTH
    return OrbitCloud(*[np.concatenate(col) for col in cols], depths, stop)


def _merged(a: np.ndarray, old: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """a with `new` inserted: the old entries where `old`, the new at `at`."""
    out = np.empty(old.size, dtype=a.dtype)
    out[old] = a
    out[at] = new
    return out
