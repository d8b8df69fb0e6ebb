"""Finitely generated systems of circle maps and their semigroup action.

Words act by applying their letters left to right: letter w[0] first,
letter w[-1] last.  Orbits are computed breadth-first by `orbit_cloud`, one
level at a time, keeping the first (hence shortest) witness word per merge
cell.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .circle import CirclePoint, as_value, normalize, normalize_array
from .generators import (_FP_GRID, _FP_TOL, _FP_XS, Flip, Generator, NonInvertible, Rotation,
                         _bisect, _crossings, _roots, _uniform_samples, fixed_points)
from .symbolic import Word, enumerate_words, validate_word


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

    @property
    def all_isometries(self) -> bool:
        """Whether every generator is a rotation or the flip, so that every
        word preserves circ_dist."""
        return all(isinstance(g, (Rotation, Flip)) for g in self.generators)

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
                                       for rec in fixed_points(g))
        return self._fixed_points

    def apply_word(self, w: Word, x: float) -> float:
        v = normalize(x)
        for letter in w:
            v = self.generators[letter - 1].eval(v)
        return v

    def apply_inverse_word(self, w: Word, x: float) -> float:
        """Apply the inverse of the word map: inverse letters in reverse order."""
        return self.inverse_system().apply_word(w[::-1], x)

    def word_lift(self, w: Word):
        return _composed([self.generators[letter - 1].lift for letter in w])

    def __repr__(self):
        return f"IfsSystem({list(self.generators)!r})"


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


def _composed(maps):
    """The composition of `maps`, the first applied first."""

    def composed(t):
        for f in maps:
            t = f(t)
        return t

    return composed


# The most crossing rows times word letters one batch of `periodic_points`
# bisects: 16 root grids' worth keeps a batch's brackets to a few MB.
_BATCH_LIFTS = 16 * _FP_GRID


def periodic_points(ifs: IfsSystem, max_len: int) -> List[Tuple[CirclePoint, Word]]:
    """Fixed points of every word map of length 1..max_len, one per 1e-12
    cell with its first word in `enumerate_words` order (the shortest);
    identity words give 512 uniform samples, once, for the first of them.

    A depth-first walk lifts each word's root grid from its prefix's by the
    last letter, holding at most (k - 1) * max_len + 1 grids.  Longer words'
    crossings are queued and bisected together (`_bisect_words`) whenever
    the queue's crossings times word lengths would pass `_BATCH_LIFTS`, and
    at the end; a generator's roots come from `IfsSystem.generator_fixed_points`.
    A word is known by its index in `enumerate_words` order (a child of the
    word at index i by letter a is at k * i + a), so only the first witness
    of a point is held."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    k = ifs.k
    witness = {}  # per 1e-12 cell: the index and value of its first witness

    def record(at, values):
        for v in values:
            key = round(v / _FP_TOL)
            if key not in witness or at < witness[key][0]:
                witness[key] = (at, v)

    # the table's roots per letter; a map fixing every point is an identity word
    roots = [[] for _ in range(k + 1)]
    for letter, rec in ifs.generator_fixed_points():
        roots[letter].append(rec.location.value)
    identity = math.inf  # the least index of a word fixing every point
    queue, work = [], 0  # words (index, letters, crossings) to bisect; rows x letters
    todo = [((), 0, _FP_XS)]  # words to extend: the word, its index, its grid lift
    while todo:
        prefix, index, grid = todo.pop()
        for letter, g in enumerate(ifs.generators, 1):
            w, at = prefix + (letter,), k * index + letter
            lifted = g.lift_array(grid)
            c = _crossings(lifted)
            if c is None:
                identity = min(identity, at)
            elif not prefix:
                record(at, roots[letter])
            elif c.cell.size:
                if work + c.cell.size * len(w) > _BATCH_LIFTS:
                    _bisect_words(ifs, queue, record)
                    queue, work = [], 0
                queue.append((at, w, c))
                work += c.cell.size * len(w)
            else:
                record(at, _roots(c, c.fa))  # no crossing: c.fa is empty
            if len(w) < max_len:
                todo.append((w, at, lifted))
    _bisect_words(ifs, queue, record)
    if identity < math.inf:
        record(identity, _uniform_samples(512))
    by_index = {}
    for at, v in witness.values():
        by_index.setdefault(at, []).append(v)
    # the witness words, read off the enumeration up to the last of them
    words = islice(enumerate(enumerate_words(k, max_len)), max(by_index, default=-1) + 1)
    found = sorted(((v, w) for at, w in words for v in by_index.get(at, ())),
                   key=lambda e: e[0])
    return [(CirclePoint(v), w) for v, w in found]


def _bisect_words(ifs: IfsSystem, queue, record) -> None:
    """Bisect the queued (index, word, crossings) in one loop, each midpoint
    lifted through its own word as in `_word_values`, and `record` the roots."""
    if not queue:
        return
    width = max(len(w) for _, w, _ in queue)
    letters = np.array([w + (0,) * (width - len(w)) for _, w, _ in queue])
    sizes = [c.cell.size for _, _, c in queue]
    # the crossing rows of the words with each letter at each position
    steps = [(g, rows) for column in letters.T for letter, g in enumerate(ifs.generators, 1)
             if (rows := np.flatnonzero(np.repeat(column == letter, sizes))).size]

    def lift_rows(t):
        t = t.copy()
        for g, rows in steps:
            t[rows] = g.lift_array(t[rows])
        return t

    bisected = _bisect(lift_rows, *map(np.concatenate, zip(*(c[:3] for _, _, c in queue))))
    for (at, _, c), part in zip(queue, np.split(bisected, np.cumsum(sizes)[:-1])):
        record(at, _roots(c, part))


# ---------------------------------------------------------------------------
# multi-source orbit expansion

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


class OrbitLevel(NamedTuple):
    """What the stop test of `orbit_cloud` sees after each completed level.

    `values` and `source` are the level's new points, in visit order.
    `cell_values` and `cell_source` hold the points so far of every source,
    ordered by (source, merge cell): each source's values ascending, as a
    value stops short of 1 by more than any rounding of its cell.  Per
    source: `counts` (points so far), `running` (expanded this level) and
    `ending` (a bound ends its search after this level, whatever the test
    says).
    """

    values: np.ndarray
    source: np.ndarray
    cell_values: np.ndarray
    cell_source: np.ndarray
    counts: np.ndarray
    running: np.ndarray
    ending: np.ndarray


def _cell_count(merge: float) -> int:
    """The number of merge cells, of width about `merge`, on the circle."""
    return max(2, round(1.0 / merge))


def orbit_cloud(ifs: IfsSystem, x, depth: int, cap: int, merge: float,
                stop_when=None) -> OrbitCloud:
    """Breadth-first orbits of the root x, or of each root of an array x,
    in one level-synchronous pass.

    Each root is a source that runs its own search, as if alone.  A level
    maps the source's frontier by each letter in turn; a child is kept when
    its merge cell, of width 1 / round(1 / merge), is new to its source, the
    first occurrence in letter-then-parent order winning, until the source
    holds `cap` points, which may cut a level short.  A source stops when a
    level adds nothing ("exhausted"), at its cap ("budget"), after `depth`
    levels ("depth"), or when `stop_when(level)`, called with an
    `OrbitLevel` after each completed level and returning one bool per
    source, says so ("found").  Every retained value is an exactly
    evaluated orbit point, so witnesses stay genuine.  A source holds at
    most one point per merge cell, so at most min(cap, `_cell_count(merge)`)
    points for cap >= 1.
    """
    scale = _cell_count(merge)
    roots = (np.array([as_value(x)]) if np.ndim(x) == 0
             else normalize_array(np.array(x, dtype=float)))
    n, k = roots.size, ifs.k
    # merge-cell keys, offset by source, must fit in an int64
    if n > 2 ** 62 // scale:
        raise ValueError(f"merge cell {merge} is too fine for {n} orbit roots")

    def keys_of(src: np.ndarray, v: np.ndarray) -> np.ndarray:
        return src * scale + np.floor(v * scale).astype(np.int64) % scale

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
    # the cells each source has reached, sorted, and the value in each
    seen, seen_values = keys[by_cell], roots[by_cell]
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
        csrc = np.concatenate([f_src] * k)
        # per (source, cell), the first child in letter-then-parent order,
        # kept if its cell is new to the source
        first, uk, at = _fresh_cells(keys_of(csrc, cv), seen)
        fresh = np.zeros(cv.size, dtype=bool)
        fresh[first] = True
        got = np.bincount(csrc[first], minlength=n)
        room = cap - counts
        if (got > room).any():
            # each source keeps its first `room` fresh children in visit order
            visit = np.flatnonzero(fresh)
            vs = csrc[visit]
            by_src = np.argsort(vs, kind="stable")
            rank = np.empty(visit.size, dtype=np.int64)
            rank[by_src] = np.arange(visit.size) - (np.cumsum(got) - got)[vs[by_src]]
            fresh[visit[rank >= room[vs]]] = False
            keep = fresh[first]
            uk, first, at = uk[keep], first[keep], at[keep]
            got = np.minimum(got, room)
        # merge the new cells into the sorted ones
        at += np.arange(at.size)
        old = np.ones(seen.size + at.size, dtype=bool)
        old[at] = False
        seen = _merged(seen, old, at, uk)
        seen_values = _merged(seen_values, old, at, cv[first])
        visit = np.flatnonzero(fresh)
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
            fire = np.asarray(stop_when(OrbitLevel(f_val, f_src, seen_values, seen // scale,
                                                   counts, run, ending)), dtype=bool)
            stop[run & ~empty & fire] = _FOUND
        stop[(stop < 0) & (counts >= cap)] = _BUDGET
        stopped = bool((stop[run] >= 0).any())
    stop[stop < 0] = _DEPTH
    return OrbitCloud(*[np.concatenate(col) for col in cols], depths, stop)


def _fresh_cells(keys: np.ndarray, seen: np.ndarray):
    """For each distinct key that the sorted `seen` lacks, in key order: the
    least row holding it, the key, and its insertion point in `seen`.

    One unstable sort: the least row of each run of equal keys does not
    depend on how the sort orders ties.
    """
    by_key = np.argsort(keys)
    uk = keys[by_key]
    lead = np.ones(uk.size, dtype=bool)
    lead[1:] = uk[1:] != uk[:-1]
    runs = np.flatnonzero(lead)
    first, uk = np.minimum.reduceat(by_key, runs), uk[runs]
    at = np.searchsorted(seen, uk)
    if seen.size:
        new = seen[np.minimum(at, seen.size - 1)] != uk
        first, uk, at = first[new], uk[new], at[new]
    return first, uk, at


def _merged(a: np.ndarray, old: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """a with `new` inserted: the old entries where `old`, the new at `at`."""
    out = np.empty(old.size, dtype=a.dtype)
    out[old] = a
    out[at] = new
    return out
