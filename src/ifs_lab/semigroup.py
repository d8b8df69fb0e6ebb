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
from .generators import (_FP_GRID, _FP_TOL, _FP_XS, Flip, Generator, NonInvertible, NorthSouth,
                         Rotation, _bisect, _crossings, _roots, _uniform_samples, fixed_points)
from .symbolic import Word, enumerate_words, validate_word

MAX_GENERATORS = 2 ** 15 - 1  # letters are int16 in the arc, chain and orbit node columns


class IfsSystem:
    """An ordered finite family of generators; letter i names generators[i-1]."""

    def __init__(self, generators: Iterable[Generator]):
        self.generators = tuple(generators)
        if not 0 < self.k <= MAX_GENERATORS:
            raise ValueError(f"need at least one generator, at most {MAX_GENERATORS}, got {self.k}")
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
    for g, rows in _steps(ifs, letters):
        v[rows], step = g.eval_and_derivative_array(v[rows])
        d[rows] *= step
    return v, d


def _steps(ifs: IfsSystem, letters):
    """(generator, rows) per (position, letter) of the rows of `letters`, 0
    meaning no letter: the word kernels' steps, position by position."""
    return ((g, rows) for column in np.asarray(letters).T
            for letter, g in enumerate(ifs.generators, 1)
            if (rows := np.flatnonzero(column == letter)).size)


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


def _matrix(g: Generator):
    """g's 2x2 matrix (a, b, c, d) on (sin(pi t), cos(pi t)), its determinant
    and the largest |g'| (1 for an isometry), or None if g is not a
    NorthSouth, Rotation or Flip."""
    if isinstance(g, Flip):
        return (-1.0, 0.0, 0.0, 1.0), -1.0, 1.0
    if isinstance(g, Rotation):
        c, s = math.cos(math.pi * g.alpha), math.sin(math.pi * g.alpha)
        return (c, s, -s, c), 1.0, 1.0
    if isinstance(g, NorthSouth):  # diag(lam, 1) conjugated by the rotation to q
        c, s = math.cos(math.pi * g.q), math.sin(math.pi * g.q)
        off = (1.0 - g.lam) * c * s
        return (g.lam * c * c + s * s, off, off, g.lam * s * s + c * c), g.lam, g.lam
    return None


def _times(letter, word):
    """The matrix, determinant and derivative bound of `word` followed by `letter`."""
    (la, lb, lc, ld), ldet, lbound = letter
    (a, b, c, d), det, bound = word
    return ((la * a + lb * c, la * b + lb * d, lc * a + ld * c, lc * b + ld * d),
            ldet * det, lbound * bound)


def _root_cells(word, length: int):
    """The grid cells of a word's two fixed points, from its matrix; () for
    a word with none, None for a word whose whole grid must be lifted.

    In x = tan(pi t) the word acts as M = ((a, b), (c, d)) on u = (sin(pi t),
    cos(pi t)); Q(t) = u x Mu = K + P cos(2 pi t) + S sin(2 pi t) vanishes at
    its fixed points, and lift(t) - t lies at least |Q| / (pi |M|) from every
    integer.  A computed lift strays less than `slack` / pi - 4 _FP_TOL from
    the true one: each letter's rounding, a few ulps of t <= length + 1,
    grows at most by `bound`, the product of the letters' largest |g'|.  So
    where |Q| >= slack |M| the grid lift has no grid root or crossing, and
    is no identity.  A word with no zero needs min |Q| = |K| - R to pass; one
    with two, both ends of each window (the cells at and beside a zero's
    cell, four cells apart or more), with opposite signs: Q is a shifted
    sinusoid, so its zero lies inside, and |Q| is least at the windows'
    ends on the arcs between.
    Words near +-I, near-parabolic or ill-conditioned fail.  The determinant
    is the letters' product, as a * d - b * c cancels on large entries."""
    (a, b, c, d), det, bound = word
    slack = 4.0 * math.pi * _FP_TOL + 2.0 ** -45 * length * (length + 2) * bound
    if not slack < 2.0 ** -20:
        return None
    margin = slack * math.sqrt(a * a + b * b + c * c + d * d)
    k, p, s = 0.5 * (c - b), -0.5 * (c + b), 0.5 * (d - a)
    trace = a + d
    disc = trace * trace - 4.0 * det
    if not disc > 0.0:
        return () if abs(k) - math.hypot(p, s) >= margin else None
    # Q's zeros, at 2 pi t = psi +- theta
    psi, theta = math.atan2(s, p), math.atan2(0.5 * math.sqrt(disc), -k)
    cells = []
    for angle in (psi - theta, psi + theta):
        cell = int(angle / (2.0 * math.pi) % 1.0 * _FP_GRID) % _FP_GRID
        lo, hi = (k + p * math.cos(2.0 * math.pi * e / _FP_GRID)
                  + s * math.sin(2.0 * math.pi * e / _FP_GRID) for e in (cell - 1, cell + 2))
        if not (min(abs(lo), abs(hi)) >= margin and (lo < 0.0) != (hi < 0.0)):
            return None
        cells.append(cell)
    if min(abs(cells[0] - cells[1]), _FP_GRID - abs(cells[0] - cells[1])) < 4:
        return None
    return cells


def periodic_points(ifs: IfsSystem, max_len: int) -> List[Tuple[CirclePoint, Word]]:
    """Fixed points of every word map of length 1..max_len (an integer, not
    a bool), one per 1e-12 cell with its first word in `enumerate_words`
    order (the shortest); identity words give 512 uniform samples, once,
    for the first of them.

    A depth-first walk lifts each word's root grid from its prefix's by the
    last letter, holding at most (k - 1) * max_len + 1 grids.  If every
    generator is a NorthSouth, Rotation or Flip, it carries each word's 2x2
    matrix instead: a word of two letters or more whose matrix places its
    fixed points (`_root_cells`) is lifted only at its windows' grid points
    and x = 1, with the same crossings; any other word lifts its grid from
    its longest prefix that has one.  Every word's roots, a one-letter
    word's too, take the path of `fixed_points`: `_crossings`, then one
    `_bisect` of the queue (`_bisect_words`) whenever its crossings times
    word lengths would pass `_BATCH_LIFTS`, and at the end, then `_roots`.
    A word is known by its index in `enumerate_words` order (a child of the
    word at index i by letter a is at k * i + a), so only the first witness
    of a point is held."""
    if isinstance(max_len, bool) or not hasattr(type(max_len), "__index__") or max_len < 1:
        raise ValueError(f"max_len must be an integer of at least 1, got {max_len!r}")
    k = ifs.k
    witness = {}  # per 1e-12 cell: the index and value of its first witness

    def record(at, values):
        for v in values:
            key = round(v / _FP_TOL)
            if key not in witness or at < witness[key][0]:
                witness[key] = (at, v)

    matrices = [_matrix(g) for g in ifs.generators]
    if None in matrices:
        matrices = None
    identity = math.inf  # the least index of a word fixing every point
    # words (index, letters, crossings) to bisect, and (index, letters, root
    # cells) whose crossings await their windows' lift; rows x letters
    queue, located, work = [], [], 0

    def make_room(rows, length):
        nonlocal queue, located, work
        if work + rows * length > _BATCH_LIFTS:
            _bisect_words(ifs, queue, located, record)
            queue, located, work = [], [], 0
        work += rows * length

    # words to extend: the word, its index, its matrix, and the grid lift of
    # its longest prefix that has one, with that prefix's length
    todo = [((), 0, ((1.0, 0.0, 0.0, 1.0), 1.0, 1.0), _FP_XS, 0)]
    while todo:
        prefix, index, mat, grid, depth = todo.pop()
        for letter in range(1, k + 1):
            w, at = prefix + (letter,), k * index + letter
            wm = matrices and _times(matrices[letter - 1], mat)
            cells = _root_cells(wm, len(w)) if wm and prefix else None
            lift, ahead = grid, depth
            if cells is not None:  # no root, or one in or beside each cell
                if cells:
                    make_room(len(cells), len(w))
                    located.append((at, w, cells))
            else:
                lift, ahead = _composed([ifs.generators[a - 1].lift_array
                                         for a in w[depth:]])(grid), len(w)
                c = _crossings(lift)
                if c is None:
                    identity = min(identity, at)
                else:
                    make_room(c.cell.size, len(w))
                    queue.append((at, w, c))
            if len(w) < max_len:
                todo.append((w, at, wm, lift, ahead))
    _bisect_words(ifs, queue, located, record)
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


def _word_lifts(ifs: IfsSystem, words, sizes):
    """A lift of row arrays through their words, `sizes[j]` rows through
    words[j], as in `_word_values`: one call per (position, letter)."""
    held = [(w, n) for w, n in zip(words, sizes) if n]  # a word with no rows pads none
    width = max((len(w) for w, _ in held), default=0)
    letters = np.repeat([w + (0,) * (width - len(w)) for w, _ in held], [n for _, n in held], axis=0)
    steps = list(_steps(ifs, letters))

    def lift_rows(t):
        t = t.copy()
        for g, rows in steps:
            t[rows] = g.lift_array(t[rows])
        return t

    return lift_rows


def _located_crossings(ifs: IfsSystem, words, cells) -> list:
    """The crossings of each word whose fixed points lie in its two `cells`,
    from one lift of every word's window points: the ends of the cells at
    and beside each, and x = 1."""
    windows = [sorted((c + i) % _FP_GRID for c in pair for i in (-1, 0, 1, 2)) + [_FP_GRID]
               for pair in cells]
    points = np.array([p for window in windows for p in window])
    lifted = _word_lifts(ifs, words, [len(window) for window in windows])(_FP_XS[points])
    return _crossings(lifted, points)


def _bisect_words(ifs: IfsSystem, queue, located, record) -> None:
    """Set up the crossings of the `located` (index, word, root cells) in
    one lift, then bisect them and the queued (index, word, crossings) in
    one loop, each midpoint lifted through its own word as in
    `_word_values`, and `record` every word's roots."""
    if located:
        ats, words, cells = zip(*located)
        queue = queue + list(zip(ats, words, _located_crossings(ifs, words, cells)))
    if not queue:
        return
    sizes = [c.cell.size for _, _, c in queue]
    lift_rows = _word_lifts(ifs, [w for _, w, _ in queue], sizes)
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
