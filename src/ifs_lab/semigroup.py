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

from .circle import CirclePoint, as_value, normalize
from .generators import Generator, NonInvertible, _lift_fixed_values
from .symbolic import Word, validate_word

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


def _orbit_set(ifs: IfsSystem, x, depth: int, cap: int, inverse: bool) -> OrbitSet:
    if depth < 0:
        raise ValueError("depth must be non-negative")
    gens = ifs.inverse_system().generators if inverse else ifs.generators
    cloud = orbit_cloud(ifs, x, depth, cap, generators=gens)
    # A backward cloud applies inverse letters in path order, so the word
    # carrying a point back to x is that path reversed.
    step = -1 if inverse else 1
    words = [cloud.word_for(i)[::step] for i in range(cloud.values.size)]
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
    from .symbolic import enumerate_words

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
# vectorized orbit expansion (used by the detectors, where only the point
# cloud and optional parent links matter, not OrbitSet packaging)


class OrbitCloud:
    """Breadth-first orbit points as flat arrays with parent/letter links."""

    def __init__(self, values, parents, letters, depth_reached, exhausted):
        self.values = values
        self.parents = parents
        self.letters = letters
        self.depth_reached = depth_reached
        # True when the breadth-first expansion emptied out before hitting
        # the depth or cap bound, i.e. the orbit is complete at resolution.
        self.exhausted = exhausted

    def word_for(self, index: int) -> Word:
        letters = []
        i = index
        while i > 0:
            letters.append(int(self.letters[i]))
            i = int(self.parents[i])
        return tuple(reversed(letters))


def orbit_cloud(ifs: IfsSystem, x, depth: int, cap: int,
                stop_when=None, generators=None, merge: Optional[float] = None) -> OrbitCloud:
    """Vectorized breadth-first orbit of x.

    `stop_when(values)` may end the expansion early (e.g. once the cloud is
    dense enough); it is checked after each completed level.  When `merge` is
    given, points landing within the same cell of that width are represented
    by the first one found; every retained value is still an exactly
    evaluated orbit point, so witnesses stay genuine.
    """
    gens = ifs.generators if generators is None else tuple(generators)
    if merge is None:
        scale = _KEY_SCALE

        def keys_of(v: np.ndarray) -> np.ndarray:
            return np.round(v * scale).astype(np.int64) % scale
    else:
        scale = max(2, round(1.0 / merge))

        def keys_of(v: np.ndarray) -> np.ndarray:
            return np.floor(v * scale).astype(np.int64) % scale

    base = as_value(x)
    values = np.array([base])
    parents = np.array([-1], dtype=np.int64)
    letters = np.array([0], dtype=np.int64)
    seen = np.sort(keys_of(values))
    frontier = np.array([0], dtype=np.int64)
    exhausted = False
    level = 0
    for level in range(1, depth + 1):
        if frontier.size == 0 or values.size >= cap:
            exhausted = frontier.size == 0
            level -= 1
            break
        fv = values[frontier]
        child_vals = []
        child_parents = []
        child_letters = []
        for letter, g in enumerate(gens, start=1):
            child_vals.append(g.eval_array(fv))
            child_parents.append(frontier)
            child_letters.append(np.full(frontier.size, letter, dtype=np.int64))
        cv = np.concatenate(child_vals)
        cp = np.concatenate(child_parents)
        cl = np.concatenate(child_letters)
        ck = keys_of(cv)
        # first occurrence within the level, in letter-then-parent order
        _, first_idx = np.unique(ck, return_index=True)
        first_idx.sort()
        cv, cp, cl, ck = cv[first_idx], cp[first_idx], cl[first_idx], ck[first_idx]
        pos = np.searchsorted(seen, ck)
        pos = np.clip(pos, 0, seen.size - 1)
        fresh = seen[pos] != ck
        if not fresh.any():
            exhausted = True
            break
        cv, cp, cl, ck = cv[fresh], cp[fresh], cl[fresh], ck[fresh]
        room = cap - values.size
        if cv.size > room:
            cv, cp, cl, ck = cv[:room], cp[:room], cl[:room], ck[:room]
        start = values.size
        values = np.concatenate([values, cv])
        parents = np.concatenate([parents, cp])
        letters = np.concatenate([letters, cl])
        seen = np.sort(np.concatenate([seen, ck]))
        frontier = np.arange(start, values.size, dtype=np.int64)
        if stop_when is not None and stop_when(values):
            break
    else:
        level = depth
    return OrbitCloud(values, parents, letters, level, exhausted)
