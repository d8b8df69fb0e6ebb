"""Test-only reference: the scalar, one-source-at-a-time arc searches and
per-step extension rules that the batched kernels in `ifs_lab.detectors`
replaced, kept verbatim in behaviour.

`arc_search` also records, per level, the words it visited and the frontier
the greedy dominance rule kept, so a test can compare the kernel level by
level.  Every function takes the arc map as `mapper`: the scalar
`map_arc_raw` by default, or `array_map`, which rounds exactly as the
kernel does (numpy's tan/arctan in `NorthSouth.lift_array` may differ from
`math`'s by an ulp, and an ulp decides a merge cell on a cell boundary).
"""

import bisect
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ifs_lab.circle import normalize
from ifs_lab.generators import Expanding, Generator, NotDifferentiable, map_arcs

FULL = 1.0 - 1e-12


def map_arc_raw(g: Generator, s: float, ln: float) -> Tuple[float, float]:
    if isinstance(g, Expanding):
        return g.eval(s), min(g.m * ln, 1.0)
    lo = g.lift(s)
    hi = g.lift(s + ln)
    return normalize(lo if g.orientation > 0 else hi), min(abs(hi - lo), 1.0)


def array_map(g: Generator, s: float, ln: float) -> Tuple[float, float]:
    ns, nl = map_arcs(g, np.array([s]), np.array([ln]))
    return float(ns[0]), float(nl[0])


class TargetSet:
    """Sorted circle points supporting removal of everything near an arc."""

    def __init__(self, values: Sequence[float]):
        self.values = sorted(values)

    def __len__(self):
        return len(self.values)

    def remove_hit(self, s: float, ln: float, fat: float) -> List[float]:
        """Remove and return all targets within `fat` of the arc [s, s+ln]."""
        if not self.values:
            return []
        span = ln + 2.0 * fat
        if span >= 1.0:
            out, self.values = self.values, []
            return out
        lo = (s - fat) % 1.0
        hi = lo + span
        removed: List[float] = []
        for a, b in ((lo, min(hi, 1.0)), (0.0, hi - 1.0)) if hi > 1.0 else ((lo, hi),):
            i = bisect.bisect_left(self.values, a)
            j = bisect.bisect_right(self.values, b)
            removed.extend(self.values[i:j])
            del self.values[i:j]
        return removed


def greedy_keep(children: list) -> list:
    """The greedy dominance rule: longest first, drop arcs a kept one contains."""
    children = sorted(children, key=lambda c: -c[1])
    kept: list = []
    for c in children:
        dominated = False
        for b in kept:
            if b[1] >= FULL or ((c[0] - b[0]) % 1.0) + c[1] <= b[1] + 1e-12:
                dominated = True
                break
        if not dominated:
            kept.append(c)
    return kept


def arc_search(ifs, start: float, length: float, depth: int, budget: int, cell: float,
               visit: Callable, levels: Optional[list] = None, mapper=map_arc_raw) -> int:
    """Breadth-first search over image arcs of one starting arc; returns the
    number of words examined.  With `levels`, appends per level the visited
    (word, start, length) triples and the kept frontier."""
    scale = max(2, round(1.0 / cell))
    gens = ifs.generators
    if visit((), start, length):
        return 0
    seen = {(int(start * scale) % scale, min(int(length * scale), scale))}
    frontier: List[tuple] = [(start, length, ())]
    words = 0
    for _ in range(depth):
        if not frontier or words >= budget:
            break
        children: List[tuple] = []
        visited: List[tuple] = []
        done = False
        for s, ln, w in frontier:
            if ln >= FULL:
                continue  # the full circle is a fixed state
            for letter, g in enumerate(gens, start=1):
                words += 1
                ns, nl = mapper(g, s, ln)
                key = (int(ns * scale) % scale, min(int(nl * scale), scale))
                if key in seen:
                    continue
                seen.add(key)
                nw = w + (letter,)
                visited.append((nw, ns, nl))
                if visit(nw, ns, nl):
                    done = True
                    break
                children.append((ns, nl, nw))
                if words >= budget:
                    break
            if done or words >= budget:
                break
        frontier = [] if done else greedy_keep(children)
        if levels is not None:
            levels.append((visited, [w for _, _, w in frontier]))
        if done:
            break
    return words


def greedy_chain(ifs, x: float, r: float, depth: int, by_derivative: bool,
                 mapper=map_arc_raw):
    s, ln = normalize(x - r), 2.0 * r
    c = x
    word: tuple = ()
    best = (min(ln, 0.5), word)
    for _ in range(depth):
        pick, pick_score = None, -1.0
        for letter, g in enumerate(ifs.generators, start=1):
            if by_derivative:
                try:
                    score = abs(g.derivative(c))
                except NotDifferentiable:
                    continue
            else:
                _, nl = mapper(g, s, ln)
                score = min(nl, 0.5)
            if score > pick_score + 1e-15:
                pick, pick_score = letter, score
        if pick is None:
            break
        g = ifs.generators[pick - 1]
        s, ln = mapper(g, s, ln)
        c = g.eval(c)
        word = word + (pick,)
        diam = min(ln, 0.5)
        if diam > best[0] + 1e-15:
            best = (diam, word)
    return best


def steered_candidate(ifs, steering, x: float, r: float, depth: int, mapper=map_arc_raw):
    best = None
    for q, letter, cloud in steering:
        d = np.abs(cloud.values - x)
        d = np.minimum(d, 1.0 - d)
        idx = np.where(d <= r)[0]
        if idx.size == 0:
            continue
        i = int(idx.min())
        pull = tuple(reversed(cloud.words_for([i])[0]))
        if len(pull) >= depth:
            continue
        s, ln = normalize(x - r), 2.0 * r
        for let in pull:
            s, ln = mapper(ifs.generators[let - 1], s, ln)
        w = pull
        g = ifs.generators[letter - 1]
        local_best = None
        for _ in range(depth - len(pull)):
            s, ln = mapper(g, s, ln)
            w = w + (letter,)
            diam = min(ln, 0.5)
            if local_best is None or diam > local_best[0] + 1e-15:
                local_best = (diam, w)
        if local_best is not None:
            cand = (local_best[0], local_best[1], q, f"repeller_steered(q={q:.6f})")
            if best is None or cand[0] > best[0] + 1e-15:
                best = cand
    return best


# The per-step extension rules and `separation_times`, one arc at a time.  A
# rule takes (ifs, prefix, arc), the word so far and the current (start,
# length), and returns the next letter.


def constant_rule(letter: int):
    def rule(ifs, prefix, arc) -> int:
        return letter

    rule.label = f"constant({letter})"
    return rule


def periodic_rule(pattern):
    pattern = tuple(pattern)

    def rule(ifs, prefix, arc) -> int:
        return pattern[len(prefix) % len(pattern)]

    rule.label = f"periodic{pattern}"
    return rule


def greedy_diameter_rule(mapper=map_arc_raw):
    def rule(ifs, prefix, arc) -> int:
        best_letter, best_diam = 1, -1.0
        for letter, g in enumerate(ifs.generators, start=1):
            diam = min(mapper(g, *arc)[1], 0.5)
            if diam > best_diam + 1e-15:
                best_diam, best_letter = diam, letter
        return best_letter

    rule.label = "greedy_diameter"
    return rule


def separation_times(ifs, U, omega_rule, delta: float, horizon: int, mapper=map_arc_raw):
    """Times n <= horizon at which the tracked image of the arc U exceeds
    diameter delta."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    times = []
    arc = (U.start.value, U.length)
    word: tuple = ()
    if min(arc[1], 0.5) > delta:
        times.append(0)
    for n in range(1, horizon + 1):
        letter = omega_rule(ifs, word, arc)
        arc = mapper(ifs.generator(letter), *arc)
        word = word + (letter,)
        if min(arc[1], 0.5) > delta:
            times.append(n)
    return times
