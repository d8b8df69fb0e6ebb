"""Test-only reference: the scalar root finder and basin checks that the array
passes in `ifs_lab.generators` and `ifs_lab.semigroup` replaced, kept
verbatim in behaviour.

`lift_fixed_values` rescans the 4097-point grid once per integer branch with
scalar lift calls and bisects one crossing at a time; `basin_arc` iterates
one start at a time, through `nearest_preimage`'s scan over all m preimages
for a non-invertible map.  `fixed_points` and `periodic_points` assemble
them exactly as the library does.
"""

import math
from typing import List, Tuple

from ifs_lab.circle import Arc, CirclePoint, circ_dist, normalize
from ifs_lab.generators import (FixedPointRecord, Generator, _classify,
                                _one_sided_multipliers)
from ifs_lab.symbolic import enumerate_words

FP_GRID = 4096


def lift_fixed_values(lift, tol: float, identity_samples: int):
    """Roots in [0, 1) of lift(x) - x - m over all integer branches m."""
    n = FP_GRID
    xs = [i / n for i in range(n + 1)]
    phi = [lift(x) - x for x in xs]
    lo = math.ceil(min(phi) - tol)
    hi = math.floor(max(phi) + tol)
    roots = []
    for m in range(lo, hi + 1):
        psi = [p - m for p in phi]
        if max(abs(p) for p in psi) <= tol:
            return [(i + 0.5) / identity_samples for i in range(identity_samples)], True
        for i in range(n):
            a, b = psi[i], psi[i + 1]
            if a == 0.0:
                roots.append(xs[i])
            elif a * b < 0.0:
                ra, rb = xs[i], xs[i + 1]
                fa = a
                for _ in range(64):
                    mid = 0.5 * (ra + rb)
                    fm = lift(mid) - mid - m
                    if fm == 0.0 or rb - ra <= tol * 0.5:
                        ra = rb = mid
                        break
                    if fa * fm < 0.0:
                        rb = mid
                    else:
                        ra, fa = mid, fm
                roots.append(0.5 * (ra + rb))
        if abs(psi[n]) <= tol * 0.5 and not any(abs(r - 1.0) <= 4 * tol for r in roots):
            roots.append(1.0)
    out = []
    for r in sorted(normalize(r) for r in roots):
        if not out or r - out[-1] > max(tol, 1e-11):
            out.append(r)
    if len(out) > 1 and (1.0 - out[-1] + out[0]) <= max(tol, 1e-11):
        out.pop()
    return out, False


def nearest_preimage(g: Generator, y: float, near: float) -> float:
    """The preimage of y closest to `near` (the local inverse branch)."""
    if g.invertible:
        return g.inverse().eval(y)
    m = g.degree
    best = None
    for j in range(m):
        cand = normalize((y + j) / m)
        if best is None or circ_dist(cand, near) < circ_dist(best, near):
            best = cand
    return best


def basin_arc(g: Generator, p: float, classification: str) -> Arc:
    """Grow a symmetric arc around p verified to converge to p under the map
    (attracting) or its local inverse (repelling)."""
    if classification == "attracting":
        step = g.eval
    elif classification == "repelling":
        step = lambda y: nearest_preimage(g, y, p)  # noqa: E731
    else:
        return Arc(CirclePoint(p), 0.0)

    def converges(y: float) -> bool:
        for _ in range(500):
            if circ_dist(y, p) <= 1e-9:
                return True
            y = step(y)
        return circ_dist(y, p) <= 1e-9

    good = 0.0
    r = 1e-4
    while r < 0.49:
        if converges(normalize(p - r)) and converges(normalize(p + r)):
            good = r
            r *= 2.0
        else:
            break
    if good == 0.0:
        return Arc(CirclePoint(p), 0.0)
    return Arc(CirclePoint(p - good), min(2.0 * good, 1.0))


def fixed_points(g: Generator, tol: float = 1e-12, identity_samples: int = 512):
    values, identity = lift_fixed_values(g.lift, tol, identity_samples)
    records = []
    for v in values:
        if identity:
            records.append(
                FixedPointRecord(CirclePoint(v), (1.0, 1.0), "nonhyperbolic", Arc(CirclePoint(v), 0.0))
            )
            continue
        mult = _one_sided_multipliers(g, v)
        cls = _classify(mult)
        records.append(FixedPointRecord(CirclePoint(v), mult, cls, basin_arc(g, v, cls)))
    return records


def periodic_points(ifs, max_len: int, tol: float = 1e-12,
                    identity_samples: int = 512) -> List[Tuple[CirclePoint, tuple]]:
    found = []
    seen_keys = set()
    for w in enumerate_words(ifs.k, max_len):
        if not w:
            continue
        values, _identity = lift_fixed_values(ifs.word_lift(w), tol, identity_samples)
        for v in values:
            key = round(v / max(tol, 1e-15))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            found.append((v, w))
    found.sort(key=lambda e: e[0])
    return [(CirclePoint(v), w) for v, w in found]
