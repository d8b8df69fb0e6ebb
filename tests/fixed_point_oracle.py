"""Test-only reference: the scalar root finder that the array pass in
`ifs_lab.generators` replaced, kept verbatim in behaviour.

`lift_fixed_values` rescans the 4097-point grid once per integer branch with
scalar lift calls and bisects one crossing at a time.  `fixed_points` and
`periodic_points` assemble its roots exactly as the library does.
"""

import math
from typing import List, Tuple

from ifs_lab.circle import CirclePoint, normalize
from ifs_lab.generators import FixedPointRecord, Generator, _classify, _one_sided_multipliers
from ifs_lab.symbolic import enumerate_words

FP_GRID = 4096
TOL = 1e-12


def lift_fixed_values(lift, identity_samples: int):
    """Roots in [0, 1) of lift(x) - x - m over all integer branches m."""
    n = FP_GRID
    xs = [i / n for i in range(n + 1)]
    phi = [lift(x) - x for x in xs]
    lo = math.ceil(min(phi) - TOL)
    hi = math.floor(max(phi) + TOL)
    roots = []
    for m in range(lo, hi + 1):
        psi = [p - m for p in phi]
        if max(abs(p) for p in psi) <= TOL:
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
                    if fm == 0.0 or rb - ra <= TOL * 0.5:
                        ra = rb = mid
                        break
                    if fa * fm < 0.0:
                        rb = mid
                    else:
                        ra, fa = mid, fm
                roots.append(0.5 * (ra + rb))
        if abs(psi[n]) <= TOL * 0.5 and not any(abs(r - 1.0) <= 4 * TOL for r in roots):
            roots.append(1.0)
    out = []
    for r in sorted(normalize(r) for r in roots):
        if not out or r - out[-1] > max(TOL, 1e-11):
            out.append(r)
    if len(out) > 1 and (1.0 - out[-1] + out[0]) <= max(TOL, 1e-11):
        out.pop()
    return out, False


def fixed_points(g: Generator):
    values, identity = lift_fixed_values(g.lift, 16)
    records = []
    for v in values:
        if identity:
            records.append(FixedPointRecord(CirclePoint(v), (1.0, 1.0), "nonhyperbolic"))
            continue
        mult = _one_sided_multipliers(g, v)
        records.append(FixedPointRecord(CirclePoint(v), mult, _classify(mult)))
    return records


def periodic_points(ifs, max_len: int) -> List[Tuple[CirclePoint, tuple]]:
    found = []
    seen_keys = set()
    for w in enumerate_words(ifs.k, max_len):
        if not w:
            continue
        values, _identity = lift_fixed_values(ifs.word_lift(w), 512)
        for v in values:
            key = round(v / max(TOL, 1e-15))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            found.append((v, w))
    found.sort(key=lambda e: e[0])
    return [(CirclePoint(v), w) for v, w in found]
