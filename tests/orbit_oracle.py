"""Test-only reference: the one-root-at-a-time orbit search that the
multi-source `ifs_lab.semigroup.orbit_cloud` replaced, kept verbatim in
behaviour, the scalar `max_cyclic_gap`, and the orbit-density verdicts as
they ran on them (a re-sort of the whole cloud at every level for the gap
and coverage stop tests).

The reference verdicts also name the bound that ended a failing search, so
that their dicts compare whole against the kernel's: a cloud that emptied
out is "exhausted", one at its cap "budget", any other "depth".
`almost_periodic_verdict` adds the isometry certificate: a system of
rotations and flips is not searched.  `searched_almost_periodic_verdict`
runs the search on any system.
"""

from fractions import Fraction
from typing import Tuple

import numpy as np

from ifs_lab.circle import as_value, circ_dist, normalize
from ifs_lab.detectors import (Resolution, Verdict, _stopped_by, generator_fixed_values,
                               system_net)
from ifs_lab.generators import Flip, Rotation
from ifs_lab.semigroup import IfsSystem


class Cloud:
    def __init__(self, values, parents, letters, depth_reached, exhausted):
        self.values = values
        self.parents = parents
        self.letters = letters
        self.depth_reached = depth_reached
        self.exhausted = exhausted


def orbit_cloud(ifs: IfsSystem, x, depth: int, cap: int, merge: float,
                stop_when=None, generators=None) -> Cloud:
    """Breadth-first orbit of the one root x; `stop_when(values)` sees the
    whole cloud after each completed level."""
    gens = ifs.generators if generators is None else tuple(generators)
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
    return Cloud(values, parents, letters, level, exhausted)


def max_cyclic_gap(values: np.ndarray) -> Tuple[float, float]:
    """Largest gap between consecutive points and its midpoint."""
    s = np.sort(np.asarray(values))
    if s.size == 0:
        return 1.0, 0.0
    if s.size == 1:
        return 1.0, normalize(float(s[0]) + 0.5)
    gaps = np.diff(s)
    wrap = 1.0 - float(s[-1]) + float(s[0])
    i = int(np.argmax(gaps))
    if wrap > float(gaps[i]):
        return wrap, normalize(float(s[-1]) + wrap / 2.0)
    return float(gaps[i]), normalize(float(s[i]) + float(gaps[i]) / 2.0)


def stop_reason(cloud: Cloud, cap: int) -> str:
    if cloud.exhausted:
        return "exhausted"
    return "budget" if cloud.values.size >= cap else "depth"


def gap_stop(target: float):
    """The old minimality stop test: the re-sorted cloud is target-dense."""
    def stop(vals: np.ndarray) -> bool:
        if vals.size < 1.0 / target:
            return False
        gap, _ = max_cyclic_gap(vals)
        return gap <= target
    return stop


def distances(arr: np.ndarray, vals_y: np.ndarray) -> np.ndarray:
    """Distance from each point of arr to the nearest of vals_y."""
    s = np.sort(vals_y)
    i = np.searchsorted(s, arr) % s.size
    d1 = np.abs(arr - s[i - 1])
    d2 = np.abs(arr - s[i])
    return np.minimum(np.minimum(d1, 1.0 - d1), np.minimum(d2, 1.0 - d2))


def cover_stop(arr: np.ndarray, eps: float):
    """The old almost_periodic stop test: every point of arr is within eps."""
    return lambda vals: bool((distances(arr, vals) <= eps).all())


def dense_orbit(ifs: IfsSystem, x: float, res: Resolution,
                generators=None) -> Tuple[bool, float, float, Cloud]:
    target = 2.0 * res.eps
    cloud = orbit_cloud(ifs, x, res.depth, res.budget, stop_when=gap_stop(target),
                        generators=generators, merge=res.eps / 8.0)
    gap, mid = max_cyclic_gap(cloud.values)
    return gap <= target, gap, mid, cloud


def minimality_verdict(ifs: IfsSystem, res: Resolution) -> Verdict:
    net = system_net(ifs, res.net_size)
    worst = None
    for x in net:
        dense, gap, mid, cloud = dense_orbit(ifs, x, res)
        vals = cloud.values
        if worst is None or gap > worst["gap"]:
            worst = {"point": x, "gap": gap, "gap_midpoint": mid,
                     "orbit_points": int(vals.size)}
        if not dense:
            reason = stop_reason(cloud, res.budget)
            return Verdict(
                "minimality", False, res,
                {"witness_point": x, "uncovered_gap": gap, "gap_midpoint": mid,
                 "orbit_points": int(vals.size), "checked_points": len(net),
                 "stop_reason": reason, "depth_reached": cloud.depth_reached},
                caveat="orbit not eps-dense within depth/budget bounds: "
                       + _stopped_by(reason, res, orbit=True),
            )
    return Verdict(
        "minimality", True, res,
        {"checked_points": len(net), "worst": worst},
        caveat="density certified on the net at resolution eps",
    )


def strong_transitivity_verdict(ifs: IfsSystem, res: Resolution) -> Verdict:
    inner = minimality_verdict(ifs.inverse_system(), res)
    witnesses = dict(inner.witnesses)
    witnesses["orbit_direction"] = "backward"
    if inner.holds:
        caveat = inner.caveat + "; witness orbits use inverse generators"
    else:
        caveat = ("orbit not eps-dense within depth/budget bounds; witness orbits use "
                  "inverse generators: " + _stopped_by(witnesses["stop_reason"], res, orbit=True))
    return Verdict("strong_transitivity", inner.holds, res, witnesses, caveat=caveat)


def almost_periodic_verdict(ifs: IfsSystem, x, res: Resolution) -> Verdict:
    """The verdict `almost_periodic_verdict` reports: on a system of
    rotations and flips, the isometry certificate with no search, which
    names the order of the group (the largest denominator of the dyadic
    angles) and whether a flip is in it; on any other system,
    `searched_almost_periodic_verdict`."""
    if all(isinstance(g, (Rotation, Flip)) for g in ifs.generators):
        order = max((Fraction(g.alpha).denominator for g in ifs.generators
                     if isinstance(g, Rotation)), default=1)
        flip = any(isinstance(g, Flip) for g in ifs.generators)
        return Verdict(
            "almost_periodic", True, res,
            {"base_point": as_value(x), "certified": True,
             "certificate": {"kind": "isometries", "order": order, "flip": flip}},
            caveat="every generator is an isometry, so every orbit closure is minimal: "
                   "the verdict is exact, not search-bounded",
        )
    return searched_almost_periodic_verdict(ifs, x, res)


def searched_almost_periodic_verdict(ifs: IfsSystem, x, res: Resolution) -> Verdict:
    """The closure sample of x, and every closure point's orbit searched
    until it comes within eps of each, whatever the generators."""
    x = as_value(x)
    cloud = orbit_cloud(ifs, x, res.depth, res.budget, merge=res.eps / 8.0)
    sorted_vals = np.sort(cloud.values)
    closure = [x]
    bins = {}
    nbins = max(1, round(1.0 / res.eps))
    for v in sorted_vals.tolist():
        b = min(int(v * nbins), nbins - 1)
        if b not in bins:
            bins[b] = v
    closure.extend(bins.values())
    for fp in generator_fixed_values(ifs):
        i = int(np.searchsorted(sorted_vals, fp))
        near = min(circ_dist(fp, float(sorted_vals[j % sorted_vals.size])) for j in (i - 1, i))
        if near <= res.eps / 2.0:
            closure.append(fp)
    closure = sorted(set(normalize(v) for v in closure))
    arr = np.array(closure)
    for y in closure:
        cloud = orbit_cloud(ifs, y, res.depth, res.budget, stop_when=cover_stop(arr, res.eps),
                            merge=res.eps / 8.0)
        d = distances(arr, cloud.values)
        if not (d <= res.eps).all():
            far = int(np.argmax(d))
            reason = stop_reason(cloud, res.budget)
            return Verdict(
                "almost_periodic", False, res,
                {"base_point": x, "witness_y": y, "closure_size": len(closure),
                 "unreached_example": float(arr[far]),
                 "unreached_distance": float(d[far]),
                 "stop_reason": reason, "depth_reached": cloud.depth_reached,
                 "orbit_points": int(cloud.values.size)},
                caveat="orbit of witness_y not eps-dense in the orbit closure of x "
                       "within bounds: " + _stopped_by(reason, res, orbit=True),
            )
    return Verdict(
        "almost_periodic", True, res,
        {"base_point": x, "closure_size": len(closure)},
        caveat="closure approximated by eps-thinned orbit sample",
    )
