"""Exact verdicts for systems of rotations and flips.

Every float angle is a dyadic rational p/q, so the rotations generate the
cyclic group Z/L of the circle, L the lcm of the q.  It is finite, so the
semigroup is a group, the inverse system generates the same one, and the
orbit of x is x + Z/L, with -x + Z/L under a flip (Auslander, *Minimal
Flows and Their Extensions*, 1988, ch. 2).  Every word is an isometry with
|h'| = 1.  Each function returns the verdict these facts decide, by integer
arithmetic on a dyadic grid, or None when some generator is neither a
rotation nor a flip.  The verdict record lives here, so that this module
imports no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .circle import normalize
from .generators import Flip
from .semigroup import IfsSystem


class NotApplicable(Exception):
    """Raised when a detector's precondition fails at the given resolution."""


@dataclass
class Verdict:
    """A property decision plus the evidence that supports it."""

    property_name: str
    holds: bool
    resolution: object
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


def isometry_order(ifs: IfsSystem) -> Optional[Tuple[int, bool]]:
    """(L, whether a flip is among the generators), None unless every
    generator is a rotation or a flip."""
    if not ifs.all_isometries:
        return None
    order = math.lcm(*(g.alpha.as_integer_ratio()[1] for g in ifs.generators
                       if not isinstance(g, Flip)))
    return order, any(isinstance(g, Flip) for g in ifs.generators)


def _certificate(order: int, flip: bool) -> dict:
    return {"certified": True, "certificate": {"kind": "isometries", "order": order, "flip": flip}}


_EXACT = "the verdict is exact, not search-bounded"


# Values in counts of 1/den, for den the least power of two that makes 1/L
# and each given float whole: every float is dyadic, so all is exact.

def _grid(order: int, values: Sequence[float]) -> int:
    return max([order] + [v.as_integer_ratio()[1] for v in values])


def _count(v: float, den: int) -> int:
    num, d = v.as_integer_ratio()
    return num * (den // d)


def _orbit_gaps(order: int, flip: bool, res, net: Sequence[float]):
    """(den, 2 eps, gaps), gaps holding per net point x its orbit's largest
    cyclic gap and twice that gap's midpoint; empty if no gap, at most 1/L,
    can exceed 2 eps.  Above x the orbit holds x + u, u = -2x mod 1/L (0
    without a flip), then x + 1/L; on a tie the first gap is taken."""
    den = _grid(order, [res.eps, *net])
    step, bound = den // order, 2 * _count(res.eps, den)
    gaps = []
    for x in net if step > bound else ():
        at = _count(x, den)
        u = -2 * at % step if flip else 0
        gaps.append((x, u, 2 * at + u) if u >= step - u else (x, step - u, 2 * at + step + u))
    return den, bound, gaps


def _density(name: str, ifs: IfsSystem, res, net: Sequence[float], note: str = "", **extra):
    group = isometry_order(ifs)
    if group is None:
        return None
    den, bound, gaps = _orbit_gaps(*group, res, net)
    caveat = ("every generator is an isometry, so each orbit is x + Z/order, with -x + Z/order "
              f"under a flip: {_EXACT}{note}")
    for x, gap, mid in gaps:
        if gap > bound:
            return Verdict(name, False, res,
                           {"witness_point": x, "uncovered_gap": gap / den,
                            "gap_midpoint": normalize(mid / (2 * den)),
                            "checked_points": len(net), **extra, **_certificate(*group)},
                           "the orbit of witness_point leaves this gap: " + caveat)
    return Verdict(name, True, res, {"checked_points": len(net), **extra, **_certificate(*group)},
                   caveat)


def minimality(ifs: IfsSystem, res, net: Sequence[float]) -> Optional[Verdict]:
    """Every net point's orbit leaves no cyclic gap above 2 eps."""
    return _density("minimality", ifs, res, net)


def strong_transitivity(ifs: IfsSystem, res, net: Sequence[float]) -> Optional[Verdict]:
    """Minimality of the inverse system, which has the same orbits."""
    return _density("strong_transitivity", ifs, res, net,
                    "; the inverse system has the same orbits", orbit_direction="backward")


def _stuck_arc(name: str, center: float, missed: list) -> dict:
    """A net arc's witness: its center, the first 16 centers its images miss
    and their count, under `name`'s keys."""
    keys = {"topological_transitivity": ("stuck_source_center", "unreached_target_centers",
                                         "unreached_count"),
            "s_transitivity": ("stuck_arc_center", "uncovered_centers", "uncovered_count")}[name]
    return {keys[0]: center, keys[1]: missed[:16], keys[2]: len(missed)}


def _arcs(name: str, failure: str, ifs: IfsSystem, res, net: Sequence[float],
          fat: float) -> Optional[Verdict]:
    """Every net center within `fat` of an image of each radius-r net arc:
    those images are the radius-r arcs around the arc's center's orbit, so
    of that orbit within r + fat.  No point lies farther than 1/(2L) from
    an orbit."""
    group = isometry_order(ifs)
    if group is None:
        return None
    order, flip = group
    den = _grid(order, [res.r, fat, *net])
    step, bound = den // order, _count(res.r, den) + _count(fat, den)
    caveat = ("every generator is an isometry, so the images of a net arc are the arcs of "
              f"its length around its center's orbit: {_EXACT}")
    at = [_count(x, den) for x in net] if step > 2 * bound else []

    def near(v):
        return min(v % step, -v % step) <= bound

    for c, ac in zip(net, at):
        missed = [t for t, a in zip(net, at) if not near(a - ac) and not (flip and near(a + ac))]
        if missed:
            return Verdict(name, False, res, {**_stuck_arc(name, c, missed), **_certificate(*group)},
                           f"{failure}: {caveat}")
    return Verdict(name, True, res, {"pairs_checked": len(net) ** 2, **_certificate(*group)},
                   caveat)


def transitivity(ifs: IfsSystem, res, net: Sequence[float]) -> Optional[Verdict]:
    """Some image of each radius-r net arc meets each one."""
    return _arcs("topological_transitivity",
                 "no image arc of the stuck source meets the listed targets", ifs, res, net, res.r)


def s_transitivity(ifs: IfsSystem, res, net: Sequence[float]) -> Optional[Verdict]:
    """Every net center lies within eps of some image of each radius-r net
    arc."""
    return _arcs("s_transitivity", "no eps-cover by image arcs", ifs, res, net, res.eps)


def cofinite_sensitivity(ifs: IfsSystem, res, net: Sequence[float], delta: float,
                         window: int) -> Optional[Verdict]:
    """Every image of a net arc has its diameter min(2r, 1/2), so the arcs
    separate beyond delta at every time or at none."""
    group = isometry_order(ifs)
    if group is None:
        return None
    holds = min(2.0 * res.r, 0.5) > delta
    witnesses = {"max_N": 0} if holds else {"stuck_arc_center": net[0]}
    return Verdict("cofinite_sensitivity", holds, res,
                   {**witnesses, "delta": delta, "window": window, **_certificate(*group)},
                   "every generator is an isometry, so every image of a net arc has diameter "
                   "min(2r, 1/2): " + _EXACT)


def local_expanding(ifs: IfsSystem, res) -> Optional[Verdict]:
    """No word expands anywhere: the first net point is stuck."""
    group = isometry_order(ifs)
    if group is None:
        return None
    return Verdict("local_expanding", False, res,
                   {"stuck_point": 0.5 / res.net_size, **_certificate(*group)},
                   "every generator is an isometry, so every word has |h'| = 1 and expands "
                   "nowhere: " + _EXACT)


def witness_pipeline(ifs: IfsSystem, res, net: Sequence[float],
                     radius: float) -> Optional[Tuple[float, Verdict]]:
    """The sensitivity witness from non-minimality on exact orbits: the
    candidate is a quarter of the distance, half the gap, from the midpoint
    of the largest orbit gap (the first on ties) to the orbit, and every
    word separates a ball by exactly its radius.  NotApplicable if every
    orbit is eps-dense."""
    group = isometry_order(ifs)
    if group is None:
        return None
    den, bound, gaps = _orbit_gaps(*group, res, net)
    y, gap, mid = max(gaps, key=lambda g: g[1], default=(None, 0, None))
    if gap <= bound:
        raise NotApplicable("every net orbit is eps-dense at this resolution")
    num, d = radius.as_integer_ratio()
    wide = 8 * num * den > gap * d  # the radius exceeds gap / 8
    dist = gap / (2 * den)
    return dist / 4.0, Verdict(
        "sensitivity_witness_from_nonminimality", wide, res,
        {"nondense_point_y": y, "farthest_point_z": normalize(mid / (2 * den)),
         "distance_to_closure": dist, "delta_candidate": dist / 4.0,
         "checked_points": len(net), "failing_points": [] if wide else list(net[:16]),
         "hardest_verified": {"x": net[0], "word": [], "separation": radius} if wide else None,
         **_certificate(*group)},
        "every generator is an isometry: the orbit closure is exact, and every word "
        f"separates a ball by its radius: {_EXACT}")


def almost_periodic(ifs: IfsSystem, res, x: float) -> Optional[Verdict]:
    """Every orbit closure is one orbit of a compact group, hence minimal;
    a generator fixed point within eps/2 of it keeps its whole orbit within
    eps/2, so the search's augmented sample would hold too."""
    if (group := isometry_order(ifs)) is None:
        return None
    return Verdict(
        "almost_periodic", True, res, {"base_point": x, **_certificate(*group)},
        caveat="every generator is an isometry, so every orbit closure is minimal: " + _EXACT)


def sensitivity(ifs: IfsSystem, res, witnesses: dict) -> Optional[Verdict]:
    """The verdict on the `witnesses` of a report whose balls all keep the
    empty word: no isometry separates a ball more, so delta_hat is exact."""
    if (group := isometry_order(ifs)) is None:
        return None
    return Verdict(
        "sensitivity", bool(witnesses["delta_hat"] >= res.eps), res,
        {**witnesses, **_certificate(*group)},
        caveat="every generator is an isometry, so no word separates a ball of radius r "
               "beyond r: delta_hat is exact, not search-bounded")
