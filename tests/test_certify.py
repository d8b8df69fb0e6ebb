"""The isometry certificates of `ifs_lab.certify` against exact arithmetic,
against the searches they replace, and against the searches they skip.

The exact oracle here reads every float as the rational it is
(`fractions.Fraction`), closes the generators under composition and
compares orbits point by point; it shares no code with `certify`'s integer
grid.
"""

import pathlib
from dataclasses import asdict
from fractions import Fraction

import pytest

import ifs_lab.certify as certify
import ifs_lab.detectors as detectors
import ifs_lab.smooth as smooth
from ifs_lab import (DEFAULT_RESOLUTION, GALLERY_NAMES, Flip, IfsSystem, NorthSouth,
                     NotApplicable, Resolution, Rotation, build_example)
from ifs_lab.cli import load_system_file, system_from_config
from ifs_lab.detectors import _radius_ladder, system_net
from ifs_lab.properties import PROPERTY_NAMES, evaluate_property
from test_orbit_kernel import bench_systems

DATA = pathlib.Path(__file__).parent / "data"
RANDOM = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)

# systems of small order: the searches and the certificates both see every
# orbit point, and the verdicts turn on exact distances
SMALL_ORDER = {
    "quarter_and_flip": [Rotation(0.25), Flip()],
    "half": [Rotation(0.5)],
    "identity": [Rotation(0.0)],
    "flip": [Flip()],
    "two_flips": [Flip(), Flip()],
    "eighths": [Rotation(0.375), Rotation(0.25)],
    "sixteenth_and_flip": [Flip(), Rotation(0.0625)],
}
RESOLUTIONS = [
    DEFAULT_RESOLUTION,
    RANDOM,
    # ties: 2 eps = 1/4 is a quarter turn's orbit gap, 2r = 1/8 an eighth's
    # greatest distance to an orbit, and r + eps = 1/4
    Resolution(eps=0.125, r=0.0625, net_size=4),
    Resolution(eps=0.125, r=0.125, net_size=8),
    Resolution(eps=0.03125, r=0.03125, net_size=16),
]


def group(ifs):
    """Every word map of a system of finite-order rotations and flips, as
    (sign, offset) with x -> sign * x + offset."""
    gens = [(-1, Fraction(0)) if isinstance(g, Flip) else (1, Fraction(g.alpha))
            for g in ifs.generators]
    elems, frontier = set(gens), set(gens)
    while frontier:
        frontier = {(s1 * s2, (s2 * c1 + c2) % 1) for s1, c1 in frontier for s2, c2 in gens}
        frontier -= elems
        elems |= frontier
    return elems


def orbit(elems, x):
    x = Fraction(x)
    return sorted({x} | {(s * x + c) % 1 for s, c in elems})


def dist(a, b):
    d = abs(Fraction(a) - Fraction(b)) % 1
    return min(d, 1 - d)


def largest_gap(points):
    gaps = [b - a for a, b in zip(points, points[1:])] + [1 - points[-1] + points[0]]
    return max(gaps)


class Exact:
    """Each certified property of a small-order system, in Fractions."""

    def __init__(self, ifs, res):
        self.res = res
        self.elems = group(ifs)
        self.net = system_net(ifs, res.net_size)
        self.gaps = [largest_gap(orbit(self.elems, x)) for x in self.net]

    def minimality(self):
        return all(g <= 2 * Fraction(self.res.eps) for g in self.gaps)

    def reach(self, bound):
        return all(min(dist(t, p) for p in orbit(self.elems, c)) <= bound
                   for c in self.net for t in self.net)

    def transitivity(self):
        return self.reach(2 * Fraction(self.res.r))

    def s_transitivity(self):
        return self.reach(Fraction(self.res.r) + Fraction(self.res.eps))

    def witness_candidate(self):
        return max(self.gaps) / 8


@pytest.mark.parametrize("res", RESOLUTIONS, ids=range(len(RESOLUTIONS)))
@pytest.mark.parametrize("name", SMALL_ORDER)
def test_certified_verdicts_equal_exact_arithmetic(name, res):
    ifs = IfsSystem(SMALL_ORDER[name])
    exact = Exact(ifs, res)
    # float denominators are powers of two, whose lcm is the largest
    order = max((Fraction(g.alpha).denominator for g in ifs.generators
                 if isinstance(g, Rotation)), default=1)
    cert = {"kind": "isometries", "order": order,
            "flip": any(isinstance(g, Flip) for g in ifs.generators)}
    verdicts = {
        "minimality": (detectors.minimality_verdict(ifs, res), exact.minimality()),
        "strong_transitivity": (detectors.strong_transitivity_verdict(ifs, res),
                                exact.minimality()),
        "transitivity": (detectors.topological_transitivity_verdict(ifs, res),
                         exact.transitivity()),
        "s_transitivity": (detectors.s_transitivity_verdict(ifs, res), exact.s_transitivity()),
        "local_expanding": (smooth.local_expanding_verdict(ifs, res), False),
    }
    for delta in (0.01, 2.0 * res.r, 0.2):
        verdicts[f"cofinite_sensitivity({delta})"] = (
            detectors.cofinite_sensitivity_verdict(ifs, delta, res, window=5),
            min(2 * res.r, 0.5) > delta)
    for prop, (v, want) in verdicts.items():
        assert v.holds is want, prop
        assert v.witnesses["certified"] is True and v.witnesses["certificate"] == cert, prop
        assert "exact, not search-bounded" in v.caveat
    v = verdicts["minimality"][0]
    if not v.holds:
        x = v.witnesses["witness_point"]
        i = exact.net.index(x)
        # the first net point with a gap above 2 eps, its gap, and the gap's
        # midpoint, rounded to a float, at half the gap from the orbit
        assert all(g <= 2 * Fraction(res.eps) for g in exact.gaps[:i])
        assert v.witnesses["uncovered_gap"] == float(exact.gaps[i])
        mid = v.witnesses["gap_midpoint"]
        assert abs(min(dist(mid, p) for p in orbit(exact.elems, x)) - exact.gaps[i] / 2) <= 2 ** -53
    t = verdicts["transitivity"][0]
    if not t.holds:
        c = t.witnesses["stuck_source_center"]
        far = [u for u in exact.net
               if min(dist(u, p) for p in orbit(exact.elems, c)) > 2 * Fraction(res.r)]
        assert t.witnesses["unreached_count"] == len(far)
        assert t.witnesses["unreached_target_centers"] == far[:16]
    if exact.minimality():
        with pytest.raises(NotApplicable):
            detectors.sensitivity_witness_from_nonminimality(ifs, res)
    else:
        candidate, w = detectors.sensitivity_witness_from_nonminimality(ifs, res)
        assert candidate == float(exact.witness_candidate())
        assert w.holds is (_radius_ladder(res.r)[-1] > exact.witness_candidate())
        assert w.witnesses["certified"] is True


_SEARCHED = {
    "minimality": detectors.minimality_verdict,
    "strong_transitivity": detectors.strong_transitivity_verdict,
    "transitivity": detectors.topological_transitivity_verdict,
    "s_transitivity": detectors.s_transitivity_verdict,
}


@pytest.mark.parametrize("name", SMALL_ORDER)
def test_small_order_searches_reach_their_certificates(name, monkeypatch):
    """A small-order system's searches visit every orbit point, so they
    decide as the certificates do, ties included."""
    ifs = IfsSystem(SMALL_ORDER[name])
    certified = [detector(ifs, res).holds for res in RESOLUTIONS for detector in _SEARCHED.values()]
    monkeypatch.setattr(certify, "isometry_order", lambda ifs: None)
    assert [detector(ifs, res).holds
            for res in RESOLUTIONS for detector in _SEARCHED.values()] == certified


@pytest.mark.parametrize("name", SMALL_ORDER)
def test_sensitivity_and_almost_periodicity_write_the_one_certificate(name):
    ifs = IfsSystem(SMALL_ORDER[name])
    cert = detectors.minimality_verdict(ifs, RANDOM).witnesses["certificate"]
    assert detectors.sensitivity_estimate(ifs, RANDOM)[1].witnesses["certificate"] == cert
    assert detectors.almost_periodic_verdict(ifs, 0.3, RANDOM).witnesses["certificate"] == cert


def test_the_order_reads_each_float_angle_exactly():
    # 0.142126 is 71063 / 500000 in decimal, and a dyadic rational as a float
    order, flip = certify.isometry_order(IfsSystem([Rotation(0.142126), Flip()]))
    assert flip and order == Fraction(0.142126).denominator and order >= 500_000
    assert certify.isometry_order(IfsSystem([Rotation(0.25), Rotation(0.375)])) == (8, False)
    assert certify.isometry_order(IfsSystem([Flip()])) == (1, True)
    assert certify.isometry_order(IfsSystem([Rotation(0.25), NorthSouth(0.1, 2.0)])) is None
    # the float 1/6 has order 2**55, so its rotation is minimal at any eps
    ifs = IfsSystem([Rotation(1.0 / 6.0), Flip()])
    assert certify.isometry_order(ifs) == (2 ** 55, True)
    assert detectors.minimality_verdict(ifs, DEFAULT_RESOLUTION.replaced(eps=1e-6)).holds
    # an angle within 1e-15 of a whole turn keeps its bits: the orbit is a
    # lattice of step 2**-53, not the fixed orbit of the identity
    ifs = IfsSystem([Rotation(0.9999999999999995)])
    assert certify.isometry_order(ifs) == (2 ** 53, False)
    assert detectors.minimality_verdict(ifs, DEFAULT_RESOLUTION).holds


def isometry_documents(seeds):
    systems = bench_systems()
    for seed in seeds:
        for i, doc in enumerate(systems.random_documents(seed)):
            ifs = system_from_config(doc)
            if ifs.all_isometries:
                yield (seed, i), ifs


def test_every_positive_search_verdict_equals_its_certificate(monkeypatch):
    """On the all-isometry documents of random seeds 0-39, at the
    random_systems resolution; a search negative may be one that its depth,
    budget or merge cell cut short, so only positives are held to the
    certificate."""
    certified, searched = {}, {}
    for key, ifs in isometry_documents(range(40)):
        for prop, detector in _SEARCHED.items():
            certified[key, prop] = detector(ifs, RANDOM)
    with monkeypatch.context() as off:
        off.setattr(certify, "isometry_order", lambda ifs: None)
        for key, ifs in isometry_documents(range(40)):
            for prop, detector in _SEARCHED.items():
                searched[key, prop] = detector(ifs, RANDOM)
    assert len(certified) == 280 * len(_SEARCHED)
    positives = [k for k, v in searched.items() if v.holds]
    assert len(positives) > 500
    assert all(certified[k].holds for k in positives)
    assert all(v.witnesses["certified"] for v in certified.values())
    assert not any("certified" in v.witnesses for v in searched.values())


def _refuse(*args, **kwargs):
    raise AssertionError("a search ran on a system of rotations and flips")


@pytest.mark.parametrize("system", ["rotation_flip", "random_18_34", "random_4_33",
                                    "quarter_and_flip", "flip"])
def test_no_registered_property_searches_an_isometry_system(system, monkeypatch):
    if system in SMALL_ORDER:
        ifs = IfsSystem(SMALL_ORDER[system])
    elif system in GALLERY_NAMES:
        ifs = build_example(system).system
    else:
        ifs = load_system_file(str(DATA / f"{system}.json"))
    for module, kernel in [(detectors, "_arc_search"), (detectors, "orbit_cloud"),
                           (detectors, "_rule_paths"), (detectors, "_bfs_best"),
                           (smooth, "local_expanding_cover")]:
        monkeypatch.setattr(module, kernel, _refuse)
    for prop in PROPERTY_NAMES:
        if prop in ("dense_periodic", "repelling_fixed_point"):
            continue
        for res in (DEFAULT_RESOLUTION, RANDOM):
            out = evaluate_property(ifs, prop, res, {"x": 0.3})
            # expansion is a derivative sweep, not a search
            assert (prop == "expanding" or out["witnesses"].get("certified")
                    or out["witnesses"].get("not_applicable"))


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_reports_build_their_dicts_as_asdict_does(name):
    ifs = build_example(name).system
    report, verdict = detectors.sensitivity_estimate(ifs)
    assert report.to_dict() == asdict(report)
    assert verdict.resolution.to_dict() == asdict(verdict.resolution)
    assert list(verdict.resolution.to_dict()) == list(asdict(verdict.resolution))
