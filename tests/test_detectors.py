import json
from pathlib import Path

import numpy as np
import pytest

from ifs_lab import (Arc, CirclePoint, Expanding, Flip, IfsSystem, NonInvertible,
                     NorthSouth, NotApplicable, PiecewiseLinear, Resolution, Rotation, circ_dist,
                     almost_periodic_verdict, cofinite_sensitivity_verdict,
                     compose_word, constant_rule, dense_periodic_verdict,
                     greedy_diameter_rule, minimality_verdict,
                     s_transitivity_verdict, sensitivity_estimate,
                     sensitivity_witness_from_nonminimality,
                     separation_times, strong_transitivity_verdict,
                     topological_transitivity_verdict)
from ifs_lab import certify
from ifs_lab.cli import load_system_file
from ifs_lab.detectors import (DEFAULT_RESOLUTION, _arc_search, _radius_ladder, _rule_paths,
                               _stopped_by, max_cyclic_gap)
from ifs_lab.generators import Generator, map_arcs
from ifs_lab.properties import PROPERTY_NAMES, evaluate_property
from ifs_lab.semigroup import orbit_cloud

DEEP = DEFAULT_RESOLUTION.replaced(depth=200)


def pattern_rule(pattern):
    """An extension rule cycling through `pattern`, written against the
    public rule protocol: it returns only its letters, for `_rule_paths` to
    map the arcs."""
    pattern = tuple(pattern)

    def rule(ifs, step, s, ln, c):
        return np.full(s.size, pattern[step % len(pattern)])

    rule.label = f"periodic{pattern}"
    return rule


def word_image(ifs, w, arc):
    """The image of an arc under the word w, one `map_arcs` step per letter."""
    s, ln = np.array([arc.start.value]), np.array([arc.length])
    for letter in w:
        s, ln = map_arcs(ifs.generator(letter), s, ln)
    return Arc(CirclePoint(float(s[0])), float(ln[0]))


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(eps=0.0)
    with pytest.raises(ValueError):
        Resolution(r=0.7)
    with pytest.raises(ValueError):
        Resolution(depth=0)
    assert DEFAULT_RESOLUTION.to_dict()["budget"] == 100_000


@pytest.mark.parametrize("field", ["depth", "net_size", "budget"])
def test_resolution_counts_are_whole_numbers(field):
    # a bool or a fraction fails here, naming the field, not deep in a search
    for bad in (True, 50.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^parameter '{field}' takes an integer"):
            Resolution(**{field: bad})
    res = Resolution(**{field: 50.0})
    assert getattr(res, field) == 50 and type(getattr(res, field)) is int
    assert res == Resolution(**{field: 50})
    assert type(DEFAULT_RESOLUTION.replaced(**{field: np.int64(7)}).to_dict()[field]) is int


@pytest.mark.parametrize("field", ["depth", "net_size", "budget"])
def test_resolution_counts_fit_an_int64(field):
    # the searches hold them in int64 arrays
    for bad in (2 ** 63, 10 ** 29, 1e30):
        with pytest.raises(ValueError, match=rf"^{field} must be below 2\*\*63"):
            Resolution(**{field: bad})
    assert getattr(Resolution(**{field: 2 ** 63 - 1}), field) == 2 ** 63 - 1


def test_reducing_by_the_floor_gives_the_remainder_bitwise():
    # `_target_ranges` and `lebesgue_number` reduce mod 1 as d - floor(d): exact
    # for d >= 0, one rounding of frac(d) + 1 for d < 0, +0.0 at integers
    one = np.array([1.0, -1.0])
    d = np.r_[0.0, -0.0, 2.0 ** -60, -2.0 ** -60, -1.0, np.arange(-5.0, 6.0), 2.0 ** 53,
              -2.0 ** 53, np.nextafter(one, 0.0), np.nextafter(one, 3.0), np.nextafter(one, -3.0),
              np.random.default_rng(7).normal(size=10 ** 5)]
    assert (d - np.floor(d)).tobytes() == (d % 1.0).tobytes()
    assert (d - np.floor(d))[:4].tobytes() == np.array([0.0, 0.0, 2.0 ** -60, 1.0]).tobytes()


def test_radius_ladder_descends_past_r():
    ladder = _radius_ladder(0.01)
    assert ladder[0] == pytest.approx(0.1)
    assert all(a / 2 == pytest.approx(b) for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] <= 0.01
    assert ladder[-2] > 0.01


def test_minimality_verdicts(golden_rotation, ns_alone):
    v = minimality_verdict(golden_rotation, DEEP)
    assert v.holds
    v = minimality_verdict(ns_alone)
    assert not v.holds
    # the fixed points of the map are on the augmented net
    assert v.witnesses["witness_point"] in (0.0, 0.5)
    assert v.witnesses["uncovered_gap"] > 0.02


def test_minimality_quarter_rotation_fails():
    v = minimality_verdict(IfsSystem([Rotation(0.25)]))
    assert not v.holds
    assert v.witnesses["uncovered_gap"] == pytest.approx(0.25, abs=1e-9)


def test_topological_transitivity(rotation_flip, searched_rotation_flip, ns_alone):
    assert topological_transitivity_verdict(rotation_flip).witnesses["certified"]
    v = topological_transitivity_verdict(searched_rotation_flip)
    assert v.holds
    # the hardest witness replays: the image arc of U meets the target ball
    h = v.witnesses["hardest_pair"]
    arc = word_image(searched_rotation_flip, h["word"],
                     Arc(CirclePoint(h["source_center"] - 0.01), 0.02))
    fat = Arc(CirclePoint(arc.start.value - 0.01), min(arc.length + 0.02, 1.0))
    assert fat.contains(h["target_center"], tol=1e-10)

    v = topological_transitivity_verdict(ns_alone)
    assert not v.holds
    assert v.witnesses["unreached_count"] > 0


def test_strong_transitivity(golden_rotation, doubling, hinge_system):
    assert strong_transitivity_verdict(golden_rotation, DEEP).holds
    with pytest.raises(NonInvertible):
        strong_transitivity_verdict(doubling)
    v = strong_transitivity_verdict(hinge_system)
    assert not v.holds and v.witnesses["witness_point"] == 0.0


def test_s_transitivity(golden_rotation, searched_golden_rotation, ns_alone, expanding_pair):
    assert s_transitivity_verdict(golden_rotation).witnesses["certified"]
    v = s_transitivity_verdict(searched_golden_rotation)
    assert v.holds
    covers = v.witnesses["covers"]
    assert covers and all(len(words) >= 1 for words in covers.values())
    assert not s_transitivity_verdict(ns_alone).holds
    assert s_transitivity_verdict(expanding_pair).holds


def test_s_transitivity_cover_replays(searched_golden_rotation):
    v = s_transitivity_verdict(searched_golden_rotation)
    key, words = next(iter(v.witnesses["covers"].items()))
    center = float(key)
    net = [(i + 0.5) / 100 for i in range(100)]
    covered = set()
    for w in words:
        arc = word_image(searched_golden_rotation, w, Arc(CirclePoint(center - 0.01), 0.02))
        fat = Arc(CirclePoint(arc.start.value - 0.01), min(arc.length + 0.02, 1.0))
        covered.update(p for p in net if fat.contains(p, tol=1e-10))
    assert len(covered) == len(net)


def test_sensitivity_isometries_fail(rotation_flip):
    report, verdict = sensitivity_estimate(rotation_flip)
    assert not verdict.holds
    r_min = _radius_ladder(DEFAULT_RESOLUTION.r)[-1]
    assert report.delta_hat <= 2 * r_min + 1e-9
    # separation never exceeds twice the tested radius on isometry systems
    for entry in report.per_point:
        assert entry["separation"] <= 2 * entry["r"] + 1e-12


def isometry_certificate(witnesses) -> bool:
    """Whether the witnesses carry the one isometry certificate that every
    certified verdict writes: the group's order and whether a flip is in it."""
    cert = witnesses["certificate"]
    return (witnesses["certified"] is True and set(cert) == {"kind", "order", "flip"}
            and cert["kind"] == "isometries" and type(cert["order"]) is int
            and cert["order"] >= 1 and type(cert["flip"]) is bool)


def certified(report, verdict):
    """Whether sensitivity was certified by the isometry certificate; every
    ball then reports the empty word, and none otherwise."""
    isometry = [e["strategy"] == "isometry" for e in report.per_point]
    assert all(isometry) or not any(isometry)
    if not all(isometry):
        assert "isometry" not in report.strategy_notes
        assert "certified" not in verdict.witnesses and "certificate" not in verdict.witnesses
        # a negative verdict names the bound that stopped the search of the
        # ball setting delta_hat, unless that search reached the cap
        searched = "delta_hat is a lower estimate; negative verdicts are search-bounded"
        reason = verdict.witnesses.get("stop_reason")
        assert (reason is None) == verdict.holds
        share = verdict.resolution.replaced(budget=verdict.witnesses["slice_budget"])
        bound = "" if reason in (None, "found") else ": " + _stopped_by(reason, share)
        assert verdict.caveat == searched + bound
        return False
    assert report.strategy_notes == {"isometry": len(report.per_point)}
    assert all(e["best_word"] == [] and e["image_diameter"] == 2.0 * e["r"]
               and not e["diameter_capped"] for e in report.per_point)
    assert isometry_certificate(verdict.witnesses)
    assert "exact, not search-bounded" in verdict.caveat
    return True


def ap_certified(verdict):
    """Whether almost periodicity was certified by the isometry certificate,
    which holds with no search; a searched verdict names no certificate."""
    if "certified" not in verdict.witnesses:
        assert "closure_size" in verdict.witnesses
        assert "exact, not search-bounded" not in verdict.caveat
        return False
    assert verdict.holds is True
    assert set(verdict.witnesses) == {"base_point", "certified", "certificate"}
    assert isometry_certificate(verdict.witnesses)
    assert verdict.caveat.startswith("every generator is an isometry, so every orbit "
                                     "closure is minimal")
    assert verdict.caveat.endswith("exact, not search-bounded")
    return True


@pytest.mark.parametrize("generators", [
    [Rotation(0.3)], [Flip()], [Rotation(0.0), Flip()], [Rotation(0.1), Rotation(0.7), Flip()],
], ids=["rotation", "flip", "identity_and_flip", "two_rotations_and_flip"])
def test_a_system_of_rotations_and_flips_is_certified(generators):
    ifs = IfsSystem(generators)
    assert ifs.all_isometries
    report, verdict = sensitivity_estimate(ifs)
    assert certified(report, verdict) and not verdict.holds
    assert ap_certified(almost_periodic_verdict(ifs, 0.3))
    assert report.delta_hat == verdict.witnesses["delta_hat"] == min(
        e["separation"] for e in report.per_point)


@pytest.mark.parametrize("other", [
    NorthSouth(0.2, 2.0), Expanding(2), PiecewiseLinear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0))),
    # an isometry, but the certificate goes by generator type
    PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))),
], ids=["north_south", "expanding", "piecewise_linear", "piecewise_linear_identity"])
def test_any_other_generator_type_is_searched(other):
    for generators in ([other], [Rotation(0.3), Flip(), other], [other, Flip()]):
        ifs = IfsSystem(generators)
        assert not ifs.all_isometries
        assert not certified(*sensitivity_estimate(ifs))
        assert not ap_certified(almost_periodic_verdict(ifs, 0.3))
    # the test is by type: a rotation or a flip is an isometry, nothing else
    assert IfsSystem([Rotation(0.3), Flip()]).all_isometries
    assert not isinstance(other, (Rotation, Flip))


class Reflection(Generator):
    """x -> c - x: an isometry, but neither a rotation nor the flip.  Its
    `isometry = True` marks nothing: the isometry test goes by type."""

    isometry = True
    degree = -1

    def __init__(self, c):
        self.c = c

    def lift(self, t):
        return self.c - t

    lift_array = lift

    def derivative(self, x):
        return -1.0

    def derivative_array(self, x):
        return np.full(len(x), -1.0)

    def inverse(self):
        return self


@pytest.mark.parametrize("generators", [
    [Reflection(0.2)], [Rotation(0.3), Reflection(0.2)], [Reflection(0.2), Flip()],
], ids=["reflection", "rotation_and_reflection", "reflection_and_flip"])
def test_an_isometry_of_another_type_is_searched_by_every_property(generators):
    ifs = IfsSystem(generators)
    res = Resolution(net_size=12, depth=8, budget=400, eps=0.05, r=0.05)
    for prop in PROPERTY_NAMES:
        out = evaluate_property(ifs, prop, res, {"x": 0.3})
        assert "certified" not in out["witnesses"], prop
    assert not ifs.all_isometries and certify.isometry_order(ifs) is None


def test_a_rounding_word_no_longer_moves_a_certified_delta_hat():
    """Random document `random_documents(18)[34]` of bench/systems.py, a
    rotation and a flip.  A search found words whose image of a ball rounds
    1e-15 wider than the ball, and that raised delta_hat by one last bit."""
    ifs = load_system_file(str(Path(__file__).parent / "data" / "random_18_34.json"))
    res = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)
    report, verdict = sensitivity_estimate(ifs, res)
    assert certified(report, verdict)
    assert report.delta_hat.hex() == "0x1.999999999999ap-7"
    assert verdict.holds is False


def test_a_closure_orbit_below_the_merge_cell_no_longer_fails_almost_periodicity():
    """Random document `random_documents(4)[33]` of bench/systems.py, a flip
    and rotations by 0.643555 and 0.357398.  Those two compose to a turn of
    0.000953, under the merge cell eps/8, so a search from a closure point
    runs out of fresh cells before its orbit is eps-dense in the closure,
    even at depth 240.  Every orbit closure of an isometry system is
    minimal, and the certificate says so."""
    ifs = load_system_file(str(Path(__file__).parent / "data" / "random_4_33.json"))
    res = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)
    v = almost_periodic_verdict(ifs, 0.3, res)
    assert ap_certified(v) and v.witnesses["base_point"] == 0.3


def test_sensitivity_doubling_holds(doubling):
    report, verdict = sensitivity_estimate(doubling)
    assert verdict.holds
    assert report.delta_hat >= 0.2


def test_sensitivity_witnesses_replay(doubling):
    report, _ = sensitivity_estimate(doubling)
    for entry in report.per_point[:40]:
        w = tuple(entry["best_word"])
        sep = circ_dist(compose_word(doubling, w, entry["x"]),
                        compose_word(doubling, w, entry["best_partner_y"]))
        assert sep == pytest.approx(entry["separation"], abs=1e-10)


def test_separation_times_doubling(doubling):
    # oracle: diameter after n steps is min(0.02 * 2^n, 1/2), first > 0.2 at n=4
    U = Arc(CirclePoint(0.1), 0.02)
    horizon = 40
    expected = [n for n in range(horizon + 1) if min(0.02 * 2 ** n, 0.5) > 0.2]
    assert expected[0] == 4 and expected == list(range(4, horizon + 1))
    times = separation_times(doubling, U, constant_rule(1), 0.2, horizon)
    assert times == expected


def test_separation_times_isometry_and_initial(rotation_flip, doubling):
    U = Arc(CirclePoint(0.4), 0.03)
    assert separation_times(rotation_flip, U, greedy_diameter_rule(), 0.05, 30) == []
    assert 0 in separation_times(doubling, U, constant_rule(1), 0.01, 5)
    assert separation_times(rotation_flip, U, pattern_rule((1, 2)), 0.02, 10) == \
        list(range(0, 11))  # diam(U)=0.03 > 0.02 persists under isometries


def test_cofinite_sensitivity(expanding_pair, rotation_flip, golden_rotation):
    v = cofinite_sensitivity_verdict(expanding_pair, 0.2, DEFAULT_RESOLUTION, 100)
    assert v.holds and v.witnesses["max_N"] <= 6
    assert not cofinite_sensitivity_verdict(rotation_flip, 0.1).holds
    assert not cofinite_sensitivity_verdict(golden_rotation, 0.05).holds


@pytest.mark.parametrize("name, delta", [("random_29_38", 0.05), ("random_29_38", 0.1),
                                         ("random_35_42", 0.05)])
def test_a_constant_rule_settles_an_arc_the_greedy_rule_does_not(name, delta):
    """Random documents `random_documents(29)[38]` and `(35)[42]` of
    bench/systems.py: their hardest arc has no separation window under the
    greedy rule, so without the constant rules these verdicts would fail."""
    ifs = load_system_file(str(Path(__file__).parent / "data" / f"{name}.json"))
    res = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)
    v = cofinite_sensitivity_verdict(ifs, delta, res, 100)
    assert v.holds and v.witnesses["hardest"]["rule"] == "constant(1)"
    arc = Arc(CirclePoint(v.witnesses["hardest"]["arc_center"] - res.r), 2.0 * res.r)
    times = set(separation_times(ifs, arc, greedy_diameter_rule(), delta, v.witnesses["horizon"]))
    assert not any(times.issuperset(range(n, n + 101)) for n in range(res.depth + 1))


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_almost_periodic_rejects_a_non_finite_base_point(rotation_flip, x):
    with pytest.raises(ValueError, match="^x must be finite"):
        almost_periodic_verdict(rotation_flip, x)


@pytest.mark.parametrize("delta", [-1.0, 0.0, 0.5, float("nan"), float("inf")])
def test_cofinite_sensitivity_rejects_delta_outside_its_range(delta):
    # image diameters are capped at 1/2, and every diameter exceeds a delta <= 0
    ifs = IfsSystem([Rotation(0.25)])
    with pytest.raises(ValueError, match=r"^delta must be finite and lie in \(0, 1/2\)"):
        cofinite_sensitivity_verdict(ifs, delta)


def test_separation_times_rejects_a_negative_horizon(doubling):
    with pytest.raises(ValueError, match="^horizon must be non-negative"):
        separation_times(doubling, Arc(CirclePoint(0.1), 0.02), constant_rule(1), 0.2, -1)


@pytest.mark.parametrize("name, call", [
    # each comment says what the call did before; window=True ran with
    # window 1 and reported "window": true
    ("window", lambda ifs: cofinite_sensitivity_verdict(ifs, 0.2, DEFAULT_RESOLUTION, True)),
    ("window", lambda ifs: cofinite_sensitivity_verdict(ifs, 0.2, window=2.5)),  # TypeError
    ("window", lambda ifs: cofinite_sensitivity_verdict(ifs, 0.2, window="7")),  # ran as 7
    ("x", lambda ifs: almost_periodic_verdict(ifs, None)),  # TypeError
    ("max_len", lambda ifs: dense_periodic_verdict(ifs, 2.5)),  # TypeError
    ("max_len", lambda ifs: dense_periodic_verdict(ifs, True)),  # ran as max_len 1
    ("x", lambda ifs: almost_periodic_verdict(ifs, True)),  # ran at x = 0
    ("horizon", lambda ifs: separation_times(ifs, Arc(CirclePoint(0.1), 0.02),
                                             constant_rule(1), 0.2, True)),  # TypeError
    ("horizon", lambda ifs: separation_times(ifs, Arc(CirclePoint(0.1), 0.02),
                                             constant_rule(1), 0.2, 2.5)),  # TypeError
    ("delta", lambda ifs: separation_times(ifs, Arc(CirclePoint(0.1), 0.02),
                                           constant_rule(1), float("nan"), 5)),  # gave []
], ids=["window_bool", "window_fraction", "window_string", "x_none", "max_len_fraction",
        "max_len_bool", "x_bool", "horizon_bool", "horizon_fraction", "delta_nan"])
def test_public_verdicts_check_their_own_parameters(rotation_flip, name, call):
    with pytest.raises(ValueError, match=rf"^(parameter '{name}' |{name} must)"):
        call(rotation_flip)


def test_almost_periodic(golden_rotation, ns_alone):
    assert almost_periodic_verdict(golden_rotation, 0.3).holds
    assert almost_periodic_verdict(golden_rotation, 0.0).holds
    v = almost_periodic_verdict(ns_alone, 0.3)
    assert not v.holds


def test_almost_periodic_reports_a_point_the_orbit_misses():
    system = IfsSystem([NorthSouth(0.0, 2.0), Rotation(0.5)])
    res = DEFAULT_RESOLUTION.replaced(depth=30, budget=4000)
    v = almost_periodic_verdict(system, 0.1, res)
    assert not v.holds
    w = v.witnesses
    assert w["unreached_distance"] > res.eps
    cloud = orbit_cloud(system, w["witness_y"], res.depth, res.budget, merge=res.eps / 8.0)
    d = np.abs(cloud.values - w["unreached_example"])
    assert np.minimum(d, 1.0 - d).min() == pytest.approx(w["unreached_distance"])


# A rotation and a flip with a piecewise-linear identity: the identity
# keeps it out of the isometry certificates, so its verdicts are searched
_IDENTITY = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
_SEARCHED_ROTATION_FLIP = [Rotation((5 ** 0.5 - 1) / 2), Flip(), _IDENTITY]


def without_identity(ifs):
    """The system's rotations and flips alone, whose verdicts are certified."""
    return IfsSystem([g for g in ifs.generators if isinstance(g, (Rotation, Flip))])


@pytest.mark.parametrize("reason, system, res", [
    ("depth", _SEARCHED_ROTATION_FLIP, DEFAULT_RESOLUTION.replaced(depth=3)),
    ("budget", _SEARCHED_ROTATION_FLIP, DEFAULT_RESOLUTION.replaced(budget=5)),
    ("exhausted", [Rotation(0.25), _IDENTITY], DEFAULT_RESOLUTION),
])
def test_negative_arc_verdicts_name_their_stop_reason(reason, system, res):
    """The rotations and flips of each system alone are certified, whatever
    the bounds: the golden rotation and the flip are transitive, and the
    quarter rotation is not."""
    bound = {"depth": "depth=3", "budget": "budget=5", "exhausted": "ran out"}[reason]
    for detector in (topological_transitivity_verdict, s_transitivity_verdict):
        v = detector(IfsSystem(system), res)
        assert not v.holds
        assert v.witnesses["stop_reason"] == reason
        assert 1 <= v.witnesses["depth_reached"] <= res.depth
        assert 1 <= v.witnesses["words_examined"]
        assert bound in v.caveat
        exact = detector(without_identity(IfsSystem(system)), res)
        assert exact.holds is (reason != "exhausted") and exact.witnesses["certified"]
        assert "stop_reason" not in exact.witnesses


@pytest.mark.parametrize("reason, systems, res", [
    ("depth", (_SEARCHED_ROTATION_FLIP, _SEARCHED_ROTATION_FLIP),
     DEFAULT_RESOLUTION.replaced(depth=3)),
    ("budget", (_SEARCHED_ROTATION_FLIP, _SEARCHED_ROTATION_FLIP),
     DEFAULT_RESOLUTION.replaced(budget=5)),
    ("exhausted", ([Rotation(0.25), _IDENTITY], [NorthSouth(0.0, 2.0)]), DEFAULT_RESOLUTION),
])
def test_negative_orbit_verdicts_name_their_stop_reason(reason, systems, res):
    """The first system fails minimality and strong transitivity, the second
    almost periodicity at 0.3, each for the given reason.  The rotations and
    flips of the first alone are certified whatever the bounds: minimal
    unless the rotation is a quarter turn, and almost periodic."""
    bound = {"depth": "depth=3", "budget": "budget=5",
             "exhausted": "ran out of new orbit points"}[reason]
    dense_family, closure_system = (IfsSystem(gens) for gens in systems)
    for v in (minimality_verdict(dense_family, res),
              strong_transitivity_verdict(dense_family, res),
              almost_periodic_verdict(closure_system, 0.3, res)):
        assert not v.holds
        assert v.witnesses["stop_reason"] == reason
        assert 1 <= v.witnesses["depth_reached"] <= res.depth
        assert 1 <= v.witnesses["orbit_points"] <= res.budget
        assert bound in v.caveat
        assert v.caveat.endswith(_stopped_by(reason, res, orbit=True))
    isometries = without_identity(dense_family)
    assert ap_certified(almost_periodic_verdict(isometries, 0.3, res))
    for v in (minimality_verdict(isometries, res), strong_transitivity_verdict(isometries, res)):
        assert v.holds is (reason != "exhausted") and v.witnesses["certified"]
        assert "stop_reason" not in v.witnesses


@pytest.mark.parametrize("reason, gens, res", [
    ("depth", _SEARCHED_ROTATION_FLIP, DEFAULT_RESOLUTION.replaced(depth=3)),
    ("budget", _SEARCHED_ROTATION_FLIP, DEFAULT_RESOLUTION),
    ("exhausted", [Rotation(0.25), _IDENTITY], DEFAULT_RESOLUTION),
])
def test_negative_sensitivity_verdicts_name_their_stop_reason(reason, gens, res):
    """Every word of these systems is an isometry, but the piecewise-linear
    identity keeps them out of the isometry certificate, so sensitivity is
    searched and fails.  The verdict names the bound that stopped the breadth-first
    search of the ball setting delta_hat; its budget is the per-ball share."""
    report, v = sensitivity_estimate(IfsSystem(gens), res)
    assert not v.holds and not certified(report, v)
    share = v.witnesses["slice_budget"]
    bound = {"depth": "depth=3", "budget": f"budget={share})",
             "exhausted": "ran out of new image arcs"}[reason]
    assert v.witnesses["stop_reason"] == reason
    assert 1 <= v.witnesses["depth_reached"] <= res.depth
    assert bound in v.caveat
    assert v.caveat.endswith(_stopped_by(reason, res.replaced(budget=share)))


def test_arc_search_rejects_a_merge_cell_its_keys_cannot_hold(rotation_flip,
                                                              searched_rotation_flip):
    res = DEFAULT_RESOLUTION.replaced(eps=1e-10)
    with pytest.raises(ValueError, match="too fine"):
        next(_arc_search(rotation_flip, [0.0], [0.02], res.depth, res.budget, res.eps / 8.0))
    with pytest.raises(ValueError, match="too fine"):
        topological_transitivity_verdict(searched_rotation_flip, res)
    # the certificate merges nothing
    assert topological_transitivity_verdict(rotation_flip, res).witnesses["certified"]


def test_witness_pipeline_not_applicable(golden_rotation):
    with pytest.raises(NotApplicable):
        sensitivity_witness_from_nonminimality(golden_rotation, DEEP)


def test_witness_pipeline_ns_alone(ns_alone):
    delta, verdict = sensitivity_witness_from_nonminimality(ns_alone)
    assert delta > 0.0
    assert not verdict.holds
    assert verdict.witnesses["failing_points"]


def test_detector_determinism(rotation_flip):
    a = topological_transitivity_verdict(rotation_flip).to_dict()
    b = topological_transitivity_verdict(rotation_flip).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    ra, va = sensitivity_estimate(rotation_flip)
    rb, vb = sensitivity_estimate(rotation_flip)
    assert json.dumps(ra.to_dict(), sort_keys=True) == json.dumps(rb.to_dict(), sort_keys=True)


def test_max_cyclic_gap():
    gap, mid = max_cyclic_gap(np.array([0.0]))
    assert gap == 1.0 and mid == pytest.approx(0.5)
    gap, mid = max_cyclic_gap(np.array([0.0, 0.25, 0.5, 0.75]))
    assert gap == pytest.approx(0.25)
    gap, mid = max_cyclic_gap(np.array([0.4, 0.9]))
    assert gap == pytest.approx(0.5)


@pytest.mark.parametrize("letter", [0, -1, 2.0, True],
                         ids=["constant0", "constant-1", "constant2.0", "constantTrue"])
def test_rules_reject_bad_letters_at_construction(letter):
    # a bool is not a letter, as it is not an integer parameter (True used to
    # play letter 1 under the label "constant(True)")
    with pytest.raises(ValueError, match="integer letter >= 1"):
        constant_rule(letter)


def test_rule_letter_above_k_fails_when_played(rotation_flip):
    U = Arc(CirclePoint(0.4), 0.03)
    rule = constant_rule(3)
    assert separation_times(rotation_flip, U, rule, 0.02, 0) == [0]
    with pytest.raises(ValueError, match=r"letter 3 outside 1\.\.2"):
        separation_times(rotation_flip, U, rule, 0.02, 5)
    # a pattern fails only once it reaches the bad letter
    assert separation_times(rotation_flip, U, pattern_rule((1, 3)), 0.02, 1) == [0, 1]
    with pytest.raises(ValueError, match=r"letter 3 outside 1\.\.2"):
        separation_times(rotation_flip, U, pattern_rule((1, 3)), 0.02, 2)


def test_rule_labels():
    assert constant_rule(2).label == "constant(2)"
    assert greedy_diameter_rule().label == "greedy_diameter"


def test_rule_labels_print_numpy_letters_as_plain_integers():
    assert constant_rule(np.int64(2)).label == "constant(2)"


def test_batched_rules_pick_for_every_arc_and_letter_zero_stops(doubling, rotation_flip):
    s, ln = np.array([0.1, 0.5, 0.9]), np.array([0.02, 0.3, 0.6])
    pick, starts, lengths = constant_rule(2)(rotation_flip, 4, s, ln, None)
    flipped = map_arcs(rotation_flip.generator(2), s, ln)
    assert pick.tolist() == [2, 2, 2]
    assert starts.tolist() == flipped[0].tolist() and lengths.tolist() == flipped[1].tolist()
    pick, starts, lengths = greedy_diameter_rule()(doubling, 0, s, ln, None)
    assert pick.tolist() == [1, 1, 1]
    assert lengths.tolist() == [0.04, 0.6, 1.0] and starts.tolist() == [0.2, 0.0, 0.8]

    def three_steps(ifs, step, s, ln, c):
        return np.full(s.size, 1 if step < 3 else 0)

    U = Arc(CirclePoint(0.1), 0.02)
    assert separation_times(doubling, U, three_steps, 0.01, 10) == [0, 1, 2, 3]


def test_a_rule_sees_the_tracked_midpoint(rotation_flip):
    """`separation_times` hands a rule the image of U's midpoint, moved with
    the letters the rule plays."""
    seen = []

    def alternate(ifs, step, s, ln, c):
        seen.append(float(c[0]))
        return np.full(s.size, 1 + step % 2)

    U = Arc(CirclePoint(0.9), 0.2)
    separation_times(rotation_flip, U, alternate, 0.1, 4)
    expected, x = [], 0.0
    for step in range(4):
        expected.append(x)
        x = rotation_flip.generator(1 + step % 2).eval(x)
    assert seen == pytest.approx(expected, abs=1e-15)


def test_rule_paths_stop_each_chain_at_its_own_letter_zero(doubling):
    """Chains that stop at different steps keep their own rows, as wide as
    the steps the last of them ran."""
    ln0 = np.array([0.001, 0.064, 0.004, 0.016])

    def until_wide(ifs, step, s, ln, c):
        return np.where(ln < 0.1, 1, 0)

    letters, diams = _rule_paths(doubling, np.full(4, 0.3), ln0, None, 9, until_wide)
    stops = [7, 1, 5, 3]  # doublings to pass 0.1
    for row, (width, stop) in enumerate(zip(ln0.tolist(), stops)):
        assert letters[row].tolist() == [1] * stop + [0] * (7 - stop)
        assert diams[row].tolist() == [min(width * 2 ** t, 0.5) for t in range(stop + 1)] + \
            [-1.0] * (7 - stop)


def test_rule_paths_hold_only_the_steps_they_ran(doubling):
    """Capped chains stop within a few doublings, so a horizon of a million
    steps costs the steps run, not the horizon: the arrays are as wide as
    the steps run."""
    letters, diams = _rule_paths(doubling, np.full(3, 0.3), np.array([0.001, 0.02, 0.3]), None,
                                 10 ** 6, constant_rule(1), capped_from=0)
    assert letters.shape == (3, 9) and diams.shape == (3, 10)  # 0.001 * 2**9 > 1/2
    assert diams[:, -1].tolist() == [0.5, -1.0, -1.0]
    # a chain that never caps runs every step: past the first 64, the
    # arrays grow by doubling, and keep every step's letter and diameter
    letters, diams = _rule_paths(doubling, np.full(1, 0.3), np.zeros(1), None, 200,
                                 constant_rule(1), capped_from=0)
    assert letters.tolist() == [[1] * 200] and diams.tolist() == [[0.0] * 201]
