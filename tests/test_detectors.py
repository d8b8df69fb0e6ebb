import json

import numpy as np
import pytest

from ifs_lab import (Arc, CirclePoint, Flip, IfsSystem, NonInvertible,
                     NorthSouth, NotApplicable, Resolution, Rotation, circ_dist,
                     almost_periodic_verdict, cofinite_sensitivity_verdict,
                     compose_word, constant_rule, greedy_diameter_rule,
                     minimality_verdict, periodic_rule,
                     s_transitivity_verdict, sensitivity_estimate,
                     sensitivity_witness_from_nonminimality,
                     separation_times, strong_transitivity_verdict,
                     topological_transitivity_verdict)
from ifs_lab.detectors import (DEFAULT_RESOLUTION, _radius_ladder, _rule_paths, _stopped_by,
                               max_cyclic_gap)
from ifs_lab.generators import map_arcs
from ifs_lab.semigroup import orbit_cloud

DEEP = DEFAULT_RESOLUTION.replaced(depth=200)


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


def test_topological_transitivity(rotation_flip, ns_alone):
    v = topological_transitivity_verdict(rotation_flip)
    assert v.holds
    # the hardest witness replays: the image arc of U meets the target ball
    h = v.witnesses["hardest_pair"]
    arc = word_image(rotation_flip, h["word"], Arc(CirclePoint(h["source_center"] - 0.01), 0.02))
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


def test_s_transitivity(golden_rotation, ns_alone, expanding_pair):
    v = s_transitivity_verdict(golden_rotation)
    assert v.holds
    covers = v.witnesses["covers"]
    assert covers and all(len(words) >= 1 for words in covers.values())
    assert not s_transitivity_verdict(ns_alone).holds
    assert s_transitivity_verdict(expanding_pair).holds


def test_s_transitivity_cover_replays(golden_rotation):
    v = s_transitivity_verdict(golden_rotation)
    key, words = next(iter(v.witnesses["covers"].items()))
    center = float(key)
    net = [(i + 0.5) / 100 for i in range(100)]
    covered = set()
    for w in words:
        arc = word_image(golden_rotation, w, Arc(CirclePoint(center - 0.01), 0.02))
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
    assert separation_times(rotation_flip, U, periodic_rule((1, 2)), 0.02, 10) == \
        list(range(0, 11))  # diam(U)=0.03 > 0.02 persists under isometries


def test_cofinite_sensitivity(expanding_pair, rotation_flip, golden_rotation):
    v = cofinite_sensitivity_verdict(expanding_pair, 0.2, DEFAULT_RESOLUTION, 100)
    assert v.holds and v.witnesses["max_N"] <= 6
    assert not cofinite_sensitivity_verdict(rotation_flip, 0.1).holds
    assert not cofinite_sensitivity_verdict(golden_rotation, 0.05).holds


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


@pytest.mark.parametrize("reason, system, res", [
    ("depth", [Rotation((5 ** 0.5 - 1) / 2), Flip()], DEFAULT_RESOLUTION.replaced(depth=3)),
    ("budget", [Rotation((5 ** 0.5 - 1) / 2), Flip()], DEFAULT_RESOLUTION.replaced(budget=5)),
    ("exhausted", [Rotation(0.25)], DEFAULT_RESOLUTION),
])
def test_negative_arc_verdicts_name_their_stop_reason(reason, system, res):
    bound = {"depth": "depth=3", "budget": "budget=5", "exhausted": "ran out"}[reason]
    for detector in (topological_transitivity_verdict, s_transitivity_verdict):
        v = detector(IfsSystem(system), res)
        assert not v.holds
        assert v.witnesses["stop_reason"] == reason
        assert 1 <= v.witnesses["depth_reached"] <= res.depth
        assert 1 <= v.witnesses["words_examined"]
        assert bound in v.caveat


@pytest.mark.parametrize("reason, systems, res", [
    ("depth", ([Rotation((5 ** 0.5 - 1) / 2), Flip()],) * 2, DEFAULT_RESOLUTION.replaced(depth=3)),
    ("budget", ([Rotation((5 ** 0.5 - 1) / 2), Flip()],) * 2, DEFAULT_RESOLUTION.replaced(budget=5)),
    ("exhausted", ([Rotation(0.25)], [NorthSouth(0.0, 2.0)]), DEFAULT_RESOLUTION),
])
def test_negative_orbit_verdicts_name_their_stop_reason(reason, systems, res):
    """The first system fails minimality and strong transitivity, the second
    almost periodicity at 0.3, each for the given reason."""
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


def test_arc_search_rejects_a_merge_cell_its_keys_cannot_hold(rotation_flip):
    with pytest.raises(ValueError, match="too fine"):
        topological_transitivity_verdict(rotation_flip, DEFAULT_RESOLUTION.replaced(eps=1e-10))


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


@pytest.mark.parametrize("make", [lambda: constant_rule(0), lambda: constant_rule(-1),
                                  lambda: constant_rule(2.0), lambda: periodic_rule(()),
                                  lambda: periodic_rule((1, 0)), lambda: periodic_rule([2, -3, 1]),
                                  lambda: periodic_rule((1, 2.5))],
                         ids=["constant0", "constant-1", "constant2.0", "empty", "pattern0",
                              "pattern-3", "pattern2.5"])
def test_rules_reject_bad_letters_at_construction(make):
    with pytest.raises(ValueError):
        make()


def test_rule_letter_above_k_fails_when_played(rotation_flip):
    U = Arc(CirclePoint(0.4), 0.03)
    rule = constant_rule(3)
    assert separation_times(rotation_flip, U, rule, 0.02, 0) == [0]
    with pytest.raises(ValueError, match=r"letter 3 outside 1\.\.2"):
        separation_times(rotation_flip, U, rule, 0.02, 5)
    # a pattern fails only once it reaches the bad letter
    assert separation_times(rotation_flip, U, periodic_rule((1, 3)), 0.02, 1) == [0, 1]
    with pytest.raises(ValueError, match=r"letter 3 outside 1\.\.2"):
        separation_times(rotation_flip, U, periodic_rule((1, 3)), 0.02, 2)


def test_rule_labels():
    assert constant_rule(2).label == "constant(2)"
    assert periodic_rule([1, 2, 2]).label == "periodic(1, 2, 2)"
    assert greedy_diameter_rule().label == "greedy_diameter"


def test_rule_labels_print_numpy_letters_as_plain_integers():
    assert periodic_rule(np.array([1, 2])).label == "periodic(1, 2)"
    assert constant_rule(np.int64(2)).label == "constant(2)"


def test_batched_rules_pick_for_every_arc_and_letter_zero_stops(doubling, rotation_flip):
    s, ln = np.array([0.1, 0.5, 0.9]), np.array([0.02, 0.3, 0.6])
    pick, starts, lengths = periodic_rule((1, 2, 2))(rotation_flip, 4, s, ln, None)
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
    """Chains that stop at different steps keep their own rows."""
    ln0 = np.array([0.001, 0.064, 0.004, 0.016])

    def until_wide(ifs, step, s, ln, c):
        return np.where(ln < 0.1, 1, 0)

    letters, diams = _rule_paths(doubling, np.full(4, 0.3), ln0, None, 9, until_wide)
    stops = [7, 1, 5, 3]  # doublings to pass 0.1
    for row, (width, stop) in enumerate(zip(ln0.tolist(), stops)):
        assert letters[row].tolist() == [1] * stop + [0] * (9 - stop)
        assert diams[row].tolist() == [min(width * 2 ** t, 0.5) for t in range(stop + 1)] + \
            [-1.0] * (9 - stop)
