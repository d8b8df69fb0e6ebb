"""The property registry and the verdicts it was last to gain: dense
periodic points, repelling fixed points and local expansion."""

import pytest

from ifs_lab import (GALLERY_NAMES, IfsSystem, NonInvertible, NorthSouth, Resolution,
                     Rotation, build_example, circ_dist, dense_periodic_verdict,
                     local_expanding_verdict, repelling_fixed_point_verdict)
from ifs_lab import detectors, smooth
from ifs_lab.detectors import DEFAULT_RESOLUTION, NotApplicable
from ifs_lab.properties import PROPERTIES, PROPERTY_NAMES, evaluate_property

SMALL = Resolution(eps=0.02, r=0.02, depth=20, net_size=12, budget=4000)


def test_dense_periodic_positive(rotation_flip):
    # the flip squared fixes every point, so its sample fills the circle
    v = dense_periodic_verdict(rotation_flip, 2, DEFAULT_RESOLUTION)
    assert v.holds and v.property_name == "dense_periodic"
    assert v.witnesses["max_gap"] <= 2.0 * DEFAULT_RESOLUTION.eps
    assert v.witnesses["max_word_length"] == 2
    assert v.witnesses["example_words"] and v.witnesses["count"] >= 512


def test_dense_periodic_negative(golden_rotation, ns_alone):
    # an irrational rotation has no periodic point at all
    v = dense_periodic_verdict(golden_rotation, 3)
    assert not v.holds
    assert v.witnesses == {"count": 0, "max_gap": 1.0, "max_word_length": 3,
                           "example_words": []}
    # a north-south map has only its two fixed points, half a turn apart
    v = dense_periodic_verdict(ns_alone, 3)
    assert not v.holds
    assert v.witnesses["count"] == 2 and v.witnesses["max_gap"] == pytest.approx(0.5)


def test_dense_periodic_word_count_is_bounded_by_the_budget(rotation_flip, golden_rotation):
    # 2 + 4 + 8 = 14 words of length 1..3 over two letters
    assert dense_periodic_verdict(rotation_flip, 3, SMALL.replaced(budget=14)).holds
    with pytest.raises(ValueError, match=r"^max_len 3: .* budget \(13\)$"):
        dense_periodic_verdict(rotation_flip, 3, SMALL.replaced(budget=13))
    # the count stops at the budget, however long the words may be
    ifs = build_example("thm34_ns_rotation").system
    with pytest.raises(ValueError, match=r"^max_len 40: "):
        dense_periodic_verdict(ifs, 40)
    with pytest.raises(ValueError, match=r"^max_len 1000000000: "):
        dense_periodic_verdict(golden_rotation, 10 ** 9)


def test_repelling_fixed_point_positive(doubling):
    v = repelling_fixed_point_verdict(doubling)
    assert v.holds
    assert v.witnesses == {"generator": 1, "location": 0.0, "multipliers": [2.0, 2.0]}


def test_repelling_fixed_point_first_in_letter_order():
    ifs = IfsSystem([Rotation(0.25), NorthSouth(0.3, 2.0), NorthSouth(0.1, 3.0)])
    v = repelling_fixed_point_verdict(ifs, SMALL)
    assert v.holds and v.resolution == SMALL
    assert v.witnesses["generator"] == 2
    assert v.witnesses["location"] == pytest.approx(0.3)
    assert v.witnesses["multipliers"] == pytest.approx([2.0, 2.0])


def test_repelling_fixed_point_negative(golden_rotation):
    v = repelling_fixed_point_verdict(golden_rotation)
    assert not v.holds
    assert v.witnesses == {}
    assert v.caveat == "no generator has a repelling fixed point"


def test_local_expanding_positive(doubling):
    v = local_expanding_verdict(doubling, SMALL)
    assert v.holds
    assert v.witnesses["sigma"] == pytest.approx(0.5)
    assert [p["word"] for p in v.witnesses["pieces"]] == [[1]]


def test_local_expanding_negative(golden_rotation, ns_alone):
    # a rotation expands nowhere: the search sticks at the first net point
    v = local_expanding_verdict(golden_rotation, SMALL)
    assert not v.holds
    assert v.witnesses == {"stuck_point": 0.5 / SMALL.net_size, "stop_reason": "depth",
                           "words_examined": SMALL.depth + 1}
    assert v.caveat == ("no expanding word found within bounds: "
                        "the search reached its depth bound (depth=20)")
    # a north-south map expands only near its repeller
    v = local_expanding_verdict(ns_alone, SMALL)
    assert not v.holds
    assert circ_dist(v.witnesses["stuck_point"], 0.5) < 0.5 - 0.19


def _library(ifs, prop, res):
    """What each property reads from the library, called directly."""
    if prop == "sensitivity":
        report, verdict = detectors.sensitivity_estimate(ifs, res)
        return {**verdict.to_dict(), "report": report.to_dict()}
    if prop == "witness_pipeline":
        try:
            delta, verdict = detectors.sensitivity_witness_from_nonminimality(ifs, res)
        except NotApplicable as exc:
            return {"property": "sensitivity_witness_from_nonminimality", "holds": False,
                    "resolution": res.to_dict(), "witnesses": {"not_applicable": True},
                    "caveat": str(exc)}
        return {**verdict.to_dict(), "delta_candidate": delta}
    verdict = {
        "minimality": lambda: detectors.minimality_verdict(ifs, res),
        "transitivity": lambda: detectors.topological_transitivity_verdict(ifs, res),
        "strong_transitivity": lambda: detectors.strong_transitivity_verdict(ifs, res),
        "s_transitivity": lambda: detectors.s_transitivity_verdict(ifs, res),
        "cofinite_sensitivity": lambda: detectors.cofinite_sensitivity_verdict(
            ifs, 0.2, res, 100),
        "almost_periodic": lambda: detectors.almost_periodic_verdict(ifs, 0.237, res),
        "expanding": lambda: smooth.expanding_verdict(ifs, res),
        "local_expanding": lambda: smooth.local_expanding_verdict(ifs, res),
        "dense_periodic": lambda: detectors.dense_periodic_verdict(ifs, 2, res),
        "repelling_fixed_point": lambda: detectors.repelling_fixed_point_verdict(ifs, res),
    }[prop]()
    return verdict.to_dict()


def test_registry_names_every_property_once():
    assert PROPERTY_NAMES == tuple(PROPERTIES) and len(set(PROPERTY_NAMES)) == 12


@pytest.mark.parametrize("prop", PROPERTY_NAMES)
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_registry_entry_is_the_library_verdict(name, prop):
    ifs = build_example(name).system
    try:
        want = _library(ifs, prop, SMALL)
    except NonInvertible:
        pytest.skip("the property needs inverse generators")
    assert evaluate_property(ifs, prop, SMALL, {"x": 0.237}) == want


def test_unknown_property_names_the_choices(golden_rotation):
    with pytest.raises(ValueError, match="unknown property 'chaos'; choose from"):
        evaluate_property(golden_rotation, "chaos", SMALL)


def test_a_parameter_no_property_reads_is_rejected():
    ifs = build_example("prop35_expanding").system
    # a misspelt delta used to run the default 0.2 and report holds=True
    with pytest.raises(ValueError, match=r"^unknown parameter 'deltta'; choose from "
                                         r"\('delta', 'max_len', 'window', 'x'\)$"):
        evaluate_property(ifs, "cofinite_sensitivity", DEFAULT_RESOLUTION, {"deltta": 0.45})
    # a parameter another property reads passes untouched
    ifs = build_example("thm34_ns_rotation").system
    assert (evaluate_property(ifs, "minimality", SMALL, {"delta": 0.3})
            == detectors.minimality_verdict(ifs, SMALL).to_dict())


@pytest.mark.parametrize("prop, name, value", [
    ("dense_periodic", "max_len", 2.9),          # used to run max_len 2
    ("dense_periodic", "max_len", True),         # used to run max_len 1
    ("cofinite_sensitivity", "window", 7.5),     # used to run window 7
    ("dense_periodic", "max_len", float("inf")),
    ("almost_periodic", "x", True),              # used to run x = 0.0
], ids=["max_len_fraction", "max_len_bool", "window_fraction", "max_len_inf", "x_bool"])
def test_a_parameter_is_never_truncated(rotation_flip, prop, name, value):
    with pytest.raises(ValueError, match=rf"^parameter '{name}' takes an? (integer|real number)"
                                         rf", got {value!r}$"):
        evaluate_property(rotation_flip, prop, SMALL, {name: value})


def test_a_whole_number_float_runs_as_its_integer(rotation_flip):
    assert (evaluate_property(rotation_flip, "dense_periodic", SMALL, {"max_len": 2.0})
            == evaluate_property(rotation_flip, "dense_periodic", SMALL, {"max_len": 2}))
