import math

import pytest

from ifs_lab import (GALLERY_NAMES, Expanding, Flip, NorthSouth, Rotation, UnknownExample,
                     build_example)
from ifs_lab.cli import PROPERTIES, PROPERTY_NAMES
from ifs_lab.semigroup import orbit_cloud

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_unknown_name():
    with pytest.raises(UnknownExample):
        build_example("unknown_name")


def test_rotation_flip_build():
    entry = build_example("rotation_flip")
    g1, g2 = entry.system.generators
    assert isinstance(g1, Rotation) and g1.alpha == pytest.approx(GOLDEN)
    assert isinstance(g2, Flip)


def test_hinge_build_conditions():
    entry = build_example("ex42_hinges")
    f, finv, h1, h2 = entry.system.generators
    assert isinstance(f, NorthSouth) and f.q == 0.5 and f.lam == 1.8
    assert isinstance(finv, NorthSouth) and finv.q == 0.0
    # the first hinge maps the lower half-circle strictly over itself with 0 on
    # the image boundary; the second mirrors that on the upper half-circle
    assert h1.eval(0.0) == 0.0 and h1.eval(0.5) == pytest.approx(0.6)
    assert h2.eval(0.0) == 0.0 and h2.eval(0.5) == pytest.approx(0.4)
    # the shared fixed point never moves
    orb = orbit_cloud(entry.system, 0.0, 6, 100_000, merge=1e-9)
    assert orb.values.tolist() == [0.0]
    # multiplier of the contracting side sits inside (1/2, 1), exactly 1/lam
    assert 0.5 < f.derivative(0.0) < 1.0
    assert f.derivative(0.0) == 1.0 / 1.8


def test_thm34_build():
    entry = build_example("thm34_ns_rotation")
    ns, nsi, rot, roti = entry.system.generators
    assert ns.q == 0.0 and ns.lam == 2.0
    assert nsi.q == 0.5 and nsi.lam == 2.0
    assert rot.alpha == pytest.approx(GOLDEN)
    assert roti.alpha == pytest.approx(1.0 - GOLDEN)


def test_prop35_build():
    entry = build_example("prop35_expanding")
    m1, m2 = entry.system.generators
    assert isinstance(m1, Expanding) and m1.m == 2
    assert isinstance(m2, Expanding) and m2.m == 3
    assert not entry.system.all_invertible


def test_manifests_reference_known_properties():
    # `evaluate_property` ignores a parameter the property does not read, so a
    # misspelt one would silently run the default
    for name in GALLERY_NAMES:
        entry = build_example(name)
        assert entry.expected, name
        for exp in entry.expected:
            assert exp.name in PROPERTY_NAMES, (name, exp.name)
            defaults = PROPERTIES[exp.name].params
            assert set(exp.params) <= set(defaults), (name, exp)
            # and each value already has the type it is coerced to
            for param, value in exp.params.items():
                assert type(value) is type(defaults[param]), (name, exp, param)


@pytest.mark.parametrize("name", ["rotation_flip", "ex42_hinges",
                                  "thm34_ns_rotation", "cor33_morse_smale",
                                  "prop35_expanding"])
def test_every_manifest_passes_at_default_resolution(name):
    from ifs_lab.cli import run_verify
    from ifs_lab.detectors import DEFAULT_RESOLUTION
    assert run_verify(name, DEFAULT_RESOLUTION, echo=lambda *a, **k: None) == 0
