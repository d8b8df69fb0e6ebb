"""Named example systems with their expected-property manifests.

Each constructor returns a validated system plus the list of properties a
detector run at default resolution is expected to confirm; the CLI `verify`
command executes exactly that manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .generators import (Expanding, Flip, NorthSouth, PiecewiseLinear,
                         Rotation)
from .semigroup import IfsSystem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownExample(Exception):
    """Raised for gallery names outside the registry."""


@dataclass
class ExpectedProperty:
    name: str
    holds: bool
    note: str
    params: dict = field(default_factory=dict)


@dataclass
class GalleryEntry:
    name: str
    system: IfsSystem
    expected: List[ExpectedProperty]
    description: str


def _rotation_flip(params: dict) -> GalleryEntry:
    alpha = float(params.get("alpha", GOLDEN))
    system = IfsSystem([Rotation(alpha), Flip()])
    expected = [
        ExpectedProperty("transitivity", True, "flip mirrors the dense rotation orbit"),
        ExpectedProperty("dense_periodic", True, "the flip squared fixes every point",
                         {"max_len": 2}),
        ExpectedProperty("sensitivity", False, "both generators are isometries"),
    ]
    return GalleryEntry(
        "rotation_flip", system, expected,
        "an irrational rotation together with the reflection x -> -x: "
        "transitive with dense periodic points, yet never separates nearby points",
    )


def _ex42_hinges(params: dict) -> GalleryEntry:
    lam = float(params.get("lam", 1.8))
    s = float(params.get("s", 0.1))
    if not 1.0 < lam < 2.0:
        raise ValueError("hinge example needs multiplier strictly between 1 and 2")
    if not 0.0 < s < 0.5:
        raise ValueError("hinge bulge must lie in (0, 1/2)")
    f = NorthSouth(0.5, lam)        # attracts at 0, repels at 0.5
    h1 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5 + s), (1.0, 1.0)))
    h2 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5 - s), (1.0, 1.0)))
    system = IfsSystem([f, f.inverse(), h1, h2])

    # build-time checks: each hinge pushes its half-circle strictly past the
    # antipode while keeping 0 fixed on the boundary
    assert h1.eval(0.0) == 0.0 and h2.eval(0.0) == 0.0
    assert h1.eval(0.5) > 0.5 and h2.eval(0.5) < 0.5
    assert f.eval(0.0) == 0.0 and f.derivative(0.0) == 1.0 / lam
    assert 0.5 < f.derivative(0.0) < 1.0

    expected = [
        ExpectedProperty("s_transitivity", True, "hinges sweep every arc across the circle"),
        ExpectedProperty("minimality", False, "the common fixed point never moves"),
        ExpectedProperty("strong_transitivity", False, "inverses also fix the common point"),
        ExpectedProperty("sensitivity", True, "arcs pulled over the repeller blow up"),
        ExpectedProperty("almost_periodic", False, "orbit closures contain the stuck point",
                         {"x": 0.237}),
        ExpectedProperty("almost_periodic", True, "the fixed point is its own minimal set",
                         {"x": 0.0}),
    ]
    return GalleryEntry(
        "ex42_hinges", system, expected,
        "a north-south map, its inverse, and two hinge homeomorphisms fixing 0: "
        "S-transitive and sensitive but neither forward nor backward minimal",
    )


def _thm34_ns_rotation(params: dict) -> GalleryEntry:
    lam = float(params.get("lam", 2.0))
    alpha = float(params.get("alpha", GOLDEN))
    ns = NorthSouth(0.0, lam)
    rot = Rotation(alpha)
    system = IfsSystem([ns, ns.inverse(), rot, rot.inverse()])
    expected = [
        ExpectedProperty("strong_transitivity", True, "symmetric family with a dense rotation"),
        ExpectedProperty("repelling_fixed_point", True, "the north-south map repels at 0"),
        ExpectedProperty("sensitivity", True, "repeller steering separates every ball"),
    ]
    return GalleryEntry(
        "thm34_ns_rotation", system, expected,
        "a hyperbolic north-south map and an irrational rotation, each with its "
        "inverse: strongly transitive with a repelling fixed point, hence sensitive",
    )


def _cor33_morse_smale(params: dict) -> GalleryEntry:
    alpha = float(params.get("alpha", GOLDEN))
    system = IfsSystem([
        NorthSouth(0.0, 2.0),
        NorthSouth(0.3, 3.0),
        Rotation(alpha),
        Rotation(alpha).inverse(),
    ])
    expected = [
        ExpectedProperty("sensitivity", True, "hyperbolic fixed points plus dense rotations"),
    ]
    return GalleryEntry(
        "cor33_morse_smale", system, expected,
        "two north-south maps on distinct axes plus an irrational rotation pair: "
        "a hyperbolic-fixed-point family whose strong transitivity forces sensitivity",
    )


def _prop35_expanding(params: dict) -> GalleryEntry:
    system = IfsSystem([Expanding(2), Expanding(3)])
    expected = [
        ExpectedProperty("expanding", True, "constant derivatives 2 and 3"),
        ExpectedProperty("cofinite_sensitivity", True, "arc doubling never un-separates",
                         {"delta": 0.2, "window": 100}),
    ]
    return GalleryEntry(
        "prop35_expanding", system, expected,
        "the doubling and tripling maps: a uniformly expanding family, hence "
        "cofinitely sensitive",
    )


_BUILDERS = {
    "rotation_flip": _rotation_flip,
    "ex42_hinges": _ex42_hinges,
    "thm34_ns_rotation": _thm34_ns_rotation,
    "cor33_morse_smale": _cor33_morse_smale,
    "prop35_expanding": _prop35_expanding,
}

GALLERY_NAMES = tuple(sorted(_BUILDERS))


def build_example(name: str, params: Optional[dict] = None, **overrides) -> GalleryEntry:
    """Construct a gallery system by name, with optional parameter overrides."""
    if name not in _BUILDERS:
        raise UnknownExample(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
    merged = dict(params or {})
    merged.update(overrides)
    return _BUILDERS[name](merged)
