import math
import re

import numpy as np
import pytest

from ifs_lab import (Arc, CirclePoint, Expanding, Flip, NonInvertible,
                     NorthSouth, NotDifferentiable, PiecewiseLinear, Rotation,
                     circ_dist, fixed_points)
from ifs_lab.generators import MAX_DEGREE, MAX_MULTIPLIER, map_arcs

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

H1 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0)))
H2 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (1.0, 1.0)))
REVERSING = PiecewiseLinear(((0.0, 0.2), (0.4, -0.3), (1.0, -0.8)))

ALL_KINDS = [Rotation(0.25), Rotation(GOLDEN), Flip(), NorthSouth(0.0, 2.0),
             NorthSouth(0.3, 1.8), H1, H2, REVERSING, Expanding(2), Expanding(3)]
INVERTIBLE = [g for g in ALL_KINDS if g.invertible]


def central_difference(g, x, h=1e-6):
    return (g.lift(x + h) - g.lift(x - h)) / (2.0 * h)


def image_arc(g, a: Arc) -> Arc:
    """`map_arcs` on the one arc a."""
    s, ln = map_arcs(g, np.array([a.start.value]), np.array([a.length]))
    return Arc(CirclePoint(float(s[0])), float(ln[0]))


def test_eval_examples():
    assert Rotation(0.25).eval(0.9) == pytest.approx(0.15, abs=1e-15)
    assert Flip().eval(0.3) == pytest.approx(0.7, abs=1e-15)
    assert NorthSouth(0.0, 2.0).eval(0.0) == 0.0
    assert NorthSouth(0.0, 2.0).eval(0.5) == 0.5
    # any real is accepted and the canonical angle returned
    assert Rotation(0.25).eval(-1.1) == pytest.approx(0.15, abs=1e-15)


def test_inverse_examples():
    assert Rotation(0.25).inverse().eval(0.15) == pytest.approx(0.9, abs=1e-12)
    # the flip is an involution: applying it twice is the identity
    assert Flip().eval(Flip().eval(0.3)) == pytest.approx(0.3)
    assert Flip().inverse() == Flip()
    with pytest.raises(NonInvertible):
        Expanding(2).inverse()


def test_derivative_examples():
    assert Rotation(GOLDEN).derivative(0.42) == 1.0
    assert Expanding(2).derivative(0.77) == 2.0
    ns = NorthSouth(0.0, 2.0)
    # finite-difference oracle at the repelling fixed point
    fd = (ns.lift(1e-7) - ns.lift(-1e-7)) / 2e-7
    assert fd == pytest.approx(2.0, abs=1e-5)
    assert ns.derivative(0.0) == 2.0
    assert ns.derivative(0.5) == 0.5


def test_north_south_multipliers_exact():
    for q, lam in [(0.0, 2.0), (0.25, 1.8), (0.6, 3.5)]:
        g = NorthSouth(q, lam)
        assert g.derivative(q) == pytest.approx(lam, abs=1e-12)
        assert g.derivative((q + 0.5) % 1.0) == pytest.approx(1.0 / lam, abs=1e-12)


@pytest.mark.parametrize("g", INVERTIBLE, ids=lambda g: repr(g)[:30])
def test_inverse_round_trip(g):
    rng = np.random.default_rng(5)
    inv = g.inverse()
    for x in rng.random(1000):
        y = g.eval(x)
        assert circ_dist(inv.eval(y), x) <= 1e-12


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: repr(g)[:30])
def test_lift_consistency(g):
    rng = np.random.default_rng(6)
    for x in rng.random(300):
        assert circ_dist(g.eval(x), g.lift(x) % 1.0) <= 1e-12
    # periodicity of the lift
    for t in rng.random(50) * 4 - 2:
        assert g.lift(t + 1.0) - g.lift(t) == pytest.approx(g.degree, abs=1e-9)


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: repr(g)[:30])
def test_array_eval_matches_scalar(g):
    rng = np.random.default_rng(8)
    xs = rng.random(500)
    arr = g.eval_array(xs.copy())
    for x, v in zip(xs, arr):
        assert circ_dist(g.eval(float(x)), float(v)) <= 1e-12


def lift_inputs(g, seed):
    """Random reals over several periods, plus the knots, the integers and
    their floating-point neighbours."""
    rng = np.random.default_rng(seed)
    knots = np.array(getattr(g, "breakpoints", ((0.0, 0.0),)))[:, 0]
    edges = np.concatenate([knots + n for n in range(-2, 3)])
    return np.concatenate([rng.uniform(-3.0, 3.0, 20_000), edges,
                           np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@pytest.mark.parametrize("g", [g for g in ALL_KINDS if not isinstance(g, NorthSouth)],
                         ids=lambda g: repr(g)[:30])
def test_lift_array_equals_lift_bitwise(g):
    xs = lift_inputs(g, 13)
    scalar = np.array([g.lift(float(x)) for x in xs])
    assert np.array_equal(g.lift_array(xs), scalar)
    lengths = np.random.default_rng(14).random(xs.size)
    sources = [Arc(CirclePoint(float(x)), ln) for x, ln in zip(xs, lengths)]
    starts, lens = map_arcs(g, np.array([a.start.value for a in sources]), lengths)
    arcs = [image_arc(g, a) for a in sources]
    assert np.array_equal(starts, [a.start.value for a in arcs])
    assert np.array_equal(lens, [a.length for a in arcs])


@pytest.mark.parametrize("g", [g for g in ALL_KINDS if isinstance(g, NorthSouth)],
                         ids=lambda g: repr(g)[:30])
def test_north_south_lift_array_within_two_ulp(g):
    # numpy's tan/arctan may round differently from math's
    xs = lift_inputs(g, 15)
    scalar = np.array([g.lift(float(x)) for x in xs])
    assert np.all(np.abs(g.lift_array(xs) - scalar) <= 2 * np.spacing(np.abs(scalar)))


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: repr(g)[:30])
def test_derivative_array_matches_scalar(g):
    xs = lift_inputs(g, 16)
    arr = g.derivative_array(xs)
    for x, d in zip(xs.tolist(), arr.tolist()):
        try:
            assert d == pytest.approx(g.derivative(x), rel=1e-14)
        except NotDifferentiable:
            assert math.isnan(d)


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: repr(g)[:30])
def test_derivative_matches_finite_difference(g):
    rng = np.random.default_rng(9)
    count = 0
    for x in rng.random(1000):
        try:
            d = g.derivative(float(x))
        except NotDifferentiable:
            continue
        count += 1
        assert d == pytest.approx(central_difference(g, float(x)), abs=1e-4)
    assert count > 900


def test_piecewise_breakpoint_reports_one_sided_slopes():
    with pytest.raises(NotDifferentiable) as exc:
        H1.derivative(0.5)
    assert exc.value.left == pytest.approx(1.2)
    assert exc.value.right == pytest.approx(0.8)
    with pytest.raises(NotDifferentiable) as exc:
        H1.derivative(0.0)
    assert exc.value.left == pytest.approx(0.8)   # slope entering 1.0 from below
    assert exc.value.right == pytest.approx(1.2)


@pytest.mark.parametrize("g", [H1, REVERSING, PiecewiseLinear(
    ((0.0, 0.1), (0.125, 0.3), (0.25, 0.35), (0.7, 0.9), (1.0, 1.1)))], ids=lambda g: repr(g)[:30])
def test_piecewise_derivative_array_finds_the_corners_the_knot_set_does(g):
    # corners come from the searchsorted bracket; the reference marks every s
    # in the knot set, as the array method did before
    knots = np.array(g._xs)
    x = np.r_[knots, knots + 1.0, knots - 3.0, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0),
              -1e-20, -0.0, 0.0, np.nan, np.random.default_rng(4).uniform(-2.0, 2.0, 1000)]
    s = x - np.floor(x)
    want = np.asarray(g._slopes)[np.clip(np.searchsorted(knots, s, side="right") - 1, 0,
                                         len(g._slopes) - 1)]
    want[np.isin(s, knots)] = np.nan
    got = g.derivative_array(x)
    assert got.tobytes() == want.tobytes()
    # every knot is a corner, as are s = 1.0 from x = -1e-20 and s = 0.0 from
    # -0.0; NaN reads as the last slope
    n = 5 * knots.size
    assert np.isnan(got[:knots.size]).all() and np.isnan(got[n:n + 3]).all()
    assert got[n + 3] == g._slopes[-1]


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.1, 0.0), (1.0, 1.0)))        # must start at x=0
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 0.0), (1.0, 2.0)))        # degree must be +-1
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 0.0), (0.5, -0.1), (1.0, 1.0)))  # not monotone


def test_piecewise_inverse_breakpoints():
    inv = H1.inverse()
    assert inv.breakpoints == ((0.0, 0.0), (0.6, 0.5), (1.0, 1.0))
    shifted = PiecewiseLinear(((0.0, 0.2), (0.5, 0.9), (1.0, 1.2)))
    rng = np.random.default_rng(10)
    for g in (inv, shifted.inverse(), REVERSING.inverse()):
        pass
    for base in (H1, H2, shifted, REVERSING):
        inv = base.inverse()
        for x in rng.random(300):
            assert circ_dist(inv.eval(base.eval(x)), x) <= 1e-12


@pytest.mark.parametrize("bps", [
    ((0.0, -0.1), (0.5, 0.4), (1.0, 0.9)),     # preserving, starts below 0
    ((0.0, 1.3), (0.5, 1.7), (1.0, 2.3)),      # preserving, starts above 1
    ((0.0, 1.1), (0.5, 0.6), (1.0, 0.1)),      # reversing, ends above 0
    ((0.0, -0.2), (0.5, -0.9), (1.0, -1.2)),   # reversing, starts below 0
])
def test_piecewise_inverse_of_offset_lifts(bps):
    g = PiecewiseLinear(bps)
    inv = g.inverse()
    for x in np.linspace(0.0, 1.0, 201)[:-1]:
        assert circ_dist(inv.eval(g.eval(x)), x) <= 1e-12


def test_map_arc_examples():
    out = image_arc(Rotation(0.25), Arc(CirclePoint(0.1), 0.1))
    assert out.start.value == pytest.approx(0.35) and out.length == pytest.approx(0.1)
    out = image_arc(Flip(), Arc(CirclePoint(0.1), 0.1))
    assert out.start.value == pytest.approx(0.8) and out.length == pytest.approx(0.1)
    # oracle: endpoint images under the monotone lift 2x are 0.8 and 1.2
    g = Expanding(2)
    lo, hi = g.lift(0.4), g.lift(0.6)
    assert (lo % 1.0, hi - lo) == (pytest.approx(0.8), pytest.approx(0.4))
    out = image_arc(g, Arc(CirclePoint(0.4), 0.2))
    assert out.start.value == pytest.approx(0.8) and out.length == pytest.approx(0.4)


def test_map_arc_full_and_saturated():
    assert image_arc(Rotation(0.3), Arc(CirclePoint(0.2), 1.0)).length == pytest.approx(1.0)
    assert image_arc(Expanding(3), Arc(CirclePoint(0.1), 0.5)).length == 1.0


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: repr(g)[:30])
def test_map_arc_contains_net_images(g):
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = Arc(CirclePoint(rng.random()), rng.random())
        image = image_arc(g, a)
        for i in range(101):
            p = a.start.value + a.length * i / 100
            assert image.contains(g.eval(p), tol=1e-10)
        if g.invertible:
            ends = {g.eval(a.start.value), g.eval(a.start.value + a.length)}
            for e in ends:
                assert image.contains(e, tol=1e-10)


def test_fixed_points_rotation_empty():
    assert fixed_points(Rotation(GOLDEN)) == []


def test_fixed_points_north_south():
    recs = fixed_points(NorthSouth(0.0, 2.0))
    assert len(recs) == 2
    by_loc = {round(r.location.value, 9): r for r in recs}
    rep, att = by_loc[0.0], by_loc[0.5]
    assert rep.classification == "repelling"
    assert rep.one_sided_multipliers == (pytest.approx(2.0, abs=1e-6),) * 2
    assert att.classification == "attracting"
    assert att.one_sided_multipliers == (pytest.approx(0.5, abs=1e-6),) * 2


def test_fixed_points_flip_and_expanding():
    locs = sorted(r.location.value for r in fixed_points(Flip()))
    assert locs == [pytest.approx(0.0, abs=1e-9), pytest.approx(0.5, abs=1e-9)]
    recs = fixed_points(Expanding(2))
    assert len(recs) == 1 and recs[0].classification == "repelling"
    recs3 = fixed_points(Expanding(3))
    assert sorted(round(r.location.value, 9) for r in recs3) == [0.0, 0.5]


def test_fixed_points_hinge_semistable():
    recs = fixed_points(H1)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.location.value == pytest.approx(0.0, abs=1e-9)
    assert rec.classification == "semistable"
    assert rec.one_sided_multipliers == (pytest.approx(0.8), pytest.approx(1.2))


def test_identity_fixed_points_sampled():
    recs = fixed_points(Rotation(0.0))
    assert len(recs) == 16
    assert all(r.classification == "nonhyperbolic" for r in recs)


@pytest.mark.parametrize("build,field", [
    (lambda: Rotation(float("nan")), "alpha"),
    (lambda: Rotation(float("inf")), "alpha"),
    (lambda: NorthSouth(0.0, float("inf")), "lam"),
    (lambda: NorthSouth(0.0, float("nan")), "lam"),
    (lambda: NorthSouth(float("-inf"), 2.0), "q"),
    (lambda: PiecewiseLinear(((0.0, 0.0), (0.5, float("nan")), (1.0, 1.0))), "breakpoints"),
    (lambda: PiecewiseLinear(((0.0, 0.0), (float("inf"), 0.5), (1.0, 1.0))), "breakpoints"),
    (lambda: Expanding(float("inf")), "m"),
    (lambda: Expanding(float("nan")), "m"),
])
def test_constructors_reject_non_finite_parameters(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build()


def test_north_south_needs_a_multiplier_above_one():
    with pytest.raises(ValueError, match="^multiplier must exceed 1, got 1.0"):
        NorthSouth(0, 1.0)


def test_north_south_multiplier_is_bounded():
    # refused before fixed_points could misplace or misclassify the repeller
    assert NorthSouth(0.1, MAX_MULTIPLIER).lam == MAX_MULTIPLIER
    message = "^" + re.escape(f"multiplier must be at most {MAX_MULTIPLIER:g},")
    for lam in (MAX_MULTIPLIER * (1 + 1e-15), 1e12, 1e25, 1e300):
        with pytest.raises(ValueError, match=message):
            NorthSouth(0.1, lam)


def test_largest_north_south_multiplier_keeps_its_repeller():
    recs = fixed_points(NorthSouth(0.1, MAX_MULTIPLIER))
    rep, = [r for r in recs if r.classification == "repelling"]
    assert rep.location.value == pytest.approx(0.1, abs=1e-12)
    assert rep.one_sided_multipliers == (pytest.approx(MAX_MULTIPLIER, rel=1e-12),) * 2


def test_expanding_degree_is_bounded():
    # above the degrees the fixed-point kernel tests, and refused before any
    # map of that degree exists
    assert MAX_DEGREE >= 2000
    assert Expanding(MAX_DEGREE).m == MAX_DEGREE
    for m in (MAX_DEGREE + 1, 10 ** 9, float(10 ** 300)):
        with pytest.raises(ValueError, match=f"^expanding factor m must be at most {MAX_DEGREE}"):
            Expanding(m)
