import numpy as np
import pytest

from ifs_lab import (Arc, CirclePoint, Expanding, Flip, GALLERY_NAMES, IfsSystem, NorthSouth,
                     NotACover, NotDifferentiable, NotLocallyExpanding, PiecewiseLinear,
                     Rotation, admissible_itinerary, build_example, expanding_verdict,
                     lebesgue_number, local_expanding_cover, word_derivative)
from ifs_lab import smooth
from ifs_lab.detectors import DEFAULT_RESOLUTION
from ifs_lab.smooth import CoverPiece, ExpandingCover


def oracle_lebesgue(cover, net=10_000, tol=1e-9):
    """Independent oracle: binary search on rho with direct containment checks."""
    def fits_all(rho):
        for i in range(net):
            x = (i + 0.5) / net
            ok = False
            for a in cover:
                if a.length >= 1.0 - 1e-15:
                    ok = True
                    break
                dl = (x - a.start.value) % 1.0
                if dl <= a.length and rho <= min(dl, a.length - dl):
                    ok = True
                    break
            if not ok:
                return False
        return True

    lo, hi = 0.0, 0.5
    if fits_all(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fits_all(mid):
            lo = mid
        else:
            hi = mid
    return lo


def lebesgue_reference(cover, net=10_000):
    """The point-by-arc loop that `lebesgue_number` replaced, kept as a
    test-only reference."""
    if not cover:
        raise NotACover("empty cover")
    rho = 0.5
    for i in range(net):
        x = (i + 0.5) / net
        best = None
        for a in cover:
            if a.length >= 1.0 - 1e-15:
                best = 0.5
                break
            dl = (x - a.start.value) % 1.0
            if dl <= a.length:
                slack = min(dl, a.length - dl)
                if best is None or slack > best:
                    best = slack
        if best is None:
            raise NotACover(f"net point {x} lies in no cover arc", point=x)
        rho = min(rho, best)
    return rho


def test_expanding_verdict_examples(doubling, expanding_pair):
    res = DEFAULT_RESOLUTION.replaced(net_size=1024)
    v = expanding_verdict(doubling, res)
    assert v.to_dict() == {"property": "expanding", "holds": True, "resolution": res.to_dict(),
                           "witnesses": {"eta": 0.5}, "caveat": "checked on a finite grid"}
    v = expanding_verdict(expanding_pair, res)
    assert v.holds and v.witnesses["eta"] == 0.5
    v = expanding_verdict(IfsSystem([Rotation(0.3), Expanding(2)]), res)
    assert not v.holds and v.witnesses["eta"] is None


def test_expanding_verdict_retries_on_breakpoint():
    pwl = PiecewiseLinear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0)))
    v = expanding_verdict(IfsSystem([pwl]), DEFAULT_RESOLUTION.replaced(net_size=10))
    assert not v.holds and v.witnesses["eta"] is None


def test_local_cover_doubling(doubling):
    cover = local_expanding_cover(doubling)
    assert len(cover.pieces) == 1
    piece = cover.pieces[0]
    assert piece.word == (1,)
    assert piece.arc.length == pytest.approx(1.0)
    assert cover.sigma == pytest.approx(0.5)
    assert cover.lebesgue == pytest.approx(0.5)


def test_local_cover_ns_alone_fails(ns_alone):
    with pytest.raises(NotLocallyExpanding) as exc:
        local_expanding_cover(ns_alone)
    # the stuck point lies outside the expansion zone around the repeller
    from ifs_lab import circ_dist
    assert circ_dist(exc.value.point, 0.5) < 0.5 - 0.19


def test_local_cover_ns_rotation(ns_rotation_sym):
    cover = local_expanding_cover(ns_rotation_sym)
    assert cover.sigma < 1.0
    assert cover.lebesgue > 0.0
    # derivative bound re-verified on a fine sub-net of every piece
    for piece in cover.pieces:
        for i in range(1000):
            x = (piece.arc.start.value + piece.arc.length * (i + 0.5) / 1000) % 1.0
            recip = 1.0 / abs(word_derivative(ns_rotation_sym, piece.word, x))
            assert recip <= piece.sigma_local + 1e-10


def test_lebesgue_examples():
    assert lebesgue_number([Arc(CirclePoint(0.0), 1.0)]) == 0.5
    cover = [Arc(CirclePoint(0.0), 0.6), Arc(CirclePoint(0.5), 0.6)]
    got = lebesgue_number(cover)
    assert got == pytest.approx(0.05, abs=1e-4)
    assert got == pytest.approx(oracle_lebesgue(cover, net=2000), abs=1e-3)


def test_lebesgue_touching_arcs_degenerate():
    cover = [Arc(CirclePoint(0.0), 0.5), Arc(CirclePoint(0.5), 0.5)]
    assert lebesgue_number(cover) <= 1e-4


def test_lebesgue_not_a_cover():
    with pytest.raises(NotACover):
        lebesgue_number([Arc(CirclePoint(0.0), 0.4)])


def _outcome(lebesgue, cover):
    try:
        return lebesgue(cover).hex()
    except NotACover as exc:
        return str(exc), exc.point


@pytest.mark.parametrize("seed", range(6))
def test_lebesgue_matches_the_reference_loop_bitwise(seed, monkeypatch):
    # random covers: arcs that wrap past 1, full circles, gaps that leave
    # the net uncovered, and nets that end mid-block (the library's net is
    # fixed at 10,000 points; other sizes reach the same sweep here)
    rng = np.random.default_rng(seed)
    outcomes = set()
    for trial in range(40):
        n = int(rng.integers(1, 9))
        lengths = rng.uniform(0.05, 0.9, n)
        lengths[rng.random(n) < 0.05] = 1.0
        cover = [Arc(CirclePoint(float(s)), float(ln))
                 for s, ln in zip(rng.random(n), lengths)]
        net = int(rng.choice([1, 7, 1024, 1500, 2049, 3000]))
        monkeypatch.setattr(smooth, "_LEBESGUE_NET", net)
        got = _outcome(lebesgue_number, cover)
        assert got == _outcome(lambda arcs: lebesgue_reference(arcs, net), cover)
        outcomes.add(isinstance(got, tuple))
    assert outcomes == {True, False}


def test_lebesgue_of_a_local_cover_matches_the_reference_loop(ns_rotation_sym):
    arcs = [p.arc for p in local_expanding_cover(ns_rotation_sym).pieces]
    assert lebesgue_number(arcs) == lebesgue_reference(arcs)
    assert _outcome(lebesgue_number, arcs[1:]) == _outcome(lebesgue_reference, arcs[1:])


@pytest.mark.parametrize("call, error, message", [
    (lambda ifs: lebesgue_number([]), NotACover, "empty cover"),
    (lambda ifs: admissible_itinerary(local_expanding_cover(ifs), 0.3, 0), ValueError,
     "length must be positive"),
], ids=["empty_cover", "itinerary_length"])
def test_degenerate_arguments_are_refused(doubling, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(doubling)


def test_lebesgue_two_sided(ns_rotation_sym):
    cover = local_expanding_cover(ns_rotation_sym)
    arcs = [p.arc for p in cover.pieces]
    rho = cover.lebesgue

    def ball_fits(x, radius):
        for a in arcs:
            if a.length >= 1.0 - 1e-15:
                return True
            dl = (x - a.start.value) % 1.0
            if dl <= a.length and radius <= min(dl, a.length - dl):
                return True
        return False

    fits_small = all(ball_fits((i + 0.5) / 10_000, rho * (1 - 1e-6)) for i in range(10_000))
    misses_large = any(not ball_fits((i + 0.5) / 10_000, rho * (1 + 1e-3)) for i in range(10_000))
    assert fits_small and misses_large


def test_itinerary_single_piece(doubling):
    cover = local_expanding_cover(doubling)
    assert admissible_itinerary(cover, 0.3, 6) == [0] * 6


def test_itinerary_replays_membership(ns_rotation_sym):
    cover = local_expanding_cover(ns_rotation_sym)
    x = 0.52
    seq = admissible_itinerary(cover, x, 8)
    v = x
    for idx in seq:
        piece = cover.pieces[idx]
        assert piece.arc.contains(v, tol=1e-10)
        v = ns_rotation_sym.apply_word(piece.word, v)


def test_itinerary_smallest_index_tie_break(doubling):
    pieces = [
        CoverPiece(Arc(CirclePoint(0.0), 0.6), (1,), 0.5),
        CoverPiece(Arc(CirclePoint(0.9), 0.6), (1,), 0.5),
    ]
    cover = ExpandingCover(pieces, 0.5, 0.05, doubling)
    # 0.05 lies in both pieces; the smaller index wins
    assert admissible_itinerary(cover, 0.05, 1) == [0]
    assert admissible_itinerary(cover, 0.95, 1) == [1]


def test_itinerary_escape_raises(doubling):
    pieces = [CoverPiece(Arc(CirclePoint(0.0), 0.3), (1,), 0.5)]
    cover = ExpandingCover(pieces, 0.5, 0.1, doubling)
    with pytest.raises(NotACover):
        admissible_itinerary(cover, 0.2, 3)  # doubling leaves the single piece


def expanding_sweep_reference(ifs, grid=1024):
    """The scalar sweep that `expanding_verdict` replaced, kept as a test-only
    reference: point by point, generator by generator."""

    def sweep(offset):
        eta = 0.0
        for g in ifs.generators:
            for i in range(grid):
                d = abs(g.derivative((i + offset) / grid))
                if d <= 1.0:
                    return False, None
                eta = max(eta, 1.0 / d)
        return True, eta

    try:
        return sweep(0.0)
    except NotDifferentiable:
        return sweep(0.5)


def library_sweep(ifs, grid):
    """`expanding_verdict` on `grid` points, as the reference's pair."""
    v = expanding_verdict(ifs, DEFAULT_RESOLUTION.replaced(net_size=grid))
    return v.holds, v.witnesses["eta"]


def outcome(f, ifs, grid):
    try:
        return f(ifs, grid)
    except NotDifferentiable as exc:
        return ("corner", exc.location, exc.left, exc.right)


def random_smooth_generator(rng, kind):
    if kind == "rotation":
        return Rotation(float(rng.random()))
    if kind == "flip":
        return Flip()
    if kind == "north_south":
        return NorthSouth(float(rng.random()), float(rng.uniform(1.1, 4.0)))
    if kind == "expanding":
        return Expanding(int(rng.integers(2, 6)))
    # knots on a coarse dyadic grid, so some fall on grid points of either offset
    xs = np.unique(rng.integers(1, 16, int(rng.integers(1, 4)))) / 16.0
    ys = np.sort(rng.uniform(0.05, 0.95, xs.size))
    return PiecewiseLinear(((0.0, 0.0),) + tuple(zip(xs.tolist(), ys.tolist())) + ((1.0, 1.0),))


def smooth_systems():
    rng = np.random.default_rng(5)
    kinds = ("rotation", "flip", "north_south", "expanding", "piecewise_linear")
    systems = [build_example(name).system for name in GALLERY_NAMES]
    for _ in range(60):
        picks = rng.choice(kinds, int(rng.integers(1, 4)), p=(0.1, 0.1, 0.1, 0.4, 0.3))
        systems.append(IfsSystem([random_smooth_generator(rng, str(k)) for k in picks]))
    # a corner on the offset-0.5 grid, behind an expanding generator; a
    # non-expanding point ahead of a corner; a corner then expansion
    corner = PiecewiseLinear(((0.0, 0.0), (0.25, 0.5), (1.0, 1.0)))
    systems += [IfsSystem([Expanding(2), corner]), IfsSystem([corner, Expanding(3)]),
                IfsSystem([Rotation(0.1), corner]), IfsSystem([Expanding(3), Expanding(2)])]
    return systems


def test_expanding_verdict_matches_the_scalar_sweep():
    seen = set()
    for ifs in smooth_systems():
        for grid in (2, 3, 8, 100, 1024):
            got = outcome(library_sweep, ifs, grid)
            assert got == outcome(expanding_sweep_reference, ifs, grid)
            seen.add("corner" if got[0] == "corner" else got[0])
    assert seen == {True, False, "corner"}
