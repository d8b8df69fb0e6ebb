"""The array word evaluator and the prefix-tree cover search against scalar
references: `IfsSystem.apply_word` and `word_derivative` for the evaluator,
`cover_oracle` (the per-point `enumerate_words` scan) for the cover.

Covers must agree bitwise (every float of `to_dict()` compared by its hex
form) and failures must name the same point, stop reason and word count, on
the gallery, on the smooth-system set of `test_smooth`, on seeded random
systems of all five generator types, on nets whose points meet knots on the
1/16 grid (so corner NaN rows occur), on budgets that end mid-level, at depth
1 and on a one-generator system.
"""

import numpy as np
import pytest

import cover_oracle as oracle
import ifs_lab.detectors as detectors
import ifs_lab.smooth as smooth
from ifs_lab import (Expanding, Flip, GALLERY_NAMES, IfsSystem, NorthSouth, NotDifferentiable,
                     PiecewiseLinear, Resolution, Rotation, build_example, local_expanding_cover,
                     local_expanding_verdict, word_derivative)
from ifs_lab.circle import normalize_array
from ifs_lab.detectors import DEFAULT_RESOLUTION, _letter_rows, _stopped_by, uniform_net
from ifs_lab.semigroup import _word_values
from ifs_lab.smooth import NotACover, NotLocallyExpanding
from conftest import PL_IDENTITY
from test_smooth import random_smooth_generator, smooth_systems

KINDS = ("rotation", "flip", "north_south", "expanding", "piecewise_linear")
BENCH_RES = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)


def random_systems(seed, count):
    """Systems of one to three generators, each of the five types in turn
    leading one, the others drawn uniformly."""
    rng = np.random.default_rng(seed)
    return [IfsSystem([random_smooth_generator(rng, kind) for kind in
                       [KINDS[i % 5]] + list(rng.choice(KINDS, int(rng.integers(0, 3))))])
            for i in range(count)]


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def outcome(cover, ifs, res):
    try:
        return hexed(cover(ifs, res).to_dict())
    except NotLocallyExpanding as exc:
        return exc.point.hex(), exc.stop_reason, exc.words_examined
    except NotACover as exc:
        return exc.point.hex(), "gap"


def kind_of(got):
    return "cover" if isinstance(got, dict) else got[1]


def check_all(cases):
    """Compare every (system, resolution) case; the kinds of outcome seen."""
    seen = set()
    for ifs, res in cases:
        got = outcome(local_expanding_cover, ifs, res)
        assert got == outcome(oracle.local_expanding_cover, ifs, res), (ifs, res)
        seen.add(kind_of(got))
    return seen


# -- the evaluator -----------------------------------------------------------

def test_word_values_match_the_scalar_word_calls():
    corner = PiecewiseLinear(((0.0, 0.0), (0.25, 0.5), (0.5, 0.625), (1.0, 1.0)))
    ifs = IfsSystem([Rotation(0.3), Flip(), NorthSouth(0.37, 2.5), corner, Expanding(3)])
    rng = np.random.default_rng(0)
    n, longest = 3000, 6
    lengths = rng.integers(0, longest + 1, n)
    letters = np.zeros((n, longest), dtype=np.int64)
    for row, length in zip(letters, lengths):
        row[:length] = rng.integers(1, ifs.k + 1, length)
    x = rng.random(n)
    x[:300] = np.round(x[:300] * 16) / 16  # on the knots, where corners sit
    values, derivs = _word_values(ifs, letters, x)
    corners = 0
    for row, length, x0, v, d in zip(letters.tolist(), lengths, x.tolist(), values, derivs):
        w = tuple(row[:length])
        assert v == ifs.apply_word(w, x0)
        try:
            assert abs(d) == abs(word_derivative(ifs, w, x0))
        except NotDifferentiable:
            assert np.isnan(d)
            corners += 1
        else:
            assert not np.isnan(d)
    assert corners and (lengths == 0).any() and np.count_nonzero(letters == 3) > 1000


@pytest.mark.parametrize("lam", [1.0001, 1.2, 2.5, 4.0])
def test_word_values_match_the_north_south_scalar_methods_bitwise(lam):
    # numpy's vectorised tan and arctan may differ from libm's in the last
    # bit; these rows take libm's, at the seams of the map (its fixed points,
    # either side of |s| = 1/4 and of the half-turns) and at random points
    rng = np.random.default_rng(1)
    for q in (0.0, 0.37, 0.75):
        ns = NorthSouth(q, lam)
        seams = [0.0, 0.25, 0.5, 0.75, ns.q, 1.0 - 2.0 ** -53]
        for c in (ns.q - 0.25, ns.q + 0.25, ns.q + 0.5, ns.q + 0.75):
            c %= 1.0
            seams += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
        x = np.r_[seams, rng.random(10_000)]
        values, derivs = ns.eval_and_derivative_array(x)
        assert [v.hex() for v in values.tolist()] == [ns.eval(t).hex() for t in x.tolist()]
        assert [d.hex() for d in derivs.tolist()] == [ns.derivative(t).hex() for t in x.tolist()]
        # a row starts from its normalized point, as apply_word does
        x = normalize_array(x)
        values, derivs = _word_values(IfsSystem([ns]), np.ones((x.size, 1), dtype=np.int64), x)
        assert [v.hex() for v in values.tolist()] == [ns.eval(t).hex() for t in x.tolist()]
        assert [d.hex() for d in derivs.tolist()] == [ns.derivative(t).hex() for t in x.tolist()]


# -- the cover against the scalar reference ----------------------------------

def test_cover_matches_the_reference_on_the_gallery():
    cases = [(build_example(name).system, DEFAULT_RESOLUTION) for name in GALLERY_NAMES]
    assert check_all(cases) == {"cover", "budget"}


@pytest.mark.parametrize("res, kinds", [
    (Resolution(net_size=8, depth=6, budget=40), {"cover", "gap", "depth", "budget"}),
    (Resolution(net_size=16, depth=4, budget=5), {"cover", "depth", "budget"}),
    (Resolution(net_size=16, depth=1), {"cover", "depth"}),
], ids=["net8_budget40", "net16_budget5", "net16_depth1"])
def test_cover_matches_the_reference_on_the_smooth_systems(monkeypatch, res, kinds):
    corners = []

    def recorded(ifs, letters, x):
        values, derivs = _word_values(ifs, letters, x)
        corners.append(np.isnan(derivs).any())
        return values, derivs

    monkeypatch.setattr(detectors, "_word_values", recorded)
    assert check_all((ifs, res) for ifs in smooth_systems()) == kinds
    assert any(corners)


@pytest.mark.parametrize("seed", range(3))
def test_cover_matches_the_reference_on_random_systems(seed):
    systems = random_systems(seed, 20)
    cases = [(ifs, res) for ifs in systems
             for res in (BENCH_RES, Resolution(net_size=8, depth=3, budget=40))]
    assert check_all(cases) == {"cover", "gap", "depth", "budget"}


def test_cover_matches_the_reference_on_one_generator():
    cases = [(IfsSystem([g]), res) for g in (Expanding(2), NorthSouth(0.2, 3.0), Rotation(0.1))
             for res in (BENCH_RES, Resolution(net_size=16, depth=1), DEFAULT_RESOLUTION)]
    assert check_all(cases) == {"cover", "depth"}


# -- the batched extents against the scalar growth ----------------------------

def anchored(ifs, res):
    """The (word, net point) rows of ifs whose net point has a word."""
    rows = []
    for x in uniform_net(res.net_size):
        try:
            rows.append((smooth._first_words(ifs, np.array([x]), res)[0][0], x))
        except NotLocallyExpanding:
            pass
    return rows


def extents(ifs, rows):
    """`_extents` on every row, left sides first, as `local_expanding_cover`
    runs it; and the rows' sides."""
    words, x = zip(*rows)
    sides = np.repeat([-1.0, 1.0], len(x))
    return smooth._extents(ifs, np.tile(_letter_rows(ifs, words), (2, 1)), np.tile(x, 2),
                           sides), sides


def test_extents_match_the_scalar_growth_row_by_row(monkeypatch):
    """Every row's extent equals `cover_oracle.grow_extent`'s bitwise: in one
    block at the default pass widths and with every doubling in one pass, in
    blocks of five rows, and one row a block at one extent a pass; the rows
    stop at every doubling (0 to 6 of them, then bisect) or reach _CAP (7),
    on both sides."""
    res = BENCH_RES.replaced(net_size=24)
    systems = [build_example(name).system for name in GALLERY_NAMES] + random_systems(0, 20)
    cases = [(ifs, rows) for ifs in systems if (rows := anchored(ifs, res))]
    # slope above 1 on [0.2, 0.4] but for a dip 2e-6 wide at 0.3 + 9/4096,
    # which only the first doubling's samples (1/4096 apart) meet: the right
    # side of 0.3 fails that doubling and holds at the next four
    a, b = 0.3 + 9 / 4096 - 1e-6, 0.3 + 9 / 4096 + 1e-6
    dip = PiecewiseLinear(((0.0, 0.0), (0.2, 0.15), (a, 0.15 + 2 * (a - 0.2)),
                           (b, 0.15 + 2 * (a - 0.2) + 1e-6), (0.4, 0.5), (1.0, 1.0)))
    cases.append((IfsSystem([dip]), [((1,), 0.3)]))
    want = [[oracle.grow_extent(ifs, w, x, side).hex() for side in (-1.0, 1.0) for w, x in rows]
            for ifs, rows in cases]
    seen = set()
    chunk, samples = smooth._CHUNK_NODES, smooth._PASS_SAMPLES
    for nodes, room in ((chunk, samples), (chunk, chunk), (5 * smooth._GROW_SAMPLES, samples),
                        (1, samples)):
        monkeypatch.setattr(smooth, "_CHUNK_NODES", nodes)
        monkeypatch.setattr(smooth, "_PASS_SAMPLES", room)
        for (ifs, rows), expected in zip(cases, want):
            got, sides = extents(ifs, rows)
            assert [t.hex() for t in got.tolist()] == expected, (ifs, nodes, room)
            doublings = np.floor(np.log2(got / smooth._EXTENT)).astype(int)
            seen |= set(zip(doublings.tolist(), sides.tolist()))
    assert seen == {(j, side) for j in range(smooth._DOUBLINGS + 1) for side in (-1.0, 1.0)}


def extent_passes(monkeypatch, res):
    """The (extents a row, rows) of each `_holds` pass that `_extents` makes
    for thm34_ns_rotation's cover at res."""
    holds, grow, shapes = smooth._holds, smooth._extents, []

    def counted(ifs, letters, a, b):
        shapes.append(b.shape)
        return holds(ifs, letters, a, b)

    def counted_extents(*args):
        monkeypatch.setattr(smooth, "_holds", counted)
        return grow(*args)

    monkeypatch.setattr(smooth, "_extents", counted_extents)
    local_expanding_cover(build_example("thm34_ns_rotation").system, res)
    return shapes


def test_extents_take_one_doubling_pass_and_ten_bisection_passes_at_net_12(monkeypatch):
    # 24 (point, side) rows: 7 doublings and 3 midpoints a row hold far fewer
    # than _PASS_SAMPLES samples
    shapes = extent_passes(monkeypatch, BENCH_RES)
    assert shapes[0] == (smooth._DOUBLINGS, 24)
    assert shapes[1:] == [(3, shapes[1][1])] * 10 and 0 < shapes[1][1] <= 24


@pytest.mark.parametrize("nodes, blocks", [(None, 1), (40 * 17, 5)])
def test_extents_passes_hold_their_sample_bounds(monkeypatch, nodes, blocks):
    # the default net's 200 rows hold fewer than two extents a row in
    # _PASS_SAMPLES = 4,096 samples, so they take one step a pass, at most 7
    # doublings and 20 halvings; blocks of 40 rows take five such blocks
    if nodes is not None:
        monkeypatch.setattr(smooth, "_CHUNK_NODES", nodes)
    shapes = extent_passes(monkeypatch, DEFAULT_RESOLUTION)
    block = smooth._CHUNK_NODES // smooth._GROW_SAMPLES
    room = min(smooth._PASS_SAMPLES, smooth._CHUNK_NODES) // smooth._GROW_SAMPLES
    assert all(rows <= block and (tried == 1 or tried * rows <= room) for tried, rows in shapes)
    assert shapes[0] == (1, min(block, 200))
    assert len(shapes) <= (smooth._DOUBLINGS + 20) * blocks


# -- bounds and reports ------------------------------------------------------

def test_a_stuck_search_stops_after_the_first_chunk(monkeypatch, rotation_flip):
    # rotation_flip expands nowhere; its first net point already sticks, so
    # only the first chunk's points may be searched, each over the budget:
    # _FIRST_POINTS, or as many as _CHUNK_NODES rows hold when a point takes
    # at most budget - 1 of them
    rows = []

    def counted(ifs, letters, x):
        rows.append(np.size(x))
        return _word_values(ifs, letters, x)

    monkeypatch.setattr(detectors, "_word_values", counted)
    for budget, points in ((DEFAULT_RESOLUTION.budget, smooth._FIRST_POINTS), (4000, 4)):
        rows.clear()
        with pytest.raises(NotLocallyExpanding) as exc:
            local_expanding_cover(rotation_flip, DEFAULT_RESOLUTION.replaced(budget=budget))
        assert exc.value.point == 0.005
        assert sum(rows) == points * (budget - 1)


@pytest.mark.parametrize("budget", [2, 40, 4000])
def test_no_point_takes_more_rows_than_its_chunks_are_sized_by(chunk_ceilings, budget):
    """Chunks of net points are sized by the ceiling the cover search
    passes `_chunks`, so no point may take more word rows than that,
    whether it finds its word or sticks; and the ceiling is tight: a point
    that spends the budget reaches it."""
    ceilings = chunk_ceilings(smooth)
    res = BENCH_RES.replaced(budget=budget)
    most = 0
    for ifs in [build_example(name).system for name in GALLERY_NAMES] + random_systems(0, 10):
        try:
            local_expanding_cover(ifs, res)
        except (NotLocallyExpanding, NotACover):
            pass
        for x in uniform_net(res.net_size):
            try:
                held = smooth._first_words(ifs, np.array([x]), res)[1]
            except NotLocallyExpanding as exc:
                held = exc.words_examined - 1  # a lone point's rows: its words but the identity
            assert held <= ceilings[-1], (ifs, x)
            most = max(most, held)
    assert most == ceilings[-1]


def test_local_expanding_verdicts_do_not_depend_on_chunking(monkeypatch):
    """Net points are independent: many to a chunk or one each, the
    verdicts are the same, whether a cover is found or a point sticks at
    the depth or the budget."""
    systems = ([build_example(name).system for name in ("prop35_expanding", "rotation_flip")]
               + smooth_systems()[7:12] + random_systems(1, 5))
    res = Resolution(net_size=12, depth=6, budget=40)

    def run():
        return [local_expanding_verdict(ifs, res).to_dict() for ifs in systems]

    monkeypatch.setattr(detectors, "_CHUNK_NODES", 1 << 30)
    together = run()
    assert {v["witnesses"].get("stop_reason", "cover") for v in together} == {
        "cover", "depth", "budget"}
    monkeypatch.setattr(detectors, "_CHUNK_NODES", 1)
    assert run() == together


def test_a_stuck_search_names_its_bound(golden_rotation, rotation_flip,
                                       searched_rotation_flip):
    # one letter: depth 20 spends 21 words of 4000; two letters spend the
    # budget.  Every word of these maps has |h'| = 1; the isometries alone are
    # certified, so the piecewise-linear identity keeps the search running
    res = Resolution(net_size=12, depth=20, budget=4000)
    v = local_expanding_verdict(IfsSystem([PL_IDENTITY]), res)
    assert not v.holds
    assert v.witnesses == {"stuck_point": 0.5 / 12, "stop_reason": "depth",
                           "words_examined": 21}
    assert v.caveat == "no expanding word found within bounds: " + _stopped_by("depth", res)
    v = local_expanding_verdict(searched_rotation_flip, res)
    assert v.witnesses == {"stuck_point": 0.5 / 12, "stop_reason": "budget",
                           "words_examined": 4000}
    assert v.caveat.endswith("the search spent its word budget (budget=4000)")
    for ifs in (golden_rotation, rotation_flip):
        v = local_expanding_verdict(ifs, res)
        assert not v.holds and v.witnesses["stuck_point"] == 0.5 / 12
        assert v.witnesses["certified"] and "stop_reason" not in v.witnesses


def test_a_gap_between_pieces_keeps_its_witness():
    # on a coarse net, every point can anchor a piece while the pieces leave
    # a gap between them, which the Lebesgue sweep names
    res = Resolution(net_size=8, depth=6, budget=40)
    gaps = []
    for ifs in smooth_systems():
        try:
            local_expanding_cover(ifs, res)
        except NotACover as exc:
            gaps.append((ifs, exc.point))
        except NotLocallyExpanding:
            pass
    assert gaps
    ifs, point = gaps[0]
    v = local_expanding_verdict(ifs, res)
    assert not v.holds
    assert v.witnesses == {"uncovered_point": point}
    assert v.caveat == ("the pieces grown around the net points leave a gap: a finer net"
                        " (--net, now 8) may close it")
