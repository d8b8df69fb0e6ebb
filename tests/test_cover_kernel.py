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
from ifs_lab.detectors import DEFAULT_RESOLUTION, _stopped_by
from ifs_lab.semigroup import _word_values
from ifs_lab.smooth import NotLocallyExpanding
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


def kind_of(got):
    if isinstance(got, dict):
        return "cover"
    return "gap" if got[1] is None else got[1]


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


# -- bounds and reports ------------------------------------------------------

def test_a_stuck_search_stops_after_the_first_chunk(monkeypatch, rotation_flip):
    # rotation_flip expands nowhere; its first net point already sticks, so
    # only the first chunk's points may be searched, each over the budget
    rows = []

    def counted(ifs, letters, x):
        rows.append(np.size(x))
        return _word_values(ifs, letters, x)

    monkeypatch.setattr(detectors, "_word_values", counted)
    with pytest.raises(NotLocallyExpanding) as exc:
        local_expanding_cover(rotation_flip, DEFAULT_RESOLUTION)
    assert exc.value.point == 0.005
    assert sum(rows) == smooth._FIRST_POINTS * (DEFAULT_RESOLUTION.budget - 1)


def test_a_stuck_search_names_its_bound(golden_rotation, rotation_flip):
    # one letter: depth 20 spends 21 words of 4000; two letters spend the budget
    res = Resolution(net_size=12, depth=20, budget=4000)
    v = local_expanding_verdict(golden_rotation, res)
    assert not v.holds
    assert v.witnesses == {"stuck_point": 0.5 / 12, "stop_reason": "depth",
                           "words_examined": 21}
    assert v.caveat == "no expanding word found within bounds: " + _stopped_by("depth", res)
    v = local_expanding_verdict(rotation_flip, res)
    assert v.witnesses == {"stuck_point": 0.5 / 12, "stop_reason": "budget",
                           "words_examined": 4000}
    assert v.caveat.endswith("the search spent its word budget (budget=4000)")


def test_a_gap_between_pieces_keeps_its_witness():
    # on a coarse net, every point can anchor a piece while the pieces leave
    # a gap between them, which the Lebesgue sweep names
    res = Resolution(net_size=8, depth=6, budget=40)
    gaps = []
    for ifs in smooth_systems():
        try:
            local_expanding_cover(ifs, res)
        except NotLocallyExpanding as exc:
            if exc.stop_reason is None:
                gaps.append((ifs, exc.point))
    assert gaps
    ifs, point = gaps[0]
    v = local_expanding_verdict(ifs, res)
    assert not v.holds
    assert v.witnesses == {"stuck_point": point}
    assert v.caveat == "no expanding word found within bounds"
