"""The array root finder against the scalar reference in `fixed_point_oracle`.

Locations, multipliers and classes must agree bitwise (records
are compared through their reprs, which print every float exactly), on the
gallery, on linear coverings up to degree 256, on seeded random generators
of all five types and on the edge cases of the grid scan: identity maps,
roots on grid points, the x = 1 endpoint and a semistable hinge.  Periodic
points, whose words share their prefixes' grid lifts and whose crossings
are bisected in batches across words, must equal the reference's
word-by-word solve on the gallery and on seeded random systems, however the
words fall into batches.  A word whose 2x2 matrix places its fixed points
lifts only its cells' windows, and its crossings must equal bitwise those
of its whole grid lift; the words the matrix cannot place (near +-I,
near-parabolic, ill-conditioned) must still match the reference.
"""

import functools
import itertools

import numpy as np
import pytest

import fixed_point_oracle as oracle
import ifs_lab.semigroup as semigroup
from ifs_lab import (Expanding, Flip, GALLERY_NAMES, IfsSystem, NorthSouth, PiecewiseLinear,
                     Rotation, build_example, fixed_points, periodic_points)
from ifs_lab.cli import system_from_config
from ifs_lab.generators import _FP_XS, _bisect, _crossings, _roots
from ifs_lab.semigroup import _composed
from test_arc_kernel import random_systems as seeded_systems
from test_orbit_kernel import bench_systems


def random_generator(rng, kind):
    if kind == "rotation":
        return Rotation(float(rng.random()))
    if kind == "flip":
        return Flip()
    if kind == "north_south":
        return NorthSouth(float(rng.random()), float(rng.uniform(1.05, 6.0)))
    if kind == "expanding":
        return Expanding(int(rng.integers(2, 9)))
    xs = np.sort(rng.uniform(0.02, 0.98, int(rng.integers(1, 6))))
    ys = np.sort(rng.uniform(0.02, 0.98, xs.size))
    off = float(rng.uniform(-0.6, 0.6))
    pts = [(0.0, off)] + [(float(x), float(y) + off) for x, y in zip(xs, ys)] + [(1.0, 1.0 + off)]
    if rng.random() < 0.3:
        pts = [(x, -y) for x, y in pts]
    return PiecewiseLinear(tuple(pts))


KINDS = ("rotation", "flip", "north_south", "piecewise_linear", "expanding")
RNG = np.random.default_rng(2024)
RANDOM = [random_generator(RNG, KINDS[i % 5]) for i in range(150)]
GALLERY = [(name, i, g) for name in GALLERY_NAMES
           for i, g in enumerate(build_example(name).system.generators)]
# repelling at 0, attracting at 1/4, semistable at 1/2
THREE_POINTS = PiecewiseLinear(((0.0, 0.0), (0.125, 0.2), (0.25, 0.25), (0.375, 0.3),
                                (0.5, 0.5), (0.75, 0.7), (1.0, 1.0)))
EDGE_CASES = [
    THREE_POINTS,
    Rotation(0.0),                                              # the identity
    NorthSouth(0.0, 2.0),                                       # roots on grid points 0 and 1/2
    NorthSouth(0.25, 1.5),
    PiecewiseLinear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0))),      # the semistable hinge
    PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (1.0, 1.0))),
    PiecewiseLinear(((0.0, 0.0), (0.25, 0.25), (0.5, 0.6), (1.0, 1.0))),  # fixes an arc
    PiecewiseLinear(((0.0, 0.1), (0.5, 0.5), (1.0, 1.1))),      # a single root at a grid point
    PiecewiseLinear(((0.0, 0.3), (0.5, -0.2), (1.0, -0.7))),    # orientation-reversing
    Flip(),
    # phi(1) is within tol/2 of branch -2, and branch -1 has a root within 3e-12 of 1
    PiecewiseLinear(((0.0, 1e-13), (1.0 - 3e-12, 0.0), (1.0, 1e-13 - 1.0))),
]


def kernel_roots(lift_array):
    """One lift's roots from the root finder's three pieces, as
    `fixed_points` runs them; None for a map fixing every point."""
    c = _crossings(lift_array(_FP_XS))
    return None if c is None else _roots(c, _bisect(lift_array, *c[:3]))


def assert_same_records(g):
    assert repr(fixed_points(g)) == repr(oracle.fixed_points(g))


@pytest.mark.parametrize("name,index,g", GALLERY, ids=[f"{n}-{i}" for n, i, _ in GALLERY])
def test_gallery_generators_match_reference(name, index, g):
    assert_same_records(g)


@pytest.mark.parametrize("g", EDGE_CASES, ids=repr)
def test_edge_cases_match_reference(g):
    assert_same_records(g)


@pytest.mark.parametrize("seed", range(5))
def test_random_generators_match_reference(seed):
    for g in RANDOM[seed::5]:
        assert_same_records(g)


@pytest.mark.parametrize("m", [2, 3, 5, 17, 64])
def test_expanding_matches_reference(m):
    assert_same_records(Expanding(m))


@pytest.mark.parametrize("m", [128, 256])
def test_large_expanding_matches_reference(m):
    records = fixed_points(Expanding(m))
    assert repr(records) == repr(oracle.fixed_points(Expanding(m)))
    assert {r.classification for r in records} == {"repelling"}
    assert {r.one_sided_multipliers for r in records} == {(float(m), float(m))}


def test_roots_on_grid_points_are_exact():
    g = NorthSouth(0.0, 2.0)
    assert kernel_roots(g.lift_array) == [0.0, 0.5]
    assert [r.location.value for r in fixed_points(g)] == [0.0, 0.5]
    assert [p.value for p, _ in periodic_points(IfsSystem([g]), 1)] == [0.0, 0.5]


def test_a_root_on_a_dyadic_midpoint_ends_its_bisection_early():
    """The root 4001/16384 is the second bisection midpoint of its grid cell
    [1000, 1001] / 4096, where the lift lands on it exactly (a breakpoint),
    so that root ends on fm == 0.0 while the other one bisects on."""
    x0 = 4001 / 16384
    g = PiecewiseLinear(((0.0, 0.05), (x0, x0), (0.75, 0.71), (1.0, 1.05)))
    values = kernel_roots(g.lift_array)
    assert len(values) == 2 and x0 in values
    assert (values, False) == oracle.lift_fixed_values(g.lift, 16)
    assert repr(fixed_points(g)) == repr(oracle.fixed_points(g))


@pytest.mark.parametrize("g, crossings", [
    (NorthSouth(0.1, 2.0), 2), (Expanding(128), 126), (Rotation(0.3), 0),
    # one root is an exact zero on the second halving, and its bracket closes there
    (PiecewiseLinear(((0.0, 0.05), (4001 / 16384, 4001 / 16384), (0.75, 0.71), (1.0, 1.05))), 2),
], ids=repr)
def test_the_bisection_calls_the_lift_once_per_halving(g, crossings):
    """Every crossing's bracket halves together, from the grid cell 2**-12
    to 2**-41 <= _FP_TOL / 2: 29 calls of the lift on all crossings, and
    none on a map with no crossing."""
    calls = []

    def lift_array(t):
        calls.append(t.size)
        return g.lift_array(t)

    c = _crossings(g.lift_array(_FP_XS))
    _roots(c, _bisect(lift_array, *c[:3]))
    assert calls == ([crossings] * 29 if crossings else [])


def test_identity_maps_are_sampled():
    assert kernel_roots(Rotation(0.0).lift_array) is None
    assert [r.location.value for r in fixed_points(Rotation(0.0))] == [
        (i + 0.5) / 16 for i in range(16)]
    ifs = build_example("rotation_flip").system
    # the word (2, 2)'s array lift: the one composition helper over lift_array
    flip = ifs.generator(2).lift_array
    assert kernel_roots(_composed([flip, flip])) is None
    assert oracle.lift_fixed_values(ifs.word_lift((2, 2)), 512)[1] is True
    assert [p.value for p, w in periodic_points(ifs, 2) if w == (2, 2)] == [
        (i + 0.5) / 512 for i in range(512)]


@functools.lru_cache(maxsize=None)
def reference_points(name, max_len):
    """A gallery system, or the seeded system `random<i>`, and the repr of
    the reference's periodic points of it."""
    ifs = (seeded_systems()[int(name[6:])] if name.startswith("random")
           else build_example(name).system)
    return ifs, repr(oracle.periodic_points(ifs, max_len))


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_periodic_points_match_reference(name):
    # rotation_flip has identity words of lengths 2 and 4 (flip.flip,
    # (rotation.flip)^2, ...): the 512-sample path, and the first word per
    # key among words of two lengths
    max_len = 4 if name == "rotation_flip" else 3
    ifs, want = reference_points(name, max_len)
    assert repr(periodic_points(ifs, max_len)) == want


@pytest.mark.parametrize("index", range(6), ids=[f"random{i}" for i in range(6)])
def test_periodic_points_of_random_systems_match_reference(index):
    ifs, want = reference_points(f"random{index}", 3)
    assert repr(periodic_points(ifs, 3)) == want


@pytest.mark.parametrize("name", [*GALLERY_NAMES, *(f"random{i}" for i in range(6))])
def test_periodic_points_read_no_generator_table(name, monkeypatch):
    """Every word's roots, one-letter words' too, come from the walk's own
    crossings: neither `fixed_points` nor the system's table is called."""
    def refused(*args):
        raise AssertionError("periodic_points read a generator's fixed points")

    monkeypatch.setattr(semigroup, "fixed_points", refused)
    monkeypatch.setattr(IfsSystem, "generator_fixed_points", refused)
    ifs = (seeded_systems()[int(name[6:])] if name.startswith("random")
           else build_example(name).system)
    assert repr(periodic_points(ifs, 3)) == repr(oracle.periodic_points(ifs, 3))


@pytest.mark.parametrize("max_len", [2.5, 3.0, True, False, "3", None])
def test_periodic_points_refuse_a_max_len_that_is_no_integer_before_any_lift(max_len, monkeypatch):
    ifs = build_example("thm34_ns_rotation").system
    calls = []
    for kind in {type(g) for g in ifs.generators}:
        monkeypatch.setattr(kind, "lift_array", lambda self, t: calls.append(t))
    with pytest.raises(ValueError, match="max_len"):
        periodic_points(ifs, max_len)
    assert calls == []


def test_periodic_points_take_any_index_for_max_len():
    ifs = build_example("thm34_ns_rotation").system
    assert repr(periodic_points(ifs, np.int64(2))) == repr(periodic_points(ifs, 2))


@pytest.mark.parametrize("name", [*GALLERY_NAMES, *(f"random{i}" for i in range(6))])
def test_periodic_points_bisected_word_by_word_match_reference(name, monkeypatch):
    """With the batch bound at its least, each word's crossings are
    bisected in a batch of their own."""
    monkeypatch.setattr(semigroup, "_BATCH_LIFTS", 0)
    ifs, want = reference_points(name, 3)
    assert repr(periodic_points(ifs, 3)) == want


def reduces_to_identity(w):
    """Whether a word over thm34's letters (1, 2 = its north-south map and
    that map's inverse, 3, 4 = its rotation and that rotation's inverse)
    cancels to the empty word."""
    stack = []
    for letter in w:
        if stack and stack[-1] == letter + (1 if letter % 2 else -1):
            stack.pop()
        else:
            stack.append(letter)
    return not stack


def test_periodic_points_bisect_all_words_in_one_loop(monkeypatch):
    """On thm34 at max_len 4 the matrix places the fixed points of every
    word of two letters or more but the 32 that cancel to the identity, so
    only those lift their whole grid, each from its longest prefix that has
    one (a one-letter word or an identity word): 76 grid lifts besides the
    4 generators', against one per word (340) before.  Every word's
    crossings fit one batch: the located words' windows take one lift call
    per (position, letter), and each halving lifts the brackets once per
    (position, letter), at most 30 * 4 * 4 calls in all."""
    ifs = build_example("thm34_ns_rotation").system
    want = reference_points("thm34_ns_rotation", 4)[1]
    ifs.generator_fixed_points()
    sizes = []
    for kind in {type(g) for g in ifs.generators}:
        def counted(self, t, lift_array=kind.lift_array):
            sizes.append(np.size(t))
            return lift_array(self, t)

        monkeypatch.setattr(kind, "lift_array", counted)
    got = repr(periodic_points(ifs, 4))
    monkeypatch.undo()
    assert got == want
    identities = [w for n in (2, 3, 4) for w in itertools.product(range(1, 5), repeat=n)
                  if reduces_to_identity(w)]
    assert len(identities) == 32
    gridded = {(a,) for a in range(1, 5)} | set(identities)
    lifted = sum(len(w) - max(n for n in range(1, len(w)) if w[:n] in gridded)
                 for w in identities)
    grid = sizes.count(_FP_XS.size)
    assert grid == 4 + lifted == 4 + 72
    assert 0 < len(sizes) - grid <= 30 * 4 * 4


def word_cells(ifs, max_len):
    """Each word of 2..max_len letters with the cells `_root_cells` reads
    from its matrix, built letter by letter as the walk builds it."""
    mats = [semigroup._matrix(g) for g in ifs.generators]
    out = []
    for n in range(2, max_len + 1):
        for w in itertools.product(range(1, ifs.k + 1), repeat=n):
            m = ((1.0, 0.0, 0.0, 1.0), 1.0, 1.0)
            for a in w:
                m = semigroup._times(mats[a - 1], m)
            out.append((w, semigroup._root_cells(m, n)))
    return out


def projective_systems():
    """thm34, cor33 and rotation_flip at max_len 4, and the documents of
    random seeds 0-4 whose generators are all NorthSouth, Rotation or Flip
    at max_len 3."""
    out = [(name, build_example(name).system, 4)
           for name in ("thm34_ns_rotation", "cor33_morse_smale", "rotation_flip")]
    systems = bench_systems()
    for seed in range(5):
        for i, doc in enumerate(systems.random_documents(seed)):
            ifs = system_from_config(doc)
            if None not in map(semigroup._matrix, ifs.generators):
                out.append((f"random_{seed}_{i}", ifs, 3))
    return out


PROJECTIVE = projective_systems()


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, ifs, max_len", PROJECTIVE, ids=[p[0] for p in PROJECTIVE])
def test_located_crossings_equal_the_whole_grid_lift(name, ifs, max_len):
    """Each located word's crossings, from the lift at its windows' points,
    are bitwise those of its whole grid lift; a word the matrix finds no
    fixed point for has no crossing, grid root or x = 1 root on the grid."""
    words = word_cells(ifs, max_len)
    located = [(w, cells) for w, cells in words if cells]
    got = semigroup._located_crossings(ifs, [w for w, _ in located],
                                       [c for _, c in located]) if located else []
    assert len(got) == len(located)
    for (w, _), c in zip(located, got):
        want = _crossings(_composed([ifs.generator(a).lift_array for a in w])(_FP_XS))
        assert want is not None and want.cell.size + want.grid_roots.size
        assert all(same_bits(getattr(c, f), getattr(want, f))
                   for f in ("cell", "branch", "fa", "grid_roots")), w
        assert c.phi_end.hex() == want.phi_end.hex()
    for w, cells in words:
        if cells == ():
            want = _crossings(_composed([ifs.generator(a).lift_array for a in w])(_FP_XS))
            assert want.cell.size == want.grid_roots.size == 0
            assert _roots(want, want.fa) == []
    if name.startswith(("thm34", "cor33", "rotation")):
        assert len(located) >= 14


def test_the_projective_documents_are_many_and_mostly_located():
    """The parity test above covers all three kinds of word on seeds 0-4."""
    counts = {kind: 0 for kind in ("located", "none", "gated")}
    for name, ifs, max_len in PROJECTIVE:
        for _, cells in word_cells(ifs, max_len):
            counts["gated" if cells is None else "located" if cells else "none"] += 1
    assert len(PROJECTIVE) >= 3 + 40
    assert counts["located"] > counts["gated"] > 0 and counts["none"] > 0


@pytest.mark.parametrize("ifs, max_len", [
    # entries near 1e6 ** 4 and beyond: a * d - b * c would cancel
    (IfsSystem([NorthSouth(0.1, 1e6), Rotation(0.3)]), 4),
    (IfsSystem([NorthSouth(0.1, 1e6), Rotation(0.3)]), 6),
    # a multiplier within 1e-7 of 1, beside a flip whose square is the identity
    (IfsSystem([NorthSouth(0.37, 1.0000001), Flip()]), 4),
], ids=["huge_4", "huge_6", "near_identity"])
def test_words_the_matrix_cannot_place_match_reference(ifs, max_len):
    gated = [w for w, cells in word_cells(ifs, max_len) if cells is None]
    assert gated
    assert repr(periodic_points(ifs, max_len)) == repr(oracle.periodic_points(ifs, max_len))


def test_thm34_identity_words_lift_their_whole_grid():
    """(1, 2) and (3, 4), a map followed by its inverse, sit at +-I, where
    the matrix places nothing; their grid lifts find the identity, and the
    first of them carries the 512 samples."""
    ifs = build_example("thm34_ns_rotation").system
    cells = dict(word_cells(ifs, 2))
    assert cells[(1, 2)] is None and cells[(3, 4)] is None
    pts = periodic_points(ifs, 2)
    assert repr(pts) == repr(oracle.periodic_points(ifs, 2))
    assert [p.value for p, w in pts if w == (1, 2)] == [(i + 0.5) / 512 for i in range(512)]


@pytest.mark.parametrize("ifs, max_len, word", [
    (build_example("rotation_flip").system, 4, (2, 2)),
    # every even-length word is the identity
    (IfsSystem([Rotation(0.5)]), 6, (1, 1)),
], ids=["rotation_flip", "half_turn"])
def test_identity_words_are_sampled_once_for_the_least_index(ifs, max_len, word):
    pts = periodic_points(ifs, max_len)
    assert repr(pts) == repr(oracle.periodic_points(ifs, max_len))
    samples = [(i + 0.5) / 512 for i in range(512)]
    assert [p.value for p, w in pts if w == word] == samples


def test_an_identity_generator_gives_512_periodic_samples():
    """The system's fixed-point table holds 16 samples for a map fixing
    every point; such a generator's word must still give the 512 samples of
    any identity word."""
    ifs = IfsSystem([Rotation(0.0), NorthSouth(0.3, 2.0)])
    assert [letter for letter, _ in ifs.generator_fixed_points()].count(1) == 16
    for max_len in (1, 2):
        pts = periodic_points(ifs, max_len)
        assert [p.value for p, w in pts if w == (1,)] == [(i + 0.5) / 512 for i in range(512)]
        assert repr(pts) == repr(oracle.periodic_points(ifs, max_len))


def test_periodic_points_walk_a_long_one_letter_tree_without_recursion():
    # every fourth word is the identity; the first of them witnesses all samples
    pts = periodic_points(IfsSystem([Rotation(0.25)]), 1500)
    assert [p.value for p, _ in pts] == [(i + 0.5) / 512 for i in range(512)]
    assert {w for _, w in pts} == {(1, 1, 1, 1)}


def test_expanding_2000_fixed_points():
    recs = fixed_points(Expanding(2000))
    assert len(recs) == 1999
    assert {r.classification for r in recs} == {"repelling"}
    for j, rec in enumerate(recs):
        assert abs(rec.location.value - j / 1999) <= 1e-12
