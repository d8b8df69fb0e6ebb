import math

import numpy as np
import pytest

import ifs_lab.semigroup as semigroup
from ifs_lab import (GALLERY_NAMES, DEFAULT_RESOLUTION, Flip, IfsSystem, NonInvertible,
                     Rotation, build_example, circ_dist, compose_word, concat, fixed_points,
                     periodic_points, word_derivative)
from ifs_lab.cli import run_analyze
from ifs_lab.properties import PROPERTY_NAMES
from ifs_lab.semigroup import orbit_cloud
from ifs_lab.symbolic import enumerate_words

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CELL = 1e-9


def random_words(rng, k, n, max_len=6):
    out = []
    for _ in range(n):
        length = int(rng.integers(0, max_len + 1))
        out.append(tuple(int(v) for v in rng.integers(1, k + 1, size=length)))
    return out


def test_compose_examples(rotation_flip):
    quarter = IfsSystem([Rotation(0.25)])
    assert compose_word(quarter, (), 0.37).value == pytest.approx(0.37)
    assert compose_word(quarter, (1, 1), 0.1).value == pytest.approx(0.6, abs=1e-15)
    # the flip squared is the identity
    for x in (0.0, 0.31, 0.77):
        assert compose_word(rotation_flip, (2, 2), x).value == pytest.approx(x, abs=1e-15)


def test_word_application_order(hinge_system):
    # letters apply left to right: first letter first
    x = 0.3
    y = compose_word(hinge_system, (3, 1), x).value
    step = hinge_system.generators[2].eval(x)
    assert y == pytest.approx(hinge_system.generators[0].eval(step), abs=1e-15)


def test_homomorphism_property(hinge_system):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        u = random_words(rng, hinge_system.k, 1)[0]
        v = random_words(rng, hinge_system.k, 1)[0]
        x = rng.random()
        via_concat = compose_word(hinge_system, concat(u, v), x)
        stepwise = compose_word(hinge_system, v, compose_word(hinge_system, u, x))
        assert circ_dist(via_concat, stepwise) <= 1e-12


def test_inverse_words_return(ns_rotation_sym):
    rng = np.random.default_rng(43)
    for _ in range(300):
        w = random_words(rng, ns_rotation_sym.k, 1)[0]
        x = rng.random()
        y = ns_rotation_sym.apply_word(w, x)
        back = ns_rotation_sym.apply_inverse_word(w, y)
        assert circ_dist(back, x) <= 1e-12


def test_isometry_systems_preserve_distance(rotation_flip):
    rng = np.random.default_rng(44)
    for _ in range(500):
        w = random_words(rng, 2, 1, max_len=10)[0]
        x, y = rng.random(), rng.random()
        dx = circ_dist(compose_word(rotation_flip, w, x), compose_word(rotation_flip, w, y))
        assert abs(dx - circ_dist(x, y)) <= 1e-12


def test_word_derivative_examples(golden_rotation, doubling, ns_rotation_sym):
    assert word_derivative(golden_rotation, (1, 1, 1), 0.2) == 1.0
    assert word_derivative(doubling, (1, 1, 1), 0.9) == 8.0
    # finite-difference oracle on a mixed word
    w = (1, 3, 2, 4, 1)
    x = 0.3217
    h = 1e-7
    fd = (ns_rotation_sym.apply_word(w, x + h) - ns_rotation_sym.apply_word(w, x - h))
    fd = ((fd + 0.5) % 1.0 - 0.5) / (2 * h)
    assert word_derivative(ns_rotation_sym, w, x) == pytest.approx(fd, abs=1e-4)


def test_word_derivative_concat_product(ns_rotation_sym):
    rng = np.random.default_rng(45)
    for _ in range(200):
        u = random_words(rng, 4, 1)[0]
        v = random_words(rng, 4, 1)[0]
        x = rng.random()
        d_all = word_derivative(ns_rotation_sym, concat(u, v), x)
        mid = ns_rotation_sym.apply_word(u, x)
        d_split = word_derivative(ns_rotation_sym, u, x) * word_derivative(ns_rotation_sym, v, mid)
        assert d_all == pytest.approx(d_split, rel=1e-10)


def test_a_system_needs_a_generator():
    with pytest.raises(ValueError, match="^need at least one generator"):
        IfsSystem([])


def test_a_system_has_at_most_as_many_generators_as_an_int16_letter_holds():
    assert semigroup.MAX_GENERATORS == 2 ** 15 - 1
    assert IfsSystem([Flip()] * semigroup.MAX_GENERATORS).k == 32767
    with pytest.raises(ValueError, match="at most 32767, got 32768$"):
        IfsSystem([Flip()] * 32768)


def orbit_words(ifs, x, depth, cap=100_000, inverse=False):
    """(value, witness word) per point of the forward orbit of x, or of its
    backward orbit through `inverse_system()`; a backward cloud applies
    inverse letters in path order, so the word carrying a point back to x
    is that path reversed."""
    cloud = orbit_cloud(ifs.inverse_system() if inverse else ifs, x, depth, cap, merge=CELL)
    words = cloud.words_for(np.arange(cloud.values.size))
    return list(zip(cloud.values.tolist(), [w[::-1] if inverse else w for w in words]))


def test_forward_orbit_depth_zero(golden_rotation):
    assert orbit_words(golden_rotation, 0.3, 0) == [(0.3, ())]


def test_forward_orbit_quarter_rotation():
    # oracle: exhaustive enumeration of the 4-cycle
    quarter = IfsSystem([Rotation(0.25)])
    expected = sorted((0.25 * i) % 1.0 for i in range(4))
    for depth in (3, 5, 10):
        cloud = orbit_cloud(quarter, 0.0, depth, 100_000, merge=CELL)
        assert sorted(cloud.values) == [pytest.approx(v, abs=1e-12) for v in expected]


def test_forward_orbit_fixed_point_of_hinges(hinge_system):
    assert orbit_cloud(hinge_system, 0.0, 8, 100_000, merge=CELL).values.tolist() == [0.0]


def test_forward_orbit_witnesses_replay(hinge_system):
    orb = orbit_words(hinge_system, 0.31, 4, cap=500)
    for p, w in orb:
        assert circ_dist(hinge_system.apply_word(w, 0.31), p) <= 1e-12
    assert len(orb) <= 500


@pytest.mark.parametrize("inverse", [False, True])
def test_orbit_witnesses_are_shortest(ns_rotation_sym, inverse):
    # oracle: every word up to the depth, applied letter by letter, its
    # image keyed by the merge cell it lies in
    x, depth = 0.42, 3
    apply = ns_rotation_sym.apply_inverse_word if inverse else ns_rotation_sym.apply_word
    scale = round(1.0 / CELL)
    shortest = {}
    for w in enumerate_words(ns_rotation_sym.k, depth):
        shortest.setdefault(math.floor(apply(w, x) * scale), len(w))
    orb = orbit_words(ns_rotation_sym, x, depth, inverse=inverse)
    assert len(orb) == len(shortest)
    for p, w in orb:
        assert len(w) == shortest[math.floor(p * scale)]
    # a cap keeps a prefix of the breadth-first order; each kept witness replays
    capped = orbit_words(ns_rotation_sym, x, depth, cap=20, inverse=inverse)
    assert capped == orb[:20]
    for p, w in capped:
        assert circ_dist(apply(w, x), p) <= 1e-12


def test_backward_orbit_examples(doubling):
    flip_sys = IfsSystem([Flip()])
    fwd = orbit_cloud(flip_sys, 0.3, 4, 100_000, merge=CELL)
    bwd = orbit_cloud(flip_sys.inverse_system(), 0.3, 4, 100_000, merge=CELL)
    assert sorted(fwd.values) == sorted(bwd.values)
    with pytest.raises(NonInvertible):
        doubling.inverse_system()
    quarter = IfsSystem([Rotation(0.25)])
    bwd = orbit_cloud(quarter.inverse_system(), 0.0, 6, 100_000, merge=CELL)
    assert sorted(bwd.values) == [pytest.approx(v) for v in (0.0, 0.25, 0.5, 0.75)]


def test_backward_orbit_witnesses_are_inverse_word_images(ns_rotation_sym):
    for p, w in orbit_words(ns_rotation_sym, 0.42, 3, inverse=True):
        assert circ_dist(ns_rotation_sym.apply_inverse_word(w, 0.42), p) <= 1e-12


def test_periodic_points_flip_word_is_identity(rotation_flip):
    pts = periodic_points(rotation_flip, 2)
    values = [p.value for p, _ in pts]
    assert len(values) >= 512
    gaps = np.diff(np.sort(values))
    assert gaps.max() <= 0.02
    # the flip itself fixes 0 and 1/2 with the shorter word
    witness = dict((round(p.value, 6), w) for p, w in pts)
    assert witness[0.0] == (2,)
    assert witness[0.5] == (2,)


def test_periodic_points_irrational_rotation_empty(golden_rotation):
    # oracle: n * alpha is never an integer for irrational alpha, n <= 8
    for n in range(1, 9):
        assert abs(n * GOLDEN - round(n * GOLDEN)) > 1e-6
    assert periodic_points(golden_rotation, 8) == []


def test_periodic_points_north_south(ns_alone):
    pts = periodic_points(ns_alone, 1)
    assert [round(p.value, 9) for p, _ in pts] == [0.0, 0.5]
    assert all(w == (1,) for _, w in pts)


def test_orbit_cloud_matches_forward_orbit(rotation_flip):
    # oracle: the images of 0.2 under every word of length <= 5, the first
    # per merge cell
    scale = round(1.0 / CELL)
    images = {}
    for w in enumerate_words(rotation_flip.k, 5):
        v = rotation_flip.apply_word(w, 0.2)
        images.setdefault(math.floor(v * scale), v)
    cloud = orbit_cloud(rotation_flip, 0.2, 5, 10_000, merge=CELL)
    assert sorted(cloud.values.tolist()) == sorted(images.values())
    # words reconstructed from parent links replay
    for w, v in zip(cloud.words_for(np.arange(cloud.values.size)), cloud.values.tolist()):
        assert circ_dist(rotation_flip.apply_word(w, 0.2), v) <= 1e-12


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_generator_fixed_points_in_letter_order(name):
    ifs = build_example(name).system
    table = ifs.generator_fixed_points()
    assert table == tuple((letter, rec) for letter, g in enumerate(ifs.generators, start=1)
                          for rec in fixed_points(g))
    assert ifs.generator_fixed_points() is table


def test_the_inverse_system_keeps_its_own_fixed_points(hinge_system):
    inverse = hinge_system.inverse_system()
    table = inverse.generator_fixed_points()
    assert table == tuple((letter, rec) for letter, g in enumerate(inverse.generators, start=1)
                          for rec in fixed_points(g))
    assert table != hinge_system.generator_fixed_points()
    assert hinge_system.inverse_system().generator_fixed_points() is table


def test_an_analyze_run_finds_each_generator_fixed_points_once(monkeypatch):
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return fixed_points(g, *args, **kwargs)

    monkeypatch.setattr(semigroup, "fixed_points", counted)
    res = DEFAULT_RESOLUTION.replaced(eps=0.02, r=0.02, depth=20, net_size=12, budget=4000)
    ifs = build_example("ex42_hinges").system
    run_analyze(ifs, {}, ["repelling_fixed_point"], res, {}, echo=lambda _: None)
    assert calls == list(ifs.generators)
    run_analyze(ifs, {}, list(PROPERTY_NAMES), res, {"x": 0.237}, echo=lambda _: None)
    # strong transitivity reads the fixed points of the inverse generators
    assert calls == list(ifs.generators) + list(ifs.inverse_system().generators)
