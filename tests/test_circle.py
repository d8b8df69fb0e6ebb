import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifs_lab import Arc, CirclePoint, Flip, IfsSystem, circ_dist
from ifs_lab.circle import _circ_dist_array, normalize, normalize_array
from ifs_lab.semigroup import _word_values


def test_circ_dist_examples():
    assert circ_dist(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert circ_dist(0.37, 0.37) == 0.0
    assert circ_dist(0.0, 0.5) == 0.5


def test_point_normalization():
    assert CirclePoint(1.25).value == pytest.approx(0.25)
    assert CirclePoint(-0.25).value == pytest.approx(0.75)
    assert CirclePoint(1.0).value == 0.0
    assert CirclePoint(-1e-18).value == 0.0  # snaps instead of returning 1.0


def special_values():
    """Integers, values one ulp either side of them and of the snap, tiny
    and huge magnitudes, signed zeros and non-finite values."""
    ints = np.arange(-4.0, 5.0)
    edges = np.concatenate([ints, np.nextafter(ints, -np.inf), np.nextafter(ints, np.inf)])
    return np.concatenate([edges, [2.0 ** -60, -2.0 ** -60, 1.0 - 2.0 ** -53, 1.0 - 1e-15,
                                   -1e-15, -1e-16, 2.0 ** 53, -2.0 ** 53, 2.0 ** 52 + 0.5,
                                   0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]])


def test_normalize_array_is_the_scalar_formula_bitwise():
    rng = np.random.default_rng(5)
    x = np.concatenate([special_values(), rng.uniform(-2.0, 2.0, 100_000),
                        rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 17, 100_000)])
    with np.errstate(invalid="ignore"):
        got = normalize_array(x.copy())
        by_fmod = x % 1.0
        by_fmod[by_fmod >= 1.0 - 1e-15] = 0.0
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in by_fmod.tolist()]
    finite = np.isfinite(x)
    assert ([v.hex() for v in got[finite].tolist()]
            == [normalize(v).hex() for v in x[finite].tolist()])
    assert np.isnan(got[~finite]).all()


def test_the_flip_of_zero_is_plus_zero_on_every_path():
    # -0.0 reduces to +0.0 in the scalar methods as in the array evaluator
    ifs = IfsSystem([Flip()])
    values, _ = _word_values(ifs, np.array([[1]]), np.array([0.0]))
    assert (Flip().eval(0.0).hex() == ifs.apply_word((1,), 0.0).hex()
            == Flip().eval_array(np.array([0.0]))[0].hex() == values[0].hex() == (0.0).hex())


def test_circ_dist_array_is_circ_dist_bitwise():
    rng = np.random.default_rng(6)
    # differences walking ulp by ulp across a half-turn, and random pairs
    walk = np.r_[0.5 + np.arange(-40, 41) * 2.0 ** -53, np.nextafter(0.5, 0.0)]
    a = np.concatenate([walk, walk + 0.25, [0.0, 1.0 - 2e-15], rng.random(200_000)])
    b = np.concatenate([np.zeros(walk.size), np.full(walk.size, 0.25), [1.0 - 2e-15, 0.0],
                        rng.random(200_000)])
    got = _circ_dist_array(a, b)
    assert ([v.hex() for v in got.tolist()]
            == [circ_dist(x, y).hex() for x, y in zip(a.tolist(), b.tolist())])
    d = np.abs(a - b)
    assert np.array_equal(got, np.where(d <= 0.5, d, 1.0 - d))
    # broadcast, as the detectors' block loops call it
    assert np.array_equal(_circ_dist_array(a[:50, None], b[None, :60]),
                          [[circ_dist(x, y) for y in b[:60].tolist()] for x in a[:50].tolist()])


def test_membership_wraparound():
    a = Arc(CirclePoint(0.9), 0.2)
    assert a.contains(0.95) and a.contains(0.05) and a.contains(0.1)
    assert not a.contains(0.5)
    assert Arc(CirclePoint(0.3), 1.0).contains(0.99)
    assert Arc(CirclePoint(0.3), 0.0).contains(0.3)


def test_metric_axioms_bulk():
    rng = np.random.default_rng(2024)
    pts = rng.random((10_000, 3))
    for x, y, z in pts:
        dxy, dyx = circ_dist(x, y), circ_dist(y, x)
        assert abs(dxy - dyx) <= 1e-12
        assert circ_dist(x, z) <= dxy + circ_dist(y, z) + 1e-12
        assert 0.0 <= dxy <= 0.5


@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_circ_dist_range_and_symmetry(x, y):
    d = circ_dist(CirclePoint(x), CirclePoint(y))
    assert 0.0 <= d <= 0.5
    assert d == circ_dist(CirclePoint(y), CirclePoint(x))


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_normalization_total(x):
    assert 0.0 <= CirclePoint(x).value < 1.0
