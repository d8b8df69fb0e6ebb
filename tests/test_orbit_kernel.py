"""The multi-source orbit kernel against the one-root reference in
`orbit_oracle`.

Every source of a multi-root `orbit_cloud` call must visit, bitwise, the
same values with the same parents and letters, reach the same depth and
empty out exactly when the lone search from its root does; the orbit
verdicts built on the kernel must equal those built on the reference.
"""

import json

import numpy as np
import pytest

import ifs_lab.detectors as detectors

import orbit_oracle as oracle
from ifs_lab import (DEFAULT_RESOLUTION, Expanding, Flip, IfsSystem, NorthSouth, Rotation,
                     almost_periodic_verdict, build_example, minimality_verdict,
                     sensitivity_witness_from_nonminimality, strong_transitivity_verdict)
from ifs_lab.detectors import (_Coverage, _Density, _cyclic_gaps, _repeller_steering_data,
                               max_cyclic_gap, system_net)
from orbit_oracle import max_cyclic_gap as reference_gap
from ifs_lab.semigroup import STOP_REASONS, orbit_cloud
from test_arc_kernel import IDS, SYSTEMS

EPS = 0.01
CELL = EPS / 8.0


def roots_of(ifs, n=6):
    """Net points plus a few generic roots, in no particular order."""
    return np.array(system_net(ifs, n)[::-1] + [0.237, 0.9999, 0.5])


def assert_same_source(cloud, j, ref):
    """Source j of the kernel's cloud against the reference's lone cloud."""
    alone = cloud.of(j)
    np.testing.assert_array_equal(alone.values, ref.values)
    np.testing.assert_array_equal(alone.parents, ref.parents)
    np.testing.assert_array_equal(alone.letters, ref.letters)
    assert int(cloud.depths[j]) == ref.depth_reached
    assert (cloud.stop[j] == "exhausted") == ref.exhausted
    assert cloud.stop[j] in STOP_REASONS
    # the whole-cloud rows of source j carry the same values in the same order
    np.testing.assert_array_equal(cloud.values[cloud.source == j], ref.values)


def check_all(ifs, roots, depth, cap, merge, generators=None):
    cloud = orbit_cloud(ifs, roots, depth, cap, generators=generators, merge=merge)
    assert cloud.depth_reached == int(cloud.depths.max())
    for j, x in enumerate(roots.tolist()):
        ref = oracle.orbit_cloud(ifs, x, depth, cap, generators=generators, merge=merge)
        assert_same_source(cloud, j, ref)
        reason = "exhausted" if ref.exhausted else "budget" if ref.values.size >= cap else "depth"
        assert cloud.stop[j] == reason
    return cloud


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
@pytest.mark.parametrize("merge", [None, CELL], ids=["dedup", "eps/8"])
def test_every_source_matches_the_lone_search(ifs, merge):
    roots = roots_of(ifs)
    for depth, cap in ((10, 100_000), (25, 3000), (8, 1)):
        check_all(ifs, roots, depth, cap, merge)


@pytest.mark.parametrize("ifs", [s for s in SYSTEMS if s.all_invertible],
                         ids=[i for s, i in zip(SYSTEMS, IDS) if s.all_invertible])
def test_inverse_generators_match_the_lone_search(ifs):
    inverse = ifs.inverse_system().generators
    for merge in (None, CELL):
        check_all(ifs, roots_of(ifs), 12, 50_000, merge, generators=inverse)


def test_a_cap_cuts_each_source_mid_level():
    ifs = build_example("thm34_ns_rotation").system
    roots = roots_of(ifs)
    for cap in (2, 3, 7, 100, 101, 257):
        cloud = check_all(ifs, roots, 30, cap, CELL)
        assert (np.bincount(cloud.source) == cap).all()
        assert set(cloud.stop) == {"budget"}


def test_sources_of_one_call_stop_at_different_levels():
    ifs = IfsSystem([Rotation(0.25), NorthSouth(0.0, 2.0)])
    roots = np.array([0.0, 0.5, 0.1, 0.3])
    cloud = check_all(ifs, roots, 40, 100_000, CELL)
    assert len(set(cloud.depths.tolist())) > 1
    assert "exhausted" in cloud.stop


def test_a_source_that_empties_out_is_exhausted_whatever_its_test_says():
    ifs = IfsSystem([Rotation(0.0), Rotation(0.25)])
    roots = np.array([0.0, 0.1])
    cloud = orbit_cloud(ifs, roots, 10, 1000, stop_when=lambda level: np.ones(2, dtype=bool),
                        merge=CELL)
    assert cloud.stop == ["found", "found"]
    cloud = orbit_cloud(IfsSystem([Rotation(0.0)]), roots, 10, 1000,
                        stop_when=lambda level: np.ones(2, dtype=bool), merge=CELL)
    assert cloud.stop == ["exhausted", "exhausted"] and cloud.depths.tolist() == [1, 1]


def test_one_root_is_the_one_source_case(rotation_flip):
    for x in (0.2, np.float64(0.7)):
        cloud = orbit_cloud(rotation_flip, x, 9, 10_000)
        ref = oracle.orbit_cloud(rotation_flip, x, 9, 10_000)
        assert_same_source(cloud, 0, ref)
        np.testing.assert_array_equal(cloud.values, ref.values)
        assert cloud.depth_reached == ref.depth_reached


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_density_stop_matches_the_resorting_gap_stop(ifs):
    """Every source runs (every=True) until the gap test of the old
    per-level re-sort would stop it, and its recorded gap and midpoint are
    `max_cyclic_gap` of its cloud."""
    res = DEFAULT_RESOLUTION.replaced(depth=30, budget=5000, eps=0.02)
    target = 2.0 * res.eps
    roots = roots_of(ifs)
    test = _Density(target, True, roots)
    cloud = orbit_cloud(ifs, roots, res.depth, res.budget, stop_when=test, merge=res.eps / 8.0)
    for j, x in enumerate(roots.tolist()):
        ref = oracle.orbit_cloud(ifs, x, res.depth, res.budget,
                                 stop_when=oracle.gap_stop(target), merge=res.eps / 8.0)
        assert_same_source(cloud, j, ref)
        assert (test.gap[j], test.mid[j]) == reference_gap(ref.values)


def test_density_stop_fires_at_exactly_one_over_target_points():
    """Four points a quarter apart are 0.25-dense: the search from 0 under a
    quarter turn stops at level 3, before it would empty out."""
    target = 0.25
    test = _Density(target, True, np.array([0.0]))
    cloud = orbit_cloud(IfsSystem([Rotation(0.25)]), 0.0, 10, 1000, stop_when=test, merge=0.01)
    ref = oracle.orbit_cloud(IfsSystem([Rotation(0.25)]), 0.0, 10, 1000,
                             stop_when=oracle.gap_stop(target), merge=0.01)
    assert_same_source(cloud, 0, ref)
    assert cloud.stop == ["found"] and cloud.depth_reached == 3
    assert (test.gap[0], test.mid[0]) == (0.25, 0.125)


def test_coverage_marks_every_pair_the_float_test_passes():
    """Pairs a rounding inside or outside eps, across 0 and far apart."""
    eps = 0.01
    closure = np.array([0.0, 0.1, 0.3, 0.5, 0.75])
    values = np.array([0.11, 0.74, 0.99, 0.995, 0.29, 0.2, 0.3, 0.505])
    src = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    cover = _Coverage(closure, eps, np.array([0.5, 0.6, 0.7]))
    cover._mark(values, src)
    every = np.r_[[0.5, 0.6, 0.7], values]
    owner = np.r_[[0, 1, 2], src]
    d = np.abs(closure[None, :] - every[:, None])
    near = np.minimum(d, 1.0 - d) <= eps
    np.testing.assert_array_equal(cover.covered,
                                  [near[owner == j].any(axis=0) for j in range(3)])
    # |0.1 - 0.11| rounds just below eps; |0.75 - 0.74|, 1 - 0.99 and
    # |0.3 - 0.29| just above
    assert cover.covered.tolist() == [[False, True, True, True, False],
                                      [True, False, False, True, False],
                                      [False] * 5]


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_coverage_stop_matches_the_resorting_distance_stop(ifs):
    """Up to the first source that ends uncovered (the later ones are
    dropped), each source stops where the old `distances` test stops it,
    and its coverage row is that test's verdict on its cloud."""
    eps = 0.02
    closure = np.array(sorted(set(system_net(ifs, 30))))
    roots = closure[::3]
    test = _Coverage(closure, eps, roots)
    cloud = orbit_cloud(ifs, roots, 25, 4000, stop_when=test, merge=eps / 8.0)
    for j, y in enumerate(roots.tolist()):
        ref = oracle.orbit_cloud(ifs, y, 25, 4000, stop_when=oracle.cover_stop(closure, eps),
                                 merge=eps / 8.0)
        assert_same_source(cloud, j, ref)
        near = oracle.distances(closure, ref.values) <= eps
        np.testing.assert_array_equal(test.covered[j], near)
        if not near.all():
            # the later sources ran no level past the one where this one ended
            assert (cloud.depths[j + 1:] <= cloud.depths[j]).all()
            break


def test_cyclic_gaps_equal_the_scalar_max_cyclic_gap_bitwise():
    rng = np.random.default_rng(5)
    sizes = [1, 2, 3, 1, 17, 400, 2, 1]
    segs = [np.sort(rng.random(m)) for m in sizes]
    segs[2] = np.array([0.1, 0.5, 0.9])   # equal largest gaps: the first wins
    segs[5][:3] = [0.001, 0.002, 0.003]
    s = np.concatenate(segs)
    seg = np.repeat(np.arange(len(sizes)) * 2, sizes)  # odd ids have no values
    gap, mid = _cyclic_gaps(s, seg, 2 * len(sizes))
    for i, v in enumerate(segs):
        assert (gap[2 * i], mid[2 * i]) == reference_gap(v) == max_cyclic_gap(v[::-1])
        assert gap[2 * i + 1] == np.inf
    assert max_cyclic_gap(np.array([])) == reference_gap(np.array([])) == (1.0, 0.0)


def test_orbit_keys_that_cannot_fit_an_int64_are_refused(rotation_flip):
    with pytest.raises(ValueError, match="too fine"):
        orbit_cloud(rotation_flip, np.linspace(0.0, 0.9, 8), 3, 100, merge=1e-18)


def verdicts(ifs, res, x=0.237):
    out = [minimality_verdict(ifs, res), almost_periodic_verdict(ifs, x, res)]
    if ifs.all_invertible:
        out.append(strong_transitivity_verdict(ifs, res))
    return [json.dumps(v.to_dict(), sort_keys=True) for v in out]


def reference_verdicts(ifs, res, x=0.237):
    out = [oracle.minimality_verdict(ifs, res), oracle.almost_periodic_verdict(ifs, x, res)]
    if ifs.all_invertible:
        out.append(oracle.strong_transitivity_verdict(ifs, res))
    return [json.dumps(v.to_dict(), sort_keys=True) for v in out]


RESOLUTIONS = [DEFAULT_RESOLUTION.replaced(net_size=30),
               DEFAULT_RESOLUTION.replaced(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02),
               DEFAULT_RESOLUTION.replaced(net_size=10, depth=4, budget=60)]


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_orbit_verdicts_equal_the_reference_verdicts(ifs):
    for res in RESOLUTIONS:
        assert verdicts(ifs, res) == reference_verdicts(ifs, res)


def test_a_failing_root_reports_its_own_depth_not_its_chunks():
    """The fixed point 0.25 empties out at level 2 while the roots before it
    in its chunk run on to level 6."""
    ifs = IfsSystem([NorthSouth(0.25, 3.0), Expanding(3)])
    res = DEFAULT_RESOLUTION.replaced(net_size=10, depth=8, budget=5000, eps=0.05)
    v = almost_periodic_verdict(ifs, 0.237, res)
    assert v.witnesses["witness_y"] == 0.25 and v.witnesses["depth_reached"] == 2
    assert v.to_dict() == oracle.almost_periodic_verdict(ifs, 0.237, res).to_dict()


def test_orbit_verdicts_do_not_depend_on_chunking(monkeypatch):
    """Roots are independent: many to a chunk or one each, the verdicts and
    the witness pipeline are the same."""
    systems = [build_example("thm34_ns_rotation").system, build_example("ex42_hinges").system,
               IfsSystem([NorthSouth(0.0, 2.0), Rotation(0.5)])]
    res = DEFAULT_RESOLUTION.replaced(net_size=40, depth=30, budget=4000)

    def run():
        out = [verdicts(ifs, res, 0.1) for ifs in systems]
        delta, witness = sensitivity_witness_from_nonminimality(systems[2], res)
        return out, delta, witness.to_dict()

    together = run()
    monkeypatch.setattr(detectors, "_FIRST_ORBITS", 1)
    monkeypatch.setattr(detectors, "_CHUNK_NODES", 1)
    assert run() == together
    monkeypatch.setattr(detectors, "_FIRST_ORBITS", 1000)
    monkeypatch.setattr(detectors, "_CHUNK_NODES", 1 << 30)
    assert run() == together


def test_repeller_steering_clouds_match_lone_backward_searches():
    ifs = build_example("thm34_ns_rotation").system
    res = DEFAULT_RESOLUTION.replaced(depth=15, budget=3000)
    steering = _repeller_steering_data(ifs, res)
    assert steering
    inverse = ifs.inverse_system().generators
    for q, _letter, cloud in steering:
        ref = oracle.orbit_cloud(ifs, q, res.depth, res.budget, generators=inverse,
                                 merge=res.eps / 8.0)
        assert_same_source(cloud, 0, ref)


def test_steering_is_empty_without_inverses_or_repellers(golden_rotation):
    assert _repeller_steering_data(IfsSystem([Expanding(2), Flip()]), DEFAULT_RESOLUTION) == []
    assert _repeller_steering_data(golden_rotation, DEFAULT_RESOLUTION) == []
