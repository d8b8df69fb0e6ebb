"""The multi-source orbit kernel against the one-root reference in
`orbit_oracle`.

Every source of a multi-root `orbit_cloud` call must visit, bitwise, the
same values with the same parents and letters, reach the same depth and
empty out exactly when the lone search from its root does; the orbit
verdicts built on the kernel must equal those built on the reference.  The
fresh-cell step that the orbit and arc searches share must equal the
`np.unique` form it replaced, however `argsort` orders ties.

A system of rotations and flips is certified almost periodic, not
searched; the reference's search still holds on such systems wherever
its bounds reach far enough.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

import ifs_lab.certify as certify
import ifs_lab.detectors as detectors

import orbit_oracle as oracle
from ifs_lab import (DEFAULT_RESOLUTION, Expanding, Flip, IfsSystem, NorthSouth, Resolution,
                     Rotation, almost_periodic_verdict, build_example, minimality_verdict,
                     sensitivity_witness_from_nonminimality, strong_transitivity_verdict)
from ifs_lab.cli import load_system_file, system_from_config
from ifs_lab.detectors import (_Coverage, _Density, _cyclic_gaps, _orbit_chunks,
                               _repeller_steering_data, max_cyclic_gap, system_net)
from orbit_oracle import max_cyclic_gap as reference_gap
from ifs_lab.semigroup import STOP_REASONS, _fresh_cells, orbit_cloud
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


def check_all(ifs, roots, depth, cap, merge, inverse=False):
    """The kernel on ifs (or on its inverse system) against the reference
    on ifs (or with the inverse generators)."""
    gens = ifs.inverse_system().generators if inverse else None
    cloud = orbit_cloud(ifs.inverse_system() if inverse else ifs, roots, depth, cap, merge=merge)
    assert cloud.depth_reached == int(cloud.depths.max())
    for j, x in enumerate(roots.tolist()):
        ref = oracle.orbit_cloud(ifs, x, depth, cap, generators=gens, merge=merge)
        assert_same_source(cloud, j, ref)
        reason = "exhausted" if ref.exhausted else "budget" if ref.values.size >= cap else "depth"
        assert cloud.stop[j] == reason
    return cloud


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
@pytest.mark.parametrize("merge", [CELL], ids=["eps/8"])
def test_every_source_matches_the_lone_search(ifs, merge):
    roots = roots_of(ifs)
    for depth, cap in ((10, 100_000), (25, 3000), (8, 1)):
        check_all(ifs, roots, depth, cap, merge)


@pytest.mark.parametrize("ifs", [s for s in SYSTEMS if s.all_invertible],
                         ids=[i for s, i in zip(SYSTEMS, IDS) if s.all_invertible])
def test_inverse_generators_match_the_lone_search(ifs):
    check_all(ifs, roots_of(ifs), 12, 50_000, CELL, inverse=True)


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


def test_cell_values_hold_every_source_point_at_every_level():
    """At every level, `cell_values` and `cell_source` are plain arrays that
    hold every point so far of every source, stopped or running, ordered by
    (source, merge cell), as recomputed from the cloud's `values` and
    `source` columns, whose rows are in visit order."""
    ifs = build_example("thm34_ns_rotation").system
    roots = np.linspace(0.01, 0.99, 12)
    scale = round(1.0 / CELL)
    levels = []

    def test(level):
        assert type(level.cell_values) is np.ndarray and type(level.cell_source) is np.ndarray
        levels.append((level.values.size, level.cell_values.copy(), level.cell_source.copy()))
        # all but two sources stop at level 2; their cells stay held
        return np.arange(roots.size) >= 2 if len(levels) == 2 else np.zeros(roots.size, bool)

    cloud = orbit_cloud(ifs, roots, 8, 100_000, stop_when=test, merge=CELL)
    assert cloud.stop.count("found") == roots.size - 2 and len(levels) > 4
    held = roots.size
    for size, cell_values, cell_source in levels:
        held += size
        v, src = cloud.values[:held], cloud.source[:held]
        order = np.lexsort((np.floor(v * scale) % scale, src))
        np.testing.assert_array_equal(cell_values, v[order])
        np.testing.assert_array_equal(cell_source, src[order])
    assert held == cloud.values.size


def test_one_root_is_the_one_source_case(rotation_flip):
    for x in (0.2, np.float64(0.7)):
        cloud = orbit_cloud(rotation_flip, x, 9, 10_000, merge=CELL)
        ref = oracle.orbit_cloud(rotation_flip, x, 9, 10_000, merge=CELL)
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


def unique_fresh_cells(keys, seen):
    """The fresh-cell step as `np.unique(return_index=True)` and a
    `searchsorted` wrote it."""
    uk, first = np.unique(keys, return_index=True)
    at = np.searchsorted(seen, uk)
    new = seen[np.minimum(at, seen.size - 1)] != uk if seen.size else np.ones(uk.size, bool)
    return first[new], uk[new], at[new]


def test_fresh_cells_match_the_unique_and_searchsorted_form():
    rng = np.random.default_rng(43)
    none = np.zeros(0, dtype=np.int64)
    cases = [(np.array([5]), none), (np.array([5]), np.array([5])),
             (np.array([5]), np.array([2, 9])), (np.full(300, 3), none),
             (np.full(300, 3), np.array([3])), (np.full(300, 3), np.array([1, 7]))]
    for _ in range(200):
        # few distinct values: long runs of duplicates
        keys = rng.integers(0, int(rng.integers(1, 80)), int(rng.integers(1, 3000)))
        seen = np.unique(np.r_[rng.choice(keys, int(rng.integers(0, 6))),
                               rng.integers(-5, 90, int(rng.integers(0, 6)))])
        cases += [(keys, seen), (keys, none)]
    for keys, seen in cases:
        # the same keys in other orders, so that argsort meets its ties differently
        for order in (np.arange(keys.size), np.arange(keys.size)[::-1],
                      rng.permutation(keys.size)):
            want, got = unique_fresh_cells(keys[order], seen), _fresh_cells(keys[order], seen)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
def test_orbit_verdicts_equal_the_reference_verdicts(ifs, monkeypatch):
    """The reference searches minimality on every system, and certifies
    almost periodicity on rotations and flips as the library does; the
    library certifies their minimality too, so it is searched here with
    that certificate off."""
    for name in ("minimality", "strong_transitivity"):
        monkeypatch.setattr(certify, name, lambda *args: None)
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


def test_the_searched_reference_holds_on_rotation_flip_at_the_benchmark_resolution():
    """The benchmark's heavy almost-periodicity job, now certified: its
    501 closure points' orbits, searched one root at a time, each come
    within eps of every closure point."""
    ifs = build_example("rotation_flip").system
    res = DEFAULT_RESOLUTION.replaced(eps=0.002, depth=400)
    v = oracle.searched_almost_periodic_verdict(ifs, 0.0, res)
    assert v.holds and v.witnesses == {"base_point": 0.0, "closure_size": 501}
    assert almost_periodic_verdict(ifs, 0.0, res).witnesses["certified"] is True


def bench_systems():
    """bench/systems.py, which generates the random_systems documents."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "systems.py"
    spec = importlib.util.spec_from_file_location("bench_systems", path)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    return systems


def test_the_searched_reference_holds_deeper_on_depth_bounded_isometry_negatives():
    """The all-isometry documents of random seeds 0-39 whose searched
    almost periodicity at x = 0.3 failed at the random_systems resolution:
    eight by its depth bound, 30, hold at depth 240.  The ninth,
    tests/data/random_4_33.json, runs out of fresh cells at eps/8 at any
    depth (see `_merge_cell`); the certificate holds on all nine."""
    res = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)
    systems = bench_systems()
    for seed, i in [(2, 39), (9, 30), (13, 26), (16, 12), (22, 15), (24, 11), (25, 35),
                    (38, 40)]:
        ifs = system_from_config(systems.random_documents(seed)[i])
        assert ifs.all_isometries
        bounded = oracle.searched_almost_periodic_verdict(ifs, 0.3, res)
        assert not bounded.holds and bounded.witnesses["stop_reason"] == "depth", (seed, i)
        assert oracle.searched_almost_periodic_verdict(ifs, 0.3, res.replaced(depth=240)).holds
        assert almost_periodic_verdict(ifs, 0.3, res).holds
    ifs = load_system_file(str(pathlib.Path(__file__).parent / "data" / "random_4_33.json"))
    assert system_from_config(systems.random_documents(4)[33]).generators == ifs.generators
    for depth in (30, 240):
        v = oracle.searched_almost_periodic_verdict(ifs, 0.3, res.replaced(depth=depth))
        assert not v.holds and v.witnesses["stop_reason"] == "exhausted"
        assert v.witnesses["unreached_distance"] > res.eps
    assert almost_periodic_verdict(ifs, 0.3, res).holds


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


@pytest.mark.parametrize("cap", [1, 3, 50])
def test_no_root_holds_more_points_than_its_chunks_are_sized_by(chunk_ceilings, cap):
    """Chunks of roots are sized by the ceiling the orbit searches pass
    `_chunks`, so no root's orbit may hold more points than that,
    at merge cells of eps/8 for eps 0.4 (20 cells, fewer than a cap of 50)
    and 0.02 (400 cells); and the ceiling is tight: some root reaches it."""
    ceilings = chunk_ceilings(detectors)
    for eps in (0.4, 0.02):
        res = DEFAULT_RESOLUTION.replaced(eps=eps, depth=30, budget=cap)
        most = 0
        for ifs in SYSTEMS:
            for _, cloud, _ in _orbit_chunks(ifs, system_net(ifs, 20), res, lambda chunk: None):
                held = int(np.bincount(cloud.source).max())
                assert held <= ceilings[-1], ifs
                most = max(most, held)
        assert most == ceilings[-1], eps


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
