"""The batched arc-image kernel against the scalar reference in `arc_oracle`.

Every source of a batch must see, level by level, the same words in the same
order, keep the same frontier, spend the same number of words and stop for
the same reason as the one-source-at-a-time search it replaced.

Sensitivity's strategy skips against the full composition in
`strategy_oracle`: the BFS stopped at the 1/2 cap, the chains stopped once
capped, and the cascade that runs each strategy only where no earlier one
reached the cap pick what running everything everywhere picks; and on a
system of rotations and flips, which is certified instead, the search finds
nothing beyond rounding.
"""

import math
import pathlib
from collections import Counter

import numpy as np
import pytest

import ifs_lab.detectors as detectors

import arc_oracle as oracle
import strategy_oracle
from arc_oracle import (TargetSet, arc_search, array_map, greedy_chain, greedy_keep,
                        map_arc_raw, steered_candidate)
from ifs_lab import (Arc, CirclePoint, Expanding, Flip, GALLERY_NAMES, IfsSystem, NorthSouth,
                     PiecewiseLinear, Rotation, build_example, cofinite_sensitivity_verdict,
                     constant_rule, greedy_diameter_rule, minimality_verdict,
                     s_transitivity_verdict, sensitivity_witness_from_nonminimality,
                     separation_times, topological_transitivity_verdict)
from ifs_lab.cli import load_system_file
from ifs_lab.detectors import (_arc_keys, _arc_search, _bfs_best, _covers, _dominance_keep,
                               _expand, _greedy_chains, _net_arcs, _prior_max,
                               _repeller_steering_data, _rule_paths, _stable_argsort, _steered_candidates, _target_cells,
                               _targets_below, sensitivity_estimate, system_net,
                               DEFAULT_RESOLUTION, Resolution)
from ifs_lab.generators import map_arcs
from ifs_lab.properties import evaluate_property
from test_cover_kernel import BENCH_RES, random_systems as seeded_systems
from test_detectors import pattern_rule

DATA = pathlib.Path(__file__).parent / "data"
EPS = R = 0.01
CELL = EPS / 8.0


def random_generator(rng, kind):
    if kind == "rotation":
        return Rotation(float(rng.uniform(0.05, 0.95)))
    if kind == "flip":
        return Flip()
    if kind == "north_south":
        return NorthSouth(float(rng.random()), float(rng.uniform(1.2, 4.0)))
    if kind == "expanding":
        return Expanding(int(rng.integers(2, 4)))
    xs = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(1, 4))))
    ys = np.sort(rng.uniform(0.05, 0.95, xs.size))
    reverse = rng.random() < 0.3
    off = 0.0 if reverse else float(rng.uniform(0.0, 0.5))
    pts = [(0.0, off)] + [(float(x), float(y) + off) for x, y in zip(xs, ys)] + [(1.0, 1.0 + off)]
    if reverse:
        pts = [(x, -y) for x, y in pts]
    return PiecewiseLinear(tuple(pts))


KINDS = ("rotation", "flip", "north_south", "piecewise_linear", "expanding")


def random_systems(seed=7, count=6):
    rng = np.random.default_rng(seed)
    systems = []
    for i in range(count):
        kinds = [KINDS[i % 5], KINDS[(i + 2) % 5]] + ([KINDS[(i + 3) % 5]] if i % 2 else [])
        systems.append(IfsSystem([random_generator(rng, k) for k in kinds]))
    return systems


SYSTEMS = ([build_example(name).system for name in GALLERY_NAMES] + random_systems())
IDS = list(GALLERY_NAMES) + [f"random{i}" for i in range(len(SYSTEMS) - len(GALLERY_NAMES))]


def sources(ifs, n=5):
    centers = np.array(system_net(ifs, n))
    return (centers - R) % 1.0, np.full(centers.size, 2.0 * R), centers


def kernel(ifs, starts, lengths, depth, budget, targets=None, fat=0.0, stop_above=None):
    """(ArcImages, index) for each source, in source order."""
    out = []
    for images in _arc_search(ifs, starts, lengths, depth, budget, CELL, targets, fat,
                              stop_above):
        out.extend((images, j) for j in range(len(images.words)))
    assert len(out) == len(starts)
    return out


def check_source(ifs, images, j, start, length, depth, budget, visit, first_hits=None):
    """Replay one source through the reference and compare every level.

    Without `first_hits` the source must hold every arc it visits.  With
    them (a collection that `visit` fills with the words that first met a
    target), it must hold, level by level, exactly the reference's frontier
    arcs and first hits, in visit order."""
    fired = []

    def traced(w, s, ln):
        hit = visit(w, s, ln)
        if hit:
            fired.append(w)
        return hit

    levels = []
    words = arc_search(ifs, float(start), float(length), int(depth), budget, CELL, traced,
                       levels, mapper=array_map)
    assert images.words[j] == words
    assert images.depth_reached[j] == len(levels)
    nodes = np.flatnonzero(images.source == j)
    level = images.level[nodes]
    assert level.max() <= len(levels)
    assert images.words_for(nodes[level == 0]) == [()]
    for n, (visited, frontier) in enumerate(levels, start=1):
        at = nodes[level == n]
        if first_hits is not None:
            held = set(frontier) | set(first_hits)
            visited = [v for v in visited if v[0] in held]
        assert images.words_for(at) == [w for w, _, _ in visited]
        np.testing.assert_allclose(images.starts[at], [s for _, s, _ in visited],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(images.lengths[at], [ln for _, _, ln in visited],
                                   rtol=0, atol=1e-12)
        assert sorted(images.words_for(at[images.kept[at]])) == sorted(frontier)
    if fired:
        reason = "found"
    elif words >= budget:
        reason = "budget"
    elif levels and not levels[-1][1]:
        reason = "exhausted"
    else:
        reason = "depth"
    assert images.stop[j] == reason


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_kernel_matches_reference_search(ifs):
    starts, lengths, _ = sources(ifs)
    for depth, budget in ((6, 100_000), (40, 64), (40, 65), (40, 66), (40, 301)):
        for images, j in kernel(ifs, starts, lengths, depth, budget):
            check_source(ifs, images, j, starts[j], lengths[j], depth, budget,
                         lambda w, s, ln: False)


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_kernel_first_hits_and_early_stop_match_reference(ifs):
    starts, lengths, centers = sources(ifs)
    targets = np.array(system_net(ifs, 40))
    for fat, depth, budget in ((R, 12, 4000), (EPS, 30, 2000), (0.002, 8, 600)):
        for images, j in kernel(ifs, starts, lengths, depth, budget, targets, fat):
            remaining = TargetSet(targets.tolist())
            met = {}

            def visit(w, s, ln):
                for t in remaining.remove_hit(s, ln, fat):
                    met[t] = w
                return len(remaining) == 0

            check_source(ifs, images, j, starts[j], lengths[j], depth, budget, visit,
                         met.values())
            hits = images.first_hit[j]
            got = np.flatnonzero(hits >= 0)
            assert dict(zip(targets[got].tolist(), images.words_for(hits[got]))) == met


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_kernel_stop_above_and_per_source_depth_match_reference(ifs):
    starts, lengths, _ = sources(ifs)
    depths = 2 + np.arange(starts.size) % 7
    for above in (0.05, 0.3):
        for images, j in kernel(ifs, starts, lengths, depths, 1000, stop_above=above):
            check_source(ifs, images, j, starts[j], lengths[j], depths[j], 1000,
                         lambda w, s, ln: min(ln, 0.5) > above)


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_batched_sensitivity_strategies_match_reference(ifs):
    res = DEFAULT_RESOLUTION
    xs = np.repeat(np.array(system_net(ifs, 6)), 2)
    rs = np.tile([0.05, 0.0125], xs.size // 2)
    bfs, bfs_words = _bfs_best(ifs, (xs - rs) % 1.0, 2.0 * rs, 20, 150, CELL)[:2]
    chains = [_greedy_chains(ifs, xs, rs, 25, flag) for flag in (False, True)]
    steering = _repeller_steering_data(ifs, res.replaced(depth=20, budget=2000))
    steered, steered_q, steered_word = _steered_candidates(ifs, steering, xs, rs, 25)
    for i, (x, r) in enumerate(zip(xs.tolist(), rs.tolist())):
        best = [-1.0, ()]

        def visit(w, s, ln):
            if min(ln, 0.5) > best[0] + 1e-15:
                best[:] = [min(ln, 0.5), w]
            return False

        arc_search(ifs, (x - r) % 1.0, 2.0 * r, 20, 150, CELL, visit, mapper=array_map)
        assert bfs_words[i] == best[1] and bfs[i] == pytest.approx(best[0], abs=1e-12)
        for flag, (diams, word) in zip((False, True), chains):
            d, w = greedy_chain(ifs, x, r, 25, flag, mapper=array_map)
            assert word[i] == w and diams[i] == pytest.approx(d, abs=1e-12)
        ref = steered_candidate(ifs, steering, x, r, 25, mapper=array_map)
        if ref is None:
            assert steered[i] == -1.0 and steered_q[i] is None
        else:
            assert (steered_word[i], steered_q[i]) == ref[1:3]
            assert steered[i] == pytest.approx(ref[0], abs=1e-12)


def test_chunking_does_not_change_results(monkeypatch):
    """Sources are independent: many to a chunk, one each or all in one,
    the results are the same, for the search that holds every arc
    (`_bfs_best`) and for the targeted ones, which hold only their
    frontiers and first hits: transitivity, S-transitivity and the witness
    pipeline's covers of the points its cheap candidates leave open."""
    ifs = build_example("thm34_ns_rotation").system
    ex42 = build_example("ex42_hinges").system
    covered = random_systems(seed=12, count=7)[6]
    xs = np.linspace(0.003, 0.997, 400)
    rs = np.full(xs.size, 0.02)
    res = DEFAULT_RESOLUTION.replaced(net_size=60)
    targeted = []  # the sources of each targeted search
    arc_search = detectors._arc_search

    def recording(ifs, starts, lengths, depth, budget, cell, targets=None, *rest, **kw):
        if targets is not None:
            targeted.append(len(starts))
        return arc_search(ifs, starts, lengths, depth, budget, cell, targets, *rest, **kw)

    monkeypatch.setattr(detectors, "_arc_search", recording)

    def run():
        diams, words = _bfs_best(ifs, (xs - rs) % 1.0, 2.0 * rs, 20, 150, CELL)[:2]
        return (diams.tobytes(), words,
                s_transitivity_verdict(ifs, res).to_dict(),
                topological_transitivity_verdict(ex42, res).to_dict(),
                sensitivity_witness_from_nonminimality(covered, RANDOM_SYSTEMS_RES)[1].to_dict())

    together = run()
    assert min(targeted) > 1  # the witness pipeline's covering search has sources
    monkeypatch.setattr(detectors, "_FIRST_CHUNK", 1)
    for nodes in (1, 1 << 30):
        monkeypatch.setattr(detectors, "_CHUNK_NODES", nodes)
        assert run() == together


def test_the_witness_pipeline_extends_each_cover_chunk_in_one_search(monkeypatch):
    """The witness pipeline extends every cover arc of a cover-search chunk
    in one `_bfs_best` call, whether the chunk holds all 14 hard points of
    random_0_5 or a few of them; the verdict stays the same."""
    ifs = load_system_file(str(DATA / "random_0_5.json"))
    chunks, calls = [], []
    arc_search, bfs_best = detectors._arc_search, detectors._bfs_best

    def recording(ifs, starts, lengths, depth, budget, cell, targets=None, *rest, **kw):
        for images in arc_search(ifs, starts, lengths, depth, budget, cell, targets, *rest, **kw):
            if targets is not None:
                chunks.append(len(images.first_hit))
            yield images

    def counting(*args, **kw):
        calls.append(len(args[2]))
        return bfs_best(*args, **kw)

    monkeypatch.setattr(detectors, "_arc_search", recording)
    monkeypatch.setattr(detectors, "_bfs_best", counting)
    verdict = sensitivity_witness_from_nonminimality(ifs, RANDOM_SYSTEMS_RES)[1].to_dict()
    assert chunks == [14] and len(calls) == 1 and calls[0] > 14
    monkeypatch.setattr(detectors, "_FIRST_CHUNK", 1)
    monkeypatch.setattr(detectors, "_CHUNK_NODES", 1 << 13)  # two sources at the least
    chunks.clear()
    calls.clear()
    assert sensitivity_witness_from_nonminimality(ifs, RANDOM_SYSTEMS_RES)[1].to_dict() == verdict
    assert len(chunks) > 2 and max(chunks) > 1 and len(calls) == len(chunks)


def test_a_targeted_chunk_holds_its_frontier_and_first_hits(monkeypatch):
    """Each node of a targeted chunk entered a frontier or first met a
    target, and each frontier arc and first hit is a node; the arcs it
    visited but dropped make it hold fewer nodes than it visits.  A visited
    arc brings its source one fresh merge cell, so the arcs a chunk visits
    are the cells it merges into its seen cells."""
    visited = [0]  # the arcs the chunk being searched has visited so far
    merged = detectors._merged

    def counting(a, old, at, new):
        visited[0] += new.size
        return merged(a, old, at, new)

    monkeypatch.setattr(detectors, "_merged", counting)
    ifs = build_example("ex42_hinges").system
    res = DEFAULT_RESOLUTION.replaced(net_size=60)
    centers = system_net(ifs, res.net_size)
    starts, lengths = detectors._net_arcs(centers, res.r)
    chunks = 0
    for images in _arc_search(ifs, starts, lengths, res.depth, res.budget, CELL, centers, res.r):
        read = images.kept.copy()
        read[images.first_hit[images.first_hit >= 0]] = True
        assert read.all() and images.starts.size < visited[0]
        visited[0] = 0
        chunks += 1
    assert chunks > 1


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 64])
def test_no_source_holds_more_arcs_than_its_chunks_are_sized_by(chunk_ceilings, golden_rotation,
                                                                 budget):
    """Chunks are sized by the ceiling the arc search passes `_chunks`,
    so no source may hold more nodes than that, whether it stops
    at its targets, above a length or at its bounds; and the ceiling is
    tight: in each mode some source comes within one node of it.

    A targeted search holds only its frontier and first hits, so the
    targeted runs include one that holds every arc it visits: point arcs
    under a golden rotation, none of them contained in another and each
    word reaching a fresh cell, whose target no orbit meets."""
    ceilings = chunk_ceilings(detectors)
    closest = {}  # per mode, the most any source held less the ceiling
    runs = []
    for ifs in SYSTEMS:
        centers = np.array(system_net(ifs, 20))
        starts, lengths = (centers - R) % 1.0, np.full(centers.size, 2.0 * R)
        for mode, kw in (("targets", {"targets": centers, "fat": R}),
                         ("stop_above", {"stop_above": 0.3}), ("bounds", {})):
            runs.append((mode, ifs, starts, lengths, 30, kw))
    points = np.array(system_net(golden_rotation, 20))
    runs.append(("targets", golden_rotation, points, np.zeros(points.size), budget + 1,
                 {"targets": np.array([0.5]), "fat": 0.0}))
    for mode, ifs, starts, lengths, depth, kw in runs:
        for images in _arc_search(ifs, starts, lengths, depth, budget, CELL, **kw):
            held = int(np.bincount(images.source).max())
            assert held <= ceilings[-1], (ifs, mode)
            closest[mode] = max(closest.get(mode, -ceilings[-1]), held - ceilings[-1])
    assert (images.first_hit < 0).all()  # the rotation's target is out of reach
    assert len(closest) == 3 and min(closest.values()) >= -1


def cofinite_reference(ifs, delta, res, window):
    """The hardest arc (or the stuck center) of the per-arc loop over
    `separation_times` and the public rules."""
    horizon = res.depth + window
    rules = [greedy_diameter_rule()] + [constant_rule(i) for i in range(1, ifs.k + 1)]
    worst = None
    for c in system_net(ifs, res.net_size):
        found = None
        for rule in rules:
            times = set(separation_times(ifs, Arc(CirclePoint(c - res.r), 2.0 * res.r), rule,
                                         delta, horizon))
            for n in range(horizon - window + 1):
                if all(t in times for t in range(n, n + window + 1)):
                    found = {"arc_center": c, "rule": rule.label, "N": n}
                    break
            if found:
                break
        if found is None:
            return c
        if worst is None or found["N"] > worst["N"]:
            worst = found
    return worst


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_batched_cofinite_sensitivity_matches_the_rule_api(ifs):
    res = DEFAULT_RESOLUTION.replaced(net_size=8, depth=15)
    for delta, window in ((0.05, 10), (0.3, 20)):
        v = cofinite_sensitivity_verdict(ifs, delta, res, window)
        expected = cofinite_reference(ifs, delta, res, window)
        if v.holds:
            assert v.witnesses["hardest"] == expected
        else:
            assert v.witnesses["stuck_arc_center"] == expected


def first_full_windows(diams, delta, window):
    """Per chain, the first time N with every n in [N, N + window] above
    delta (-1 if none)."""
    above = np.cumsum(np.pad(diams > delta, ((0, 0), (1, 0))), axis=1)
    full = above[:, window + 1:] - above[:, :diams.shape[1] - window] == window + 1
    return np.where(full.any(axis=1), full.argmax(axis=1), -1)


def test_a_cofinite_chain_stops_at_the_end_of_its_first_full_window():
    """Each arc's first full window under a rule that stops the chain there
    equals the scan over the rule's full horizon; its diameters up to that
    window's end are the same bits, and none is recorded after it.  An arc
    that never separates runs the whole horizon."""
    res = DEFAULT_RESOLUTION.replaced(net_size=24, depth=40)
    found = Counter()
    for ifs in SYSTEMS + seeded_systems(3, 10):
        starts, lengths = _net_arcs(system_net(ifs, res.net_size), res.r)
        for rule in [greedy_diameter_rule()] + [constant_rule(i) for i in range(1, ifs.k + 1)]:
            for delta, window in ((0.05, 10), (0.3, 20)):
                horizon = res.depth + window
                full = _rule_paths(ifs, starts, lengths, None, horizon, rule)[1]
                stopped = _rule_paths(ifs, starts, lengths, None, horizon,
                                      detectors._until_full_window(rule, delta, window))[1]
                n = first_full_windows(full, delta, window)
                assert (first_full_windows(stopped, delta, window) == n).all()
                ends = np.where(n >= 0, n + window, horizon)
                assert stopped.shape[1] == ends.max() + 1
                for i, end in enumerate(ends.tolist()):
                    assert stopped[i, :end + 1].tobytes() == full[i, :end + 1].tobytes()
                    assert (stopped[i, end + 1:] == -1.0).all()
                found.update(n >= 0)
    assert found[True] and found[False]


def test_cofinite_sensitivity_on_thm34_holds_each_chain_to_its_first_full_window(monkeypatch):
    """At depth 99900 every net arc of thm34 separates for a full window
    within 122 steps, so no chain runs the 100000-step horizon."""
    widths = []

    def recording(*args, **kwargs):
        letters, diams = _rule_paths(*args, **kwargs)
        widths.append(diams.shape[1])
        return letters, diams

    monkeypatch.setattr(detectors, "_rule_paths", recording)
    ifs = build_example("thm34_ns_rotation").system
    v = cofinite_sensitivity_verdict(ifs, 0.2, DEFAULT_RESOLUTION.replaced(depth=99900), 100)
    assert v.holds and v.witnesses == {
        "delta": 0.2, "window": 100, "max_N": 22, "horizon": 100000,
        "hardest": {"arc_center": 0.225, "rule": "greedy_diameter", "N": 22}}
    assert widths and max(widths) <= 22 + 100 + 2


def test_a_cover_is_the_distinct_first_hits_of_its_source():
    """`_covers` on the first hits of seeded chunks with misses, and on
    random ones, equals each source's `np.unique` of its hits."""
    tables = []
    for ifs in seeded_systems(5, 10):
        net = system_net(ifs, 24)
        starts, lengths = _net_arcs(net, R)
        tables += [images.first_hit for images in _arc_search(
            ifs, starts, lengths, 4, 200, CELL, np.array(net), EPS)]
    rng = np.random.default_rng(11)
    tables += [np.where(rng.random((n, 30)) < 0.3, -1, rng.integers(0, 40, (n, 30)))
               for n in rng.integers(1, 9, 20).tolist()]
    assert sum(int((hits < 0).sum()) for hits in tables[:-20]) > 0
    for hits in tables:
        nodes, sizes = _covers(hits)
        covers = [np.unique(row[row >= 0]) for row in hits]
        assert sizes.tolist() == [c.size for c in covers]
        assert nodes.tolist() == np.concatenate(covers).tolist()


def random_arc_sets(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 60))
        src = np.sort(rng.integers(0, 4, n))
        s = rng.random(n)
        # lengths from points to the full circle, with a share of near-ties
        ln = np.where(rng.random(n) < 0.1, 1.0, rng.random(n) ** 3)
        dup = rng.random(n) < 0.2
        if n > 1:
            k = rng.integers(0, n, n)
            same = src[k] == src
            pick = dup & same
            s[pick], ln[pick] = s[k[pick]], ln[k[pick]]
            # inner arcs that end within the containment tolerance of another
            nest = (rng.random(n) < 0.2) & same & ~pick
            off = rng.random(n) * ln[k]
            s[nest] = (s[k[nest]] + off[nest]) % 1.0
            ln[nest] = ln[k[nest]] - off[nest] + rng.choice([-2e-12, 0.0, 5e-13, 2e-12],
                                                             nest.sum())
            ln = np.clip(ln, 0.0, 1.0)
        # arcs that wrap past 1
        wrap = rng.random(n) < 0.3
        s[wrap] = 1.0 - rng.random(wrap.sum()) * ln[wrap] / 2.0
        s %= 1.0
        yield src, s, ln


def test_dominance_sweep_keeps_the_greedy_frontier():
    """Source ids as the kernel numbers them, then starting above 0, and
    spread past what 8 and 16 bits hold: the sweep regroups by source in the
    narrowest unsigned type that holds the ids' span."""
    rng = np.random.default_rng(11)
    for src, s, ln in random_arc_sets(rng, 400):
        expected = []
        for j in np.unique(src):
            rows = np.flatnonzero(src == j)
            expected += [w for _, _, w in greedy_keep([(s[i], ln[i], int(i)) for i in rows])]
        for ids in (src, src + 3, src + 70_000, 100 * src + 7, 30_000 * src + 5):
            assert _dominance_keep(ids, s, ln).tolist() == expected


ARC_PROPERTIES = ("transitivity", "s_transitivity", "sensitivity", "witness_pipeline")
RANDOM_SYSTEMS_RES = Resolution(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)


def test_arc_search_hands_on_arcs_grouped_by_source(monkeypatch):
    """`_dominance_keep` and `_expand` read their input as runs of one
    source each: in every search they run, sources never decrease."""
    calls = Counter()
    dominance_keep, expand = detectors._dominance_keep, detectors._expand

    def check(name, src):
        assert np.all(src[1:] >= src[:-1]), name
        calls[name] += 1

    def checked_dominance_keep(src, s, ln):
        check("_dominance_keep", src)
        return dominance_keep(src, s, ln)

    def checked_expand(gens, f_s, f_l, f_src, *rest):
        check("_expand frontier", f_src)
        out = expand(gens, f_s, f_l, f_src, *rest)
        check("_expand children", out[0])
        return out

    monkeypatch.setattr(detectors, "_dominance_keep", checked_dominance_keep)
    monkeypatch.setattr(detectors, "_expand", checked_expand)
    runs = [(build_example(name).system, DEFAULT_RESOLUTION) for name in GALLERY_NAMES]
    runs += [(ifs, RANDOM_SYSTEMS_RES) for ifs in random_systems(seed=12, count=10)]
    for ifs, res in runs:
        for prop in ARC_PROPERTIES:
            evaluate_property(ifs, prop, res)
    assert min(calls.values()) > 500 and len(calls) == 3


def prior_max_reference(seg, v):
    out, best = np.full(v.size, -np.inf), {}
    for i, (g, x) in enumerate(zip(seg.tolist(), v.tolist())):
        if g in best:
            out[i] = best[g]
            best[g] = max(best[g], x)
        else:
            best[g] = x
    return out


def test_prior_max_does_not_depend_on_how_ties_are_ranked():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        # many one-element segments, and a few long ones
        seg = np.sort(rng.integers(0, int(rng.integers(1, n + 1)), n))
        v = rng.choice([0.0, 0.25, 0.5, 1.0, np.inf, -np.inf], n)
        v = np.where(rng.random(n) < 0.3, rng.random(n), v)
        expected = prior_max_reference(seg, v)
        by_v = np.argsort(v, kind="stable")
        rankings = [None, by_v, by_v[::-1][np.argsort(v[by_v[::-1]], kind="stable")]]
        rankings += [np.lexsort((rng.random(n), v)) for _ in range(4)]
        for ranking in rankings:
            got = _prior_max(seg, v, ranking)
            assert got.tobytes() == expected.tobytes()


def test_stable_argsort_equals_numpy_stable_sort():
    rng = np.random.default_rng(9)
    for n in (0, 1, 2, 7, 100, 5000):
        for v in (rng.random(n), np.round(rng.random(n), 2), -np.round(rng.random(n), 1),
                  rng.choice([0.0, -0.0, 1.0, np.inf], n)):
            assert _stable_argsort(v).tolist() == np.argsort(v, kind="stable").tolist()


def test_target_cells_count_like_searchsorted():
    rng = np.random.default_rng(4)
    grid = np.arange(40) / 40.0
    target_sets = [np.array([0.0]), np.array([0.5]), grid, np.sort(rng.random(300)),
                   # clusters within one cell, and equal neighbours
                   np.sort(np.r_[grid, grid[::7] + 1e-12, [0.3] * 3, np.nextafter(0.3, 1.0)])]
    for targets in target_sets:
        below = _target_cells(targets)
        cells = below.size - 2
        x = np.r_[rng.random(2000), targets, np.nextafter(targets, -1.0), np.nextafter(targets, 2.0),
                  np.arange(cells + 1) / cells, 0.0, 1.0]
        x = np.clip(x, 0.0, 1.0)
        for side in ("left", "right"):
            assert (_targets_below(targets, below, x, side == "right")
                    == np.searchsorted(targets, x, side)).all()


def unique_expand(gens, f_s, f_l, f_src, f_id, room, seen, scale):
    """`_expand` as it was written with `np.unique` and an unsorted
    `searchsorted`: the children whose cell is new, up to the budget cut,
    and their cell keys in visit order."""
    k, n = len(gens), room.size
    cs, cl = np.empty((f_s.size, k)), np.empty((f_s.size, k))
    for i, g in enumerate(gens):
        cs[:, i], cl[:, i] = map_arcs(g, f_s, f_l)
    cs, cl = cs.reshape(-1), cl.reshape(-1)
    csrc = np.repeat(f_src, k)
    keys = _arc_keys(csrc, cs, cl, scale)
    ncand = np.bincount(csrc, minlength=n)
    first_row = np.cumsum(ncand) - ncand
    j = np.arange(cs.size) - first_row[csrc]
    fresh = np.zeros(cs.size, dtype=bool)
    fresh[np.unique(keys, return_index=True)[1]] = True
    if seen.size:
        pos = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
        fresh &= seen[pos] != keys
    cut = np.full(n, np.iinfo(np.int64).max)
    for src in np.flatnonzero((ncand > 0) & (ncand >= room)).tolist():
        jb = room[src] - 1
        pend = (jb // k) * k + k - 1
        later = np.flatnonzero(fresh[first_row[src] + jb:first_row[src] + pend + 1])
        cut[src] = jb + later[0] if later.size else pend
    rows = np.flatnonzero(fresh & (j <= cut[csrc]))
    return (csrc[rows], cs[rows], cl[rows], f_id[rows // k], rows % k + 1, keys[rows],
            j[rows], np.minimum(cut, ncand - 1) + 1)


def test_expand_matches_the_unique_and_searchsorted_form():
    rng = np.random.default_rng(17)
    # repeated generators and coarse cells give duplicate keys in a level
    gens = [Rotation(0.25), Rotation(0.25), Flip(), NorthSouth(0.3, 2.0), Expanding(2)]
    cut_levels = duplicate_levels = seen_levels = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 40))
        f_src = np.sort(rng.integers(0, n, m))
        f_s = np.round(rng.random(m), 1) % 1.0
        f_l = np.round(rng.random(m) ** 2, 2)
        f_id = rng.permutation(m) + 1000
        pick = [gens[i] for i in rng.choice(len(gens), int(rng.integers(1, 4)))]
        scale = int(rng.choice([2, 8, 80]))
        level_keys = _arc_keys(np.repeat(f_src, len(pick)), *map_arcs_all(pick, f_s, f_l), scale)
        keys = np.unique(level_keys)
        duplicate_levels += keys.size < level_keys.size
        # some of this level's cells already seen, among others that are not
        seen = np.unique(np.r_[keys[rng.random(keys.size) < 0.3],
                               rng.integers(0, n * scale * (scale + 1), 5)])
        room = rng.integers(1, 3 * len(pick) * max(1, m // max(n, 1)) + 2, n)
        ncand = np.bincount(f_src, minlength=n) * len(pick)
        cut_levels += bool(((ncand > 0) & (ncand >= room)).any())
        seen_levels += bool(np.isin(keys, seen).any())
        args = (pick, f_s, f_l, f_src, f_id, room, seen, scale)
        *ref, ref_keys, ref_j, ref_spent = unique_expand(*args)
        *got, (row, key, at), got_j, got_spent = _expand(*args)
        for a, b in zip(ref + [ref_j, ref_spent], got + [got_j, got_spent]):
            assert a.tobytes() == b.tobytes()
        # every returned child brings one new cell, listed in key order
        assert sorted(row.tolist()) == list(range(ref_keys.size))
        assert key.tobytes() == np.sort(ref_keys).tobytes() == ref_keys[row].tobytes()
        assert at.tolist() == np.searchsorted(seen, key).tolist()
    assert min(cut_levels, duplicate_levels, seen_levels) > 50


def map_arcs_all(gens, s, ln):
    """Child starts and lengths in (parent, letter) order."""
    images = [map_arcs(g, s, ln) for g in gens]
    return (np.stack([a for a, _ in images], axis=1).reshape(-1),
            np.stack([b for _, b in images], axis=1).reshape(-1))


def reference_mapper(ifs):
    """The scalar arc map, or for a system with a NorthSouth generator the
    one-arc array map (numpy's tan/arctan may differ from math's by an ulp)."""
    return array_map if any(isinstance(g, NorthSouth) for g in ifs.generators) else map_arc_raw


def rule_pairs(ifs, mapper):
    """(rule, reference rule) for every public rule, the greedy rule and
    each constant rule, and for several periodic patterns through the rule
    protocol."""
    k = ifs.k
    pairs = [(greedy_diameter_rule(), oracle.greedy_diameter_rule(mapper))]
    pairs += [(constant_rule(i), oracle.constant_rule(i)) for i in range(1, k + 1)]
    for pattern in [tuple(1 + (3 * j + n) % k for j in range(n)) for n in (2, 3, 5)] + \
            [tuple(range(k, 0, -1))]:
        pairs.append((pattern_rule(pattern), oracle.periodic_rule(pattern)))
    return pairs


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_separation_times_match_the_per_step_reference(ifs):
    mapper = reference_mapper(ifs)
    arcs = [Arc(CirclePoint(c - r), 2.0 * r) for c in system_net(ifs, 3)
            for r in (0.002, 0.02, 0.15)]
    arcs += [Arc(CirclePoint(0.97), 0.06), Arc(CirclePoint(0.3), 1.0)]
    for rule, ref in rule_pairs(ifs, mapper):
        assert rule.label == ref.label
        for U in arcs:
            for delta, horizon in ((0.0, 0), (0.01, 1), (0.1, 9), (0.3, 60), (0.49, 25)):
                assert separation_times(ifs, U, rule, delta, horizon) == \
                    oracle.separation_times(ifs, U, ref, delta, horizon, mapper=mapper)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "north_south"])
def test_map_arc_equals_the_scalar_reference_bitwise(kind):
    rng = np.random.default_rng(23)
    gens = [random_generator(rng, kind) for _ in range(12)]
    kind_type = dict(zip(KINDS, (Rotation, Flip, NorthSouth, PiecewiseLinear, Expanding)))
    gens += [g for ifs in SYSTEMS for g in ifs.generators if type(g) is kind_type[kind]]
    starts = np.concatenate([rng.random(200), [0.0, 0.5, 1.0 - 1e-16, 0.999]])
    lengths = np.concatenate([rng.random(200) ** 2, [0.0, 1.0, 1.0 - 1e-13, 0.25]])
    starts = np.array([Arc(CirclePoint(s), ln).start.value for s, ln in zip(starts, lengths)])
    for g in gens:
        images = zip(*(v.tolist() for v in map_arcs(g, starts, lengths)))
        assert list(images) == [map_arc_raw(g, s, ln)
                                for s, ln in zip(starts.tolist(), lengths.tolist())]


@pytest.mark.parametrize("kind", KINDS)
def test_map_arcs_lifts_both_ends_in_one_call_bitwise(kind):
    """One `lift_array` call on the starts and ends together gives what two
    calls give, element by element; numpy's dispatched tan and arctan
    (NorthSouth) must not depend on where in the array a value sits."""
    rng = np.random.default_rng(29)
    gens = [random_generator(rng, kind) for _ in range(12)]
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 1000, 1001):
        starts = rng.random(n)
        lengths = np.where(rng.random(n) < 0.1, 1.0, rng.random(n) ** 2)
        for g in gens:
            got_s, got_l = map_arcs(g, starts, lengths)
            if kind == "expanding":
                want_s, want_l = g.eval_array(starts), np.minimum(g.m * lengths, 1.0)
            else:
                lo, hi = g.lift_array(starts), g.lift_array(starts + lengths)
                want_s = detectors.normalize_array(lo if g.orientation > 0 else hi)
                want_l = np.minimum(np.abs(hi - lo), 1.0)
            assert got_s.tobytes() == want_s.tobytes()
            assert got_l.tobytes() == want_l.tobytes()


def masked_north_south_lift(g, t):
    """`NorthSouth.lift_array` as written with boolean-mask gathers and
    scatters, each branch on its own elements."""
    tq = t - g.q
    n = np.floor(tq + 0.5)
    s = tq - n
    out = np.empty_like(s)
    inner = np.abs(s) <= 0.25
    out[inner] = np.arctan(g.lam * np.tan(np.pi * s[inner])) / np.pi
    so = s[~inner]
    u = 0.5 - np.arctan(np.tan(np.pi * (0.5 - np.abs(so))) / g.lam) / np.pi
    out[~inner] = np.where(so > 0, u, -u)
    return g.q + n + out


def test_north_south_lift_without_branches_equals_the_masked_form_bitwise():
    """One tan and one arctan over the whole array, the argument picked per
    element, give each element what its branch alone gives."""
    rng = np.random.default_rng(31)
    gens = [NorthSouth(q, lam) for q in (0.0, 0.5, 0.75, 0.3, float(rng.random()))
            for lam in (1.05, 2.0, 7.5)]
    # s exactly -0.5, -0.25, 0.25 and (as tq = 0.5 rounds up to the next
    # branch) 0.5, with their neighbours, on several branches
    ends = np.array([-0.5, -0.25, 0.25, 0.5])
    ends = np.concatenate([ends, np.nextafter(ends, -1.0), np.nextafter(ends, 1.0)])
    for g in gens:
        t = (g.q + np.arange(-9, 10)[:, None] + ends).reshape(-1)
        assert g.lift_array(t).tobytes() == masked_north_south_lift(g, t).tobytes()
    for size in range(1002):
        t = rng.uniform(-10.0, 10.0, size)
        at_end = rng.random(size) < 0.05
        for g in gens:
            t[at_end] = g.q + rng.choice(ends, np.count_nonzero(at_end))
            assert g.lift_array(t).tobytes() == masked_north_south_lift(g, t).tobytes()


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_steering_cut_by_depth_matches_reference(ifs):
    """At small depths the pull-back word leaves each pair a different number
    of repeats, and the chain must stop at each pair's own depth."""
    xs = np.repeat(np.array(system_net(ifs, 8)), 2)
    rs = np.tile([0.003, 0.0125], xs.size // 2)
    steering = _repeller_steering_data(ifs, DEFAULT_RESOLUTION.replaced(depth=6, budget=500))
    for depth in (1, 2, 3, 5, 8):
        steered, steered_q, steered_word = _steered_candidates(ifs, steering, xs, rs, depth)
        for i, (x, r) in enumerate(zip(xs.tolist(), rs.tolist())):
            ref = steered_candidate(ifs, steering, x, r, depth, mapper=array_map)
            if ref is None:
                assert steered[i] == -1.0 and steered_q[i] is steered_word[i] is None
            else:
                assert (steered_word[i], steered_q[i]) == ref[1:3]
                assert steered[i] == pytest.approx(ref[0], abs=1e-12)


# -- sensitivity's skips against the full composition ------------------------

def cap_cases():
    """The gallery at the default resolution and random seeds 0-1 at the
    random_systems resolution."""
    return ([(build_example(name).system, DEFAULT_RESOLUTION) for name in GALLERY_NAMES]
            + [(ifs, BENCH_RES) for seed in (0, 1) for ifs in seeded_systems(seed, 10)])


def test_bfs_stopped_at_the_cap_equals_the_full_search():
    capped = total = 0
    for ifs, res in cap_cases():
        xs, rs, budget = strategy_oracle.sensitivity_pairs(ifs, res)
        args = (ifs, (xs - rs) % 1.0, 2.0 * rs, res.depth, budget, detectors._merge_cell(res))
        full, words = _bfs_best(*args)[:2]
        capped_diams, capped_words = _bfs_best(*args, stop_above=math.nextafter(0.5, 0.0))[:2]
        assert (capped_diams.tobytes(), capped_words) == (full.tobytes(), words)
        capped += int(np.count_nonzero(full == 0.5))
        total += full.size
    assert 0 < capped < total


def test_cascaded_strategies_pick_what_the_full_composition_picks():
    """Per pair, the report's strategy, image diameter and word are the
    winning column, diameter and word of every strategy run on every pair."""
    columns = Counter()
    for ifs, res in cap_cases():
        report = sensitivity_estimate(ifs, res)[0]
        want = strategy_oracle.strategy_table(ifs, res)
        assert [(e["strategy"], e["image_diameter"], tuple(e["best_word"]))
                for e in report.per_point] == [(label, d, w) for _, d, w, label in want]
        columns.update((k, d == 0.5) for k, d, _, _ in want)
    # BFS caps pairs that the later strategies then skip; steering and the
    # diameter chain win pairs that the columns before them left open
    assert columns[0, True] and columns[1, True] and columns[2, True] + columns[2, False]


def test_the_isometry_certificate_reports_what_the_search_finds_up_to_rounding():
    """On a system of rotations and flips every word preserves distances, so
    the full search can beat the empty word only through rounding: where its
    winner is the empty word the certified entry is the same, bit for bit,
    and elsewhere its winner exceeds the ball's diameter 2r by under 1e-14.
    The pinned document random_18_34 has such rounding winners."""
    cases = [(ifs, res) for ifs, res in cap_cases()
             if all(isinstance(g, (Rotation, Flip)) for g in ifs.generators)]
    cases += [(build_example("rotation_flip").system, DEFAULT_RESOLUTION.replaced(net_size=300)),
              (load_system_file(str(DATA / "random_18_34.json")), BENCH_RES)]
    assert len(cases) == 5
    empty = rounded = 0
    for ifs, res in cases:
        report, verdict = sensitivity_estimate(ifs, res)
        # the one certificate format, that of every certified verdict
        assert verdict.witnesses["certified"] and verdict.witnesses["certificate"] == (
            minimality_verdict(ifs, res).witnesses["certificate"])
        for e, (_, d, w, _) in zip(report.per_point, strategy_oracle.searched_table(ifs, res)):
            assert (e["strategy"], e["best_word"], e["diameter_capped"]) == ("isometry", [], False)
            assert e["image_diameter"].hex() == (2.0 * e["r"]).hex()
            if w:
                rounded += 1
                assert 0.0 < d - 2.0 * e["r"] < 1e-14, (e, d, w)
            else:
                empty += 1
                assert d.hex() == e["image_diameter"].hex()
    assert empty and rounded


def test_the_cascade_skips_only_pairs_at_the_cap(monkeypatch):
    """A best 1e-13 below 1/2 is not capped: a later strategy that reaches
    1/2 still wins the ball, so the ball must run.  A ball at 1/2 is not
    passed to the later strategies.  At this ball every strategy reaches
    1/2, so steering caps the balls it runs on and the chains never run."""
    ifs = build_example("thm34_ns_rotation").system
    res = DEFAULT_RESOLUTION.replaced(r=0.05)  # the ladder's smallest rung is 0.05
    before = np.array([0.5, 0.5 - 1e-13, 0.2])
    xs, rs = np.full(before.size, 0.1), np.full(before.size, 0.05)
    steered, qs, words = _steered_candidates(ifs, _repeller_steering_data(ifs, res), xs, rs,
                                             res.depth)
    chains = [_greedy_chains(ifs, xs, rs, res.depth, flag)[0] for flag in (False, True)]
    assert [diams.tolist() for diams in (steered, *chains)] == [[0.5] * 3] * 3
    # the breadth-first search leaves the bests `before`, on a net of three
    # copies of 0.1; the later strategies record the balls they run on
    ran = []
    monkeypatch.setattr(detectors, "system_net", lambda ifs, n: xs.tolist())
    monkeypatch.setattr(detectors, "_bfs_best",
                        lambda *a, **kw: (before.copy(), [(1,)] * 3, ["depth"] * 3, [1] * 3))
    monkeypatch.setattr(detectors, "_steered_candidates", lambda ifs, steering, x, *rest: (
        ran.append(("steered", x.size)) or _steered_candidates(ifs, steering, x, *rest)))
    monkeypatch.setattr(detectors, "_greedy_chains", lambda ifs, x, *rest: (
        ran.append(("chains", x.size)) or _greedy_chains(ifs, x, *rest)))
    report = sensitivity_estimate(ifs, res)[0]
    assert ran == [("steered", 2)]
    assert [(e["strategy"], e["image_diameter"], tuple(e["best_word"]))
            for e in report.per_point] == [("bfs", 0.5, (1,))] + [
                (f"repeller_steered(q={q:.6f})", 0.5, w) for q, w in zip(qs[1:], words[1:])]


@pytest.mark.parametrize("ifs", SYSTEMS, ids=IDS)
def test_capped_chains_equal_uncapped_ones(ifs):
    """Radius 0.3 caps a ball at time 0; 0.05 and 0.004 reach the cap, if at
    all, along the way."""
    xs = np.repeat(np.array(system_net(ifs, 12)), 3)
    rs = np.tile([0.3, 0.05, 0.004], xs.size // 3)
    for flag in (False, True):
        best, word = _greedy_chains(ifs, xs, rs, 30, flag)
        ref_best, ref_word = strategy_oracle.greedy_chains(ifs, xs, rs, 30, flag)
        assert best.tobytes() == ref_best.tobytes()
        assert word == list(map(ref_word, range(xs.size)))
    steering = _repeller_steering_data(ifs, DEFAULT_RESOLUTION.replaced(depth=20, budget=2000))
    best, q, word = _steered_candidates(ifs, steering, xs, rs, 30)
    ref_best, ref_q, ref_word = strategy_oracle.steered_candidates(ifs, steering, xs, rs, 30)
    assert (best.tobytes(), q) == (ref_best.tobytes(), ref_q)
    assert word == list(map(ref_word, range(xs.size)))


def test_steering_repeats_a_pull_back_that_is_capped_at_time_0():
    """A ball around a repeller needs no pull-back word; at radius 0.3 it is
    capped at time 0, and steering, which reads times 1 on, must still take
    the first repeat of the repeller's letter."""
    ifs = build_example("thm34_ns_rotation").system
    steering = _repeller_steering_data(ifs, DEFAULT_RESOLUTION)
    xs = np.array([q for q, _, _ in steering])
    rs = np.full(xs.size, 0.3)
    best, q, word = _steered_candidates(ifs, steering, xs, rs, 10)
    ref_best, ref_q, ref_word = strategy_oracle.steered_candidates(ifs, steering, xs, rs, 10)
    assert (best.tobytes(), q) == (ref_best.tobytes(), ref_q)
    assert word == list(map(ref_word, range(xs.size)))
    assert xs.size and best.tolist() == [0.5] * xs.size
    assert word[0] == (steering[0][1],)
