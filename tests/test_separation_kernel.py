"""The batched partner refinement against the scalar reference
`separation_oracle`: per (point, radius) pair of `sensitivity_estimate`, its
`separation` and `best_partner_y`, and `delta_hat`; one pair per net point,
at the smallest radius, and `delta_hat` pinned; the witness pipeline's
verdict with the library's batched `_most_separating` and with the
reference scan swapped in.

Floats are compared by their hex form, on the gallery, on seeded random
systems of all five generator types, on rotation_flip (whose best words are
all empty) and with `_CHUNK_NODES` small enough that the refinement spans
many evaluator passes, cutting through the rows of a pair.
"""

import numpy as np
import pytest

import ifs_lab.detectors as detectors
import separation_oracle as oracle
from ifs_lab import GALLERY_NAMES, build_example
from ifs_lab.detectors import (DEFAULT_RESOLUTION, NotApplicable, _PARTNERS, _radius_ladder,
                               sensitivity_estimate, sensitivity_witness_from_nonminimality,
                               system_net)
from ifs_lab.semigroup import _word_values
from test_cover_kernel import BENCH_RES, hexed, random_systems

SMALL_CHUNK = 1000  # not a multiple of _PARTNERS + 1, so passes split pairs


def gallery_cases():
    return [(build_example(name).system, DEFAULT_RESOLUTION) for name in GALLERY_NAMES]


def random_cases(seed):
    return [(ifs, BENCH_RES) for ifs in random_systems(seed, 10)]


def check_per_point(ifs, res):
    """Every pair's separation and partner, and delta_hat, equal the
    reference's; the pairs' best words."""
    report, verdict = sensitivity_estimate(ifs, res)
    last = []
    for e in report.per_point:
        sep, y = oracle.refined_separation(ifs, tuple(e["best_word"]), e["x"], e["r"])
        assert (e["separation"].hex(), e["best_partner_y"].hex()) == (sep.hex(), y.hex()), e
        if e["r"] == verdict.witnesses["smallest_radius"]:
            last.append(sep)
    assert report.delta_hat.hex() == verdict.witnesses["delta_hat"].hex() == min(last).hex()
    return [e["best_word"] for e in report.per_point]


def test_per_point_matches_the_reference_on_the_gallery():
    words = [w for ifs, res in gallery_cases() for w in check_per_point(ifs, res)]
    assert any(not w for w in words) and any(w for w in words)


@pytest.mark.parametrize("seed", range(3))
def test_per_point_matches_the_reference_on_random_systems(seed):
    for ifs, res in random_cases(seed):
        check_per_point(ifs, res)


@pytest.mark.parametrize("name", ["thm34_ns_rotation", "rotation_flip"])
def test_per_point_matches_the_reference_across_chunks(monkeypatch, name):
    monkeypatch.setattr(detectors, "_CHUNK_NODES", SMALL_CHUNK)
    check_per_point(build_example(name).system, DEFAULT_RESOLUTION)


def test_per_point_has_one_ball_per_net_point_at_the_smallest_radius():
    for ifs, res in gallery_cases() + random_cases(0):
        report, verdict = sensitivity_estimate(ifs, res)
        net, rungs = system_net(ifs, res.net_size), _radius_ladder(res.r)
        assert verdict.witnesses["smallest_radius"] == rungs[-1]
        assert [(e["x"], e["r"]) for e in report.per_point] == [(x, rungs[-1]) for x in net]
        assert report.delta_hat == min(e["separation"] for e in report.per_point)
        # the budget of a search over every rung, which fixes delta_hat
        assert verdict.witnesses["slice_budget"] == max(64, res.budget // (len(net) * len(rungs)))


# delta_hat as the search over every rung of the radius ladder found it
@pytest.mark.parametrize("name, net_size, want", [
    ("cor33_morse_smale", 100, "0x1.042753293d708p-2"),
    ("ex42_hinges", 100, "0x1.13dfed3395982p-2"),
    ("prop35_expanding", 100, "0x1.5999999999960p-2"),
    ("rotation_flip", 100, "0x1.9999999999980p-8"),
    ("thm34_ns_rotation", 100, "0x1.14c15f1315f3ap-2"),
    ("thm34_ns_rotation", 300, "0x1.14c15f1315f3ap-2"),
])
def test_delta_hat_is_the_one_every_rung_searched(name, net_size, want):
    res = DEFAULT_RESOLUTION.replaced(net_size=net_size)
    assert sensitivity_estimate(build_example(name).system, res)[0].delta_hat.hex() == want


def test_refinement_passes_hold_at_most_chunk_nodes_rows(monkeypatch):
    # the bound that keeps a fine net's refinement (heavy_arcs' thm34 at net
    # 300: about 25,000 rows) from padding every word at once
    rows = []

    def counted(ifs, letters, x):
        assert np.shape(letters)[0] == np.size(x)
        rows.append(np.size(x))
        return _word_values(ifs, letters, x)

    monkeypatch.setattr(detectors, "_CHUNK_NODES", SMALL_CHUNK)
    monkeypatch.setattr(detectors, "_word_values", counted)
    report, _ = sensitivity_estimate(build_example("thm34_ns_rotation").system)
    assert sum(rows) == (_PARTNERS + 1) * len(report.per_point)
    assert len(rows) > 1 and max(rows) <= SMALL_CHUNK
    rows.clear()
    sensitivity_witness_from_nonminimality(build_example("ex42_hinges").system)
    assert len(rows) > 1 and max(rows) <= SMALL_CHUNK


def pipeline(ifs, res):
    try:
        delta_candidate, verdict = sensitivity_witness_from_nonminimality(ifs, res)
    except NotApplicable:
        return None
    return hexed(delta_candidate), hexed(verdict.to_dict())


def check_pipelines(monkeypatch, cases):
    """The verdicts with and without the reference scan; how many cases
    reached the extension scan (the call with a finite `enough`)."""
    scans = []

    def recorded(ifs, words, x, r, best, enough=np.inf):
        scans.append(enough)
        return oracle.most_separating_batch(ifs, words, x, r, best, enough)

    applicable = 0
    for ifs, res in cases:
        got = pipeline(ifs, res)
        with monkeypatch.context() as m:
            m.setattr(detectors, "_most_separating", recorded)
            assert got == pipeline(ifs, res), ifs
        applicable += got is not None
    return applicable, sum(np.isfinite(scans))


def test_witness_pipeline_matches_the_reference(monkeypatch):
    cases = gallery_cases() + random_cases(0) + random_cases(1)
    applicable, extended = check_pipelines(monkeypatch, cases)
    assert applicable >= 10 and extended >= 5


def test_witness_pipeline_matches_the_reference_across_chunks(monkeypatch):
    monkeypatch.setattr(detectors, "_CHUNK_NODES", SMALL_CHUNK)
    cases = [(build_example(name).system, DEFAULT_RESOLUTION)
             for name in ("ex42_hinges", "prop35_expanding")]
    assert check_pipelines(monkeypatch, cases)[0] == 2


def test_most_separating_scans_as_the_reference():
    # unequal word lists, empty ones and empty words, and a threshold that
    # stops some scans early
    rng = np.random.default_rng(3)
    ifs = random_systems(0, 5)[2]
    words = [[tuple(rng.integers(1, ifs.k + 1, int(rng.integers(0, 7))).tolist())
              for _ in range(int(rng.integers(0, 6)))] for _ in range(60)]
    x = rng.random(len(words))
    best = [(float(b), ()) for b in rng.uniform(0.0, 0.2, len(words))]
    results = {}
    for enough in (np.inf, 0.1, 0.0):
        got = detectors._most_separating(ifs, words, x, 0.02, best, enough)
        assert hexed(got) == hexed(oracle.most_separating_batch(ifs, words, x, 0.02, best, enough))
        results[enough] = got
    assert results[0.1] != results[np.inf] and results[0.0] != results[0.1]
    assert any(not ws for ws in words) and any(() in ws for ws in words)
