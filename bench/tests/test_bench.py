"""Tests of the benchmark's own machinery: input generation, oracle, tracer.

Run with: python3 -m pytest bench/tests -q
"""

import json
import math
import os
import signal
import time

import pytest

import calibrate
import layers
import run
import systems
import workloads
from ifs_lab import cli
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_same_seed_gives_byte_identical_documents():
    assert (systems.render_documents(systems.random_documents(7))
            == systems.render_documents(systems.random_documents(7)))
    assert (systems.render_documents(systems.random_documents(7))
            != systems.render_documents(systems.random_documents(8)))


@pytest.mark.parametrize("seed", [0, 1, 2, 31])
def test_documents_are_valid_and_cover_every_mix(seed):
    docs = systems.random_documents(seed)
    mixes = sorted(tuple(sorted(g["type"] for g in d["generators"])) for d in docs)
    assert mixes == sorted(tuple(sorted(m)) for m in systems.type_mixes())
    for doc in docs:
        json.dumps(doc, allow_nan=False)
        assert cli.system_from_config(doc).k in (2, 3)


def _small_workload():
    rf = workloads._gallery_system("rotation_flip")
    doc = {"schema": "ifs-lab/1", "generators": [{"type": "north_south", "q": 0.1,
                                                  "lambda": 2.0},
                                                 {"type": "rotation", "alpha": 0.3}]}
    jobs = [
        workloads._analyze_job("rotation_flip", rf,
                               ["transitivity", "dense_periodic", "sensitivity"],
                               {"net_size": 6, "depth": 20}, {"max_len": 2},
                               [True, True, False]),
        workloads._analyze_job("ns_rot", workloads._document_system(doc, "ns_rot"),
                               ["minimality", "repelling_fixed_point", "local_expanding"],
                               {"net_size": 6, "depth": 20, "budget": 500}, {},
                               [None, True, None]),
        workloads._verify_job("prop35_expanding"),
    ]
    return workloads.Workload("small", jobs)


def test_tracer_self_times_and_harness_add_up_to_traced_wall():
    tracer = Tracer()
    result = run.run_pass(_small_workload(), tracer)
    assert not result.failures
    self_total = sum(tracer.self_seconds(layer) for layer in layers.LAYERS)
    # self times telescope to the time spent inside any layer call
    assert self_total == pytest.approx(tracer.layer_seconds, rel=1e-9, abs=1e-9)
    values, _ = layers.layer_metrics(tracer, result.wall, result.wall, result)
    harness = values["trace.harness_s"]
    assert 0.0 <= harness < result.wall
    assert self_total + harness == pytest.approx(result.wall, rel=1e-9)
    assert all(tracer.self_seconds(layer) >= 0.0 for layer in layers.LAYERS)
    assert values["cli.parse_s"] > 0.0 and values["cli.report_bytes"] > 0
    assert values["symbolic.words_enumerated"] > 0 and values["smooth.calls"] > 0
    assert values["semigroup.orbit_cloud_calls"] > 0
    spans = {s[0]: s for s in tracer.spans}
    assert all(s[1] is None or s[1] in spans for s in tracer.spans)


def test_gauge_clock_leaves_the_kernel_out():
    gauge = calibrate.Gauge(period=0.01)
    with gauge:
        w0, c0 = time.perf_counter(), gauge.clock()
        while time.perf_counter() - w0 < 0.3:
            pass
        wall, clock = time.perf_counter() - w0, gauge.clock() - c0
    assert len(gauge.samples) >= 5
    # each tick runs the kernel twice and keeps the second time
    assert clock + 2 * sum(gauge.samples) <= wall + 0.01
    assert clock > 0.0


def test_gauged_pass_scales_every_time_and_stops_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    result = run.run_pass(_small_workload(), gauged=True)
    assert not result.failures and result.gauge
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(result.verdict_scaled) == len(result.verdict_seconds) == result.attempted
    for (_, took, k) in result.jobs:
        assert took > 0.0 and k > 0.0
    assert result.wall_scaled == pytest.approx(sum(t * k for _, t, k in result.jobs))
    assert sum(result.verdict_seconds) <= result.wall


def test_middle_verdict_is_the_geometric_mean_of_the_middle_third():
    assert run.middle_verdict([1.0, 2.0, 8.0]) == pytest.approx(2.0)
    assert run.middle_verdict([9.0, 1.0, 1.0, 4.0, 2.0, 9.0]) == pytest.approx(math.sqrt(8.0))
    assert run.middle_verdict([0.5]) == pytest.approx(0.5)
    once = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert run.middle_verdict(once) == pytest.approx(4.0)
    assert run.middle_verdict(once * 2) == pytest.approx(4.0)


def test_tracer_restores_every_binding():
    from ifs_lab import detectors, generators, semigroup
    before = (cli.evaluate_property, detectors.orbit_cloud, detectors.circ_dist,
              generators.Rotation.lift, generators.Generator.eval,
              semigroup.IfsSystem.apply_word)
    with Tracer():
        assert detectors.orbit_cloud is not before[1]
        assert generators.Rotation.lift is not before[3]
    after = (cli.evaluate_property, detectors.orbit_cloud, detectors.circ_dist,
             generators.Rotation.lift, generators.Generator.eval,
             semigroup.IfsSystem.apply_word)
    assert after == before


def test_oracle_flags_wrong_holds_and_bad_witnesses():
    workload = _small_workload()
    probe = workloads.VerdictProbe()
    with probe:
        workload.jobs[0].run()
    records = probe.records
    assert workloads.check_job(workload.jobs[0], records) == []
    sens = records[2]
    sens.result["report"]["per_point"][0]["separation"] += 1e-6
    assert any("does not replay" in f for f in workloads.check_job(workload.jobs[0], records))
    records[0].result["holds"] = False
    assert any("reference True" in f for f in workloads.check_job(workload.jobs[0], records))
    records[1].result = None
    records[1].error = "RuntimeError: boom"
    assert any("raised" in f for f in workloads.check_job(workload.jobs[0], records))
    assert len(workloads.check_job(workload.jobs[0], records[:1])) == 3


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(layers.PER_LAYER))
