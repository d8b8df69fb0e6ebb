"""ifs-lab benchmark.

One run measures one workload in this process, with one caller and one
thread (a closed loop: each job starts when the previous one returns):

    python3 bench/run.py --workload heavy_arcs --seed 3 --seconds 20 --trace 0

With no --workload, every workload runs in its own fresh process and a table
of all end-to-end metrics is printed:

    python3 bench/run.py --seed 0

`--trace 0` repeats passes over the job list until the next pass would end
after --seconds (at least one pass) and reports medians over passes, every
time scaled to a reference host speed that calibrate.py gauges during the
passes (the times as measured are printed alongside).
`--trace 1` runs one untraced pass, then one pass under the layer tracer, and
reports the per-layer metrics.  Either way the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Detailed
results, the environment, the generated systems and the trace go to
bench/out/.  README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

import calibrate  # noqa: E402
from layers import layer_metrics, print_breakdown  # noqa: E402
from systems import render_documents  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, VerdictProbe, build_workload,  # noqa: E402
                       check_job)

# Cold set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

# A job or verdict with fewer calibration samples than this is scaled by the
# nearest ones.
GAUGE_MIN_SAMPLES = 8

# A pass with at least TAIL_MIN_VERDICTS verdicts reports as verdict_max_s the
# verdict with TAIL_BEYOND slower ones: its single slowest verdict is an
# extreme of the seeded input draw, not a property of the code.
TAIL_MIN_VERDICTS = 100
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("verdict_mid_s", "s"), ("verdict_max_s", "s"), ("peak_rss_mb", "MB"))


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def slowest_verdict(seconds: List[float]) -> float:
    ordered = sorted(seconds)
    if len(ordered) >= TAIL_MIN_VERDICTS:
        return ordered[-1 - TAIL_BEYOND]
    return ordered[-1]


def middle_verdict(seconds: List[float]) -> float:
    """Geometric mean of the middle third of the verdict times: the time of
    a typical verdict.  The values between the 1/3 and 2/3 points of the
    sorted sample count, the two straddling those points in part, so that
    repeating every verdict k times (k passes) leaves the result unchanged.
    A plain median would jump between neighbouring verdicts (15 on
    verify_gallery, 20-40 ms apart) as their times jitter."""
    ordered = sorted(seconds)
    lo, hi = len(ordered) / 3, 2 * len(ordered) / 3
    total = weight = 0.0
    for i, v in enumerate(ordered):
        w = min(i + 1, hi) - max(i, lo)
        if w > 0:
            total += w * math.log(max(v, 1e-9))
            weight += w
    return math.exp(total / weight)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    wall: float
    cpu: float
    verdict_seconds: List[float]
    negatives: int
    attempted: int
    failures: List[str] = field(default_factory=list)
    # The same times at the reference speed (equal to the above if not gauged).
    wall_scaled: float = 0.0
    cpu_scaled: float = 0.0
    verdict_scaled: List[float] = field(default_factory=list)
    verdict_cases: List[str] = field(default_factory=list)
    # calibration kernel times sampled during the pass (empty if not gauged)
    gauge: List[float] = field(default_factory=list)
    # (label, seconds, speed scale) per job, in pass order
    jobs: List[tuple] = field(default_factory=list)


def span_scale(samples: List[float], first: int, end: int) -> float:
    """Speed scale for a job or verdict during which the kernel samples
    `samples[first:end]` were taken, widened to the nearest
    GAUGE_MIN_SAMPLES samples for a short one."""
    pad = max(0, GAUGE_MIN_SAMPLES - (end - first) + 1) // 2
    lo, hi = max(0, first - pad), min(len(samples), end + pad)
    return calibrate.scale(samples[lo:hi]) if hi > lo else 1.0


def run_pass(workload, tracer=None, gauged=False) -> PassResult:
    """One traversal of the job list, timed job by job; the oracle runs
    afterwards.  With `gauged`, a `calibrate.Gauge` interrupts the pass to
    sample the host's speed, the times leave its kernel out, and each job's
    and each verdict's time is also scaled to the reference speed by the
    samples taken during it."""
    per_job = []
    gauge = calibrate.Gauge(cpu=cpu_seconds) if gauged else None
    clock, cpu_clock = (gauge.clock, gauge.cpu_clock) if gauged else (time.perf_counter,
                                                                      cpu_seconds)
    if tracer is not None:
        tracer.install()
    try:
        mark = (lambda: len(gauge.samples)) if gauged else (lambda: 0)
        with VerdictProbe(clock, mark) as probe, gauge or contextlib.nullcontext():
            for job in workload.jobs:
                start = len(probe.records)
                sampled = mark()
                cpu0, t0 = cpu_clock(), clock()
                try:
                    job.run()
                    raised = None
                except Exception as exc:  # counted as a failed verdict below
                    raised = f"{type(exc).__name__}: {exc}"
                took, cpu = clock() - t0, cpu_clock() - cpu0
                span = (sampled, mark())
                per_job.append((job, probe.records[start:], raised, took, cpu, span))
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples = gauge.samples if gauged else []  # no samples: a scale of 1
    result = PassResult(0.0, 0.0, [], 0, 0, gauge=samples)
    for job, records, raised, took, cpu, span in per_job:
        k = span_scale(samples, *span)
        result.wall += took
        result.cpu += cpu
        result.wall_scaled += took * k
        result.cpu_scaled += cpu * k
        result.jobs.append((job.label, took, k))
        failures = check_job(job, records)
        if raised and not any(r.error for r in records):
            failures.append(f"{job.label}: raised {raised}")
        result.failures.extend(failures[:len(job.expected)])
        result.attempted += len(job.expected)
        result.verdict_seconds.extend(r.seconds for r in records)
        result.verdict_cases.extend(case for case, _ in job.expected[:len(records)])
        result.verdict_scaled.extend(r.seconds * span_scale(samples, *r.marks)
                                     for r in records)
        result.negatives += sum(1 for r in records if r.holds is False)
    return result


def cold_setup_seconds(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Cold set-up times in fresh interpreters, as measured and at the
    reference speed."""
    script = os.path.join(BENCH_DIR, "cold_setup.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, script, name, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(sample["seconds"])
        scaled.append(sample["seconds"] * sample["scale"])
    return raw, scaled


def environment() -> dict:
    """The machine and software a run was measured on."""
    import numpy
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "platform": platform.platform(), "cpu_model": "unknown", "caches": {},
           "commit": _commit()}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(leaf):
                with open(os.path.join(base, index, leaf), "r", encoding="utf-8") as fh:
                    return fh.read().strip()
            env["caches"][f"L{read('level')}{read('type')[0].lower()}"] = read("size")
    except OSError:
        pass
    return env


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _out_path(filename: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, filename)


def _print_environment(env: dict) -> None:
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, caches {env['caches']}, "
          f"Python {env['python']}, numpy {env['numpy']}, commit {env['commit']}")


def _report_failures(failures: List[str], workload) -> None:
    if not failures:
        return
    print(f"{len(failures)} failed verdict(s):", file=sys.stderr)
    for f in failures[:50]:
        print(f"  FAIL {f}", file=sys.stderr)
    if workload.documents:
        print("generated systems (replay with system_from_config), one per line:",
              file=sys.stderr)
        print(render_documents(workload.documents), end="", file=sys.stderr)


def measure(name: str, seed: int, seconds: float) -> dict:
    setup_raw, setup = cold_setup_seconds(name, seed)
    workload = build_workload(name, seed)
    passes: List[PassResult] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, gauged=True))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)

    def per_pass(wall, cpu, verdicts) -> dict:
        """Medians over passes of each timed metric, given the accessors of
        a pass's times; verdict_mid_s pools the verdicts of all passes."""
        return {
            "wall_s": statistics.median(wall(p) for p in passes),
            "cpu_s": statistics.median(cpu(p) for p in passes),
            "verdict_mid_s": middle_verdict([v for p in passes for v in verdicts(p)]),
            "verdict_max_s": statistics.median(slowest_verdict(verdicts(p))
                                               for p in passes),
        }

    values = {"setup_s": statistics.median(setup),
              **per_pass(lambda p: p.wall_scaled, lambda p: p.cpu_scaled,
                         lambda p: p.verdict_scaled),
              "peak_rss_mb": peak_rss_mb()}
    raw = {"setup_s": statistics.median(setup_raw),
           **per_pass(lambda p: p.wall, lambda p: p.cpu, lambda p: p.verdict_seconds)}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    error_rate = len(failures) / attempted
    speed = statistics.median(calibrate.scale(p.gauge) if p.gauge else 1.0
                              for p in passes)
    env = environment()
    _print_environment(env)
    print(f"workload {name} seed {seed}: {len(passes)} pass(es), "
          f"{len(passes[0].verdict_seconds)} verdicts per pass, "
          f"setup samples {len(setup)}, time scale x{speed:.3f} to the reference speed")
    print(f"  {'metric':<14s} {'reported':>12s} {'as measured':>12s}")
    for k, unit in END_TO_END:
        print(f"  {k:<14s} {values[k]:12.6f} {raw.get(k, values[k]):12.6f} {unit}")
    print(f"  {'error_rate':<14s} {error_rate:12.6f} ratio ({len(failures)}/{attempted})")
    _report_failures(failures, workload)
    with open(_out_path(f"{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "environment": env, "metrics": metrics,
                   "as_measured": raw, "error_rate": error_rate, "failures": failures,
                   "setup_samples_s": setup_raw, "setup_scaled_s": setup,
                   "passes": [p.__dict__ for p in passes],
                   "documents": workload.documents}, fh, indent=1, sort_keys=True)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def measure_traced(name: str, seed: int) -> dict:
    workload = build_workload(name, seed)
    plain = run_pass(workload)
    tracer = Tracer()
    traced = run_pass(workload, tracer)
    values, units = layer_metrics(tracer, traced.wall, plain.wall, traced)
    env = environment()
    _print_environment(env)
    print_breakdown(name, tracer, traced.wall, plain.wall, values)
    failures = plain.failures + traced.failures
    _report_failures(failures, workload)
    path = _out_path(f"{name}-seed{seed}-trace.json")
    tracer.write(path, {"workload": name, "seed": seed, "environment": env,
                        "traced_wall_s": traced.wall, "untraced_wall_s": plain.wall,
                        "per_layer": values, "failures": failures})
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    return {"correct": not failures, "attempted": plain.attempted + traced.attempted,
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in values}}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process, then one table."""
    rows = {}
    ok = True
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            ok = False
            continue
        rows[name] = json.loads(lines[-1])
        ok = ok and rows[name]["correct"]
    names = [n for n in WORKLOADS if n in rows]
    if not names:
        return 1
    metrics = list(rows[names[0]]["metrics"]) if trace else [m for m, _ in END_TO_END]
    print()
    print(f"{'metric':<34s}" + "".join(f"{n:>16s}" for n in names))
    for m in metrics:
        unit = rows[names[0]]["metrics"][m]["unit"]
        print(f"{m + ' [' + unit + ']':<34s}"
              + "".join(f"{rows[n]['metrics'][m]['value']:16.6g}" for n in names))
    print(f"{'error_rate [ratio]':<34s}"
          + "".join(f"{rows[n]['failed'] / rows[n]['attempted']:16.6g}" for n in names))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ifs_lab", "__init__.py")):
        print(f"error: no ifs_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, SRC)
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
