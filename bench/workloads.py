"""The benchmark's four workloads, their job lists and their correctness oracle.

A workload is a list of jobs; one pass runs every job once, in an order the
seed permutes.  Each job is one user-level call, as `ifs-lab verify` or
`ifs-lab analyze` would make it: it builds its system afresh (so no cache on
an `IfsSystem` can carry over from one job or pass to the next), runs the
detectors, and renders the report.

Every property evaluation goes through `ifs_lab.cli.evaluate_property`; the
`VerdictProbe` times each one and keeps its result for the oracle.  The
library is imported lazily so that `cold_setup.py` can time a cold import.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from systems import random_documents

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference", "random_systems.json")

WORKLOADS = ("verify_gallery", "heavy_arcs", "heavy_orbits", "random_systems")

# The expanding degree keeps the quadratic root-finding cost visible.
DOCUMENTS = {"expanding_128": {"schema": "ifs-lab/1",
                               "generators": [{"type": "expanding", "m": 128}]}}

# (system, property, resolution overrides, params) per job; every verdict holds.
HEAVY = {
    "heavy_arcs": [
        ("ex42_hinges", "transitivity", {"net_size": 300}, {}),
        ("ex42_hinges", "s_transitivity", {"net_size": 300}, {}),
        ("thm34_ns_rotation", "sensitivity", {"net_size": 300}, {}),
    ],
    "heavy_orbits": [
        ("thm34_ns_rotation", "minimality", {"depth": 200, "eps": 0.002}, {}),
        ("thm34_ns_rotation", "strong_transitivity", {"depth": 200, "eps": 0.002}, {}),
        ("rotation_flip", "almost_periodic", {"eps": 0.002, "depth": 400}, {"x": 0.0}),
        ("thm34_ns_rotation", "dense_periodic", {}, {"max_len": 4}),
        ("expanding_128", "repelling_fixed_point", {}, {}),
    ],
}

RANDOM_PROPS = ("minimality", "transitivity", "sensitivity", "almost_periodic",
                "repelling_fixed_point", "dense_periodic", "local_expanding")
RANDOM_PARAMS = {"x": 0.3, "max_len": 2}
# Reduced resolution for random systems: each of the 50 systems costs well
# under a second, so one pass covers every generator-type mix.
RANDOM_RESOLUTION = {"net_size": 12, "depth": 30, "budget": 4000, "eps": 0.02, "r": 0.02}


@dataclass
class VerdictRecord:
    prop: str
    seconds: float
    ifs: object
    result: Optional[dict] = None
    error: Optional[str] = None
    # the probe's `mark` readings at the verdict's start and end
    marks: Tuple[int, int] = (0, 0)

    @property
    def holds(self) -> Optional[bool]:
        return None if self.result is None else self.result.get("holds")


class VerdictProbe:
    """Times every `evaluate_property` call made through `ifs_lab.cli`.

    `run_verify` and `run_analyze` look the function up in the cli module's
    namespace, so replacing that one binding sees every verdict.  `clock`
    reads the time in seconds; `mark` is read at each verdict's start and end
    (run.py passes the count of speed samples taken so far).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 mark: Callable[[], int] = lambda: 0):
        from ifs_lab import cli
        self.clock = clock
        self.mark = mark
        self.records: List[VerdictRecord] = []
        self._cli = cli
        self._original = cli.evaluate_property

    def __enter__(self):
        original = self._original
        records = self.records
        clock, mark = self.clock, self.mark

        def timed(ifs, prop, res, params=None):
            m0, t0 = mark(), clock()
            try:
                result = original(ifs, prop, res, params)
            except Exception as exc:
                records.append(VerdictRecord(prop, clock() - t0, ifs,
                                             error=f"{type(exc).__name__}: {exc}",
                                             marks=(m0, mark())))
                raise
            records.append(VerdictRecord(prop, clock() - t0, ifs, result=result,
                                         marks=(m0, mark())))
            return result

        self._cli.evaluate_property = timed
        return self

    def __exit__(self, *exc):
        self._cli.evaluate_property = self._original
        return False


@dataclass
class Job:
    """One user-level call; `expected` lists (case, holds-or-None) in call
    order; `build` builds the job's system as the call does."""

    label: str
    run: Callable[[], None]
    expected: List[tuple]
    build: Callable


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    documents: List[dict] = field(default_factory=list)


def _sink(*_args, **_kwargs):
    pass


def _verify_job(name: str) -> Job:
    from ifs_lab import cli, gallery
    from ifs_lab.detectors import DEFAULT_RESOLUTION
    manifest = gallery.build_example(name).expected
    expected = [(f"{name}/{e.name}{_params_tag(e.params)}", e.holds) for e in manifest]

    def run() -> None:
        cli.run_verify(name, DEFAULT_RESOLUTION, echo=_sink)

    return Job(f"verify {name}", run, expected, _gallery_system(name))


def _params_tag(params: dict) -> str:
    return "" if not params else "[" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + "]"


def _analyze_job(label: str, build: Callable, props, res_overrides: dict,
                 params: dict, expected: List[Optional[bool]]) -> Job:
    from ifs_lab import cli
    from ifs_lab.detectors import DEFAULT_RESOLUTION
    res = DEFAULT_RESOLUTION.replaced(**res_overrides)

    def run() -> None:
        ifs, source = build()
        report = cli.run_analyze(ifs, source, list(props), res, dict(params), echo=_sink)
        cli.render_report(report)

    return Job(f"analyze {label}", run,
               [(f"{label}/{p}", e) for p, e in zip(props, expected)], build)


def _gallery_system(name: str):
    def build():
        from ifs_lab import gallery
        return gallery.build_example(name).system, {"kind": "gallery", "name": name}
    return build


def _document_system(doc: dict, label: str):
    def build():
        from ifs_lab import cli
        return cli.system_from_config(doc), {"kind": "document", "name": label}
    return build


def load_reference() -> dict:
    """Recorded holds values of random_systems, keyed by seed."""
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def build_workload(name: str, seed: int) -> Workload:
    """The job list of a workload; the seed permutes it (and, for
    random_systems, generates the systems)."""
    from ifs_lab import gallery
    docs: List[dict] = []
    if name == "verify_gallery":
        jobs = [_verify_job(n) for n in gallery.GALLERY_NAMES]
    elif name in HEAVY:
        jobs = [_analyze_job(system, _document_system(DOCUMENTS[system], system)
                             if system in DOCUMENTS else _gallery_system(system),
                             [prop], res, params, [True])
                for system, prop, res, params in HEAVY[name]]
    elif name == "random_systems":
        docs = random_documents(seed)
        recorded = load_reference().get(str(seed))
        jobs = []
        for i, doc in enumerate(docs):
            label = f"seed{seed}/system{i}"
            expected = recorded[i] if recorded else [None] * len(RANDOM_PROPS)
            jobs.append(_analyze_job(label, _document_system(doc, label), RANDOM_PROPS,
                                     RANDOM_RESOLUTION, RANDOM_PARAMS, expected))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if name != "random_systems":
        random.Random(seed).shuffle(jobs)
    return Workload(name, jobs, docs)


# ---------------------------------------------------------------------------
# oracle


def _replay_sensitivity(rec: VerdictRecord) -> Optional[str]:
    from ifs_lab import circ_dist
    ifs = rec.ifs
    for entry in rec.result["report"]["per_point"]:
        x, y, r = entry["x"], entry["best_partner_y"], entry["r"]
        w = tuple(entry["best_word"])
        if circ_dist(x, y) > r + 1e-12:
            return f"partner y={y} lies outside B({x}, {r})"
        sep = circ_dist(ifs.apply_word(w, x), ifs.apply_word(w, y))
        if abs(sep - entry["separation"]) > 1e-9:
            return (f"separation {entry['separation']} at x={x} r={r} does not replay "
                    f"(word {list(w)} gives {sep})")
    return None


def _replay_repeller(rec: VerdictRecord) -> Optional[str]:
    from ifs_lab import circ_dist
    if not rec.holds:
        return None
    wit = rec.result["witnesses"]
    g = rec.ifs.generators[wit["generator"] - 1]
    loc = wit["location"]
    if circ_dist(g.eval(loc), loc) > 1e-9:
        return f"location {loc} is not fixed by generator {wit['generator']}"
    if not all(m > 1.0 for m in wit["multipliers"]):
        return f"multipliers {wit['multipliers']} are not both > 1"
    return None


_REPLAYS = {"sensitivity": _replay_sensitivity, "repelling_fixed_point": _replay_repeller}


def check_job(job: Job, records: List[VerdictRecord]) -> List[str]:
    """Failure messages for one job's verdicts, one per failed verdict.

    A verdict fails if it raised, was never reached, its `holds` differs from
    the reference, or its witness does not replay."""
    failures = []
    for i, (case, expect) in enumerate(job.expected):
        if i >= len(records):
            failures.append(f"{case}: not evaluated")
            continue
        rec = records[i]
        if rec.error is not None:
            failures.append(f"{case}: raised {rec.error}")
            continue
        if expect is not None and rec.holds != expect:
            failures.append(f"{case}: holds={rec.holds}, reference {expect}")
            continue
        replay = _REPLAYS.get(rec.prop)
        try:
            problem = replay(rec) if replay else None
        except Exception as exc:  # a malformed witness is a failed verdict
            problem = f"replay raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{case}: {problem}")
    return failures
