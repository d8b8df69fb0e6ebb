"""The paper's implications between verdicts, as a metamorphic test (T. Y.
Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 51(1), 2018).

Where a premise's verdict holds, the conclusion's must hold too; a
violation means one of the detectors is wrong or its bound too small.  The
relations run on the gallery at the default resolution and on every
document of the benchmark's random seeds 0 and 1 at its random_systems
resolution.
"""

import importlib.util
import pathlib

from ifs_lab import GALLERY_NAMES, NonInvertible, build_example
from ifs_lab.cli import system_from_config
from ifs_lab.detectors import DEFAULT_RESOLUTION
from ifs_lab.properties import evaluate_property

PROPS = ("minimality", "transitivity", "strong_transitivity", "s_transitivity",
         "repelling_fixed_point", "sensitivity", "expanding", "local_expanding",
         "cofinite_sensitivity")  # the last at its defaults, delta 0.2 and window 100

# premise (every one of its properties holds) => conclusion.  At r = eps,
# s_transitivity and transitivity run one search and fail on the same
# condition, so that row cannot fail until S-transitivity tests an eps-cover
# of the circle (ROADMAP item 11).
IMPLICATIONS = [
    (("minimality",), "transitivity"),
    (("strong_transitivity",), "transitivity"),
    (("s_transitivity",), "transitivity"),
    (("strong_transitivity", "repelling_fixed_point"), "sensitivity"),  # thm34
    (("expanding",), "local_expanding"),
    (("expanding",), "cofinite_sensitivity"),  # prop35
]

RANDOM_RES = DEFAULT_RESOLUTION.replaced(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)


def random_documents(seed):
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "systems.py"
    spec = importlib.util.spec_from_file_location("bench_systems", path)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    return systems.random_documents(seed)


def holds(ifs, prop, res):
    """The verdict's `holds`; strong transitivity of a system with a
    non-invertible generator counts as not held."""
    try:
        return evaluate_property(ifs, prop, res)["holds"]
    except NonInvertible:
        return False


def cases():
    yield from ((name, build_example(name).system, DEFAULT_RESOLUTION) for name in GALLERY_NAMES)
    for seed in (0, 1):
        for i, doc in enumerate(random_documents(seed)):
            yield f"seed{seed}/system{i}", system_from_config(doc), RANDOM_RES


def test_no_verdict_contradicts_the_papers_implications():
    held = {row: 0 for row in IMPLICATIONS}
    violations = []
    for label, ifs, res in cases():
        verdict = {prop: holds(ifs, prop, res) for prop in PROPS}
        for row in IMPLICATIONS:
            premise, conclusion = row
            if all(verdict[p] for p in premise):
                held[row] += 1
                if not verdict[conclusion]:
                    violations.append((label, row))
    assert violations == []
    # every row was tested somewhere
    assert all(held.values()), held
