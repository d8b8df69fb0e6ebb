import importlib.util
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifs_lab import GALLERY_NAMES, build_example, circ_dist, compose_word, cli
from ifs_lab.cli import (EXIT_MALFORMED, EXIT_MISMATCH, EXIT_OK,
                         EXIT_UNSUPPORTED, MalformedInput, generator_to_config,
                         load_system_file, main, render_report, run_analyze,
                         system_from_config)
from ifs_lab.detectors import DEFAULT_RESOLUTION
from ifs_lab.properties import PROPERTY_NAMES

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SYSTEM_DOC = {
    "schema": "ifs-lab/1",
    "generators": [
        {"type": "rotation", "alpha": 0.6180339887},
        {"type": "flip"},
        {"type": "north_south", "q": 0.0, "lambda": 2.0},
        {"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5, 0.6], [1, 1]]},
        {"type": "expanding", "m": 2},
    ],
}


def test_system_round_trip():
    ifs = system_from_config(SYSTEM_DOC)
    assert ifs.k == 5
    configs = [generator_to_config(g) for g in ifs.generators]
    again = system_from_config({"generators": configs})
    assert [generator_to_config(g) for g in again.generators] == configs


def test_reals_as_decimal_strings():
    ifs = system_from_config({"generators": [{"type": "rotation", "alpha": "0.25"}]})
    assert ifs.generators[0].alpha == 0.25


@pytest.mark.parametrize("doc", [
    {"generators": [{"type": "rotation", "alpha": 0.1, "extra": 1}]},
    {"generators": [{"type": "warp"}]},
    {"generators": [{"type": "north_south", "q": 0.1}]},
    {"generators": [{"type": "expanding", "m": 1}]},
    {"generators": [{"type": "expanding", "m": "2"}]},
    {"generators": []},
    {"schema": "other/9", "generators": [{"type": "flip"}]},
    {"generators": [{"type": "piecewise_linear", "breakpoints": [[0, 0]]}]},
    {"generators": [{"type": "rotation", "alpha": "nan"}]},
    {"generators": [{"type": "rotation", "alpha": float("inf")}]},
    {"generators": [{"type": "north_south", "q": 0.0, "lambda": "inf"}]},
    {"generators": [{"type": "north_south", "q": "-1e999", "lambda": 2.0}]},
    {"generators": [{"type": "piecewise_linear",
                     "breakpoints": [[0, 0], [0.5, "nan"], [1, 1]]}]},
])
def test_malformed_documents_rejected(doc):
    with pytest.raises(MalformedInput):
        system_from_config(doc)


def test_non_finite_real_names_its_field(tmp_path, capsys):
    src = tmp_path / "sys.json"
    src.write_text('{"generators": [{"type": "north_south", "q": 0, "lambda": "inf"}]}')
    assert main(["analyze", "--system", str(src), "--props", "minimality"]) == EXIT_MALFORMED
    assert f"{src}.generators[0].lambda: expected a finite real" in capsys.readouterr().err


def test_huge_expanding_degree_names_its_field(tmp_path, capsys):
    doc = {"generators": [{"type": "flip"}, {"type": "expanding", "m": 10 ** 9}]}
    with pytest.raises(MalformedInput, match=r"^system\.generators\[1\]: expanding factor m"):
        system_from_config(doc)
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(doc))
    assert main(["analyze", "--system", str(src), "--props", "minimality"]) == EXIT_MALFORMED
    assert f"{src}.generators[1]: expanding factor m must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([{"type": "flip"}], ": expected a JSON object"),
    ({"generators": [{"alpha": 0.1}]}, ".generators[0]: each generator needs a 'type' field"),
    ({"generators": [{"type": "rotation", "alpha": True}]},
     ".generators[0].alpha: expected a number or decimal string"),
    ({"generators": [{"type": "rotation", "alpha": [0.1]}]},
     ".generators[0].alpha: expected a number or decimal string"),
    ({"generators": [{"type": "rotation", "alpha": "one"}]},
     ".generators[0].alpha: cannot parse 'one' as a real number"),
    ({"generators": [{"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5], [1, 1]]}]},
     ".generators[0].breakpoints[1]: expected [x, y]"),
    ({"generators": [{"type": "piecewise_linear",
                      "breakpoints": [[0, 0], [0.5, 0.7], [0.7, 0.6], [1, 1]]}]},
     ".generators[0]: lift must be strictly monotone"),
    ({"generators": [{"type": "north_south", "q": 0.1, "lambda": 0.5}]},
     ".generators[0]: multiplier must exceed 1, got 0.5"),
    ({"generators": [{"type": "flip"}, {"type": "north_south", "q": 0.1, "lambda": 1e12}]},
     ".generators[1]: multiplier must be at most 1e+06, got 1000000000000.0"),
    ({"generators": [{"type": "expanding", "m": 1}]},
     ".generators[0]: expanding factor must be an integer >= 2, got 1"),
    # JSON integers too large for a float
    ({"generators": [{"type": "rotation", "alpha": 10 ** 400}]},
     ".generators[0].alpha: expected a finite real"),
    ({"generators": [{"type": "piecewise_linear",
                      "breakpoints": [[0, 0], [0.5, -10 ** 400], [1, 1]]}]},
     ".generators[0].breakpoints[1].y: expected a finite real"),
])
def test_malformed_document_exits_2_naming_its_field(tmp_path, capsys, doc, message):
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(doc))
    assert main(["analyze", "--system", str(src), "--props", "minimality"]) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"error: {src}{message}\n"


@pytest.mark.parametrize("raw, message", [
    # json.load refuses an integer of more than 4,300 digits with a plain ValueError
    (b'{"generators": [{"type": "rotation", "alpha": 1' + b"0" * 5000 + b"}]}",
     ": an integer literal is too long to read"),
    # and a file that is not UTF-8 with a UnicodeDecodeError, also a ValueError
    (b'\xff{"generators": [{"type": "flip"}]}', ": not UTF-8 text: invalid start byte at byte 0"),
], ids=["long_integer", "not_utf8"])
def test_an_unreadable_document_exits_2_naming_its_file(tmp_path, capsys, raw, message):
    src = tmp_path / "sys.json"
    src.write_bytes(raw)
    assert main(["analyze", "--system", str(src), "--props", "minimality"]) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"error: {src}{message}\n"


@pytest.mark.parametrize("system, flags, message", [
    ("rotation_flip", ["--props", "almost_periodic", "--x", "inf"], "x must be finite, got inf"),
    ("rotation_flip", ["--props", "almost_periodic", "--x", "nan"], "x must be finite, got nan"),
    ("prop35_expanding", ["--props", "cofinite_sensitivity", "--delta=-1.0"], "delta must be"),
    ("prop35_expanding", ["--props", "cofinite_sensitivity", "--delta", "0.0"], "delta must be"),
    ("prop35_expanding", ["--props", "cofinite_sensitivity", "--delta", "nan"], "delta must be"),
    ("prop35_expanding", ["--props", "cofinite_sensitivity", "--delta", "inf"], "delta must be"),
], ids=["x_inf", "x_nan", "delta_negative", "delta_zero", "delta_nan", "delta_inf"])
def test_hostile_property_parameters_exit_2_naming_the_parameter(capsys, system, flags, message):
    assert main(["analyze", "--gallery", system, *flags]) == EXIT_MALFORMED
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("flag, field, props", [
    ("--depth", "depth", "transitivity"),
    ("--budget", "budget", "transitivity,minimality"),
    ("--net", "net_size", "transitivity"),
])
def test_resolution_counts_beyond_int64_exit_2_naming_the_field(tmp_path, capsys, flag, field,
                                                                props):
    # the searches index int64 arrays; a net of 2**63 points is never built
    src = tmp_path / "rotation.json"
    src.write_text(json.dumps({"generators": [{"type": "rotation", "alpha": 0.3}]}))
    t0 = time.perf_counter()
    code = main(["analyze", "--system", str(src), "--props", props, flag, str(2 ** 63)])
    assert code == EXIT_MALFORMED
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().err == f"error: {field} must be below 2**63, got {2 ** 63}\n"


REPO = pathlib.Path(__file__).resolve().parents[1]


def run_cli(args, timeout, **popen):
    """`python -m ifs_lab` on args in a child process, killed (raising
    subprocess.TimeoutExpired) if it runs past timeout seconds."""
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-m", "ifs_lab", *args], capture_output=True,
                          text=True, timeout=timeout, env=env, cwd=REPO, **popen)


def test_importing_the_cli_leaves_argparse_to_the_parse():
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = "import sys, ifs_lab.cli; print('argparse' in sys.modules, 'gettext' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, env=env, cwd=REPO)
    assert out.stdout.split() == ["False", "False"]
    verify = run_cli(["verify", "--gallery", "rotation_flip", "--net", "12"], 60)
    assert verify.returncode == EXIT_OK and "PASS" in verify.stdout


@pytest.mark.parametrize("flag", ["--window", "--depth"])
def test_a_cofinite_horizon_above_the_budget_exits_2_naming_the_fields(flag):
    # each net arc's chains would grow toward depth + window steps
    proc = run_cli(["analyze", "--gallery", "thm34_ns_rotation", "--props",
                    "cofinite_sensitivity", flag, str(10 ** 12)], timeout=5)
    assert proc.returncode == EXIT_MALFORMED
    assert proc.stderr.startswith("error: depth ")
    assert all(field in proc.stderr for field in ("+ window", "budget (100000)"))


def test_dense_periodic_on_a_long_one_letter_tree_is_not_quadratic(tmp_path):
    """Each word g**n has the two fixed points of g; bisecting every word's
    crossings in shared batches keeps max_len 200 well inside the timeout."""
    src, out = tmp_path / "ns.json", tmp_path / "report.json"
    src.write_text(json.dumps({"generators": [{"type": "north_south", "q": 0.1, "lambda": 2.0}]}))
    proc = run_cli(["analyze", "--system", str(src), "--props", "dense_periodic",
                    "--max-len", "200", "--out", str(out)], timeout=5)
    assert proc.returncode == EXIT_OK, proc.stderr
    found = json.loads(out.read_text())["properties"]["dense_periodic"]["witnesses"]
    # the repeller 0.1 and the attractor 0.6, the first witnessed by g itself
    assert (found["count"], found["max_gap"], found["example_words"]) == (2, 0.5, [[1]])


def test_dense_periodic_on_a_huge_degree_exits_2_before_seeking_a_root(tmp_path, monkeypatch):
    """The budget counts each word's branches: Expanding(65536) has 65,536 of
    length 1 and 2**32 more of length 2, whose brackets alone would take tens
    of GB, so the child may map no more than 1 GB (with one BLAS thread, so
    that no thread stack on a many-core host meets the limit first)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    src = tmp_path / "huge.json"
    src.write_text(json.dumps({"generators": [{"type": "expanding", "m": 65536}]}))

    def at_most_1_gb():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_cli(["analyze", "--system", str(src), "--props", "dense_periodic",
                    "--max-len", "2"], timeout=5, preexec_fn=at_most_1_gb)
    assert proc.returncode == EXIT_MALFORMED, proc.stderr
    assert proc.stderr.startswith("error: max_len 2: the branches ")
    assert proc.stderr.rstrip().endswith("exceed the budget (100000)")


def without_resolution(doc):
    if isinstance(doc, dict):
        return {k: without_resolution(v) for k, v in doc.items() if k != "resolution"}
    return doc


def test_sensitivity_chains_stop_at_the_budget(tmp_path):
    """Steering's repeats and the greedy chains run min(depth, budget)
    steps, as the breadth-first searches hold at most budget arcs, so a
    huge depth gives the results of depth = budget."""
    args = ["analyze", "--system", str(REPO / "tests" / "data" / "random_0_5.json"),
            "--props", "sensitivity,witness_pipeline", "--net", "12", "--eps", "0.02",
            "--r", "0.02", "--budget", "4000"]
    huge, at_budget = tmp_path / "huge.json", tmp_path / "at_budget.json"
    proc = run_cli(args + ["--depth", str(10 ** 9), "--out", str(huge)], timeout=10)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(args + ["--depth", "4000", "--out", str(at_budget)]) == EXIT_OK
    got, want = (json.loads(path.read_text()) for path in (huge, at_budget))
    assert got["resolution"]["depth"] == 10 ** 9
    assert without_resolution(got) == without_resolution(want)


def test_load_system_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInput):
        load_system_file(str(bad))
    with pytest.raises(MalformedInput):
        load_system_file(str(tmp_path / "missing.json"))


def test_analyze_rotation_minimality(tmp_path, capsys):
    src = tmp_path / "sys.json"
    src.write_text(json.dumps({"generators": [{"type": "rotation", "alpha": GOLDEN}]}))
    out = tmp_path / "report.json"
    code = main(["analyze", "--system", str(src), "--props", "minimality",
                 "--depth", "200", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema"] == "ifs-lab/1"
    assert report["properties"]["minimality"]["holds"] is True
    assert report["resolution"]["depth"] == 200
    # round-trip: re-serializing reproduces identical bytes
    assert render_report(report) == out.read_text()


def test_analyze_without_out_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--gallery", "prop35_expanding", "--props", "expanding"]) == EXIT_OK
    assert list(tmp_path.iterdir()) == []


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["analyze", "--gallery", "prop35_expanding", "--props", "expanding",
              "--threads", "2"])


def test_analyze_gallery_example_claims(tmp_path):
    out = tmp_path / "rf.json"
    code = main(["analyze", "--gallery", "rotation_flip",
                 "--props", "transitivity,sensitivity", "--out", str(out)])
    assert code == EXIT_OK
    props = json.loads(out.read_text())["properties"]
    assert props["transitivity"]["holds"] is True
    assert props["sensitivity"]["holds"] is False


def test_analyze_cofinite_flags(tmp_path):
    out = tmp_path / "pe.json"
    code = main(["analyze", "--gallery", "prop35_expanding",
                 "--props", "cofinite_sensitivity", "--delta", "0.2",
                 "--window", "100", "--out", str(out)])
    assert code == EXIT_OK
    verdict = json.loads(out.read_text())["properties"]["cofinite_sensitivity"]
    assert verdict["holds"] is True
    assert verdict["witnesses"]["max_N"] <= 6


def test_analyze_unknown_property(tmp_path):
    code = main(["analyze", "--gallery", "rotation_flip", "--props", "chaos",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_MALFORMED


def test_analyze_empty_property_list(capsys):
    assert main(["analyze", "--gallery", "rotation_flip", "--props", ","]) == EXIT_MALFORMED
    assert "--props must name at least one property" in capsys.readouterr().err


def test_analyze_noninvertible_exit(tmp_path):
    src = tmp_path / "exp.json"
    src.write_text(json.dumps({"generators": [{"type": "expanding", "m": 2}]}))
    code = main(["analyze", "--system", str(src), "--props", "strong_transitivity",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_UNSUPPORTED


def test_analyze_malformed_file_exit(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text('{"generators": [{"type": "rotation", "alpha": 0.1, "x": 2}]}')
    code = main(["analyze", "--system", str(src), "--props", "minimality",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_MALFORMED


def test_verify_gallery_pass_and_unknown():
    assert main(["verify", "--gallery", "rotation_flip"]) == EXIT_OK
    assert main(["verify", "--gallery", "unknown_name"]) == EXIT_MALFORMED


def test_verify_failure_exits_1_and_prints_the_witnesses(capsys):
    # one level of words is too shallow for the manifest's positive verdicts
    assert main(["verify", "--gallery", "thm34_ns_rotation", "--depth", "1"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "  FAIL strong_transitivity: expected holds=True, got False" in out
    assert '       witnesses: {"checked_points": ' in out
    # the caveat follows the witnesses on its own line and names the bound
    # that stopped the search
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("  FAIL strong_transitivity"))
    assert lines[at + 1].startswith('       witnesses: {"checked_points": ')
    assert lines[at + 2].startswith("       caveat: orbit not eps-dense")
    assert lines[at + 2].endswith(": the search reached its depth bound (depth=1)")
    # so does sensitivity's, for the search of the ball that sets delta_hat
    at = next(i for i, line in enumerate(lines) if line.startswith("  FAIL sensitivity"))
    assert '"stop_reason": "depth"' in lines[at + 1]
    assert lines[at + 2].endswith(": the search reached its depth bound (depth=1)")


def test_sensitivity_report_witnesses_replay(tmp_path):
    out = tmp_path / "dbl.json"
    src = tmp_path / "sys.json"
    src.write_text(json.dumps({"generators": [{"type": "expanding", "m": 2}]}))
    assert main(["analyze", "--system", str(src), "--props", "sensitivity",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    ifs = system_from_config({"generators": doc["system"]["generators"]})
    entries = doc["properties"]["sensitivity"]["report"]["per_point"]
    for entry in entries[:25]:
        w = tuple(entry["best_word"])
        sep = circ_dist(compose_word(ifs, w, entry["x"]),
                        compose_word(ifs, w, entry["best_partner_y"]))
        assert sep == pytest.approx(entry["separation"], abs=1e-10)


def test_timing_flag_controls_report_content(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["analyze", "--gallery", "prop35_expanding", "--props", "expanding",
          "--out", str(out1)])
    main(["analyze", "--gallery", "prop35_expanding", "--props", "expanding",
          "--timing", "--out", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert "timing_s" not in a
    assert "timing_s" in b


def test_dense_periodic_max_len_beyond_the_budget_exits_at_once(capsys):
    # the words of length up to 40 over four letters are never enumerated
    t0 = time.perf_counter()
    code = main(["analyze", "--gallery", "thm34_ns_rotation", "--props", "dense_periodic",
                 "--max-len", "40"])
    assert code == EXIT_MALFORMED
    assert time.perf_counter() - t0 < 5.0
    assert "error: max_len 40: " in capsys.readouterr().err


def test_unwritable_out_exits_2_before_any_detector_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "evaluate_property", lambda *args: calls.append(args))
    missing = tmp_path / "missing"
    for out, message in [(missing / "x.json", f"{missing} is not a directory"),
                         (tmp_path, f"{tmp_path} is a directory")]:
        code = main(["analyze", "--gallery", "thm34_ns_rotation",
                     "--props", "repelling_fixed_point", "--out", str(out)])
        assert code == EXIT_MALFORMED
        assert f"error: --out: {message}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_write_error_on_out_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "x.json"
    code = main(["analyze", "--gallery", "prop35_expanding", "--props", "expanding",
                 "--out", str(out)])
    assert code == EXIT_MALFORMED
    assert f"error: --out: cannot write {out}: read-only file system" in capsys.readouterr().err


def test_render_error_leaves_the_old_report_in_place(tmp_path, monkeypatch):
    out = tmp_path / "x.json"
    out.write_text("old report\n")
    monkeypatch.setattr(cli, "evaluate_property",
                        lambda *args: {"holds": True, "count": np.int64(3)})
    with pytest.raises(TypeError):
        run_analyze(build_example("prop35_expanding").system, {}, ["expanding"],
                    DEFAULT_RESOLUTION, {}, out_path=str(out), echo=lambda *a: None)
    assert out.read_text() == "old report\n"


# ---------------------------------------------------------------------------
# render_report against its reference, json's own indented encoder


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _analyze(system, source, props, res, params):
    return run_analyze(system, source, props, res, params, echo=lambda *a: None)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_gallery_reports_render_as_json_does(name):
    # every property, as the report determinism check in CI runs them
    props = [p for p in PROPERTY_NAMES
             if not (name == "prop35_expanding" and p == "strong_transitivity")]
    report = _analyze(build_example(name).system, {"kind": "gallery", "name": name},
                      props, DEFAULT_RESOLUTION, {"x": 0.237})
    assert render_report(report) == reference(report)


@pytest.mark.parametrize("name, prop", [("ex42_hinges", "transitivity"),
                                        ("ex42_hinges", "s_transitivity"),
                                        ("thm34_ns_rotation", "sensitivity")])
def test_heavy_arc_reports_render_as_json_does(name, prop):
    # the benchmark's heavy_arcs jobs; s_transitivity's report is the largest
    report = _analyze(build_example(name).system, {"kind": "gallery", "name": name},
                      [prop], DEFAULT_RESOLUTION.replaced(net_size=300), {})
    assert render_report(report) == reference(report)


def test_random_system_reports_render_as_json_does():
    # the benchmark's random_systems pass at seed 0: 50 documents, 7 properties
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "systems.py"
    spec = importlib.util.spec_from_file_location("bench_systems", path)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    props = ["minimality", "transitivity", "sensitivity", "almost_periodic",
             "repelling_fixed_point", "dense_periodic", "local_expanding"]
    res = DEFAULT_RESOLUTION.replaced(net_size=12, depth=30, budget=4000, eps=0.02, r=0.02)
    for i, doc in enumerate(systems.random_documents(0)):
        report = _analyze(system_from_config(doc), {"kind": "document", "name": str(i)},
                          props, res, {"x": 0.3, "max_len": 2})
        assert render_report(report) == reference(report), i


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324, 0.1, 1e-5]))
_TEXT = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001d11e", "\ud800", "\n\t\r\b\f", ""]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -(10 ** 40), 10 ** 300]),
    _FLOATS, _FLOATS.map(np.float64), _TEXT)
_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(st.integers(), children, max_size=3),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
    st.sampled_from([[], {}, (), [[]], {"": {}}, [(), [{}]]]),
), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_render_report_equals_json_on_any_value(value):
    assert render_report(value) == reference(value)


@pytest.mark.parametrize("value", [
    {None: 1}, {True: 1, False: 2}, {0.5: 1, 2: 2, True: 3, -7: 4},
    {math.nan: 1}, {math.inf: 1, -math.inf: 2}, {np.float64(0.1): []},
    [True, 1, False, 0], [np.float64(math.nan), np.float64(-0.0)],
])
def test_non_string_keys_and_subclasses_render_as_json_does(value):
    assert render_report(value) == reference(value)


@pytest.mark.parametrize("value", [
    np.int64(3), [np.int64(3)], {"a": np.bool_(True)}, {1, 2}, {"a": object()},
    {(1, 2): 3}, {"a": b"bytes"}, {None: 1, "a": 2},
])
def test_values_json_rejects_raise_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        render_report(value)
