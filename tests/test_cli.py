import json
import math
import time

import pytest

from ifs_lab import circ_dist, compose_word
from ifs_lab.cli import (EXIT_MALFORMED, EXIT_MISMATCH, EXIT_OK,
                         EXIT_UNSUPPORTED, MalformedInput, generator_to_config,
                         load_system_file, main, render_report,
                         system_from_config)

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
])
def test_malformed_document_exits_2_naming_its_field(tmp_path, capsys, doc, message):
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(doc))
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
