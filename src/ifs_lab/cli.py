"""Batch front door: parse a system (gallery name or JSON file), run the
requested properties (`ifs_lab.properties`) at a given resolution, and emit
a machine-readable report plus a human-readable summary.

Jobs look `evaluate_property` up in this module, so rebinding it here
reaches every verdict.  Reports are JSON with a two-space indent, sorted
keys, every non-ASCII character escaped as \\uXXXX, and non-finite floats
written `NaN`, `Infinity` and `-Infinity`: the bytes of
`json.dumps(report, indent=2, sort_keys=True)` plus a newline.  Identical
analyses produce identical bytes from run to run; wall-clock timings go to
stdout (and into the report only with --timing).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _escape
from typing import List, Optional, Tuple

from . import __version__
from .detectors import DEFAULT_RESOLUTION, Resolution
from .gallery import GALLERY_NAMES, UnknownExample, build_example
from .generators import (Expanding, Flip, Generator, NonInvertible, NorthSouth,
                         NotDifferentiable, PiecewiseLinear, Rotation)
from .properties import PARAM_NAMES, PROPERTIES, PROPERTY_NAMES, evaluate_property, property_spec
from .semigroup import MAX_GENERATORS, IfsSystem

SCHEMA = "ifs-lab/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3


class MalformedInput(Exception):
    """Input file or flags failed validation; message carries the field."""


# ---------------------------------------------------------------------------
# system (de)serialization


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise MalformedInput(f"{where}: expected a number or decimal string")
    try:
        real = float(value)
    except ValueError:
        raise MalformedInput(f"{where}: cannot parse {value!r} as a real number")
    except OverflowError:  # an integer beyond the largest float
        raise MalformedInput(f"{where}: expected a finite real")
    if not math.isfinite(real):
        raise MalformedInput(f"{where}: expected a finite real")
    return real


def _check_fields(cfg: dict, allowed: set, where: str) -> None:
    extra = set(cfg) - allowed
    if extra:
        raise MalformedInput(f"{where}: unknown fields {sorted(extra)}")


def generator_from_config(cfg: dict, where: str) -> Generator:
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise MalformedInput(f"{where}: each generator needs a 'type' field")
    kind = cfg["type"]
    try:
        if kind == "rotation":
            _check_fields(cfg, {"type", "alpha"}, where)
            return Rotation(_as_real(cfg.get("alpha", 0.0), where + ".alpha"))
        if kind == "flip":
            _check_fields(cfg, {"type"}, where)
            return Flip()
        if kind == "north_south":
            _check_fields(cfg, {"type", "q", "lambda"}, where)
            if "lambda" not in cfg:
                raise MalformedInput(f"{where}: north_south needs 'lambda'")
            return NorthSouth(_as_real(cfg.get("q", 0.0), where + ".q"),
                              _as_real(cfg["lambda"], where + ".lambda"))
        if kind == "piecewise_linear":
            _check_fields(cfg, {"type", "breakpoints"}, where)
            bps = cfg.get("breakpoints")
            if not isinstance(bps, list) or len(bps) < 2:
                raise MalformedInput(f"{where}: breakpoints must be a list of [x, y] pairs")
            pairs = []
            for i, bp in enumerate(bps):
                if not isinstance(bp, (list, tuple)) or len(bp) != 2:
                    raise MalformedInput(f"{where}.breakpoints[{i}]: expected [x, y]")
                pairs.append((_as_real(bp[0], f"{where}.breakpoints[{i}].x"),
                              _as_real(bp[1], f"{where}.breakpoints[{i}].y")))
            return PiecewiseLinear(tuple(pairs))
        if kind == "expanding":
            _check_fields(cfg, {"type", "m"}, where)
            m = cfg.get("m")
            if not isinstance(m, int) or isinstance(m, bool):
                raise MalformedInput(f"{where}.m: expected an integer >= 2")
            return Expanding(m)
    except ValueError as exc:
        raise MalformedInput(f"{where}: {exc}")
    raise MalformedInput(f"{where}: unknown generator type {kind!r}")


def generator_to_config(g: Generator) -> dict:
    if isinstance(g, Rotation):
        return {"type": "rotation", "alpha": g.alpha}
    if isinstance(g, Flip):
        return {"type": "flip"}
    if isinstance(g, NorthSouth):
        return {"type": "north_south", "q": g.q, "lambda": g.lam}
    if isinstance(g, PiecewiseLinear):
        return {"type": "piecewise_linear",
                "breakpoints": [[x, y] for x, y in g.breakpoints]}
    if isinstance(g, Expanding):
        return {"type": "expanding", "m": g.m}
    raise TypeError(f"cannot serialize generator {g!r}")


def system_from_config(doc: dict, where: str = "system") -> IfsSystem:
    if not isinstance(doc, dict):
        raise MalformedInput(f"{where}: expected a JSON object")
    _check_fields(doc, {"schema", "generators"}, where)
    if "schema" in doc and doc["schema"] != SCHEMA:
        raise MalformedInput(f"{where}.schema: expected {SCHEMA!r}, got {doc['schema']!r}")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise MalformedInput(f"{where}.generators: expected a non-empty list")
    if len(gens) > MAX_GENERATORS:
        raise MalformedInput(f"{where}.generators: more than {MAX_GENERATORS} generators")
    return IfsSystem(generator_from_config(cfg, f"{where}.generators[{i}]")
                     for i, cfg in enumerate(gens))


def load_system_file(path: str) -> IfsSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except ValueError:  # int() refuses a literal above sys.get_int_max_str_digits()
        raise MalformedInput(f"{path}: an integer literal is too long to read")
    return system_from_config(doc, where=path)


# ---------------------------------------------------------------------------
# analyze / verify drivers


def _resolution_from_args(args) -> Resolution:
    fields = ("eps", "r", "depth", "net_size", "budget")
    return DEFAULT_RESOLUTION.replaced(**{f: getattr(args, f) for f in fields
                                          if getattr(args, f) is not None})


def _params_from_args(args) -> dict:
    return {name: getattr(args, name) for name in PARAM_NAMES if getattr(args, name) is not None}


def _run_timed(ifs: IfsSystem, jobs, res: Resolution) -> List[Tuple[dict, float]]:
    """Evaluate each (property, params) job in order, with its wall time."""
    results = []
    for prop, params in jobs:
        t0 = time.perf_counter()
        result = evaluate_property(ifs, prop, res, params)
        results.append((result, time.perf_counter() - t0))
    return results


def run_analyze(ifs: IfsSystem, source: dict, props: List[str], res: Resolution,
                params: dict, include_timing: bool = False,
                out_path: Optional[str] = None, echo=print) -> dict:
    """Run the requested detectors and assemble the report document."""
    for p in props:
        property_spec(p)
    if out_path:
        _check_out_path(out_path)
    results = _run_timed(ifs, [(p, params) for p in props], res)
    report = {
        "schema": SCHEMA,
        "tool": {"name": "ifs-lab", "version": __version__},
        "source": source,
        "system": {"generators": [generator_to_config(g) for g in ifs.generators]},
        "resolution": res.to_dict(),
        "params": params,
        "properties": {p: r for p, (r, _) in zip(props, results)},
    }
    if include_timing:
        report["timing_s"] = {p: t for p, (_, t) in zip(props, results)}
    for p, (r, t) in zip(props, results):
        echo(f"  {p:<24s} holds={str(r['holds']):<5s}  [{t:.2f}s]")
    if out_path:
        text = render_report(report)
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedInput(f"--out: cannot write {out_path}: {exc}")
        echo(f"report written to {out_path}")
    return report


def _check_out_path(path: str) -> None:
    """Reject, before any detector runs, a report path that cannot be a file."""
    if os.path.isdir(path):
        raise MalformedInput(f"--out: {path} is a directory")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise MalformedInput(f"--out: {folder} is not a directory")


def render_report(report: dict) -> str:
    """The bytes of `json.dumps(report, indent=2, sort_keys=True)` plus a
    newline, built without the pure-Python encoder that `json` falls back to
    whenever `indent` is set."""
    return _render(report, "\n") + "\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_PLAIN_INT = frozenset([int])


def _render_key(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):
        return _escape(_render(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render(value, newline: str) -> str:
    """`value` with its lines indented as `newline` is; the type checks run
    in `json`'s order, so subclasses such as np.float64 render as there."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _PLAIN_INT.issuperset(map(type, value)):  # a word: join its letters at once
            return f"[{inner}{sep.join(map(int.__repr__, value))}{newline}]"
        return f"[{inner}{sep.join([_render(v, inner) for v in value])}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # one flat join: a large value is not first copied into a "key: value" string
        parts = []
        for k, v in sorted(value.items()):
            parts += (sep, _render_key(k), ": ", _render(v, inner))
        parts[0] = "{" + inner
        parts += (newline, "}")
        return "".join(parts)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run_verify(name: str, res: Resolution, echo=print) -> int:
    """Check a gallery entry's expected manifest; exit status semantics."""
    entry = build_example(name)
    echo(f"verify {name}: {entry.description}")
    results = _run_timed(entry.system, [(e.name, e.params) for e in entry.expected], res)
    failures = 0
    for exp, (result, t) in zip(entry.expected, results):
        ok = result["holds"] == exp.holds
        if not ok:
            failures += 1
        tag = "PASS" if ok else "FAIL"
        detail = f" params={exp.params}" if exp.params else ""
        echo(f"  {tag} {exp.name}{detail}: expected holds={exp.holds}, "
             f"got {result['holds']}  [{t:.2f}s]")
        if not ok:
            echo(f"       witnesses: {json.dumps(result['witnesses'], sort_keys=True)[:400]}")
            if result["caveat"]:  # names the bound that stopped the search
                echo(f"       caveat: {result['caveat']}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    import argparse  # only a parse loads it: with gettext, a few ms to import
    parser = argparse.ArgumentParser(
        prog="ifs-lab",
        description="Analyze dynamical properties of circle-map iterated function systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--eps", type=float, help="density/covering tolerance")
        p.add_argument("--r", type=float, help="test-ball radius")
        p.add_argument("--depth", type=int, help="maximum word length")
        p.add_argument("--net", dest="net_size", type=int, metavar="NET",
                       help="net size on the circle")
        p.add_argument("--budget", type=int, help="search budget per quantified instance")

    pa = sub.add_parser("analyze", help="run selected detectors on a system")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--gallery", choices=GALLERY_NAMES, help="named example system")
    src.add_argument("--system", metavar="PATH", help="JSON system definition file")
    pa.add_argument("--props", required=True,
                    help="comma-separated list from: " + ",".join(PROPERTY_NAMES))
    add_common(pa)
    pa.add_argument("--delta", type=float, help="separation threshold (cofinite sensitivity)")
    pa.add_argument("--window", type=int, help="separation window length")
    pa.add_argument("--x", type=float, help="base point (almost_periodic)")
    pa.add_argument("--max-len", dest="max_len", type=int,
                    help="maximum word length (dense_periodic)")
    pa.add_argument("--out", help="report output path (no report file without it)")
    pa.add_argument("--timing", action="store_true",
                    help="include wall-clock timings in the report file")

    pv = sub.add_parser("verify", help="check a gallery entry's expected manifest")
    pv.add_argument("--gallery", required=True, help="gallery name")
    add_common(pv)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        res = _resolution_from_args(args)
        if args.command == "analyze":
            if args.gallery:
                ifs = build_example(args.gallery).system
                source = {"kind": "gallery", "name": args.gallery}
            else:
                ifs = load_system_file(args.system)
                source = {"kind": "file", "path": args.system}
            props = [p.strip() for p in args.props.split(",") if p.strip()]
            if not props:
                raise MalformedInput("--props must name at least one property")
            print(f"analyze {source}: props={','.join(props)}")
            run_analyze(ifs, source, props, res, _params_from_args(args),
                        include_timing=args.timing, out_path=args.out)
            return EXIT_OK
        return run_verify(args.gallery, res)
    except (MalformedInput, UnknownExample, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (NonInvertible, NotDifferentiable) as exc:
        print(f"unsupported for this system: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
