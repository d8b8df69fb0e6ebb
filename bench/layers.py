"""Per-layer metrics derived from one traced pass.

PER_LAYER lists every metric as (name, unit, better); README.md says which
end-to-end metric each should move.  Inclusive times (`*_s` named after a
function) count the function's children; `self_s` excludes them.
"""

from __future__ import annotations

from tracer import LAYERS, TYPE_NAMES

GENERATOR_TYPES = tuple(TYPE_NAMES.values())

# public detector function -> property name used in the metric
DETECTORS = {
    "minimality_verdict": "minimality",
    "strong_transitivity_verdict": "strong_transitivity",
    "almost_periodic_verdict": "almost_periodic",
    "topological_transitivity_verdict": "transitivity",
    "s_transitivity_verdict": "s_transitivity",
    "sensitivity_estimate": "sensitivity",
    "cofinite_sensitivity_verdict": "cofinite_sensitivity",
    "sensitivity_witness_from_nonminimality": "witness_pipeline",
}

PER_LAYER = (
    [("generators.scalar_evals", "count", "lower")]
    + [(f"generators.scalar_evals.{t}", "count", "lower") for t in GENERATOR_TYPES]
    + [("generators.scalar_evals_from_detectors", "count", "lower"),
       ("generators.self_s", "s", "lower"),
       ("generators.array_points", "count", "lower")]
    + [(f"generators.array_points.{t}", "count", "lower") for t in GENERATOR_TYPES]
    + [("generators.array_points_per_s", "1/s", "higher"),
       ("generators.fixed_points_calls", "count", "lower"),
       ("generators.fixed_points_s", "s", "lower"),
       ("detectors.system_net_calls", "count", "lower"),
       ("detectors.system_net_s", "s", "lower"),
       ("detectors.net_points", "count", "lower"),
       ("semigroup.orbit_cloud_calls", "count", "lower"),
       ("semigroup.orbit_levels", "count", "lower"),
       ("semigroup.orbit_points", "count", "lower"),
       ("semigroup.orbit_kept_ratio", "ratio", "higher"),
       ("semigroup.orbit_cloud_s", "s", "lower"),
       ("semigroup.orbit_cloud_self_s", "s", "lower"),
       ("semigroup.periodic_points_s", "s", "lower"),
       ("semigroup.apply_word_calls", "count", "lower"),
       ("semigroup.self_s", "s", "lower"),
       ("detectors.self_s", "s", "lower"),
       ("detectors.calls", "count", "lower")]
    + [(f"detectors.{prop}_s", "s", "lower") for prop in DETECTORS.values()]
    + [("detectors.negative_share", "ratio", "lower"),
       ("smooth.calls", "count", "lower"),
       ("smooth.self_s", "s", "lower"),
       ("symbolic.words_enumerated", "count", "lower"),
       ("symbolic.self_s", "s", "lower"),
       ("circle.calls", "count", "lower"),
       ("circle.self_s", "s", "lower"),
       ("gallery.build_s", "s", "lower"),
       ("gallery.self_s", "s", "lower"),
       ("cli.parse_s", "s", "lower"),
       ("cli.render_s", "s", "lower"),
       ("cli.report_bytes", "bytes", "lower"),
       ("cli.self_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.harness_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(tr, traced_wall: float, plain_wall: float, traced_pass):
    """Every PER_LAYER metric from a tracer after one pass; returns
    (values, units)."""
    c = tr.counters
    v = {}
    for t in GENERATOR_TYPES:
        v[f"generators.scalar_evals.{t}"] = c[f"scalar_evals.{t}"]
        v[f"generators.array_points.{t}"] = c[f"array_points.{t}"]
    v["generators.scalar_evals"] = sum(c[f"scalar_evals.{t}"] for t in GENERATOR_TYPES)
    v["generators.scalar_evals_from_detectors"] = tr.scalar_from["detectors"]
    v["generators.array_points"] = sum(c[f"array_points.{t}"] for t in GENERATOR_TYPES)
    array_self = tr.stat("generators", "lift_array")[2] + tr.stat("generators", "eval_array")[2]
    v["generators.array_points_per_s"] = (v["generators.array_points"] / array_self
                                          if array_self else 0.0)
    v["generators.fixed_points_calls"] = tr.stat("generators", "fixed_points")[0]
    v["generators.fixed_points_s"] = tr.stat("generators", "fixed_points")[1]
    v["detectors.system_net_calls"] = tr.stat("detectors", "system_net")[0]
    v["detectors.system_net_s"] = tr.stat("detectors", "system_net")[1]
    v["detectors.net_points"] = c["net_points"]
    v["semigroup.orbit_cloud_calls"] = tr.stat("semigroup", "orbit_cloud")[0]
    v["semigroup.orbit_levels"] = c["orbit_levels"]
    v["semigroup.orbit_points"] = c["orbit_points"]
    v["semigroup.orbit_kept_ratio"] = (c["orbit_points"] / c["orbit_array_points"]
                                       if c["orbit_array_points"] else 0.0)
    v["semigroup.orbit_cloud_s"] = tr.stat("semigroup", "orbit_cloud")[1]
    v["semigroup.orbit_cloud_self_s"] = tr.stat("semigroup", "orbit_cloud")[2]
    v["semigroup.periodic_points_s"] = tr.stat("semigroup", "periodic_points")[1]
    v["semigroup.apply_word_calls"] = tr.stat("semigroup", "apply_word")[0]
    v["detectors.calls"] = tr.layer_calls("detectors")
    for fn, prop in DETECTORS.items():
        v[f"detectors.{prop}_s"] = tr.stat("detectors", fn)[1]
    verdicts = len(traced_pass.verdict_seconds)
    v["detectors.negative_share"] = traced_pass.negatives / verdicts if verdicts else 0.0
    v["smooth.calls"] = tr.layer_calls("smooth")
    v["symbolic.words_enumerated"] = c["words_enumerated"]
    v["circle.calls"] = tr.layer_calls("circle")
    v["gallery.build_s"] = tr.stat("gallery", "build_example")[1]
    v["cli.parse_s"] = tr.stat("cli", "system_from_config")[1]
    v["cli.render_s"] = tr.stat("cli", "render_report")[1]
    v["cli.report_bytes"] = c["report_bytes"]
    for layer in LAYERS:
        v[f"{layer}.self_s"] = tr.self_seconds(layer)
    v["trace.wall_s"] = traced_wall
    v["trace.harness_s"] = traced_wall - tr.layer_seconds
    v["trace.overhead_ratio"] = traced_wall / plain_wall
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: v[name] for name in units}, units


def print_breakdown(workload: str, tr, traced_wall: float, plain_wall: float, v) -> None:
    """Self time per layer as a share of the traced pass, and the figures
    behind each workload's stated reason."""
    print(f"trace of {workload}: traced pass {traced_wall:.3f} s, untraced "
          f"{plain_wall:.3f} s, overhead x{traced_wall / plain_wall:.2f}")
    for layer in LAYERS:
        s = tr.self_seconds(layer)
        print(f"  {layer:<11s} self {s:9.3f} s  {100 * s / traced_wall:5.1f}%  "
              f"calls {tr.layer_calls(layer)}")
    harness = traced_wall - tr.layer_seconds
    print(f"  {'harness':<11s} self {harness:9.3f} s  {100 * harness / traced_wall:5.1f}%")

    def share(x):
        return f"{100 * x / traced_wall:.1f}% of the traced pass"

    arcs = v["detectors.self_s"] + v["generators.self_s"]
    print(f"  detectors + generators self: {arcs:.3f} s, {share(arcs)}")
    print(f"  semigroup.orbit_cloud_self_s: {v['semigroup.orbit_cloud_self_s']:.3f} s, "
          f"{share(v['semigroup.orbit_cloud_self_s'])}")
    roots = (v["semigroup.orbit_cloud_s"] + v["generators.fixed_points_s"]
             + v["semigroup.periodic_points_s"])
    print(f"  orbit_cloud + fixed_points + periodic_points (inclusive): {roots:.3f} s, "
          f"{share(roots)}")
    scalar = v["generators.scalar_evals"]
    from_det = v["generators.scalar_evals_from_detectors"]
    print(f"  scalar evaluations issued by detectors code (arc search, chains): "
          f"{from_det:.0f} of {scalar:.0f}"
          + (f" ({100 * from_det / scalar:.1f}%)" if scalar else ""))
