"""The property registry: every property `ifs-lab` decides, by name.

Each entry runs one library verdict and returns it JSON-ready.  Entries look
their detector up as a module attribute when they run, not when the table is
built, so rebinding a library function (as a tracer does) reaches every call.
Only sensitivity and the witness pipeline adapt their results, in a function
of their own.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable, NamedTuple, Optional

from . import detectors, smooth
from .detectors import NotApplicable, Resolution, Verdict
from .semigroup import IfsSystem


class PropertySpec(NamedTuple):
    """How to decide one property: `run(ifs, res, **params)` returns the
    JSON-ready verdict; `params` maps each parameter it reads to its default."""

    run: Callable[..., dict]
    params: dict


def _sensitivity(ifs: IfsSystem, res: Resolution) -> dict:
    report, verdict = detectors.sensitivity_estimate(ifs, res)
    return {**verdict.to_dict(), "report": report.to_dict()}


def _witness_pipeline(ifs: IfsSystem, res: Resolution) -> dict:
    try:
        delta_candidate, verdict = detectors.sensitivity_witness_from_nonminimality(ifs, res)
    except NotApplicable as exc:
        return Verdict("sensitivity_witness_from_nonminimality", False, res,
                       {"not_applicable": True}, str(exc)).to_dict()
    return {**verdict.to_dict(), "delta_candidate": delta_candidate}


def _verdict(module, name: str, **params) -> PropertySpec:
    """The entry running `module.<name>(ifs, res=res, **params)`."""
    return PropertySpec(
        lambda ifs, res, **kw: getattr(module, name)(ifs, res=res, **kw).to_dict(), params)


PROPERTIES = {
    "minimality": _verdict(detectors, "minimality_verdict"),
    "transitivity": _verdict(detectors, "topological_transitivity_verdict"),
    "strong_transitivity": _verdict(detectors, "strong_transitivity_verdict"),
    "s_transitivity": _verdict(detectors, "s_transitivity_verdict"),
    "sensitivity": PropertySpec(_sensitivity, {}),
    "cofinite_sensitivity": _verdict(detectors, "cofinite_sensitivity_verdict",
                                     delta=0.2, window=100),
    "almost_periodic": _verdict(detectors, "almost_periodic_verdict", x=0.0),
    "expanding": _verdict(smooth, "expanding_verdict"),
    "local_expanding": _verdict(smooth, "local_expanding_verdict"),
    "dense_periodic": _verdict(detectors, "dense_periodic_verdict", max_len=2),
    "repelling_fixed_point": _verdict(detectors, "repelling_fixed_point_verdict"),
    "witness_pipeline": PropertySpec(_witness_pipeline, {}),
}

PROPERTY_NAMES = tuple(PROPERTIES)
PARAM_NAMES = tuple(sorted({name for spec in PROPERTIES.values() for name in spec.params}))


def property_spec(prop: str) -> PropertySpec:
    """The registry entry of `prop`; ValueError names the choices."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; choose from {PROPERTY_NAMES}")
    return PROPERTIES[prop]


def _coerced(name: str, value, default):
    """`value` as the type of `default`.  A bool, or a value that is not a
    whole number for an integer parameter, raises ValueError naming it;
    NaN and inf pass to a real parameter for the verdict to check."""
    kind = type(default)
    if isinstance(value, bool) or (kind is int and not isinstance(value, Integral)
                                   and not float(value).is_integer()):
        noun = "an integer" if kind is int else "a real number"
        raise ValueError(f"parameter {name!r} takes {noun}, got {value!r}")
    return kind(value)


def evaluate_property(ifs: IfsSystem, prop: str, res: Resolution,
                      params: Optional[dict] = None) -> dict:
    """Run one detector and return its JSON-ready result.  A parameter the
    property does not read is ignored if another property reads it (ValueError
    names any other); each one it reads is coerced to the type of its default,
    without truncation (`_coerced`)."""
    spec = property_spec(prop)
    given = params or {}
    if bad := sorted(set(given).difference(PARAM_NAMES)):
        raise ValueError(f"unknown parameter {', '.join(map(repr, bad))}; choose from {PARAM_NAMES}")
    return spec.run(ifs, res, **{name: _coerced(name, given.get(name, default), default)
                                 for name, default in spec.params.items()})
