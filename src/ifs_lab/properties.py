"""The property registry: every property `ifs-lab` decides, by name.

Each entry runs one library verdict and returns it JSON-ready.  Entries look
their detector up as a module attribute when they run, not when the table is
built, so rebinding a library function (as a tracer does) reaches every call.
Only sensitivity, the witness pipeline and expansion add to the verdict or
adapt a tuple, in a function of their own.
"""

from __future__ import annotations

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


def _expanding(ifs: IfsSystem, res: Resolution) -> dict:
    holds, eta = smooth.expanding_verdict(ifs, grid=max(res.net_size, 2))
    return Verdict("expanding", holds, res, {"eta": eta}, "checked on a finite grid").to_dict()


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
    "expanding": PropertySpec(_expanding, {}),
    "local_expanding": _verdict(smooth, "local_expanding_verdict"),
    "dense_periodic": _verdict(detectors, "dense_periodic_verdict", max_len=2),
    "repelling_fixed_point": _verdict(detectors, "repelling_fixed_point_verdict"),
    "witness_pipeline": PropertySpec(_witness_pipeline, {}),
}

PROPERTY_NAMES = tuple(PROPERTIES)


def property_spec(prop: str) -> PropertySpec:
    """The registry entry of `prop`; ValueError names the choices."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; choose from {PROPERTY_NAMES}")
    return PROPERTIES[prop]


def evaluate_property(ifs: IfsSystem, prop: str, res: Resolution,
                      params: Optional[dict] = None) -> dict:
    """Run one detector and return its JSON-ready result.  Parameters the
    property does not read are ignored; each one it reads is coerced to the
    type of its default."""
    spec = property_spec(prop)
    given = params or {}
    return spec.run(ifs, res, **{name: type(default)(given.get(name, default))
                                 for name, default in spec.params.items()})
