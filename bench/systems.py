"""Seeded generator of random ifs-lab system documents.

The library only ever sees the JSON documents produced here, parsed through
`ifs_lab.cli.system_from_config`, so the benchmark exercises the same input
path as `ifs-lab analyze --system FILE`.  The same seed always yields
byte-identical documents (see `render_documents`).
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement
from typing import List

SCHEMA = "ifs-lab/1"
GENERATOR_TYPES = ("rotation", "flip", "north_south", "piecewise_linear", "expanding")

# Parameters are rounded so the documents stay short and print exactly.
_DIGITS = 6


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """n values, one drawn uniformly from each of n equal slices of [lo, hi],
    in shuffled order (a Latin-hypercube sample)."""
    vals = [round(lo + (hi - lo) * (i + rng.random()) / n, _DIGITS) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _balanced(rng: random.Random, n: int, choices: tuple) -> list:
    """n values cycling through `choices` as evenly as possible, shuffled."""
    vals = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(vals)
    return vals


def _breakpoints(rng: random.Random, pieces: int, offset: float) -> list:
    """Lift knots of an orientation-preserving circle homeomorphism with
    `pieces` linear pieces whose slopes stay within [1/4, 4]."""
    widths = [rng.uniform(1.0, 2.0) for _ in range(pieces)]
    rises = [w * rng.uniform(0.5, 2.0) for w in widths]
    xs, ys = [0.0], [offset]
    x = y = 0.0
    for w, h in zip(widths[:-1], rises[:-1]):
        x += w / sum(widths)
        y += h / sum(rises)
        xs.append(round(x, _DIGITS))
        ys.append(round(offset + y, _DIGITS))
    xs.append(1.0)
    ys.append(round(offset + 1.0, _DIGITS))
    return [[x, y] for x, y in zip(xs, ys)]


def type_mixes() -> List[tuple]:
    """Every multiset of two or of three generator types: 15 + 35 mixes."""
    return (list(combinations_with_replacement(GENERATOR_TYPES, 2))
            + list(combinations_with_replacement(GENERATOR_TYPES, 3)))


def _parameter_pools(rng: random.Random, n: int) -> dict:
    """Generator documents for n slots of each type.

    Each parameter is stratified over its range, so every seed draws the
    same spread of parameters and a pass costs about the same whatever the
    seed; the seed decides which values meet in which system.  Ranges keep
    every map well conditioned: rotations away from the identity, north-south
    multipliers in [1.2, 4], piecewise-linear slopes in [1/4, 4], expanding
    degrees 2-4.
    """
    alphas = _strata(rng, n, 0.05, 0.95)
    qs, lams = _strata(rng, n, 0.0, 1.0), _strata(rng, n, 1.2, 4.0)
    offsets, pieces = _strata(rng, n, 0.0, 1.0), _balanced(rng, n, (2, 3, 4))
    degrees = _balanced(rng, n, (2, 3, 4))
    return {
        "rotation": [{"type": "rotation", "alpha": a} for a in alphas],
        "flip": [{"type": "flip"} for _ in range(n)],
        "north_south": [{"type": "north_south", "q": q % 1.0, "lambda": lam}
                        for q, lam in zip(qs, lams)],
        "piecewise_linear": [{"type": "piecewise_linear",
                              "breakpoints": _breakpoints(rng, k, off % 1.0)}
                             for k, off in zip(pieces, offsets)],
        "expanding": [{"type": "expanding", "m": m} for m in degrees],
    }


def random_documents(seed: int) -> List[dict]:
    """One system document per type mix, with parameters, generator order and
    system order drawn from `seed`.

    Every seed covers every mix once, so the cost of a pass depends on the
    seed only through how parameters are combined, not through how many
    expensive generator types happened to be drawn.
    """
    rng = random.Random(seed)
    mixes = type_mixes()
    slots = max(sum(mix.count(t) for mix in mixes) for t in GENERATOR_TYPES)
    pools = _parameter_pools(rng, slots)
    docs = []
    for mix in mixes:
        kinds = list(mix)
        rng.shuffle(kinds)
        docs.append({"schema": SCHEMA, "generators": [pools[k].pop() for k in kinds]})
    rng.shuffle(docs)
    return docs


def render_documents(docs: List[dict]) -> str:
    """One canonical JSON line per document, for logging and replay."""
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
