"""Test-only reference: the scalar pointwise expanding cover that the array
word search in `ifs_lab.smooth.local_expanding_cover` replaced, kept
verbatim in behaviour.

Net point by net point, `enumerate_words` yields the candidate words; each
derivative is one scalar `word_derivative` call, and `grow_extent` and
`sigma_on` sample a word at one point at a time.  The pieces are merged and
the Lebesgue number taken by the library's `_merge_pieces` and
`lebesgue_number`, which the array search does not replace.  A stuck point
also names the bound that ended its search ("budget" when `enumerate_words`
stopped short of the depth bound, else "depth") and the number of words
enumerated for it, the identity included, so that failures compare whole.
Pieces that leave a gap raise `lebesgue_number`'s NotACover, as in the
library.
"""

import math
from typing import Optional

import numpy as np

from ifs_lab.circle import Arc, CirclePoint, normalize
from ifs_lab.detectors import DEFAULT_RESOLUTION, Resolution, uniform_net
from ifs_lab.generators import NotDifferentiable
from ifs_lab.semigroup import IfsSystem, word_derivative
from ifs_lab.smooth import (_MARGIN, CoverPiece, ExpandingCover, NotLocallyExpanding,
                            _merge_pieces, lebesgue_number)
from ifs_lab.symbolic import Word, enumerate_words

GROW_SAMPLES = 17


def abs_derivative(ifs: IfsSystem, w: Word, x: float) -> Optional[float]:
    """|word derivative| at x, or None when a corner is hit on the way."""
    try:
        return abs(word_derivative(ifs, w, x))
    except NotDifferentiable:
        return None


def holds_on(ifs: IfsSystem, w: Word, a: float, b: float) -> bool:
    for t in np.linspace(a, b, GROW_SAMPLES):
        d = abs_derivative(ifs, w, normalize(float(t)))
        if d is None or d <= 1.0 + _MARGIN:
            return False
    return True


def grow_extent(ifs: IfsSystem, w: Word, x: float, sign: float) -> float:
    """Largest one-sided extent (capped at 1/4) keeping |derivative| > 1."""
    cap = 0.25
    t = 1.0 / 512.0
    if not holds_on(ifs, w, x, x + sign * t):
        return 0.0
    while t < cap and holds_on(ifs, w, x, x + sign * min(2.0 * t, cap)):
        t = min(2.0 * t, cap)
    if t >= cap:
        return cap
    lo, hi = t, min(2.0 * t, cap)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if holds_on(ifs, w, x, x + sign * mid):
            lo = mid
        else:
            hi = mid
    return lo


def sigma_on(ifs: IfsSystem, w: Word, arc: Arc, samples: int = 257) -> float:
    worst, best = 0.0, math.inf
    for t in np.linspace(0.0, arc.length, samples):
        d = abs_derivative(ifs, w, normalize(arc.start.value + float(t)))
        if d is None:
            continue
        worst = max(worst, 1.0 / d)
        best = min(best, 1.0 / d)
    pad = 0.05 * (worst - best) if math.isfinite(best) else 0.0
    return min(worst + pad, 1.0 / (1.0 + _MARGIN))


def local_expanding_cover(ifs: IfsSystem, res: Resolution = DEFAULT_RESOLUTION) -> ExpandingCover:
    net = uniform_net(res.net_size)
    total = sum(ifs.k ** length for length in range(res.depth + 1))
    raw = []
    for x in net:
        piece = None
        enumerated = 0
        for w in enumerate_words(ifs.k, res.depth, res.budget):
            enumerated += 1
            if not w:
                continue
            d = abs_derivative(ifs, w, x)
            if d is None or d <= 1.0 + _MARGIN:
                continue
            left = grow_extent(ifs, w, x, -1.0)
            right = grow_extent(ifs, w, x, +1.0)
            if left > 0.0 and right > 0.0:
                arc = Arc(CirclePoint(x - left), min(left + right, 1.0))
                piece = CoverPiece(arc, w, sigma_on(ifs, w, arc))
                break
        if piece is None:
            raise NotLocallyExpanding(x, res.depth, res.budget,
                                      "depth" if enumerated == total else "budget", enumerated)
        raw.append(piece)
    pieces = _merge_pieces(raw)
    sigma = max(p.sigma_local for p in pieces)
    return ExpandingCover(pieces, sigma, lebesgue_number([p.arc for p in pieces], net=10_000), ifs)
