"""Test-only reference: the scalar partner refinement that the batched
`ifs_lab.detectors._refined_separations` and `_most_separating` replaced,
kept verbatim in behaviour.

Each (word, ball) pair is refined alone: one `apply_word` at the center and
one at each of the _PARTNERS partners evenly spaced across the ball, a
partner taking the lead only on a strictly larger `circ_dist`.  The
`*_batch` functions take the library's batched signatures, so that a test
can swap the reference in for the library function.
"""

from typing import List, Sequence, Tuple

import numpy as np

from ifs_lab.circle import circ_dist, normalize
from ifs_lab.semigroup import IfsSystem
from ifs_lab.symbolic import Word

PARTNERS = 16


def refined_separation(ifs: IfsSystem, w: Word, x: float, r: float) -> Tuple[float, float]:
    """Largest observed separation of x from partners across B(x, r) under w."""
    cx = ifs.apply_word(w, x)
    best = 0.0
    best_y = normalize(x - r)
    for t in range(PARTNERS):
        y = normalize(x - r + 2.0 * r * t / (PARTNERS - 1))
        sep = circ_dist(cx, ifs.apply_word(w, y))
        if sep > best:
            best = sep
            best_y = y
    return best, best_y


def most_separating(ifs: IfsSystem, words, x: float, r: float, best: Tuple[float, Word],
                    enough: float = np.inf) -> Tuple[float, Word]:
    """The (separation, word) of the first word separating B(x, r) more than
    `best` and every word before it; the scan stops past `enough`."""
    for w in words:
        sep, _ = refined_separation(ifs, w, x, r)
        if sep > best[0]:
            best = (sep, w)
        if best[0] > enough:
            break
    return best


def refined_separations_batch(ifs: IfsSystem, words: Sequence[Word], x: np.ndarray,
                              r: np.ndarray) -> Tuple[List[float], List[float]]:
    pairs = [refined_separation(ifs, w, xi, ri)
             for w, xi, ri in zip(words, x.tolist(), r.tolist())]
    return [sep for sep, _ in pairs], [y for _, y in pairs]


def most_separating_batch(ifs: IfsSystem, words: Sequence[Sequence[Word]], x: np.ndarray,
                          r: float, best: Sequence[Tuple[float, Word]],
                          enough: float = np.inf) -> List[Tuple[float, Word]]:
    return [most_separating(ifs, ws, xi, r, b, enough)
            for ws, xi, b in zip(words, x.tolist(), best)]
