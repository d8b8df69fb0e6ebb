"""Finite words over the generator alphabet {1, ..., k}.

A word is a plain tuple of 1-based letters; the empty tuple is the identity.
Enumeration is breadth-first (length ascending, lexicographic within each
length) so that every existential search returns a shortest witness and every
run is reproducible.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Tuple

Word = Tuple[int, ...]


def validate_word(w: Word, k: int) -> None:
    if any(not 1 <= letter <= k for letter in w):
        raise ValueError(f"word {w} has letters outside 1..{k}")


def concat(u: Word, v: Word) -> Word:
    """Juxtaposition; as a map this applies u first and v afterwards."""
    return tuple(u) + tuple(v)


def enumerate_words(k: int, max_len: int) -> Iterator[Word]:
    """Yield words of length 0..max_len in breadth-first lexicographic order."""
    if k < 1:
        raise ValueError("alphabet size must be at least 1")
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    for length in range(max_len + 1):
        yield from product(range(1, k + 1), repeat=length)
