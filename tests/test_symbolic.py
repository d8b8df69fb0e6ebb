import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifs_lab import concat, enumerate_words
from ifs_lab.symbolic import validate_word


def test_enumeration_order_k2():
    words = list(enumerate_words(2, 2))
    assert words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(words) == 7


def test_enumeration_k1():
    assert list(enumerate_words(1, 3)) == [(), (1,), (1, 1), (1, 1, 1)]


@pytest.mark.parametrize("k,L", [(2, 6), (3, 4), (4, 3)])
def test_enumeration_count_formula(k, L):
    count = len(list(enumerate_words(k, L)))
    assert count == (k ** (L + 1) - 1) // (k - 1)


def test_enumeration_prefix_closed():
    seen = set()
    for w in enumerate_words(3, 4):
        if w:
            assert w[:-1] in seen
        seen.add(w)


def test_concat_examples():
    assert concat((1, 2), (2,)) == (1, 2, 2)
    assert concat((1, 2, 1), ()) == (1, 2, 1)
    assert concat((), (2,)) == (2,)


@given(st.lists(st.integers(1, 4), max_size=8), st.lists(st.integers(1, 4), max_size=8))
@settings(max_examples=200, deadline=None)
def test_concat_length_additive(u, v):
    assert len(concat(tuple(u), tuple(v))) == len(u) + len(v)


@pytest.mark.parametrize("word", [(1, 3), (0,), (2, -1)])
def test_validate_word_rejects_letters_outside_the_alphabet(word):
    validate_word((1, 2, 2), 2)
    with pytest.raises(ValueError, match=r"has letters outside 1\.\.2"):
        validate_word(word, 2)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        list(enumerate_words(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_words(2, -1))
