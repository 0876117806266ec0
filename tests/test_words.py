from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import word_texts, words
from trimorph.words import (
    EMPTY,
    MAX_COUNT,
    CountOverflow,
    ParseError,
    Word,
    b_core,
    concat,
    strip_leading,
    take_prefix,
    words_commute,
)


def w(text: str) -> Word:
    return Word.parse(text) if text else EMPTY


def test_concat_examples():
    assert concat(w("ab"), w("ba")) == w("abba")
    assert concat(w("a"), EMPTY) == w("a")
    assert concat(w("aa"), w("aa")) == w("aaaa")


def test_b_core_examples():
    assert b_core(w("aabaa")) == (2, w("b"), 2)
    assert b_core(w("aaa")) == (3, EMPTY, 0)
    assert b_core(w("babb")) == (0, w("babb"), 0)


def test_words_commute_examples():
    assert words_commute(w("abab"), w("ab"))
    assert not words_commute(w("ab"), w("ba"))
    assert words_commute(EMPTY, w("bbb"))


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        Word.parse("abc")
    with pytest.raises(ParseError):
        Word.parse("")
    assert Word.parse("eps") == EMPTY


def test_runs_are_normalized():
    assert w("aabba").runs == (("a", 2), ("b", 2), ("a", 1))
    assert Word.from_runs([("a", 1), ("a", 2), ("b", 0)]) == w("aaa")


def test_overflow_on_concat():
    big = Word.single("a", MAX_COUNT)
    with pytest.raises(CountOverflow):
        concat(big, w("a"))
    # distinct letters at the seam stay independent counts
    assert concat(big, w("b")).occ("b") == 1


def test_length_and_occ_at_the_bound():
    half = 2**63
    at_bound = Word((("a", half), ("b", 1), ("a", half - 1)))
    assert at_bound.occ("a") == MAX_COUNT
    assert Word((("a", MAX_COUNT - 1), ("b", 1))).length() == MAX_COUNT
    past = Word((("a", half), ("b", 1), ("a", half)))
    with pytest.raises(CountOverflow):
        past.occ("a")
    assert past.occ("b") == 1
    with pytest.raises(CountOverflow):
        Word((("a", MAX_COUNT), ("b", 1))).length()
    assert Word.from_runs([("a", MAX_COUNT)]).runs == (("a", MAX_COUNT),)
    with pytest.raises(CountOverflow):
        Word.from_runs([("a", MAX_COUNT + 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Word.from_runs([("c", 1)]),
        lambda: Word.from_runs([("a", -1)]),
        lambda: take_prefix(w("ab"), -1),
    ],
    ids=["letter", "negative-run", "negative-prefix"],
)
def test_bad_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


@given(word_texts(), word_texts())
def test_concat_matches_strings(t1, t2):
    assert concat(w(t1), w(t2)) == w(t1 + t2)


@given(word_texts(40))
def test_text_roundtrip(t):
    word = w(t)
    assert word.to_text() == (t if t else "eps")
    assert word.length() == len(t)
    assert word.occ("a") == t.count("a")
    assert word.occ("b") == t.count("b")


@given(word_texts(30), st.integers(0, 35))
def test_take_prefix_matches_strings(t, n):
    assert take_prefix(w(t), n) == w(t[:n])


@given(word_texts(30))
def test_strip_leading_matches_strings(t):
    assert strip_leading(w(t), "a") == w(t.lstrip("a"))


@given(word_texts(20))
def test_b_core_roundtrip(t):
    word = w(t)
    lead, core, trail = b_core(word)
    rebuilt = concat(concat(Word.single("a", lead) if lead else EMPTY, core),
                     Word.single("a", trail) if trail else EMPTY)
    if word.occ("b"):
        assert rebuilt == word
        assert core.runs[0][0] == "b" and core.runs[-1][0] == "b"
    else:
        assert (lead, core, trail) == (word.length(), EMPTY, 0)


@given(word_texts(10), st.integers(1, 4), st.integers(1, 4))
def test_powers_of_common_root_commute(t, i, j):
    u, v = w(t * i), w(t * j)
    assert words_commute(u, v)


@given(word_texts(14), word_texts(14))
def test_commute_is_symmetric_and_string_checked(t1, t2):
    assert words_commute(w(t1), w(t2)) == words_commute(w(t2), w(t1)) == (t1 + t2 == t2 + t1)
