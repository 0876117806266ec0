from __future__ import annotations

import tracemalloc
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import as_strings, morphisms, ncompose, triangular_morphisms
from trimorph import freeness, morphisms as morphisms_module
from trimorph.freeness import (
    MAX_DEPTH,
    Relation,
    SearchAborted,
    find_relation,
    matrix_collision,
)
from trimorph.classifier import direct_commute
from trimorph.morphisms import (
    MODULUS,
    BinaryMorphism,
    _fingerprint_after,
    _identity_fingerprint,
    compose,
    parse_morphism,
)
from trimorph.sweep import SweepConfig, enumerate_morphisms
from trimorph.words import EMPTY, CountOverflow, Word


def m(text):
    return parse_morphism(text)


def verify_relation(g1, g2, rel):
    """Recompose both sides of a relation, one generator at a time, and compare."""
    def composed(seq):
        return reduce(compose, ((g1, g2)[i - 1] for i in seq))

    return composed(rel.left) == composed(rel.right)


def materialised_relation(g1, g2, depth):
    """Reference for find_relation: the breadth-first, lexicographic search
    that composes every sequence and keeps no matrices."""
    gens = (g1, g2)
    seen: dict = {}
    prefix: dict = {}
    for length in range(1, depth + 1):
        nxt: dict = {}
        for seq in product((1, 2), repeat=length):
            head = seq[:-1]
            try:
                value = compose(prefix[head], gens[seq[-1] - 1]) if head else gens[seq[-1] - 1]
            except CountOverflow as exc:
                raise SearchAborted(length) from exc
            nxt[seq] = value
            if value in seen:
                return Relation(seen[value], seq)
            seen[value] = seq
        prefix = nxt
    return None


def outcome(search, g1, g2, depth):
    """The search's relation or None, or the depth at which it aborted."""
    try:
        return search(g1, g2, depth)
    except SearchAborted as exc:
        return ("aborted", exc.depth)


def assert_matches_reference(g1, g2, depth):
    assert outcome(find_relation, g1, g2, depth) == outcome(
        materialised_relation, g1, g2, depth
    )


def test_identical_generators_relate_at_depth_one():
    g = m("a=a,b=ab")
    assert find_relation(g, g, 1) == Relation((1,), (2,))


def test_commuting_pair_relates_at_depth_two():
    rel = find_relation(m("a=a,b=bb"), m("a=aa,b=b"), 2)
    assert rel == Relation((1, 2), (2, 1))


def test_free_pair_has_no_relation():
    assert find_relation(m("a=aa,b=bb"), m("a=aa,b=abb"), 4) is None


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        find_relation(m("a=a,b=b"), m("a=a,b=b"), 0)


def test_search_aborts_on_overflow():
    g1 = BinaryMorphism(Word.single("a", 2**33), Word.parse("b"))
    g2 = m("a=a,b=ab")
    with pytest.raises(SearchAborted) as exc:
        find_relation(g1, g2, 6)
    assert 1 < exc.value.depth <= 6


def test_depth_beyond_budget_aborts_at_once():
    g1, g2 = m("a=a,b=bab"), m("a=aa,b=b")
    for search in (find_relation, matrix_collision):
        with pytest.raises(SearchAborted) as exc:
            search(g1, g2, MAX_DEPTH + 1)
        assert exc.value.depth == MAX_DEPTH + 1


def test_matrix_collision_examples():
    # Equal-diagonal matrices commute, so the filter cannot clear this pair.
    assert matrix_collision(m("a=aa,b=bb"), m("a=aa,b=abb"), 4)
    assert not matrix_collision(m("a=aa,b=ab"), m("a=aaa,b=b"), 4)


@given(morphisms(4), morphisms(4))
@settings(max_examples=60)
def test_found_relations_recompose_equal(g1, g2):
    rel = find_relation(g1, g2, 3)
    if rel is not None:
        assert rel.left != rel.right
        assert verify_relation(g1, g2, rel)


@given(morphisms(4), morphisms(4))
@settings(max_examples=60)
def test_relation_forces_matrix_collision(g1, g2):
    # The matrix filter is sound: a cleared pair has no relation.
    if find_relation(g1, g2, 3) is not None:
        assert matrix_collision(g1, g2, 3)


@given(triangular_morphisms(max_s=2, max_image=5), triangular_morphisms(max_s=2, max_image=5))
@settings(max_examples=60)
def test_commuting_pairs_always_relate(g1, g2):
    if direct_commute(g1, g2):
        assert find_relation(g1, g2, 2) is not None


def test_witness_is_first_in_breadth_lex_order():
    # g1 is idempotent, so (1,) collides with (1,1) before (1,2)/(2,1) is reached.
    g1 = m("a=a,b=b")
    g2 = m("a=a,b=bb")
    assert find_relation(g1, g2, 2) == Relation((1,), (1, 1))


@given(morphisms(4), morphisms(4), st.integers(1, 6))
@settings(max_examples=300)
def test_search_matches_materialised_reference(g1, g2, depth):
    assert_matches_reference(g1, g2, depth)


# Counts past the 64-bit bound, a^(2^33) squared or b^(2^31) cubed, with
# partners whose compositions stay a few runs long.
A_HUGE = BinaryMorphism(Word.single("a", 2**33), Word.parse("b"))
B_HUGE = BinaryMorphism(Word.parse("a"), Word.single("b", 2**31))
HUGE_PAIRS = (
    (A_HUGE, m("a=a,b=ab")),
    (A_HUGE, m("a=aa,b=bab")),
    (B_HUGE, m("a=aa,b=b")),
    (B_HUGE, m("a=ab,b=bb")),
)


SMALL_SWEEP = SweepConfig(max_s=2, max_p=2, max_exp=1, max_bonly_exp=1)


def assert_small_sweep_matches_reference():
    morphs = enumerate_morphisms(SMALL_SWEEP)
    for g1 in morphs:
        for g2 in morphs:
            assert_matches_reference(g1, g2, 4)
    aborted = 0
    for pair in HUGE_PAIRS:
        for g1, g2 in (pair, pair[::-1]):
            assert_matches_reference(g1, g2, 4)
            aborted += isinstance(outcome(find_relation, g1, g2, 4), tuple)
    assert aborted == 6


def test_search_matches_reference_on_a_small_sweep():
    assert_small_sweep_matches_reference()


def counting_compose(monkeypatch) -> list:
    """Count the compositions the search makes, one entry per call."""
    calls: list = []

    def compose_counted(f, g):
        calls.append(None)
        return compose(f, g)

    monkeypatch.setattr(freeness, "compose", compose_counted)
    return calls


# Modulo 2, with the base X pinned to 0 or 1, a fingerprint is at most the
# last letters or the letter counts of the images, so most sequences whose
# matrix repeats, and with X = 1 all of them, repeat a fingerprint too, and
# only the compositions tell them apart: the confirmation step, which the
# real modulus leaves idle.
TINY_MODULUS = 2


@pytest.mark.parametrize("base", [0, 1])
def test_fingerprint_collisions_keep_the_small_sweep_answers(base, monkeypatch):
    monkeypatch.setattr("trimorph.morphisms.MODULUS", TINY_MODULUS)
    monkeypatch.setattr("trimorph.morphisms._BASE", base)
    assert_small_sweep_matches_reference()
    # Some free pair composes, so a collision that is no relation was skipped.
    calls = counting_compose(monkeypatch)
    morphs = enumerate_morphisms(SMALL_SWEEP)
    skipped = 0
    for g1 in morphs:
        for g2 in morphs:
            calls.clear()
            skipped += find_relation(g1, g2, 4) is None and bool(calls)
    assert skipped > 0


@given(morphisms(4), morphisms(4), st.integers(1, 6))
@settings(max_examples=300)
def test_search_with_colliding_fingerprints_matches_reference(g1, g2, depth):
    for base in (0, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("trimorph.morphisms.MODULUS", TINY_MODULUS)
            patch.setattr("trimorph.morphisms._BASE", base)
            assert_matches_reference(g1, g2, depth)


def test_commuting_matrices_of_a_free_pair_compose_nothing(monkeypatch):
    # (1, 2) and (2, 1) share a matrix, and so do many longer sequences, but
    # no two share a composition: every fingerprint differs, and nothing
    # is composed.
    g1, g2 = m("a=a,b=baabaab"), m("a=aa,b=bbaba")
    assert matrix_collision(g1, g2, 2)
    calls = counting_compose(monkeypatch)
    assert find_relation(g1, g2, 6) is None
    assert not calls


def test_deep_free_search_holds_no_words():
    # Composing the sequences whose matrix repeats took 311 MB at depth 12
    # and more than 1 GiB at depth 13; their fingerprints take about 16 MB.
    tracemalloc.start()
    try:
        assert find_relation(m("a=a,b=bab"), m("a=aa,b=bab"), 13) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def horner(text: str) -> tuple[int, int]:
    """The fingerprint (H(w), X^|w|) of a plain string, one letter at a time,
    with a = 1 and b = 2, under the current MODULUS and _BASE."""
    modulus = morphisms_module.MODULUS
    x = morphisms_module._BASE % modulus
    h = 0
    for letter in text:
        h = (h * x + (1 if letter == "a" else 2)) % modulus
    return h, pow(x, len(text), modulus)


def long_run_morphisms():
    """Images of up to three runs of 2^10 to 2^11 letters, so that each
    power takes ten or more doublings."""
    runs = st.tuples(st.sampled_from("ab"), st.integers(2**10, 2**11))
    image = st.lists(runs, max_size=3).map(
        lambda rs: Word.parse("".join(letter * n for letter, n in rs)) if rs else EMPTY
    )
    return st.builds(BinaryMorphism, image, image)


# (MODULUS, _BASE): the process's own, an unreduced base under the real
# modulus, and TINY_MODULUS with the bases 0, 1 and 2.
FINGERPRINT_SETTINGS = (
    (MODULUS, morphisms_module._BASE),
    (MODULUS, MODULUS + 5),
    (TINY_MODULUS, 0),
    (TINY_MODULUS, 1),
    (TINY_MODULUS, 2),
)


@given(
    st.one_of(
        st.tuples(morphisms(4), morphisms(4)),
        st.tuples(long_run_morphisms(), morphisms(3)),
        st.tuples(morphisms(3), long_run_morphisms()),
    )
)
@example((BinaryMorphism(EMPTY, EMPTY), parse_morphism("a=ab,b=ba")))
@example((parse_morphism("a=ba,b=aab"), BinaryMorphism(EMPTY, Word.parse("bba"))))
@settings(max_examples=120)
def test_fingerprints_extend_as_the_plain_string_composition(pair):
    f, g = pair
    sf = as_strings(f)
    for modulus, base in FINGERPRINT_SETTINGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("trimorph.morphisms.MODULUS", modulus)
            patch.setattr("trimorph.morphisms._BASE", base)
            expected = tuple(map(horner, ncompose(sf, as_strings(g))))
            powers: dict = {}
            fp = _fingerprint_after(_identity_fingerprint(), f, powers)
            assert fp == tuple(map(horner, sf))
            assert _fingerprint_after(fp, g, powers) == expected
            # Again, now reading the powers of f(a) kept by the first call.
            assert _fingerprint_after(fp, g, powers) == expected


# Searches alternate between the process's own modulus and base (None) and
# patched ones.  With X = 1 the fingerprint of a^n is (n, 1) under the real
# modulus and (n mod 2, 1) modulo 2, so the keys (fingerprint of f(a), k)
# of the two coincide while the powers differ: a power kept past its search
# and read under the other modulus would change a fingerprint.
ALTERNATING_SETTINGS = (None, (TINY_MODULUS, 1), None, (MODULUS, 1), (TINY_MODULUS, 1), None)


def test_no_power_is_read_under_another_modulus_or_base():
    morphs = enumerate_morphisms(SMALL_SWEEP)
    for g1 in morphs:
        for g2 in morphs:
            for setting in ALTERNATING_SETTINGS:
                with pytest.MonkeyPatch.context() as patch:
                    if setting is not None:
                        patch.setattr("trimorph.morphisms.MODULUS", setting[0])
                        patch.setattr("trimorph.morphisms._BASE", setting[1])
                    assert_matches_reference(g1, g2, 4)


def test_kept_powers_hold_little_memory():
    # Commuting matrices and runs of several a's, where the search keeps the
    # most powers.  Before powers were kept, this search peaked at 8,194,612
    # bytes under Python 3.11; the bound allows 10% more.
    tracemalloc.start()
    try:
        assert find_relation(m("a=aaa,b=abaabbaa"), m("a=aa,b=abaaba"), 12) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_194_612 * 11 // 10
