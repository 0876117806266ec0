from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import morphisms, triangular_morphisms
from trimorph.freeness import (
    MAX_DEPTH,
    Relation,
    SearchAborted,
    find_relation,
    matrix_collision,
    verify_relation,
)
from trimorph.classifier import direct_commute
from trimorph.morphisms import BinaryMorphism, parse_morphism
from trimorph.words import Word


def m(text):
    return parse_morphism(text)


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
