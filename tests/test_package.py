"""The package's lazy re-exports, and the value types' contract: each
behaves as the frozen dataclass it replaced, in equality, hash and repr."""
from __future__ import annotations

from dataclasses import make_dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given

import trimorph
from conftest import words
from trimorph.freeness import Relation
from trimorph.morphisms import BinaryMorphism, BOnly, Core, Difference, MorphMatrix, TriangularForm
from trimorph.numtheory import Dependent, Independent
from trimorph.words import Word

# Every name the package re-exported when its __init__ imported them all.
EXPORTED = (
    "EMPTY MAX_COUNT BeyondBudget CountOverflow ParseError Word b_core concat take_prefix "
    "words_commute BinaryMorphism BOnly Core IDENTITY MorphMatrix NotUpperTriangular "
    "TriangularForm apply compose format_morphism is_nonsingular matrix parse_morphism power "
    "to_triangular Dependent Independent MultDependence mult_dependence "
    "primitive_root val_and_digit NotApplicable OmegaUndefined gap gap_sequence "
    "gap_sequence_direct omega_eventually_periodic omega_prefix right_tail CASES "
    "CommutationReport a_conjugates classify direct_commute first_difference Relation SearchAborted "
    "find_relation matrix_collision SweepConfig SweepResult enumerate_morphisms run_sweep"
).split()


def test_every_exported_name_resolves_and_is_listed():
    star: dict = {}
    exec("from trimorph import *", star)
    for name in EXPORTED:
        value = getattr(trimorph, name)
        assert name in dir(trimorph)
        assert star[name] is value
    assert trimorph.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        trimorph.no_such_name


def test_exports_are_the_defining_modules_objects():
    from trimorph import classifier, freeness, omega, sweep, words

    assert trimorph.SearchAborted is words.SearchAborted is freeness.SearchAborted
    assert trimorph.a_conjugates is words.a_conjugates
    assert trimorph.classify is classifier.classify
    assert trimorph.gap is omega.gap
    assert trimorph.run_sweep is sweep.run_sweep


small = st.integers(0, 2)
cores = st.tuples(small, st.lists(small, max_size=2).map(tuple), small)
# Field values of each value type, drawn from small ranges so that equal
# fields come up often.
FIELDS = {
    Word: (["runs"], words(4).map(lambda w: (w.runs,))),
    BinaryMorphism: (["image_a", "image_b"], st.tuples(words(3), words(3))),
    BOnly: (["e"], st.tuples(small)),
    Core: (["gamma1", "alphas", "gamma2"], cores),
    TriangularForm: (
        ["s", "bpart"],
        st.tuples(small, st.one_of(small.map(BOnly), cores.map(lambda c: Core(*c)))),
    ),
    MorphMatrix: (["rows"], st.tuples(st.tuples(st.tuples(small, small), st.tuples(small, small)))),
    Independent: ([], st.just(())),
    Dependent: (["r", "m", "n"], st.tuples(st.integers(2, 3), st.integers(1, 2), st.integers(1, 2))),
    Relation: (["left", "right"], st.tuples(*[st.lists(st.integers(1, 2), max_size=2).map(tuple)] * 2)),
    Difference: (
        ["image", "position", "g1g2", "g2g1"],
        st.tuples(st.sampled_from("ab"), small, *[st.sampled_from(["a", "b", None])] * 2),
    ),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_value_types_match_frozen_dataclasses(cls, data):
    names, values = FIELDS[cls]
    reference = make_dataclass(cls.__name__, names, frozen=True)
    fx, fy = data.draw(values), data.draw(values)
    x, y = cls(*fx), cls(*fy)
    assert repr(x) == repr(reference(*fx))
    assert (x == y) == (fx == fy) == (reference(*fx) == reference(*fy))
    assert (x != y) == (fx != fy)
    twin = cls(*fx)
    assert x == twin and hash(x) == hash(twin)
    if fx == fy:
        assert hash(x) == hash(y)


def test_value_types_pinned_reprs():
    assert repr(Word.parse("a")) == "Word(runs=(('a', 1),))"
    assert repr(TriangularForm(1, Core(0, (2,), 1))) == (
        "TriangularForm(s=1, bpart=Core(gamma1=0, alphas=(2,), gamma2=1))"
    )
    assert repr(Dependent(2, 3, 5)) == "Dependent(r=2, m=3, n=5)"
    assert repr(Independent()) == "Independent()"


def test_value_types_never_equal_another_type():
    runs = (("a", 1),)
    assert Word(runs) != runs and Word(runs) != (runs,)
    assert Core(0, (), 0) != BOnly(0) and BOnly(0) != Core(0, (), 0)
    assert Dependent(2, 1, 1) != (2, 1, 1)
    assert Relation((1,), (2,)) != ((1,), (2,))
    assert MorphMatrix(((1, 0), (0, 1))) != ((1, 0), (0, 1))
    assert TriangularForm(1, BOnly(0)) != TriangularForm(1, Core(0, (), 0))
    assert len({Word(runs), runs, (runs,)}) == 3


@given(words(6), words(6))
def test_cached_properties_work_on_plain_classes(u, v):
    g = BinaryMorphism(Word.single("a", u.occ("a")), v)
    form = g.form
    assert g.form is form and g.rows is g.rows
    assert form.b_count == v.occ("b") and form.to_morphism() == g
    if isinstance(form.bpart, Core):
        assert form.bpart.p == len(form.bpart.alphas) + 1 == v.occ("b")


def test_value_types_take_equality_hash_and_repr_from_the_base():
    from trimorph.words import Value

    for cls in FIELDS:
        assert issubclass(cls, Value)
        own = {"__eq__", "__hash__", "__repr__"} & set(vars(cls))
        assert own == set(), cls.__name__
    # Equal field values in two classes do not make equal values.
    rows = ((1, 0), (0, 1))
    assert Word(rows) != MorphMatrix(rows) and MorphMatrix(rows) != Word(rows)
