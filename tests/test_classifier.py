from __future__ import annotations

import random
import time
from math import gcd
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import gapped_forms, morphisms, triangular_morphisms, words
from trimorph import classifier
from trimorph.classifier import (
    CASE_BOTH_GAP_ONE,
    CASE_GAP_ONE_VS_MANY,
    CASE_MULT_DEPENDENT,
    CASE_MULT_INDEPENDENT,
    CASE_SINGULAR_A_IMAGE,
    CASE_SINGULAR_B_IMAGE,
    _power_counts,
    classify,
    direct_commute,
)
from trimorph.morphisms import (
    BinaryMorphism,
    BOnly,
    Core,
    NotUpperTriangular,
    TriangularForm,
    _fingerprint_after,
    _identity_fingerprint,
    compose,
    parse_morphism,
    power,
    shape_to_word,
    to_triangular,
)
from trimorph.numtheory import Dependent, mult_dependence
from trimorph.omega import gap
from trimorph.sweep import SweepConfig, enumerate_morphisms
from trimorph.words import MAX_COUNT, A, BeyondBudget, Word, a_conjugates, b_core, words_commute


def m(text):
    return parse_morphism(text)


@given(morphisms(), morphisms(), st.integers(0, 2), st.booleans())
def test_direct_commute_equals_composition(g1, h, k, related):
    # General morphisms, non-triangular and erasing ones included; powers of
    # one morphism make commuting pairs.
    g2 = power(g1, k) if related else h
    assert direct_commute(g1, g2) == (compose(g1, g2) == compose(g2, g1))


def test_direct_commute_examples():
    assert direct_commute(m("a=a,b=bb"), m("a=aa,b=b"))
    assert not direct_commute(m("a=a,b=ab"), m("a=a,b=abb"))
    assert direct_commute(m("a=ab,b=ba"), m("a=ab,b=ba"))  # non-triangular is fine
    # Both composed images of b are empty, but those of a are eps and b.
    assert not direct_commute(m("a=ab,b=eps"), m("a=b,b=eps"))


def test_direct_commute_compares_the_images_of_a_after_those_of_b():
    # The oracle compares the images of b first.  In this non-triangular
    # pair both composed images of b are bbbb, but those of a are b and bb.
    g1, g2 = m("a=b,b=bb"), m("a=a,b=bb")
    assert compose(g1, g2).image_b == compose(g2, g1).image_b
    assert compose(g1, g2).image_a != compose(g2, g1).image_a
    assert not direct_commute(g1, g2)
    assert not direct_commute(g2, g1)


def test_a_conjugates_examples():
    assert a_conjugates(Word.parse("abba"), Word.parse("bbaa"))
    assert a_conjugates(Word.parse("aa"), Word.parse("aa"))
    assert not a_conjugates(Word.parse("ab"), Word.parse("bb"))
    assert not a_conjugates(Word.parse("abab"), Word.parse("baab"))  # cores differ


def test_classify_gap_one_vs_many():
    report = classify(m("a=a,b=bb"), m("a=aa,b=b"))
    assert report.case == CASE_GAP_ONE_VS_MANY
    assert report.swapped is True
    assert report.conditions["both_b_powers"] is True
    assert report.prediction is True


def test_classify_mult_independent():
    report = classify(m("a=a,b=baab"), m("a=a,b=baabaab"))
    assert report.case == CASE_MULT_INDEPENDENT
    assert report.conditions["uniform_blocks_same_gap"] is True
    assert report.witness == {"alpha": 2}
    assert report.prediction is True


def test_classify_singular_a_image_block_shift():
    report = classify(m("a=eps,b=ab"), m("a=a,b=bab"))
    assert report.case == CASE_SINGULAR_A_IMAGE
    assert report.conditions["block_shift_match"] is True
    assert report.witness == {"alpha": 1, "beta": 0, "i": 1, "j": 1}
    assert report.prediction is True


def test_classify_both_gap_one():
    report = classify(m("a=aaa,b=ab"), m("a=aaaaa,b=aab"))
    assert report.case == CASE_BOTH_GAP_ONE
    assert report.conditions["padding_balance"] is True
    assert report.prediction is True
    assert direct_commute(m("a=aaa,b=ab"), m("a=aaaaa,b=aab"))


def test_classify_singular_b_image():
    report = classify(m("a=aa,b=aaa"), m("a=aaaa,b=aaabb"))
    assert report.case == CASE_SINGULAR_B_IMAGE
    assert report.prediction is True
    assert direct_commute(m("a=aa,b=aaa"), m("a=aaaa,b=aaabb"))


def test_classify_mult_dependent_equal_powers():
    report = classify(m("a=a,b=bab"), m("a=a,b=bababab"))
    assert report.case == CASE_MULT_DEPENDENT
    assert report.witness["r"] == 2 and report.witness["m"] == 1 and report.witness["n"] == 2
    assert report.conditions["equal_powers"] is True
    assert report.prediction is True


def test_classify_requires_triangular():
    with pytest.raises(NotUpperTriangular):
        classify(m("a=ab,b=b"), m("a=a,b=b"))


def test_non_commuting_gets_false_prediction():
    report = classify(m("a=a,b=abb"), m("a=a,b=bbabb"))
    assert report.prediction is False
    assert not direct_commute(m("a=a,b=abb"), m("a=a,b=bbabb"))


@given(words(14), words(14))
def test_a_conjugates_matches_definition(u, v):
    # Moving outer a-padding around is the whole equivalence.
    lead_u, core_u, trail_u = b_core(u)
    lead_v, core_v, trail_v = b_core(v)
    expected = core_u == core_v and lead_u + trail_u == lead_v + trail_v
    assert a_conjugates(u, v) == expected
    assert a_conjugates(u, v) == a_conjugates(v, u)


@given(triangular_morphisms(), triangular_morphisms())
@settings(max_examples=200)
def test_prediction_matches_oracle(g1, g2):
    assert classify(g1, g2).prediction == direct_commute(g1, g2)


@given(triangular_morphisms(), triangular_morphisms())
def test_prediction_is_symmetric(g1, g2):
    assert classify(g1, g2).prediction == classify(g2, g1).prediction


@given(triangular_morphisms(), triangular_morphisms())
def test_report_case_is_stable_under_swap(g1, g2):
    r1 = classify(g1, g2)
    r2 = classify(g2, g1)
    assert r1.case == r2.case


# --- role order: classify's rank comparison against the rule spelled out

def spelled_out_roles(f1: TriangularForm, f2: TriangularForm) -> tuple[bool, str]:
    """(swapped, case) by the paper's role rule, written without rank: a
    b-free image of b first, else an empty image of a first, else the
    smaller b-count first, ties keeping their order."""
    if isinstance(f1.bpart, BOnly) or isinstance(f2.bpart, BOnly):
        swapped = not isinstance(f1.bpart, BOnly)
    elif f1.s == 0 or f2.s == 0:
        swapped = f1.s != 0
    else:
        swapped = f1.b_count > f2.b_count
    if swapped:
        f1, f2 = f2, f1
    p, q = f1.b_count, f2.b_count
    if isinstance(f1.bpart, BOnly):
        case = CASE_SINGULAR_B_IMAGE
    elif f1.s == 0:
        case = CASE_SINGULAR_A_IMAGE
    elif p == 1 and q == 1:
        case = CASE_BOTH_GAP_ONE
    elif p == 1:
        case = CASE_GAP_ONE_VS_MANY
    elif isinstance(mult_dependence(p, q), Dependent):
        case = CASE_MULT_DEPENDENT
    else:
        case = CASE_MULT_INDEPENDENT
    return swapped, case


def test_roles_match_the_spelled_out_rule_on_the_default_sweep():
    gs = enumerate_morphisms(SweepConfig())
    checked = 0
    for g1 in gs:
        for g2 in gs:
            report = classify(g1, g2)
            assert (report.swapped, report.case) == spelled_out_roles(g1.form, g2.form), (g1, g2)
            # Each case builds its own report; the prediction is still the
            # disjunction of its conditions.
            assert report.prediction == any(report.conditions.values()), (g1, g2)
            # Equal words commute (see IMPLIED_CONDITIONS below).
            if report.conditions.get("equal_morphisms"):
                assert report.conditions["erasing_pair_commutes"], (g1, g2)
            checked += 1
    assert checked == 234_256


# --- SingularAImage: the letter-count check before words_commute

def test_erasing_pair_commutes_matches_words_commute_on_the_default_sweep():
    # classify compares the letter counts of the two b-images before it
    # runs words_commute; words_commute alone is the reference.
    erasing = [g for g in enumerate_morphisms(SweepConfig()) if g.form.s == 0 and g.form.b_count]
    commuting = 0
    for g1 in erasing:
        for g2 in erasing:
            report = classify(g1, g2)
            assert report.case == CASE_SINGULAR_A_IMAGE
            expected = words_commute(g1.image_b, g2.image_b)
            assert report.conditions["erasing_pair_commutes"] == expected, (g1, g2)
            commuting += expected
    assert len(erasing) ** 2 == 13_689
    assert commuting == 153


def test_erasing_pair_with_proportional_counts_need_not_commute():
    # ab and ba each hold one a and one b, but abba != baab.
    g1, g2 = m("a=eps,b=ab"), m("a=eps,b=ba")
    report = classify(g1, g2)
    assert report.case == CASE_SINGULAR_A_IMAGE
    assert report.conditions["erasing_pair_commutes"] is False
    assert report.prediction is False
    assert direct_commute(g1, g2) is False


# --- condition audit: every condition but the listed implications is the
# only true condition of some pair, so each one decides a verdict.

# equal_morphisms is t = 0 with equal images of b, and equal words commute,
# so it implies erasing_pair_commutes (pinned over the default sweep above).
# It stays, because it is the paper's wording.
IMPLIED_CONDITIONS = {"SingularAImage.equal_morphisms"}

SOLE_CONDITION_PAIRS = {
    "SingularBImage.length_identity": ("a=a,b=a", "a=a,b=a"),
    "SingularAImage.partner_is_identity": ("a=a,b=b", "a=eps,b=abb"),
    "SingularAImage.erasing_pair_commutes": ("a=eps,b=ab", "a=eps,b=abab"),
    "SingularAImage.both_b_powers": ("a=aa,b=b", "a=eps,b=b"),
    "SingularAImage.block_shift_match": ("a=a,b=bab", "a=eps,b=ab"),
    "BothGapOne.padding_balance": ("a=a,b=b", "a=a,b=b"),
    "GapOneVsMany.g1_is_identity": ("a=a,b=abb", "a=a,b=b"),
    "GapOneVsMany.both_b_powers": ("a=a,b=bb", "a=aa,b=b"),
    "MultIndependent.both_b_powers": ("a=a,b=bb", "a=aa,b=bbb"),
    "MultIndependent.uniform_blocks_same_gap": ("a=a,b=bab", "a=a,b=babab"),
    "MultDependent.equal_powers": ("a=aa,b=abb", "a=aa,b=abb"),
    "MultDependent.both_b_powers": ("a=a,b=bb", "a=aa,b=bb"),
    "MultDependent.power_images_a_conjugate": ("a=a,b=abb", "a=a,b=bba"),
}


@pytest.mark.parametrize("key", sorted(SOLE_CONDITION_PAIRS))
def test_every_condition_alone_decides_a_pair(key):
    g1, g2 = (m(text) for text in SOLE_CONDITION_PAIRS[key])
    report = classify(g1, g2)
    true = [f"{report.case}.{name}" for name, value in report.conditions.items() if value]
    assert true == [key]
    assert report.prediction is True
    assert direct_commute(g1, g2) is True


def test_condition_audit_covers_every_condition():
    # A new condition must be pinned above, alone on some pair, or listed
    # as implied by another.
    names = set()
    for texts in SOLE_CONDITION_PAIRS.values():
        report = classify(*(m(text) for text in texts))
        names |= {f"{report.case}.{name}" for name in report.conditions}
    assert len(names) == 14
    assert names == set(SOLE_CONDITION_PAIRS) | IMPLIED_CONDITIONS


@st.composite
def any_forms(draw):
    """Triangular forms of every kind: b-free images of b, empty images of
    a, and b-counts from 1 to 5."""
    s = draw(st.integers(0, 2))
    p = draw(st.integers(0, 5))
    if p == 0:
        return TriangularForm(s, BOnly(draw(st.integers(0, 3))))
    pad = st.integers(0, 2)
    return TriangularForm(s, Core(draw(pad), tuple(draw(pad) for _ in range(p - 1)), draw(pad)))


@given(any_forms(), any_forms())
@settings(max_examples=300)
def test_roles_match_the_spelled_out_rule(f1, f2):
    report = classify(f1.to_morphism(), f2.to_morphism())
    assert (report.swapped, report.case) == spelled_out_roles(f1, f2)


IDENTITY_FORM = TriangularForm(1, Core(0, (), 0))


@st.composite
def forms_with_same_b_image(draw):
    f = draw(any_forms())
    return f, TriangularForm(draw(st.integers(0, 2)), f.bpart)


# The identity, and forms that miss it by one exponent, padding or b.
near_identity_forms = st.builds(
    lambda s, g1, extra_bs, g2: TriangularForm(s, Core(g1, (0,) * extra_bs, g2)),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
)


@given(
    st.one_of(
        st.tuples(any_forms(), any_forms()),
        forms_with_same_b_image(),
        any_forms().map(lambda f: (f, IDENTITY_FORM)),
        any_forms().map(lambda f: (IDENTITY_FORM, f)),
        st.tuples(any_forms(), near_identity_forms),
        st.tuples(near_identity_forms, any_forms()),
    )
)
@settings(max_examples=500)
def test_equality_and_identity_conditions_match_form_equality(pair):
    # classify reads cached integers for these three conditions; the forms'
    # own equality is the reference.
    report = classify(pair[0].to_morphism(), pair[1].to_morphism())
    f1, f2 = reversed(pair) if report.swapped else pair
    expected = {
        CASE_SINGULAR_A_IMAGE: {
            "equal_morphisms": f1 == f2,
            "partner_is_identity": f2 == IDENTITY_FORM,
        },
        CASE_GAP_ONE_VS_MANY: {"g1_is_identity": f1 == IDENTITY_FORM},
    }.get(report.case, {})
    assert {name: report.conditions[name] for name in expected} == expected


def test_report_record_shape():
    record = classify(m("a=a,b=bab"), m("a=a,b=bab")).to_record()
    assert record["schema"] == 1
    assert record["kind"] == "classification"
    assert set(record) >= {"case", "swapped", "conditions", "witness", "prediction"}


# --- MultDependent: the closed form against materialised power images

def materialised_mult_dependent(report, g1, g2):
    """The MultDependent conditions and witness read off g1^n and g2^m,
    built by composition, with the roles of the report."""
    if report.swapped:
        g1, g2 = g2, g1
    f1, f2 = to_triangular(g1), to_triangular(g2)
    dep = mult_dependence(f1.b_count, f2.b_count)
    assert isinstance(dep, Dependent)
    h1 = power(g1, dep.n)
    h2 = power(g2, dep.m)
    conjugate = f1.s == 1 and f2.s == 1 and a_conjugates(h1.image_b, h2.image_b)
    conditions = {
        "equal_powers": h1 == h2,
        "both_b_powers": g1.image_b.occ(A) == 0 and g2.image_b.occ(A) == 0,
        "power_images_a_conjugate": conjugate,
    }
    witness = {"r": dep.r, "m": dep.m, "n": dep.n}
    if conjugate:
        _, core_word, _ = b_core(h1.image_b)
        if core_word.length() <= 80:
            witness["conjugate_core"] = core_word.to_text()
    return conditions, witness


def test_mult_dependent_matches_materialised_on_default_sweep():
    gapped = [
        g
        for g in enumerate_morphisms(SweepConfig())
        if to_triangular(g).s >= 1 and to_triangular(g).b_count >= 2
    ]
    checked = 0
    for g1 in gapped:
        for g2 in gapped:
            report = classify(g1, g2)
            if report.case != CASE_MULT_DEPENDENT:
                continue
            checked += 1
            assert (report.conditions, report.witness) == materialised_mult_dependent(
                report, g1, g2
            ), (g1, g2)
    assert checked == 65_610


def blocks(*gaps: int) -> str:
    """b a^gap1 b ... a^gapk b."""
    return "b" + "".join("a" * gap + "b" for gap in gaps)


@pytest.mark.parametrize(
    "g1, g2, core_letters",
    [
        ("a=a,b=" + "b" * 80 + "a", "a=a,b=a" + "b" * 80, 80),
        ("a=a,b=" + "b" * 81 + "a", "a=a,b=a" + "b" * 81, 81),
        ("a=a,b=b" + "a" * 78 + "ba", "a=a,b=ab" + "a" * 78 + "b", 80),
        ("a=a,b=b" + "a" * 79 + "ba", "a=a,b=ab" + "a" * 79 + "b", 81),
        # p = 2 against q = 4: the core of g1^2(b) is b a^25 b a^26 b a^25 b.
        ("a=a,b=b" + "a" * 25 + "ba", "a=a,b=aa" + blocks(25, 26, 25), 80),
        ("a=a,b=b" + "a" * 25 + "baa", "a=a,b=aaaa" + blocks(25, 27, 25), 81),
    ],
    ids=["80-bs", "81-bs", "80-gap", "81-gap", "80-square", "81-square"],
)
def test_conjugate_core_witness_stops_at_80_letters(g1, g2, core_letters):
    # Both caps at their boundary: the b-count of the core, and its length.
    g1, g2 = m(g1), m(g2)
    report = classify(g1, g2)
    assert report.case == CASE_MULT_DEPENDENT
    assert report.conditions["power_images_a_conjugate"] is True
    assert (report.conditions, report.witness) == materialised_mult_dependent(report, g1, g2)
    core = report.witness.get("conjugate_core")
    assert (core is not None) == (core_letters <= 80)
    assert core is None or len(core) == core_letters
    assert report.prediction is True


# (p, q) with p = r^m and q = r^n: power images hold from 3 to 3^6 b's.
DEPENDENT_RUNGS = ((2, 2), (3, 3), (2, 4), (4, 2), (2, 8), (4, 8), (8, 4), (9, 27), (27, 9))


def gapped_morphism(draw, p, s, gap_values):
    """A morphism a -> a^s with p b's in the image of b."""
    pick = st.sampled_from(gap_values)
    shape = Core(draw(pick), tuple(draw(pick) for _ in range(p - 1)), draw(pick))
    return BinaryMorphism(Word.single(A, s), shape_to_word(shape))


@st.composite
def dependent_pairs(draw):
    """Pairs with dependent b-counts: free rungs, a morphism against its own
    power, and (with s = 1) against an a-conjugate of its power."""
    kind = draw(st.sampled_from(("rung", "power", "conjugated_power")))
    # Few distinct gap values make equal and conjugate powers likely.
    gap_values = draw(st.sampled_from(((0,), (1,), (0, 1), (1, 2), (0, 1, 2))))
    if kind == "rung":
        p, q = draw(st.sampled_from(DEPENDENT_RUNGS))
        s = draw(st.integers(1, 3))
        t = s if draw(st.booleans()) else draw(st.integers(1, 3))
        g1 = gapped_morphism(draw, p, s, gap_values)
        g2 = gapped_morphism(draw, q, t, gap_values)
        return g1, g2
    p = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    s = 1 if kind == "conjugated_power" else draw(st.integers(1, 2))
    g = gapped_morphism(draw, p, s, gap_values)
    h = power(g, k)
    if kind == "conjugated_power":
        lead, _, _ = b_core(h.image_b)
        i = draw(st.integers(0, lead))
        text = h.image_b.to_text()
        h = BinaryMorphism(h.image_a, Word.parse(text[i:] + "a" * i))
    return (g, h) if draw(st.booleans()) else (h, g)


@given(dependent_pairs())
@settings(max_examples=300)
def test_mult_dependent_matches_materialised_on_dependent_rungs(pair):
    g1, g2 = pair
    report = classify(g1, g2)
    assert report.case == CASE_MULT_DEPENDENT
    assert (report.conditions, report.witness) == materialised_mult_dependent(report, g1, g2)
    assert report.prediction == direct_commute(g1, g2)


def test_mult_dependent_huge_power_images_answer_at_once():
    # p = 2^6 and q = 2^7: the power images would hold 2^42 b's.
    g1 = m("a=a,b=" + "ba" * 63 + "b")
    g2 = m("a=a,b=" + "ba" * 127 + "b")
    start = time.perf_counter()
    report = classify(g1, g2)
    elapsed = time.perf_counter() - start
    assert report.case == CASE_MULT_DEPENDENT
    assert report.conditions == {
        "equal_powers": True,
        "both_b_powers": False,
        "power_images_a_conjugate": True,
    }
    assert report.witness == {"r": 2, "m": 6, "n": 7}
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "g1, g2, commute",
    [
        # 2^8 and 2^9 b's: the power images would hold 2^72 b's.
        ("a=a,b=" + "b" * 256, "a=a,b=" + "b" * 512, True),
        # 2 and 2^4 b's: g1^4(a) = a^(2^80).
        ("a=" + "a" * 2**20 + ",b=bab", "a=" + "a" * 2**20 + ",b=" + "b" * 16, False),
        # The gap at index 8 of g1^4(b) is 2^20 * (2^15)^3 = 2^65.
        (
            "a=" + "a" * 2**15 + ",b=b" + "a" * 2**20 + "b",
            "a=" + "a" * 2**15 + ",b=" + "b" * 16,
            False,
        ),
    ],
    ids=["nb-2^72", "a-count-2^80", "gap-2^65"],
)
def test_mult_dependent_power_counts_beyond_64_bits_overflow(g1, g2, commute):
    # Counts of the power images that overflow 64 bits are compared as exact
    # integers, so classify answers with the oracle's verdict.
    for h1, h2 in ((m(g1), m(g2)), (m(g2), m(g1))):
        report = classify(h1, h2)
        assert report.case == CASE_MULT_DEPENDENT
        assert report.prediction == direct_commute(h1, h2) == commute


def test_mult_dependent_witness_gaps_beyond_64_bits():
    # 4 and 8 b's, both fixing a: g1^3(b) and g2^2(b) agree up to moving a's
    # across their ends, and the gap at index 32 of g1^3(b) is x + 5.
    # The oracle confirms the pair at x = 1; at x = 2^64 - 3 it cannot compose.
    for x in (1, MAX_COUNT - 2):
        g1 = TriangularForm(1, Core(1, (x, x + 1, x), 1)).to_morphism()
        g2 = TriangularForm(1, Core(1, (x, x + 1, x, x + 2, x, x + 1, x), 2)).to_morphism()
        report = classify(g1, g2)
        assert report.conditions["power_images_a_conjugate"]
        assert report.witness == {"r": 2, "m": 2, "n": 3}
        assert x > 1 or direct_commute(g1, g2)


def test_mult_dependent_beyond_the_gap_budget_refuses_at_once():
    # r = 2, m = 44, n = 45: images of b with 2^44 and 2^45 b's, the smallest
    # larger image the budget of 64 * 2^45 comparisons refuses.  The forms
    # are sentinels with no attributes, so the budget is checked before
    # either is read.
    start = time.perf_counter()
    with pytest.raises(
        BeyondBudget,
        match="^classify needs 2269391999729667 gap comparisons, beyond its budget of "
        "2251799813685248 ",
    ):
        classifier._gaps_agree(object(), object(), 2, 44, 45)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "g1, g2",
    [
        ("a=a,b=" + "b" * 4096, "a=a,b=" + "b" * 8192),
        ("a=a,b=" + "ba" * 4095 + "b", "a=a,b=" + "ba" * 8191 + "b"),
    ],
    ids=["b-powers-2^12-2^13", "uniform-gap-2^12-2^13"],
)
def test_mult_dependent_constant_gaps_answer_beyond_the_gap_budget(monkeypatch, g1, g2):
    # h^12 and h^13 of h: b -> bab.  Both gap sequences are constant, so they
    # agree with no gap comparison; class by class would take 135,171.
    def no_comparison(*args):
        raise AssertionError("constant gap sequences were compared index by index")

    monkeypatch.setattr(classifier, "_gaps_agree", no_comparison)
    start = time.perf_counter()
    report = classify(m(g1), m(g2))
    assert time.perf_counter() - start < 0.1
    assert (report.case, report.prediction) == (CASE_MULT_DEPENDENT, True)
    assert report.conditions["equal_powers"] and report.conditions["power_images_a_conjugate"]


@pytest.mark.parametrize(
    "g1, g2",
    [
        ("a=a,b=bbbb", "a=a,b=bbbbbbbb"),
        ("a=a,b=" + "ba" * 3 + "b", "a=a,b=" + "ba" * 7 + "b"),
        ("a=a,b=" + "baa" * 3 + "b", "a=a,b=" + "ba" * 7 + "b"),
        ("a=aaaa,b=bbbb", "a=aaaaaaaa,b=bbbbbbbb"),
        ("a=a,b=" + "ba" * 8 + "b", "a=a,b=" + "ba" * 26 + "b"),
    ],
    ids=["b-powers-4-8", "gap-1-4-8", "gaps-2-1-4-8", "s-4-8-4-8", "gap-1-9-27"],
)
def test_mult_dependent_constant_gaps_match_the_oracle(monkeypatch, g1, g2):
    def no_comparison(*args):
        raise AssertionError("constant gap sequences were compared index by index")

    monkeypatch.setattr(classifier, "_gaps_agree", no_comparison)
    for h1, h2 in ((m(g1), m(g2)), (m(g2), m(g1))):
        report = classify(h1, h2)
        assert report.case == CASE_MULT_DEPENDENT
        assert report.prediction == direct_commute(h1, h2)


def test_gap_budget_admits_every_pair_whose_powers_fit_64_bits():
    # Two forms whose first gaps differ settle _gaps_agree at the first
    # comparison, once it passes the budget; only their first gap is read.
    f1, f2 = (TriangularForm(1, Core(0, (first,), 0)) for first in (0, 1))
    admitted = 0
    for r in range(2, 1024):
        for n in range(1, 65):
            for m_ in range(1, n + 1):
                if r ** (m_ * n) > 2**64:
                    break
                if gcd(m_, n) == 1:
                    assert not classifier._gaps_agree(f1, f2, r, m_, n)
                    admitted += 1
    assert admitted == 8748


class CountedGaps:
    """An interior gap sequence that is 0 everywhere and records each read."""

    def __init__(self):
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return 0


@pytest.mark.parametrize("r, m_, n", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (2, 3, 4), (4, 2, 3)])
def test_gap_comparisons_are_exactly_counted(r, m_, n):
    # Equal gaps everywhere make _gaps_agree compare every class, reading
    # one gap of each form per comparison.
    forms = [
        SimpleNamespace(s=1, bpart=SimpleNamespace(gamma1=0, gamma2=0, alphas=CountedGaps()))
        for _ in range(2)
    ]
    assert classifier._gaps_agree(*forms, r, m_, n)
    # The classes, counted from the indexes: i = r^k j with r not dividing j
    # is settled by k and j mod r^max(m - k mod m, n - k mod n).
    classes = set()
    for i in range(1, r ** (m_ * n)):
        k = 0
        while i % r**(k + 1) == 0:
            k += 1
        classes.add((k, i // r**k % r ** max(m_ - k % m_, n - k % n)))
    work = classifier._gap_comparisons(r, m_, n)
    assert len(forms[0].bpart.alphas.reads) == len(forms[1].bpart.alphas.reads) == work
    assert work == len(classes) < n * r**m_ + m_ * r**n


def literal_gaps_agree(f1, f2, r, m_, n) -> bool:
    return all(gap(f1, i) == gap(f2, i) for i in range(1, r ** (m_ * n)))


def random_form(rng, p: int) -> TriangularForm:
    gamma1, alphas = rng.randint(0, 2), tuple(rng.randint(0, 3) for _ in range(p - 1))
    return TriangularForm(rng.randint(1, 3), Core(gamma1, alphas, rng.randint(0, 2)))


def test_gaps_agree_equals_the_literal_comparison():
    # Seeded forms with few gap values; half of the second forms take their
    # interior gaps from the first form's own gap sequence, so that both
    # answers occur.
    rng = random.Random(2911)
    answers = {True: 0, False: 0}
    cases = 0
    while cases < 1000:
        r, m_, n = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 4)
        if gcd(m_, n) != 1 or r ** (m_ * n) > 5000:
            continue
        f1 = random_form(rng, r**m_)
        if rng.random() < 0.5:
            own = tuple(gap(f1, i) for i in range(1, r**n))
            f2 = TriangularForm(rng.choice((1, f1.s)), Core(0, own, 0))
        else:
            f2 = random_form(rng, r**n)
        expected = literal_gaps_agree(f1, f2, r, m_, n)
        assert classifier._gaps_agree(f1, f2, r, m_, n) == expected, (r, m_, n, f1, f2)
        answers[expected] += 1
        cases += 1
    assert answers[True] and answers[False], answers


def fingerprints_commute(g1: BinaryMorphism, g2: BinaryMorphism) -> bool:
    """The fingerprints of the images of a and b under g1 g2 and g2 g1 agree."""

    def composed(f, g):
        return _fingerprint_after(_fingerprint_after(_identity_fingerprint(), f, {}), g, {})

    return composed(g1, g2) == composed(g2, g1)


def test_mult_dependent_far_pairs_match_the_fingerprint():
    # h: a -> a, b -> b a^2 b a.  h^12 and h^13 hold 4,096 and 8,192 b's;
    # their composed images would hold 2^25 b's, too many to compose.
    h = m("a=a,b=baaba")
    g1, g2 = power(h, 12), power(h, 13)
    assert (g1.form.b_count, g2.form.b_count) == (2**12, 2**13)
    start = time.perf_counter()
    report = classify(g1, g2)
    assert time.perf_counter() - start < 0.1
    assert (report.case, report.prediction) == (CASE_MULT_DEPENDENT, True)
    assert report.conditions["equal_powers"] and report.conditions["power_images_a_conjugate"]
    assert fingerprints_commute(g1, g2)
    # p = 2^12 and q = 2^13, g1's last interior gap 2 and every other gap 1:
    # the powers agree outside but not in their gaps.
    g1 = m("a=a,b=" + "ba" * 4095 + "ab")
    g2 = m("a=a,b=" + "ba" * 8191 + "b")
    for h1, h2 in ((g1, g2), (g2, g1)):
        report = classify(h1, h2)
        assert (report.case, report.prediction) == (CASE_MULT_DEPENDENT, False)
        assert not fingerprints_commute(h1, h2)


def literal_power_counts(form: TriangularForm, k: int) -> tuple[int, int, int]:
    """|g^k(a)| and the outer a-paddings of g^k(b), from the composed power."""
    gk = power(form.to_morphism(), k)
    lead, _, trail = b_core(gk.image_b)
    return gk.image_a.length(), lead, trail


def assert_power_counts(form: TriangularForm, k: int) -> None:
    expected = literal_power_counts(form, k)
    assert _power_counts(form, k) == expected


def test_power_counts_match_literal_powers_on_the_default_sweep():
    for g in enumerate_morphisms(SweepConfig()):
        if g.form.is_nonsingular() and g.form.b_count >= 2:
            for k in (1, 2, 3):
                assert_power_counts(g.form, k)


@given(gapped_forms(), st.integers(1, 4))
def test_power_counts_match_literal_powers(form, k):
    assert_power_counts(form, k)


# --- mirror symmetry, far from the default bounds

def mirror(g: BinaryMorphism) -> BinaryMorphism:
    """Both images reversed: reversal is an anti-automorphism of {a,b}*, so
    g1 g2 = g2 g1 exactly when mirror(g1) and mirror(g2) commute."""
    return BinaryMorphism(*(Word(w.runs[::-1]) for w in (g.image_a, g.image_b)))


FAR = st.one_of(st.sampled_from((0, 0, 1, 2, 3)), st.integers(0, 10**6))


@st.composite
def far_morphisms(draw):
    """a -> a^s, with s, the paddings and the gaps up to 10^6 and 1 to 9 b's."""
    p = draw(st.sampled_from((1, 2, 3, 4, 8, 9)))
    shape = Core(draw(FAR), tuple(draw(FAR) for _ in range(p - 1)), draw(FAR))
    return BinaryMorphism(Word.single(A, draw(FAR)), shape_to_word(shape))


@st.composite
def far_pairs(draw):
    """Two far morphisms, or in half the pairs powers g^i and g^j of one,
    with i, j <= 3 and at most 300 b's in either image of b."""
    g = draw(far_morphisms())
    if draw(st.booleans()):
        return g, draw(far_morphisms())
    p = g.form.b_count
    exponents = [k for k in (1, 2, 3) if p**k <= 300]
    return tuple(power(g, draw(st.sampled_from(exponents))) for _ in range(2))


@given(far_pairs())
@settings(max_examples=300)
def test_mirrored_pairs_keep_their_report(pair):
    g1, g2 = pair
    report = classify(g1, g2)
    mirrored = classify(mirror(g1), mirror(g2))
    assert (mirrored.case, mirrored.swapped, mirrored.prediction) == (
        report.case,
        report.swapped,
        report.prediction,
    )
