from __future__ import annotations

import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import eventually_periodic_prefix, gapped_forms, npower
from trimorph import omega
from trimorph.morphisms import (
    Core,
    TriangularForm,
    apply,
    b_image_shape,
    parse_morphism,
    to_triangular,
)
from trimorph.numtheory import val_and_digit
from trimorph.omega import (
    NotApplicable,
    OmegaUndefined,
    class_gap,
    gap,
    gap_sequence,
    gap_sequence_direct,
    omega_eventually_periodic,
    omega_prefix,
    right_tail,
)
from trimorph.words import MAX_COUNT, CountOverflow


def form(text: str) -> TriangularForm:
    return to_triangular(parse_morphism(text))


def test_right_tail_examples():
    assert right_tail(form("a=a,b=abab")).to_text() == "ab"
    assert right_tail(form("a=a,b=b")).to_text() == "eps"
    assert right_tail(form("a=a,b=baa")).to_text() == "aa"
    assert right_tail(form("a=a,b=aabaabbaaa")).to_text() == "aabbaaa"
    with pytest.raises(NotApplicable):
        right_tail(form("a=a,b=aa"))


def test_right_tail_merges_adjacent_bs():
    # Zero interior gaps must collapse into one run, or word equality breaks.
    assert right_tail(form("a=a,b=bbb")).runs == (("b", 2),)


def test_omega_prefix_examples():
    assert omega_prefix(form("a=a,b=bab"), 7).to_text() == "bababab"
    assert omega_prefix(form("a=aa,b=bab"), 6).to_text() == "babaab"
    assert omega_prefix(form("a=a,b=ba"), 4).to_text() == "baaa"


def test_omega_undefined_when_tail_empty():
    with pytest.raises(OmegaUndefined):
        omega_prefix(form("a=a,b=ab"), 5)
    with pytest.raises(NotApplicable):
        omega_prefix(form("a=eps,b=bab"), 5)


def test_empty_prefix_still_checks_the_form():
    assert omega_prefix(form("a=a,b=bab"), 0).to_text() == "eps"
    with pytest.raises(NotApplicable):
        omega_prefix(form("a=eps,b=bab"), 0)
    with pytest.raises(OmegaUndefined):
        omega_prefix(form("a=a,b=ab"), 0)


def test_single_b_prefix_answers_at_once():
    # With one b in h(b) every piece is a power of a: omega(h) = b a^infinity.
    start = time.perf_counter()
    prefix = omega_prefix(form("a=a,b=ba"), 10**7)
    assert time.perf_counter() - start < 1.0
    assert prefix.runs == (("b", 1), ("a", 10**7 - 1))
    assert omega_prefix(form("a=aaa,b=abaa"), 1).runs == (("b", 1),)


def test_gap_examples():
    f = form("a=a,b=babaab")  # s=1, gamma=0, alphas=(1, 2)
    assert gap(f, 1) == 1
    assert gap(f, 6) == 2
    f2 = form("a=aa,b=abaaab")  # s=2, gamma1=1, alphas=(3,), gamma2=0
    assert gap(f2, 4) == 15


def test_gap_direct_examples():
    f = form("a=a,b=bb")
    assert gap_sequence_direct(f, 17)[16] == 0
    f2 = form("a=a,b=baaaaab")
    assert gap_sequence_direct(f2, 7)[6] == 5
    assert gap(form("a=aa,b=abaaab"), 4) == gap_sequence_direct(form("a=aa,b=abaaab"), 4)[3]


def test_gap_requires_two_bs():
    with pytest.raises(NotApplicable):
        gap(form("a=a,b=ba"), 1)
    with pytest.raises(NotApplicable):
        gap_sequence(form("a=eps,b=bb"), 5)


def test_periodicity_examples():
    assert omega_eventually_periodic(form("a=a,b=baab"))  # gaps all 2, no padding
    assert omega_eventually_periodic(form("a=aa,b=bbb"))  # gaps all 0, scaling moot
    assert not omega_eventually_periodic(form("a=aa,b=baab"))  # gap 2 scales by 2^m
    assert not omega_eventually_periodic(form("a=a,b=abb"))  # leading padding
    assert not omega_eventually_periodic(form("a=a,b=babaab"))  # mixed gaps


def test_gap_overflow():
    f = TriangularForm(3, Core(1, (2,), 0))
    with pytest.raises(CountOverflow):
        gap(f, 2**150)


def test_direct_gaps_stay_run_length():
    # gap(8) = (2^20)^3 = 2^60: a letter-by-letter expansion could not hold it.
    f = TriangularForm(2**20, Core(0, (1,), 0))
    start = time.perf_counter()
    assert gap_sequence_direct(f, 15) == gap_sequence(f, 15)
    assert time.perf_counter() - start < 1.0
    assert max(gap_sequence(f, 15)) == 2**60
    for fn in (gap_sequence, gap_sequence_direct):
        with pytest.raises(CountOverflow):
            fn(f, 16)


@pytest.mark.parametrize(
    "text", ["a=a,b=bab", "a=aa,b=abaaab", "a=a,b=babbab", "a=aaa,b=abaababab", "a=aa,b=bbbbb"]
)
def test_direct_gaps_expand_only_the_bs_they_need(monkeypatch, text):
    # A piece with N b's gives N gaps, and the last piece is cut to the b's
    # still needed: fewer than upto + p gaps are read, not up to p * upto.
    f = form(text)
    read = []

    def counting(w):
        shape = b_image_shape(w)
        read.append(shape.p)
        return shape

    monkeypatch.setattr(omega, "b_image_shape", counting)
    for upto in (1, 2, 3, 50, 999, 2001):
        read.clear()
        assert gap_sequence_direct(f, upto) == gap_sequence(f, upto)
        assert upto <= sum(read) < upto + f.b_count


@pytest.mark.parametrize(
    "s, core, upto",
    [
        (2**40, Core(0, (0,), 0), 1000),
        (2**33, Core(1, (1,), 0), 3),
        (2**62, Core(3, (0,), 0), 7),
        (2**20, Core(0, (1,), 0), 15),
    ],
)
def test_direct_gaps_answer_where_a_whole_power_would_overflow(s, core, upto):
    # h^k(a) = a^(s^k), and the padding gamma1 G(s, k), pass the 64-bit
    # bound before the gaps do: only the counts that the kept b's need
    # are emitted.
    f = TriangularForm(s, core)
    assert gap_sequence_direct(f, upto) == gap_sequence(f, upto)


def test_prefix_answers_when_only_letters_past_it_overflow():
    # h(v) = a^2 a^(2^64 - 1) b a b: the run after b a b passes the 64-bit
    # bound, but the first 10 letters hold only 7 of its a's.
    f = TriangularForm(2, Core(MAX_COUNT, (1,), 0))
    assert omega_prefix(f, 10).runs == (("b", 1), ("a", 1), ("b", 1), ("a", 7))
    assert omega_prefix(f, 2**62).runs == (("b", 1), ("a", 1), ("b", 1), ("a", 2**62 - 3))
    with pytest.raises(CountOverflow):
        omega_prefix(f, MAX_COUNT + 1)


@pytest.mark.parametrize(
    "text", ["a=a,b=bab", "a=aa,b=abaaab", "a=a,b=babbab", "a=aaa,b=abaababab", "a=aa,b=bbbbb"]
)
def test_expansion_applies_powers_to_heads_of_the_tail(monkeypatch, text):
    # Each level applies h^k to a head of v and copies T_k whole, so no
    # word longer than v is ever expanded run by run.
    f = form(text)
    limit = len(right_tail(f).runs)
    words = []

    def recording(g, w):
        words.append(w)
        return apply(g, w)

    monkeypatch.setattr(omega, "apply", recording)
    for upto in (1, 2, 3, 50, 999, 2001):
        words.clear()
        assert gap_sequence_direct(f, upto) == gap_sequence(f, upto)
        omega_prefix(f, 3 * upto)
        assert words and max(len(w.runs) for w in words) <= limit


def test_gap_sequence_overflows_exactly_where_gap_does():
    # gap(6) = s gap(2) = 5 * 2^63 is the first gap past the 64-bit bound.
    f = TriangularForm(2**63, Core(0, (0, 5), 0))
    assert gap_sequence(f, 5) == [gap(f, i) for i in range(1, 6)] == [0, 5, 0, 0, 5]
    for fn in (lambda: gap(f, 6), lambda: gap_sequence(f, 6)):
        with pytest.raises(CountOverflow):
            fn()
    # gap(4) = s gap(2) = 2^72; the expansion refuses the padding of the
    # b's it counts before it reaches that gap.
    f = TriangularForm(2**32, Core(2**40, (0,), 0))
    assert gap_sequence_direct(f, 3) == gap_sequence(f, 3) == [0, 2**40, 0]
    for fn in (gap, gap_sequence, gap_sequence_direct):
        with pytest.raises(CountOverflow):
            fn(f, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: omega_prefix(form("a=a,b=bab"), -1),
        lambda: gap(form("a=a,b=bab"), 0),
        lambda: gap_sequence_direct(form("a=a,b=bab"), -1),
    ],
    ids=["negative-prefix", "gap-zero", "negative-upto"],
)
def test_bad_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


@given(gapped_forms(), st.integers(1, 300))
def test_closed_form_matches_direct(f, i):
    assert gap(f, i) == gap_sequence_direct(f, i)[i - 1]


@given(gapped_forms(), st.integers(0, 200))
def test_sequences_match_pointwise(f, upto):
    seq = gap_sequence(f, upto)
    assert seq == gap_sequence_direct(f, upto)
    assert seq == [gap(f, i) for i in range(1, upto + 1)]


@given(gapped_forms(), st.integers(1, 120))
def test_gap_recurrence(f, i):
    core = f.bpart
    p = core.p
    assert gap(f, p * i) == f.s * gap(f, i) + core.gamma1 + core.gamma2


@given(gapped_forms(), st.integers(1, 120), st.integers(1, 20))
def test_gap_depends_only_on_digit_and_valuation(f, i, shift):
    # Adding multiples of p^(m+1) changes neither the valuation m nor the
    # lowest nonzero digit, so the gap value is identical.
    p = f.bpart.p
    m, _ = val_and_digit(i, p)
    assert gap(f, i) == gap(f, i + shift * p ** (m + 1))


@given(gapped_forms(), st.integers(0, 4), st.data())
def test_class_gap_is_the_gap_of_its_class(f, m, data):
    p = f.bpart.p
    d = data.draw(st.integers(1, p - 1))
    assert class_gap(f, m, d) == gap(f, p**m * d)


@given(gapped_forms(max_s=2, max_p=3, max_exp=2), st.integers(1, 4))
def test_omega_prefix_consistent_with_string_iteration(f, k):
    # Stripping leading a's from h^k(b) must give a prefix of omega(h).
    g = f.to_morphism()
    ga = "a" * f.s
    gb = g.image_b.to_text()
    img = npower((ga, gb), k)[1].lstrip("a")
    assert img, "nonsingular image retains b"
    assert omega_prefix(f, len(img)).to_text() == img


def test_omega_prefix_matches_string_expansion_across_pieces():
    # h^5(b) is a prefix of omega(h) here; the lengths cut the pieces b, v,
    # h(v), ... inside and at their ends, which expand only as far as needed.
    f = form("a=a,b=" + "ba" * 9 + "b")
    text = npower(("a", "ba" * 9 + "b"), 5)[1]
    for n in (1, 2, 19, 20, 198, 199, 200, 3_619, 3_620, 5_000, 65_000, len(text)):
        assert omega_prefix(f, n).to_text() == text[:n]


@given(gapped_forms(max_s=2, max_p=3, max_exp=2), st.integers(1, 50), st.integers(0, 60))
def test_omega_prefix_monotone(f, n, extra):
    small = omega_prefix(f, n).to_text()
    big = omega_prefix(f, n + extra).to_text()
    assert big.startswith(small)


def test_empirical_detector():
    periodic = ("ba" * 2000)[:3000]
    assert eventually_periodic_prefix(periodic, max_period=10, preperiod=100)
    ruler = "".join("b" + "a" * bin(i)[2:].count("0") for i in range(1, 1200))
    assert not eventually_periodic_prefix(ruler[:3000], max_period=10, preperiod=100)
    with pytest.raises(ValueError):
        eventually_periodic_prefix("ba", max_period=10, preperiod=100)
