from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import (
    as_strings,
    gapped_forms,
    is_special_pair,
    morphisms,
    napply,
    ncompose,
    npower,
    triangular_morphisms,
    word_texts,
)
from oracle_paths import box_agrees, paths_agree
from trimorph.classifier import direct_commute
from trimorph.morphisms import (
    MAX_TEXT_LETTERS,
    MODULUS,
    BinaryMorphism,
    BOnly,
    Core,
    Difference,
    IDENTITY,
    NotUpperTriangular,
    TriangularForm,
    apply,
    b_image_shape,
    compose,
    first_difference,
    format_morphism,
    image_runs,
    is_nonsingular,
    mat_mul,
    matrix,
    parse_morphism,
    power,
    shape_to_word,
    to_triangular,
)
from trimorph.sweep import SweepConfig, enumerate_morphisms
from trimorph.words import MAX_COUNT, WORD_A, CountOverflow, ParseError, Word, push_run


def m(text: str) -> BinaryMorphism:
    return parse_morphism(text)


def test_apply_examples():
    g = m("a=aa,b=ab")
    assert apply(g, Word.parse("ba")).to_text() == "abaa"
    assert apply(m("a=eps,b=b"), Word.parse("aba")).to_text() == "b"


def test_compose_is_right_to_left():
    g1 = m("a=aa,b=ab")
    g2 = m("a=a,b=ba")
    assert compose(g1, g2).image_b.to_text() == "abaa"
    assert compose(g2, g1).image_b.to_text() == "aba"


def test_power_examples():
    g = m("a=a,b=bab")
    assert power(g, 0) == IDENTITY
    assert power(g, 2).image_b.to_text() == "bababab"
    with pytest.raises(ValueError):
        power(g, -1)


def test_matrix_examples():
    assert matrix(m("a=aa,b=ab")).rows == ((2, 1), (0, 1))
    assert matrix(m("a=eps,b=ab")).rows == ((0, 1), (0, 1))
    assert matrix(m("a=ba,b=b")).rows == ((1, 0), (1, 1))
    h = matrix(BinaryMorphism(Word.single("a", 2**40), Word.parse("b")))
    with pytest.raises(CountOverflow):
        h @ h  # the entry 2^80


def test_matrix_det_sign():
    assert matrix(m("a=ba,b=b")).det() == 1
    assert matrix(m("a=b,b=a")).det() == -1
    assert matrix(m("a=eps,b=ab")).det() == 0


def test_nonsingular_examples():
    assert is_nonsingular(m("a=a,b=bab"))
    assert not is_nonsingular(m("a=aa,b=aaa"))
    assert not is_nonsingular(m("a=eps,b=ab"))


def test_to_triangular_examples():
    form = to_triangular(m("a=aa,b=abaaba"))
    assert form == TriangularForm(2, Core(1, (2,), 1))
    assert form.bpart.p == 2
    assert (form.a_count, form.b_count) == (4, 2)
    assert to_triangular(m("a=eps,b=aaa")) == TriangularForm(0, BOnly(3))
    assert to_triangular(m("a=eps,b=aaa")).a_count == 3


@pytest.mark.parametrize(
    "runs, shape",
    [
        ((), BOnly(0)),
        ((("a", MAX_COUNT),), BOnly(MAX_COUNT)),
        ((("b", 2),), Core(0, (0,), 0)),
        ((("b", 1), ("a", MAX_COUNT), ("b", 3), ("a", 5)), Core(0, (MAX_COUNT, 0, 0), 5)),
        ((("a", MAX_COUNT), ("b", 2), ("a", 7), ("b", 1)), Core(MAX_COUNT, (0, 7), 0)),
        ((("b", 2**16),), Core(0, (0,) * (2**16 - 1), 0)),
        ((("a", 3), ("b", 2**16), ("a", MAX_COUNT)), Core(3, (0,) * (2**16 - 1), MAX_COUNT)),
    ],
)
def test_b_image_shape_reads_the_as_before_each_b(runs, shape):
    # Each b of a run after the first has no a before it, so gets a 0 padding.
    word = Word(runs)
    assert b_image_shape(word) == shape
    assert shape_to_word(shape) == word


def test_triangular_form_is_computed_once_per_morphism():
    g = m("a=aa,b=abaaba")
    assert to_triangular(g) is to_triangular(g)
    # A failure is not cached: every call raises.
    bad = m("a=ab,b=b")
    for _ in range(2):
        with pytest.raises(NotUpperTriangular):
            to_triangular(bad)


def test_special_pair_examples():
    assert is_special_pair(m("a=a,b=aba"), m("a=aa,b=b"))
    assert not is_special_pair(m("a=a,b=aba"), m("a=a,b=b"))
    assert not is_special_pair(m("a=a,b=bb"), m("a=aa,b=b"))


def test_parse_morphism_accepts_whitespace():
    assert m(" a = ab , b = eps ") == BinaryMorphism(Word.parse("ab"), Word())


def test_parse_morphism_rejects_malformed():
    for bad in ("a=ab", "b=a,a=b", "a=abc,b=b", "a=,b=b", "x=a,b=b"):
        with pytest.raises(ParseError):
            m(bad)
    for bad, position in (("ab=b,b=a", 1), ("b=a,a=b", 0)):
        with pytest.raises(ParseError, match="expected 'a=' at the start") as error:
            m(bad)
        assert error.value.position == position


def test_format_roundtrip_examples():
    for text in ("a=aa,b=ab", "a=eps,b=eps", "a=a,b=bab"):
        assert format_morphism(m(text)) == text


def test_power_overflow():
    g = BinaryMorphism(Word.single("a", 2**33), Word.parse("b"))
    with pytest.raises(CountOverflow):
        power(g, 3)


@given(morphisms(), word_texts(14))
def test_apply_matches_string_oracle(g, t):
    ga, gb = as_strings(g)
    assert apply(g, Word.parse(t) if t else Word()).to_text() == (napply(ga, gb, t) or "eps")


def seam_images():
    """Image texts whose first and last runs share a letter, such as aba."""
    return st.tuples(st.sampled_from("ab"), st.text(alphabet="ab", min_size=1, max_size=5)).map(
        lambda pair: pair[0] + pair[1] + pair[0]
    )


def runs_texts():
    """Input texts with runs of up to five letters, so copies of an image
    meet at seams."""
    return st.lists(st.integers(1, 5), max_size=6).map(
        lambda counts: "".join("ab"[k % 2] * c for k, c in enumerate(counts))
    )


@given(st.one_of(seam_images(), word_texts(6)), st.one_of(seam_images(), word_texts(6)), runs_texts())
def test_apply_of_seam_images_matches_string_oracle(ta, tb, t):
    g = BinaryMorphism(Word.parse(ta or "eps"), Word.parse(tb or "eps"))
    assert apply(g, Word.parse(t or "eps")).to_text() == (napply(ta, tb, t) or "eps")


def word_of(*runs) -> Word:
    return Word(tuple(runs))


def test_apply_single_run_product_at_the_bound():
    third = MAX_COUNT // 3
    assert 3 * third == MAX_COUNT
    g = BinaryMorphism(Word.single("a", 3), Word.parse("b"))
    assert apply(g, word_of(("a", third))).runs == (("a", MAX_COUNT),)
    with pytest.raises(CountOverflow):
        apply(g, word_of(("a", third + 1)))
    twice = BinaryMorphism(Word.single("a", 2), Word.parse("b"))
    with pytest.raises(CountOverflow):
        apply(twice, word_of(("a", 2**63)))  # exactly MAX_COUNT + 1


def test_apply_merge_with_the_previous_run_at_the_bound():
    # The image of b starts with the letter the image of a ends with.
    g = BinaryMorphism(Word.single("a", MAX_COUNT - 1), Word.parse("ab"))
    assert apply(g, Word.parse("ab")).runs == (("a", MAX_COUNT), ("b", 1))
    past = BinaryMorphism(Word.single("a", MAX_COUNT), Word.parse("ab"))
    with pytest.raises(CountOverflow):
        apply(past, Word.parse("ab"))


def test_apply_seam_run_at_the_bound():
    half = 2**63
    at_bound = BinaryMorphism(word_of(("a", half), ("b", 1), ("a", half - 1)), Word.parse("b"))
    assert apply(at_bound, Word.parse("aa")).runs == (
        ("a", half), ("b", 1), ("a", MAX_COUNT), ("b", 1), ("a", half - 1)
    )
    past = BinaryMorphism(word_of(("a", half), ("b", 1), ("a", half)), Word.parse("b"))
    assert apply(past, Word.parse("a")).runs == past.image_a.runs
    with pytest.raises(CountOverflow):
        apply(past, Word.parse("aa"))


def test_apply_refuses_copies_past_the_length_bound():
    # A multi-run image holds at least two letters, so this many copies
    # are longer than MAX_COUNT, whatever their runs.
    g = m("a=ab,b=b")
    with pytest.raises(CountOverflow):
        apply(g, word_of(("a", MAX_COUNT // 2 + 1)))


def counts():
    """Run counts at both ends of the 64-bit range."""
    return st.one_of(st.integers(1, 3), st.integers(MAX_COUNT // 4, MAX_COUNT))


@st.composite
def counted_words(draw, letter_counts):
    """Words of up to five runs, each count drawn from letter_counts(letter)."""
    letter = draw(st.sampled_from("ab"))
    runs = []
    for _ in range(draw(st.integers(0, 5))):
        runs.append((letter, draw(letter_counts(letter))))
        letter = "b" if letter == "a" else "a"
    return word_of(*runs)


@st.composite
def stream_inputs(draw):
    """A morphism with counts up to near 2^64 and a word to apply it to.
    A multi-run image is copied at most 3 times, or more than MAX_COUNT // 2
    times, which every side refuses at once."""
    g = BinaryMorphism(*(draw(counted_words(lambda _: counts())) for _ in "ab"))

    def copies(letter):
        if len((g.image_a if letter == "a" else g.image_b).runs) > 1:
            return st.one_of(st.integers(1, 3), st.integers(MAX_COUNT // 2 + 1, MAX_COUNT))
        return counts()

    return g, draw(counted_words(copies))


@given(stream_inputs())
@example((BinaryMorphism(Word.single("a", 3), Word.parse("b")), word_of(("a", MAX_COUNT // 3))))
@example((BinaryMorphism(Word.single("a", 3), Word.parse("b")), word_of(("a", MAX_COUNT // 3 + 1))))
@example((BinaryMorphism(Word.single("a", MAX_COUNT - 1), Word.parse("ab")), Word.parse("ab")))
@example((BinaryMorphism(Word.single("a", MAX_COUNT), Word.parse("ab")), Word.parse("ab")))
@example((BinaryMorphism(word_of(("a", 2**63), ("b", 1), ("a", 2**63 - 1)), Word.parse("b")),
          Word.parse("aa")))
@example((BinaryMorphism(word_of(("a", 2**63), ("b", 1), ("a", 2**63)), Word.parse("b")),
          Word.parse("aa")))
@example((m("a=ab,b=b"), word_of(("a", MAX_COUNT // 2 + 1))))
# The pending run a^(2^64) passes the bound when the run of b ends it.
@example((BinaryMorphism(Word.single("a", 2**63), Word.parse("b")), Word.parse("aab")))
def test_apply_and_image_runs_equal_a_run_reference(inputs):
    # Both sides give the runs of the reference, and raise CountOverflow
    # exactly on the inputs it refuses.
    g, w = inputs
    try:
        expected = reference_runs(g, w)
    except CountOverflow:
        with pytest.raises(CountOverflow):
            apply(g, w)
        with pytest.raises(CountOverflow):
            list(image_runs(g, w))
    else:
        assert apply(g, w).runs == expected
        assert tuple(image_runs(g, w)) == expected


def reference_runs(g, w):
    """g(w) pushed run by run, each copy of a multi-run image in full."""
    out = []
    for letter, count in w.runs:
        image = (g.image_a if letter == "a" else g.image_b).runs
        if len(image) < 2:
            # An empty image, or one run multiplied by the count.
            for x, k in image:
                push_run(out, x, k * count)
            continue
        if count > MAX_COUNT // 2:
            raise CountOverflow(f"{count} copies of a word of two or more letters")
        assert count <= 3, "stream_inputs copies a multi-run image at most 3 times"
        for _ in range(count):
            for run in image:
                push_run(out, *run)
    if any(count > MAX_COUNT for _, count in out):
        raise CountOverflow("a run exceeds 64-bit bound")
    return tuple(out)


@pytest.mark.parametrize("image", ["ab", "aba", "abbaab"])
def test_copies_across_blocks_match_strings(image):
    # A long image's copies are yielded in blocks of whole copies, 2,048 of
    # a two-run copy and 1,024 of a four-run one; these counts fall on and
    # past the edges of one and of more blocks.
    g = m(f"a=ba,b={image}")
    for copies in (1, 1025, 1026, 2049, 2050, 4097, 6000):
        w = word_of(("a", 1), ("b", copies), ("a", 2))
        expected = napply("ba", image, "a" + "b" * copies + "aa")
        assert apply(g, w).to_text() == expected
        assert tuple(image_runs(g, w)) == Word.parse(expected).runs


def test_a_long_commuting_walk_holds_a_block_at_a_time():
    # g(g(b)) is (b^N a)^N a, about 2N runs; one tuple of all its copies
    # would hold about 3 MB.
    g = BinaryMorphism(Word.parse("a"), word_of(("b", 200_000), ("a", 1)))
    tracemalloc.start()
    try:
        assert direct_commute(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_paths_agree_on_the_screened_default_pairs():
    assert box_agrees() == (26_936, 3_710)


# The rungs (p, q) of the power ladder of the benchmark's verdicts workload:
# b-counts p = r^m and q = r^n.
LADDER = ((2, 4), (4, 8), (9, 27), (4, 32), (8, 16), (8, 32), (16, 32))


def ladder_morphisms(p: int, rng: random.Random) -> list[BinaryMorphism]:
    """a -> a and a -> aa, each with four images of b holding p b's:
    (b a)^(p-1) b and (b aa)^(p-1) b, which commute with the same form at
    any other b-count, and two with paddings in [0, 2] and interior gaps in
    [1, 2] drawn from rng."""
    images = ["b" + "ab" * (p - 1), "b" + "aab" * (p - 1)]
    for _ in range(2):
        gaps = "".join("a" * rng.randint(1, 2) + "b" for _ in range(p - 1))
        images.append("a" * rng.randint(0, 2) + "b" + gaps + "a" * rng.randint(0, 2))
    return [m(f"a={'a' * s},b={image}") for s in (1, 2) for image in images]


def test_oracle_paths_agree_on_the_ladder_rungs():
    rng = random.Random(25)
    pairs = []
    for p, q in LADDER:
        low, high = ladder_morphisms(p, rng), ladder_morphisms(q, rng)
        for g, h in product(low, high):
            pairs += [(g, h), (h, g)]
    assert paths_agree(pairs) == (896, 30)


def test_the_string_path_ends_at_its_bound(monkeypatch):
    streamed = []

    def counting_image_runs(g, w):
        streamed.append(w)
        return image_runs(g, w)

    monkeypatch.setattr("trimorph.morphisms.image_runs", counting_image_runs)
    assert MAX_TEXT_LETTERS == 64 * 64 == 17 * 241 - 1
    # longest counts the letters of the longest image or composed image:
    # b^64 against b^64 composes to b^4096 both ways, b^63 a against b^64 to
    # (b^63 a)^64 and b^4032 a, a^64 against a^64 to a^4096, and each has a
    # pair one letter over.  Against the erasing morphism every composed
    # image is empty, so the image of b is the longest.  In each of the last
    # four rows one image or composed image alone is over the bound, and
    # every term of its length is nonzero, so each term of each length
    # decides the path in one order or the other; the terms that count b's
    # in an image of a need an image of a that holds a b.
    for g1, g2, commute, longest in (
        ("a=" + "a" * 64 + ",b=b", "a=" + "a" * 64 + ",b=bb", True, 4096),
        ("a=" + "a" * 17 + ",b=b", "a=" + "a" * 241 + ",b=bb", True, 4097),
        ("a=a,b=" + "b" * 64, "a=aa,b=" + "b" * 64, True, 4096),
        ("a=a,b=" + "b" * 17, "a=aa,b=" + "b" * 241, True, 4097),
        ("a=a,b=" + "b" * 63 + "a", "a=a,b=" + "b" * 64, False, 4096),
        ("a=a,b=" + "b" * 16 + "a", "a=a,b=" + "b" * 241, False, 4097),
        ("a=a,b=" + "b" * 4096, "a=eps,b=eps", True, 4096),
        ("a=a,b=" + "b" * 4097, "a=eps,b=eps", True, 4097),
        ("a=" + "a" * 4096 + "b,b=b", "a=eps,b=eps", True, 4097),
        ("a=a,b=" + "a" * 4096 + "b", "a=eps,b=eps", True, 4097),
        ("a=aa,b=b", "a=a,b=a" + "b" * 4095, False, 4097),
        ("a=a,b=bb", "a=" + "a" * 4095 + "b,b=b", False, 4097),
    ):
        s1, s2 = as_strings(m(g1)), as_strings(m(g2))
        assert max(map(len, (*s1, *s2, *ncompose(s1, s2), *ncompose(s2, s1)))) == longest
        for f1, f2 in ((g1, g2), (g2, g1)):
            streamed.clear()
            assert direct_commute(m(f1), m(f2)) is commute
            assert bool(streamed) is (longest > MAX_TEXT_LETTERS)


def test_the_fingerprint_modulus_is_the_mersenne_prime_2_127_minus_1():
    n = MODULUS
    assert n == 2**127 - 1
    # Miller-Rabin: with n - 1 = 2^r d, d odd, no base witnesses that n is
    # composite.
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            pytest.fail(f"{base} witnesses that {n} is composite")


@pytest.mark.parametrize("order", [1, -1], ids=["long-first", "erasing-first"])
def test_a_long_image_against_an_erasing_partner_stays_on_the_stream(order):
    # Every composed image is empty, so only the bound on the morphisms' own
    # images keeps the string path from writing out 10^12 b's.
    pair = (BinaryMorphism(WORD_A, Word.single("b", 10**12)), m("a=eps,b=eps"))[::order]
    tracemalloc.start()
    try:
        assert direct_commute(*pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def string_difference(g1, g2):
    """first_difference on plain strings: the image of b first, then of a."""
    for k, image in ((1, "b"), (0, "a")):
        u, v = ncompose(g1, g2)[k], ncompose(g2, g1)[k]
        if u != v:
            i = next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))
            return Difference(image, i, u[i] if i < len(u) else None, v[i] if i < len(v) else None)
    return None


def test_first_difference_matches_strings_on_a_reduced_sweep():
    morphs = enumerate_morphisms(SweepConfig(max_s=2, max_p=2, max_exp=2, max_bonly_exp=2))
    texts = [as_strings(g) for g in morphs]
    differing = 0
    for g1, t1 in zip(morphs, texts):
        for g2, t2 in zip(morphs, texts):
            expected = string_difference(t1, t2)
            assert first_difference(g1, g2) == expected
            assert direct_commute(g1, g2) == (expected is None)
            differing += expected is not None
    assert differing == 12_786


@given(morphisms(6), morphisms(6))
def test_first_difference_matches_strings(g1, g2):
    # Arbitrary morphisms, whose composed images may differ in length or in
    # the images of a.
    assert first_difference(g1, g2) == string_difference(as_strings(g1), as_strings(g2))


@given(morphisms(6), morphisms(6))
def test_compose_matches_string_oracle(g1, g2):
    expected = ncompose(as_strings(g1), as_strings(g2))
    assert as_strings(compose(g1, g2)) == expected


@given(morphisms(5), st.integers(0, 3))
def test_power_matches_string_oracle(g, n):
    assert as_strings(power(g, n)) == npower(as_strings(g), n)


@given(morphisms(6), morphisms(6))
def test_matrix_is_multiplicative(g1, g2):
    assert matrix(compose(g1, g2)) == matrix(g1) @ matrix(g2)


@given(morphisms(5), morphisms(5), st.integers(0, 3), st.booleans())
def test_matrices_that_do_not_commute_rule_out_commuting(g1, h, k, related):
    # The sweep's screen.  Powers of one morphism always commute, so related
    # pairs check that commuting morphisms pass it.
    g2 = power(g1, k) if related else h
    for g in (g1, g2):
        ga, gb = as_strings(g)
        assert g.rows == ((ga.count("a"), gb.count("a")), (ga.count("b"), gb.count("b")))
    passes = mat_mul(g1.rows, g2.rows) == mat_mul(g2.rows, g1.rows)
    assert passes or not direct_commute(g1, g2)
    assert passes or not related


@given(morphisms(5), st.integers(0, 2), st.integers(0, 2))
def test_power_addition(g, i, j):
    assert compose(power(g, i), power(g, j)) == power(g, i + j)


@given(triangular_morphisms())
def test_triangular_roundtrip(g):
    form = to_triangular(g)
    assert form.to_morphism() == g
    assert form.is_nonsingular() == is_nonsingular(g)


def assert_cached_invariants(form: TriangularForm, image_b: Word) -> None:
    counts = (image_b.occ("a"), image_b.occ("b"))
    assert (form.a_count, form.b_count) == counts
    if isinstance(form.bpart, Core):
        assert form.bpart.p == len(form.bpart.alphas) + 1
    # The counts are slots that __init__ set, not values computed on read.
    assert {"a_count", "b_count", "rank", "is_identity"} <= set(TriangularForm.__slots__)
    assert not hasattr(form, "__dict__")


def test_cached_invariants_on_the_default_sweep():
    for g in enumerate_morphisms(SweepConfig()):
        assert_cached_invariants(g.form, g.image_b)


@given(triangular_morphisms())
def test_cached_invariants_match_the_image_of_b(g):
    assert_cached_invariants(g.form, g.image_b)


@given(gapped_forms())
def test_cached_invariants_of_gapped_forms(form):
    assert_cached_invariants(form, form.to_morphism().image_b)


@pytest.mark.parametrize("value", [TriangularForm(1, Core(0, (2,), 1)), Core(0, (2,), 1)])
def test_forms_refuse_a_new_attribute(value):
    # No memo can be written into a form from outside.
    with pytest.raises(AttributeError):
        value.memo = {}


@given(
    st.integers(0, 2),
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.integers(0, 2),
)
def test_uniform_gap_is_the_shared_interior_gap_of_an_unpadded_core(gamma1, alphas, gamma2):
    core = Core(gamma1, alphas, gamma2)
    shared = gamma1 == gamma2 == 0 and len(alphas) >= 1 and all(x == alphas[0] for x in alphas)
    assert core.uniform_gap == (alphas[0] if shared else None)


@pytest.mark.parametrize(
    "form, rank",
    [
        (TriangularForm(2, BOnly(3)), 0),
        (TriangularForm(0, BOnly(0)), 0),
        (TriangularForm(0, Core(1, (2,), 0)), 1),
        (TriangularForm(1, Core(0, (), 0)), 2),
        (TriangularForm(2, Core(0, (1, 1), 3)), 4),
    ],
)
def test_rank_of_each_kind_of_form(form, rank):
    assert form.rank == rank


@pytest.mark.parametrize(
    "form, identity",
    [
        (TriangularForm(1, Core(0, (), 0)), True),
        (TriangularForm(0, Core(0, (), 0)), False),
        (TriangularForm(2, Core(0, (), 0)), False),
        (TriangularForm(1, Core(1, (), 0)), False),
        (TriangularForm(1, Core(0, (), 1)), False),
        (TriangularForm(1, Core(0, (0,), 0)), False),
        (TriangularForm(1, BOnly(0)), False),
        (TriangularForm(1, BOnly(1)), False),
    ],
)
def test_is_identity_of_each_kind_of_form(form, identity):
    assert form.is_identity is identity
    assert (form.to_morphism() == IDENTITY) is identity


@given(triangular_morphisms(max_s=2, max_image=4), st.integers(1, 4))
def test_b_count_grows_geometrically(g, n):
    form = to_triangular(g)
    if not form.is_nonsingular():
        return
    p = form.b_count
    assert power(g, n).image_b.occ("b") == p**n


@given(morphisms())
def test_format_parse_roundtrip(g):
    assert parse_morphism(format_morphism(g)) == g
