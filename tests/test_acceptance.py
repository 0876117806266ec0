"""End-to-end acceptance checks.

Each test here validates one package-level guarantee against the
brute-force composition oracle or an equally independent recomputation,
at full advertised scale.  Run with `pytest tests/test_acceptance.py -s`
to see one PASS line per criterion.
"""
from __future__ import annotations

import hashlib
import time
from itertools import product
from math import gcd

import pytest

from conftest import eventually_periodic_prefix, is_special_pair
from trimorph.classifier import CASES, classify, direct_commute
from trimorph.cli import EXAMPLE_PAIRS
from trimorph.freeness import find_relation, matrix_collision
from trimorph.morphisms import (
    BinaryMorphism,
    Core,
    TriangularForm,
    is_nonsingular,
    mat_mul,
    parse_morphism,
    power,
    to_triangular,
)
from trimorph.numtheory import INDEPENDENT, Dependent, mult_dependence, primitive_root
from trimorph.omega import (
    gap_sequence,
    gap_sequence_direct,
    omega_eventually_periodic,
    omega_prefix,
    right_tail,
)
from trimorph.sweep import SweepConfig, enumerate_b_images, enumerate_morphisms, run_sweep
from trimorph.words import A, B, Word, strip_leading

# Every structural condition must fire on at least one pair of the
# default sweep, or the sweep space is too small to witness it.
REQUIRED_TRUE_CONDITIONS = (
    "SingularBImage.length_identity",
    "SingularAImage.equal_morphisms",
    "SingularAImage.partner_is_identity",
    "SingularAImage.erasing_pair_commutes",
    "SingularAImage.both_b_powers",
    "SingularAImage.block_shift_match",
    "BothGapOne.padding_balance",
    "GapOneVsMany.g1_is_identity",
    "GapOneVsMany.both_b_powers",
    "MultIndependent.both_b_powers",
    "MultIndependent.uniform_blocks_same_gap",
    "MultDependent.equal_powers",
    "MultDependent.both_b_powers",
    "MultDependent.power_images_a_conjugate",
)


# The sha256 of (case, swapped, conditions, witness, prediction) of every
# report of the default sweep, in sweep order.  A refactor that must leave
# every report unchanged keeps it; a change that alters reports on purpose
# re-pins it and says why.
REPORT_DIGEST = "db0d9183cbbe0546f7f0bf09cfa2ea50b330ae3fdae44e2dd03d81c36a1292e1"


def _report(num: int, text: str) -> None:
    print(f"\nPASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def default_sweep():
    start = time.perf_counter()
    result = run_sweep(SweepConfig())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def morphs():
    return enumerate_morphisms(SweepConfig())


@pytest.fixture(scope="module")
def oracle_pairs(morphs):
    """Unordered index pairs i < j split by the composition oracle."""
    commuting: list[tuple[int, int]] = []
    noncommuting: list[tuple[int, int]] = []
    for i, g1 in enumerate(morphs):
        for j in range(i + 1, len(morphs)):
            target = commuting if direct_commute(g1, morphs[j]) else noncommuting
            target.append((i, j))
    return commuting, noncommuting


def _omega_defined(form: TriangularForm) -> bool:
    return form.is_nonsingular() and not right_tail(form).is_empty()


def test_criterion_1_sweep_matches_oracle(default_sweep):
    result, elapsed = default_sweep
    assert result.mismatches == []
    assert result.morphisms == 484
    assert result.pairs == 484**2
    assert elapsed < 60.0
    _report(
        1,
        f"classifier equals oracle on all {result.pairs} default-sweep pairs "
        f"({result.commuting} commuting) in {elapsed:.1f}s",
    )


def test_default_sweep_tallies_and_screen(default_sweep):
    # The tallies of the sweep that composed every pair; the matrix screen
    # settles 207,320 pairs and leaves 26,936 to composition.
    result, _ = default_sweep
    assert result.commuting == 3710
    assert result.screened == 207_320
    assert result.cases == {
        "BothGapOne": 729,
        "GapOneVsMany": 17496,
        "MultDependent": 65610,
        "MultIndependent": 39366,
        "SingularAImage": 95823,
        "SingularBImage": 15232,
    }
    assert result.conditions == {
        "BothGapOne.padding_balance": 143,
        "GapOneVsMany.both_b_powers": 36,
        "GapOneVsMany.g1_is_identity": 648,
        "MultDependent.both_b_powers": 18,
        "MultDependent.equal_powers": 324,
        "MultDependent.power_images_a_conjugate": 228,
        "MultIndependent.both_b_powers": 18,
        "MultIndependent.uniform_blocks_same_gap": 6,
        "SingularAImage.block_shift_match": 114,
        "SingularAImage.both_b_powers": 63,
        "SingularAImage.equal_morphisms": 117,
        "SingularAImage.erasing_pair_commutes": 153,
        "SingularAImage.partner_is_identity": 234,
        "SingularBImage.length_identity": 1922,
    }


def test_default_sweep_report_digest(morphs):
    digest = hashlib.sha256()
    for g1 in morphs:
        for g2 in morphs:
            r = classify(g1, g2)
            digest.update(repr((r.case, r.swapped, r.conditions, r.witness, r.prediction)).encode())
    assert digest.hexdigest() == REPORT_DIGEST


def test_criterion_2_case_and_condition_coverage(default_sweep):
    result, _ = default_sweep
    for case in CASES:
        assert result.cases[case] > 0, f"case never reached: {case}"
    for key in REQUIRED_TRUE_CONDITIONS:
        assert result.conditions[key] >= 1, f"condition never true: {key}"
    _report(
        2,
        f"all {len(CASES)} cases reached and all {len(REQUIRED_TRUE_CONDITIONS)} "
        "structural conditions witnessed",
    )


def _rung(b_count: int, s_values: tuple[int, ...], max_exp: int) -> list[BinaryMorphism]:
    """The morphisms a -> a^s, s in s_values, whose image of b holds exactly
    b_count b's, with paddings and gaps up to max_exp."""
    return [
        BinaryMorphism(Word.single(A, s), image_b)
        for s in s_values
        for image_b in enumerate_b_images(b_count, max_exp, 0)
        if image_b.occ(B) == b_count
    ]


@pytest.mark.parametrize(
    "p, q, s_values, max_exp, pairs, commuting",
    [(2, 4, (1, 2, 4), 2, 118_098, 54), (2, 8, (1, 2), 1, 32_768, 10)],
    ids=["rungs-2-4", "rungs-2-8"],
)
def test_dependent_rungs_match_oracle(p, q, s_values, max_exp, pairs, commuting):
    # The default sweep has p = q on every MultDependent pair, so m = n = 1.
    # Pairs across the rungs p = r^m and q = r^n reach mn > 1: the gap
    # classes of _gaps_agree with k >= 1 and the power counts with k > 1.
    low, high = _rung(p, s_values, max_exp), _rung(q, s_values, max_exp)
    seen = commuted = 0
    witnessed: set[str] = set()
    for g, h in product(low, high):
        for g1, g2 in ((g, h), (h, g)):
            report = classify(g1, g2)
            assert report.case == "MultDependent"
            m1, m2 = g1.rows, g2.rows
            actual = mat_mul(m1, m2) == mat_mul(m2, m1) and direct_commute(g1, g2)
            assert report.prediction == actual, (g1, g2, report)
            seen += 1
            commuted += actual
            if report.witness["m"] * report.witness["n"] > 1:
                witnessed.update(name for name, value in report.conditions.items() if value)
    assert (seen, commuted) == (pairs, commuting)
    assert witnessed == {"equal_powers", "both_b_powers", "power_images_a_conjugate"}


def test_criterion_3_gap_closed_form():
    checked = 0
    for p in range(2, 6):
        for s in (1, 2, 3):
            for gamma1 in range(4):
                for alphas in product(range(4), repeat=p - 1):
                    for gamma2 in range(4):
                        form = TriangularForm(s, Core(gamma1, alphas, gamma2))
                        closed = gap_sequence(form, 2500)
                        assert closed[:2000] == gap_sequence_direct(form, 2000)
                        gg = gamma1 + gamma2
                        lhs = closed[p - 1 : p * 500 : p]
                        rhs = [s * v + gg for v in closed[:500]]
                        assert lhs == rhs
                        checked += 1
    assert checked == 16320
    _report(
        3,
        f"closed-form gaps equal literal expansion (2000 values) and satisfy "
        f"the scaling recurrence on {checked} forms",
    )


def test_criterion_4_omega_consistency(morphs, oracle_pairs):
    commuting, _ = oracle_pairs
    forms = [to_triangular(g) for g in morphs]
    defined = [_omega_defined(form) for form in forms]

    cache: dict[int, object] = {}

    def omega1000(idx: int):
        if idx not in cache:
            cache[idx] = omega_prefix(forms[idx], 1000)
        return cache[idx]

    shared = 0
    for i, j in commuting:
        if defined[i] and defined[j]:
            assert omega1000(i) == omega1000(j), (
                f"commuting pair {i},{j} disagrees on the infinite word"
            )
            shared += 1
    assert shared > 0

    prefixes = 0
    for idx, g in enumerate(morphs):
        if not defined[idx]:
            continue
        for k in range(1, 5):
            stripped = strip_leading(power(g, k).image_b, A)
            assert stripped == omega_prefix(forms[idx], stripped.length())
            prefixes += 1
    _report(
        4,
        f"{shared} commuting pairs share their infinite word; "
        f"{prefixes} stripped power images confirmed as prefixes of it",
    )


def test_criterion_5_periodicity(morphs):
    checked = periodic = 0
    for g in morphs:
        form = to_triangular(g)
        if not form.is_nonsingular() or form.b_count < 2:
            continue
        structural = omega_eventually_periodic(form)
        text = omega_prefix(form, 5000).to_text()
        empirical = eventually_periodic_prefix(text, max_period=200, preperiod=1000)
        assert structural == empirical, f"periodicity disagreement: {form}"
        checked += 1
        periodic += structural
    assert checked == 324
    assert periodic > 0
    _report(
        5,
        f"structural periodicity test matches the empirical detector on all "
        f"{checked} eligible forms ({periodic} periodic)",
    )


def test_criterion_6_freeness(morphs, oracle_pairs):
    commuting, noncommuting = oracle_pairs
    nonsingular = [is_nonsingular(g) for g in morphs]
    forms = [to_triangular(g) for g in morphs]
    strong = [form.s >= 2 and form.b_count >= 2 for form in forms]

    # Non-commuting pairs admit no composition relation to depth 4.  The
    # matrix screen is sound: the full search finds no relation on a pair it
    # clears either, and composes nothing for it.
    eligible = strong_checked = screened_out = 0
    for i, j in noncommuting:
        if not (nonsingular[i] and nonsingular[j]):
            continue
        g1, g2 = morphs[i], morphs[j]
        if is_special_pair(g1, g2):
            continue
        eligible += 1
        if strong[i] and strong[j]:
            strong_checked += 1
        screened_out += not matrix_collision(g1, g2, 4)
        assert find_relation(g1, g2, 4) is None, (
            f"non-commuting pair {i},{j} satisfies a relation"
        )
    assert eligible > 0 and strong_checked > 0 and screened_out > 0

    # Every commuting pair satisfies a relation already at depth 2.
    for i, j in commuting:
        assert find_relation(morphs[i], morphs[j], 2) is not None

    # Powers of a non-commuting pair with both diagonals >= 2 never commute.
    powers_checked = 0
    for i, j in noncommuting:
        if strong[i] and strong[j]:
            g1, g2 = morphs[i], morphs[j]
            for mm, nn in ((1, 2), (2, 1), (2, 2)):
                assert not direct_commute(power(g1, mm), power(g2, nn))
            powers_checked += 1
    assert powers_checked > 0

    _report(
        6,
        f"no relation on {eligible} eligible non-commuting pairs "
        f"({strong_checked} with both diagonals >= 2); all {len(commuting)} "
        f"commuting pairs relate at depth 2; power non-commutation on "
        f"{powers_checked} pairs; screen soundness checked on all {screened_out} pairs it clears",
    )


def test_criterion_7_bundled_examples():
    spot = {
        "complementary-diagonal": ("GapOneVsMany", "both_b_powers"),
        "uniform-blocks": ("MultIndependent", "uniform_blocks_same_gap"),
        "erasing-aligned": ("SingularBImage", None),
        "block-against-shift": ("SingularAImage", "block_shift_match"),
    }
    for name, text1, text2 in EXAMPLE_PAIRS:
        g1 = parse_morphism(text1)
        g2 = parse_morphism(text2)
        assert direct_commute(g1, g2), f"example does not commute: {name}"
        report = classify(g1, g2)
        assert report.prediction is True, f"classifier misses example: {name}"
        if name in spot:
            case, condition = spot[name]
            assert report.case == case, name
            if condition is not None:
                assert report.conditions[condition] is True, name
    _report(
        7,
        f"all {len(EXAMPLE_PAIRS)} bundled example pairs commute and are "
        "predicted, with expected cases on spot checks",
    )


def test_criterion_8_numtheory_exhaustive():
    start = time.perf_counter()
    limit = 10**6

    proper: dict[int, tuple[int, int]] = {}
    for d in range(2, 1001):
        if d in proper:
            continue
        value, exp = d * d, 2
        while value <= limit:
            proper[value] = (d, exp)
            value *= d
            exp += 1

    for n in range(2, limit + 1):
        d, e = primitive_root(n)
        assert d**e == n
        if n in proper:
            assert (d, e) == proper[n], n
        else:
            assert (d, e) == (n, 1), n

    dependent = 0
    for p in range(2, 65):
        for q in range(2, 65):
            dep = mult_dependence(p, q)
            brute = next(
                (
                    (j, k)
                    for j in range(1, 11)
                    for k in range(1, 11)
                    if p**j == q**k
                ),
                None,
            )
            if brute is None:
                assert dep is INDEPENDENT, (p, q)
            else:
                assert isinstance(dep, Dependent), (p, q)
                assert dep.r**dep.m == p and dep.r**dep.n == q
                assert gcd(dep.m, dep.n) == 1
                assert dep.m * brute[0] == dep.n * brute[1]
                dependent += 1
    assert dependent > 0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        8,
        f"root decomposition exhaustive to 10^6 and dependence brute-forced "
        f"on 63x63 bases in {elapsed:.1f}s",
    )
