"""Structural commutation test for upper triangular morphism pairs.

classify() decides from the two triangular forms a -> a^s,
b -> a^gamma1 b a^alpha1 ... b a^gamma2, each cached on its morphism; the
images are read only to test whether two erasing morphisms' b-images
commute as words, and that test first compares their letter counts, since
commuting words are powers of one word and so have proportional counts.
It routes every ordered pair into exactly one case, evaluates that case's
full list of structural conditions without short-circuiting, and each case
builds its own report, predicting commutation as the disjunction of its
conditions.
direct_commute(), which lives next to apply in morphisms and is imported
here, is the independent oracle: it compares the images of b, then of a,
under both composition orders, with no structural reasoning, as plain
strings when they are short and as run streams that stop at the first
runs that differ when they are long.  The two must
agree on every upper triangular pair; the sweep harness checks that
exhaustively, running the oracle only on the pairs whose occurrence
matrices commute (a pair whose matrices do not commute cannot commute).

Cases, after normalizing roles (swapped records whether the inputs traded
places):

  SingularBImage   g1(b) is b-free; commutation reduces to one length identity.
  SingularAImage   g1(a) is empty while both b-images contain b.
  BothGapOne       both nonsingular, one b in each b-image.
  GapOneVsMany     both nonsingular, one b against p >= 2.
  MultIndependent  both nonsingular, b-counts p, q >= 2 with no common root.
  MultDependent    same, but p = r^m and q = r^n for a common root r.

MultDependent compares g1^n and g2^m without building them: their images
of b hold r^(mn) b's, but their outer paddings have closed forms and their
interior gaps are the closed-form gaps of omega(g1) and omega(g2), which
agree everywhere once they agree on one index of each residue class, or at
once when both sequences are constant (omega_eventually_periodic).  For an
index r^k j with r not dividing j, the gap of g1^n depends only on k and
j mod r^(m - k mod m), that of g2^m on k and j mod r^(n - k mod n); so one
j per class and valuation k settles every index, and the two terms of the
gap that depend on k alone are evaluated once per k.  That count,
_gap_comparisons, is at most about (m + n) r^max(m, n), O(B log B) in the
B b's of the larger image of b.  All of these are exact integers, with no
64-bit bound; the one refusal is BeyondBudget when the count exceeds 64
comparisons per b of the larger b-image, which no pair of images that fit
in memory reaches.  The witness conjugate_core is joined from the exact
gaps of the power images, at most 80 b's and 80 letters.  The test suite
keeps the version that composes the powers as its reference.
"""
from __future__ import annotations

from dataclasses import dataclass

from .morphisms import BinaryMorphism, Core, TriangularForm, direct_commute
from .numtheory import Dependent, mult_dependence
from .omega import class_terms, exact_gap_sequence, geometric, omega_eventually_periodic
from .words import SCHEMA_VERSION, BeyondBudget, words_commute

CASE_SINGULAR_B_IMAGE = "SingularBImage"
CASE_SINGULAR_A_IMAGE = "SingularAImage"
CASE_BOTH_GAP_ONE = "BothGapOne"
CASE_GAP_ONE_VS_MANY = "GapOneVsMany"
CASE_MULT_INDEPENDENT = "MultIndependent"
CASE_MULT_DEPENDENT = "MultDependent"

CASES = (
    CASE_SINGULAR_B_IMAGE,
    CASE_SINGULAR_A_IMAGE,
    CASE_BOTH_GAP_ONE,
    CASE_GAP_ONE_VS_MANY,
    CASE_MULT_INDEPENDENT,
    CASE_MULT_DEPENDENT,
)


@dataclass(slots=True)
class CommutationReport:
    case: str
    swapped: bool
    conditions: dict[str, bool]
    witness: dict | None
    prediction: bool

    def to_record(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "classification",
            "case": self.case,
            "swapped": self.swapped,
            "conditions": dict(self.conditions),
            "witness": self.witness,
            "prediction": self.prediction,
        }


def _match_block_powers(su: Core, sv: Core) -> dict | None:
    """Match u = (a^alpha b a^beta)^i and v = (b a^(alpha+beta))^j b, given
    the b-image shapes su of u and sv of v.

    The block parameters are forced: alpha and beta are u's outer paddings,
    and every interior gap on either side must equal alpha + beta.  Returns
    the parameters, or None.
    """
    alpha, beta = su.gamma1, su.gamma2
    if sv.gamma1 or sv.gamma2 or any(g != alpha + beta for g in su.alphas + sv.alphas):
        return None
    return {"alpha": alpha, "beta": beta, "i": su.p, "j": sv.p - 1}


def _power_counts(form: TriangularForm, k: int) -> tuple[int, int, int]:
    """(s^k, gamma1 G(s, k), gamma2 G(s, k)) as exact integers: the a-count
    of g^k(a) and the outer a-padding of g^k(b), where g^k(b) =
    a^(gamma1 G) (the prefix of omega(g) through its p^k-th b) a^(gamma2 G).
    """
    core = form.bpart
    factor = geometric(form.s, k)
    return form.s**k, core.gamma1 * factor, core.gamma2 * factor


def _gap_comparisons(r: int, m: int, n: int) -> int:
    """The number of comparisons _gaps_agree makes when every gap agrees:
    for each valuation k below mn, the j below r^min(max(m - k mod m,
    n - k mod n), mn - k) that r does not divide."""
    mn = m * n
    return sum((r - 1) * r ** (min(max(m - k % m, n - k % n), mn - k) - 1) for k in range(mn))


def _gaps_agree(f1: TriangularForm, f2: TriangularForm, r: int, m: int, n: int) -> bool:
    """gap(f1, i) == gap(f2, i), as exact integers, for every 1 <= i < r^(mn),
    for b-counts p = r^m and q = r^n.

    Write i = r^k j with r not dividing j.  The valuation of i in base p is
    k // m and its lowest nonzero digit is r^(k mod m) j mod p, so
    gap(f1, i) = alpha_d s^(k // m) + (gamma1 + gamma2) G(s, k // m) depends
    only on k and j mod r^(m - k mod m); likewise gap(f2, i) on k and
    j mod r^(n - k mod n).  So for each k one j below r^max(m - k mod m,
    n - k mod n) per class settles every index, and no j at or past
    r^(mn - k) occurs; the two terms that depend on k alone (class_terms)
    are evaluated once per k, and i itself is never built.  The count of
    comparisons, _gap_comparisons, is below n p + m q <= (m + n) r^N,
    N = max(m, n), so it is O(B log B) in the B = r^N b's of the larger
    image of b.  Raises BeyondBudget, before reading either form, when the
    count exceeds 64 r^N, 64 per b of that image; the exact count is
    summed only when n p + m q is over it, and no pair of images of b that
    fit in memory reaches it.
    """
    mn, p, q = m * n, r**m, r**n
    budget = 64 * max(p, q)
    if n * p + m * q > budget:
        work = _gap_comparisons(r, m, n)
        if work > budget:
            raise BeyondBudget(
                f"classify needs {work} gap comparisons, beyond its budget of {budget} "
                "(64 per b of the larger image of b)"
            )
    alphas1, alphas2 = f1.bpart.alphas, f2.bpart.alphas
    for k in range(mn):
        scale1, pad1 = class_terms(f1, k // m)
        scale2, pad2 = class_terms(f2, k // n)
        shift1, shift2 = r ** (k % m), r ** (k % n)
        for j in range(1, r ** min(max(m - k % m, n - k % n), mn - k)):
            if j % r and (
                alphas1[shift1 * j % p - 1] * scale1 + pad1
                != alphas2[shift2 * j % q - 1] * scale2 + pad2
            ):
                return False
    return True


def classify(g1: BinaryMorphism, g2: BinaryMorphism) -> CommutationReport:
    """Structural commutation report for an upper triangular pair, decided
    from the two triangular forms.

    Raises NotUpperTriangular when either image of a contains b.
    """
    f1, f2 = g1.form, g2.form
    both_b_powers = f1.a_count == 0 and f2.a_count == 0

    # Normalize roles once: a b-free image of b first, else an empty image
    # of a first, else the smaller b-count first; ties keep their order.
    swapped = f1.rank > f2.rank
    if swapped:
        f1, f2 = f2, f1
    c1, c2 = f1.bpart, f2.bpart
    s, t = f1.s, f2.s

    if f1.rank == 0:
        # |g1 g2 (b)| against |g2 g1 (b)|.
        lhs = s * f2.a_count + c1.e * f2.b_count
        rhs = t * c1.e
        return CommutationReport(
            CASE_SINGULAR_B_IMAGE,
            swapped,
            {"length_identity": lhs == rhs},
            {"composed_b_image_lengths": [lhs, rhs]},
            lhs == rhs,
        )

    # f2.rank >= f1.rank >= 1, so both images of b hold a b.
    if s == 0:
        block = _match_block_powers(c1, c2) if t == 1 else None
        conditions = {
            # s = 0, so the morphisms are equal when t = 0 and the images of
            # b are.
            "equal_morphisms": t == 0 and g1.image_b.runs == g2.image_b.runs,
            "partner_is_identity": f2.is_identity,
            # Commuting words are powers of one word, so their letter counts
            # are proportional; words_commute is symmetric in its inputs.
            "erasing_pair_commutes": t == 0
            and f1.a_count * f2.b_count == f2.a_count * f1.b_count
            and words_commute(g1.image_b, g2.image_b),
            "both_b_powers": both_b_powers,
            "block_shift_match": block is not None,
        }
        return CommutationReport(
            CASE_SINGULAR_A_IMAGE, swapped, conditions, block, any(conditions.values())
        )

    # Both nonsingular from here on, with p <= q.
    p, q = c1.p, c2.p

    if p == 1 and q == 1:
        lead = (s - 1) * c2.gamma1 == (t - 1) * c1.gamma1
        balance = lead and (s - 1) * c2.gamma2 == (t - 1) * c1.gamma2
        conditions = {"padding_balance": balance}
        return CommutationReport(CASE_BOTH_GAP_ONE, swapped, conditions, None, balance)

    if p == 1:
        conditions = {"g1_is_identity": f1.is_identity, "both_b_powers": both_b_powers}
        prediction = f1.is_identity or both_b_powers
        return CommutationReport(CASE_GAP_ONE_VS_MANY, swapped, conditions, None, prediction)

    dep = mult_dependence(p, q)
    if not isinstance(dep, Dependent):
        gap1, gap2 = c1.uniform_gap, c2.uniform_gap
        uniform = s == 1 and t == 1 and gap1 is not None and gap1 == gap2
        conditions = {"both_b_powers": both_b_powers, "uniform_blocks_same_gap": uniform}
        witness = {"alpha": gap1} if uniform else None
        prediction = both_b_powers or uniform
        return CommutationReport(CASE_MULT_INDEPENDENT, swapped, conditions, witness, prediction)

    r, m, n = dep.r, dep.m, dep.n
    # g1^n(b) and g2^m(b) both hold nb = r^(mn) b's.
    nb = p**n
    if m == n == 1:
        # The powers are the morphisms themselves, with the forms' own counts
        # (s, gamma1, gamma2), and the gaps below p are the interior gaps.
        lead1, trail1, lead2, trail2 = c1.gamma1, c1.gamma2, c2.gamma1, c2.gamma2
        same_outside = s == t and lead1 == lead2 and trail1 == trail2
        conjugate_outside = s == 1 and t == 1 and lead1 + trail1 == lead2 + trail2
        agree = (same_outside or conjugate_outside) and c1.alphas == c2.alphas
    else:
        a1, lead1, trail1 = _power_counts(f1, n)
        a2, lead2, trail2 = _power_counts(f2, m)
        same_outside = a1 == a2 and lead1 == lead2 and trail1 == trail2
        conjugate_outside = s == 1 and t == 1 and lead1 + trail1 == lead2 + trail2
        outside = same_outside or conjugate_outside
        if outside and omega_eventually_periodic(f1) and omega_eventually_periodic(f2):
            # Both gap sequences are constant, each at its one interior gap,
            # so they agree without a comparison, whatever their length.
            agree = c1.alphas[0] == c2.alphas[0]
        else:
            agree = outside and _gaps_agree(f1, f2, r, m, n)
    conjugate = conjugate_outside and agree
    prediction = (same_outside and agree) or both_b_powers or conjugate
    conditions = {
        "equal_powers": same_outside and agree,
        "both_b_powers": both_b_powers,
        "power_images_a_conjugate": conjugate,
    }
    witness: dict = {"r": r, "m": m, "n": n}
    # The core of g1^n(b) is nb b's with the nb - 1 gaps between them.
    if conjugate and nb <= 80:
        gaps = exact_gap_sequence(f1, nb - 1)
        if nb + sum(gaps) <= 80:
            witness["conjugate_core"] = "b" + "".join("a" * g + "b" for g in gaps)
    return CommutationReport(CASE_MULT_DEPENDENT, swapped, conditions, witness, prediction)
