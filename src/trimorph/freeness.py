"""Relation search over composition sequences of a morphism pair.

A relation is a pair of distinct sequences over the indices {1, 2} whose
left-to-right compositions coincide as morphisms.  find_relation explores
all sequences of length 1..depth in breadth-first, lexicographic order and
reports the first collision, so the witness is canonical.

Taking the occurrence matrix is a monoid homomorphism, so two sequences can
compose to the same morphism only if their matrix products are equal.  The
search walks the matrix products, one 2x2 integer product a sequence: a
sequence with a new matrix cannot close a relation.  A sequence whose matrix
repeats an earlier one is keyed by its matrix and the Karp-Rabin
fingerprint of its composition, in the format morphisms defines.
Fingerprints extend like compositions, from those of a prefix, and a run of
k letters costs O(log k), so no word is built for them.  The search composes
only when the matrix and the fingerprint both repeat, and the exact
compositions decide, so a fingerprint collision costs time and never
changes the answer: the witness is the one a search composing every
sequence would report.

matrix_collision is the same walk without the fingerprint and composition
steps.  A collision-free matrix walk is a sound certificate that no morphism
relation exists at that depth, while a matrix collision says nothing either
way.

The module needs only morphisms and words, so the `free` command loads
neither the classifier nor dataclasses: SearchAborted and the Value base of
Relation live in words.
"""
from __future__ import annotations

from .morphisms import BinaryMorphism, _fingerprint_after, _identity_fingerprint, compose, mat_mul
from .words import MAX_COUNT, SearchAborted, Value


class Relation(Value):
    """Sequences over {1, 2} with equal compositions; left was found first."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...]):
        self.left = left
        self.right = right


DEFAULT_DEPTH = 6
# The last level of the search holds 2^depth matrix products.
MAX_DEPTH = 16


def _prefix_value(seq: tuple[int, ...], memo: dict, extend, gens: tuple):
    """The value of seq, extended from its longest prefix in memo by
    extend(value, generator), one index at a time; every prefix reached on
    the way is kept in memo."""
    k = len(seq)
    while seq[:k] not in memo:
        k -= 1
    value = memo[seq[:k]]
    for k in range(k, len(seq)):
        value = extend(value, gens[seq[k] - 1])
        memo[seq[: k + 1]] = value
    return value


def _first_collision(
    g1: BinaryMorphism, g2: BinaryMorphism, depth: int, exact: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Breadth-first, lexicographic walk over the sequences of length <= depth.

    Returns the first pair (earlier, later) of distinct sequences whose
    matrix products coincide and, when exact, whose compositions coincide
    too; None when there is none.  An exact walk builds words with 64-bit
    counts, so it aborts at the first sequence whose matrix holds an entry
    beyond MAX_COUNT: no letter of that composition can be counted.  Every
    sequence it composes, prefixes included, passed that check, and no run
    count of a composition exceeds an entry of its matrix.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > MAX_DEPTH:
        raise SearchAborted(depth, f"depth {depth} exceeds the search budget of {MAX_DEPTH}")
    gens = (g1, g2)
    steps = ((1, g1.rows), (2, g2.rows))
    first: dict = {}  # matrix product -> first sequence with it
    # (matrix, fingerprint) -> the sequences with it, of distinct compositions,
    # for repeated matrices only
    seen: dict = {}
    products: dict = {(1,): g1, (2,): g2}
    fingerprints: dict = {(): _identity_fingerprint()}
    # Each level lists the sequences of one length, in lexicographic order,
    # with their matrix products; extending each in turn by 1 and by 2 keeps
    # the next level in that order.
    level: list = [((), ((1, 0), (0, 1)))]
    for length in range(1, depth + 1):
        nxt: list = []
        for head, head_mat in level:
            for index, rows in steps:
                seq = head + (index,)
                mat = mat_mul(head_mat, rows)
                nxt.append((seq, mat))
                if exact and max(mat[0] + mat[1]) > MAX_COUNT:
                    raise SearchAborted(length)
                earlier = first.setdefault(mat, seq)
                if earlier is seq:
                    continue
                if not exact:
                    return earlier, seq
                # Equal compositions have equal matrices and fingerprints, so
                # the first sequence of a matrix enters seen, once, when the
                # matrix first repeats; None then marks the matrix as entered.
                if earlier is not None:
                    fp = _prefix_value(earlier, fingerprints, _fingerprint_after, gens)
                    seen[mat, fp] = [earlier]
                    first[mat] = None
                fp = _prefix_value(seq, fingerprints, _fingerprint_after, gens)
                candidates = seen.setdefault((mat, fp), [])
                for found in candidates:
                    if _prefix_value(found, products, compose, gens) == _prefix_value(
                        seq, products, compose, gens
                    ):
                        return found, seq
                candidates.append(seq)
        level = nxt
    return None


def find_relation(
    g1: BinaryMorphism, g2: BinaryMorphism, depth: int = DEFAULT_DEPTH
) -> Relation | None:
    """First pair of distinct sequences of length <= depth composing equally."""
    pair = _first_collision(g1, g2, depth, exact=True)
    return None if pair is None else Relation(*pair)


def matrix_collision(g1: BinaryMorphism, g2: BinaryMorphism, depth: int) -> bool:
    """True iff two distinct sequences of length <= depth share a matrix product."""
    return _first_collision(g1, g2, depth, exact=False) is not None
