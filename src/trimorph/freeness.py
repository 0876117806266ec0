"""Relation search over composition sequences of a morphism pair.

A relation is a pair of distinct sequences over the indices {1, 2} whose
left-to-right compositions coincide as morphisms.  find_relation explores
all sequences of length 1..depth in breadth-first, lexicographic order and
reports the first collision, so the witness is canonical.

Taking the occurrence matrix is a monoid homomorphism, so two sequences can
compose to the same morphism only if their matrices are equal.  The search
multiplies matrices, one 2x2 integer product a sequence: a sequence with a
new matrix cannot close a relation.  A sequence whose matrix repeats an
earlier one is keyed by its matrix and the Karp-Rabin fingerprint of its
composition, in the format morphisms defines.  One memo per search holds
these fingerprints, each extended from its prefix's at O(log k) for a run of
k letters, with no word built.  When both generators are upper triangular
every composition maps a to a^n, so the search also keeps the powers of the
fingerprints of images of a.  A match of matrix and fingerprint is confirmed
by composing its two sequences once each; with the real modulus only a
fingerprint collision makes a match that is no relation, so no composition
is kept.  A collision costs time and never changes the answer: the witness
is the one a search composing every sequence would report.

matrix_collision is the same walk without the fingerprint and composition
steps.  A collision-free matrix walk is a sound certificate that no morphism
relation exists at that depth, while a matrix collision says nothing either
way.

The module needs only morphisms and words, so the `free` command loads
neither the classifier nor dataclasses: SearchAborted and the Value base of
Relation live in words.
"""
from __future__ import annotations

from functools import reduce

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
# The last level of the search holds 2^depth matrices.
MAX_DEPTH = 16


def _first_collision(
    g1: BinaryMorphism, g2: BinaryMorphism, depth: int, exact: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Breadth-first, lexicographic walk over the sequences of length <= depth.

    Returns the first pair (earlier, later) of distinct sequences whose
    matrices coincide and, when exact, whose compositions coincide too; None
    when there is none.  An exact walk builds words with 64-bit counts, so
    it aborts at the first sequence whose matrix holds an entry beyond
    MAX_COUNT: no letter of that composition can be counted.  Every
    sequence it composes, prefixes included, passed that check, and no run
    count of a composition exceeds an entry of its matrix.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > MAX_DEPTH:
        raise SearchAborted(depth, f"depth {depth} exceeds the search budget of {MAX_DEPTH}")
    gens = (g1, g2)
    steps = ((1, g1.rows), (2, g2.rows))
    first: dict = {}  # matrix -> first sequence with it
    seen: dict = {}  # (repeated matrix, fingerprint) -> its sequences, no two composing equally
    # Per search, so that no power outlives the modulus and base it was
    # computed under: fingerprints of sequences, powers of those of images of a.
    fingerprints: dict = {(): _identity_fingerprint()}
    powers: dict = {}

    def fingerprint(seq: tuple[int, ...]) -> tuple:
        # A loop: a recursive closure would leave a cycle for the garbage collector.
        missing = []
        while seq not in fingerprints:
            missing.append(seq)
            seq = seq[:-1]
        fp = fingerprints[seq]
        for seq in reversed(missing):
            fp = fingerprints[seq] = _fingerprint_after(fp, gens[seq[-1] - 1], powers)
        return fp

    # Each level lists the sequences of one length, in lexicographic order,
    # with their matrices; extending each in turn by 1 and by 2 keeps the
    # next level in that order.
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
                    seen[mat, fingerprint(earlier)] = [earlier]
                    first[mat] = None
                candidates = seen.setdefault((mat, fingerprint(seq)), [])
                for found in candidates:
                    composed = [reduce(compose, [gens[i - 1] for i in s]) for s in (found, seq)]
                    if composed[0] == composed[1]:
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
