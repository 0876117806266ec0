"""Relation search over composition sequences of a morphism pair.

A relation is a pair of distinct sequences over the indices {1, 2} whose
left-to-right compositions coincide as morphisms.  find_relation explores
all sequences of length 1..depth in breadth-first, lexicographic order and
reports the first collision, so the witness is canonical.

matrix_collision runs the same search on occurrence matrices only.  Taking
the matrix is a monoid homomorphism, so distinct sequences composing to the
same morphism force a matrix collision; a collision-free matrix search is a
sound certificate that no morphism relation exists at that depth, while a
matrix collision says nothing either way.  This makes it a cheap pre-filter
for bulk freeness checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .morphisms import BinaryMorphism, compose, mat_mul
from .words import CountOverflow


class SearchAborted(RuntimeError):
    """A product overflowed the 64-bit word bound during the search, or the
    requested depth is beyond MAX_DEPTH."""

    def __init__(self, depth: int, message: str | None = None):
        self.depth = depth
        super().__init__(message or f"relation search aborted by overflow at depth {depth}")


@dataclass(frozen=True)
class Relation:
    """Sequences over {1, 2} with equal compositions; left was found first."""

    left: tuple[int, ...]
    right: tuple[int, ...]


DEFAULT_DEPTH = 6
# The last level of the search holds 2^depth products.
MAX_DEPTH = 16


def _first_collision(
    gens: tuple, mul, depth: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Breadth-first, lexicographic search over products of gens.

    Returns the first pair (earlier, later) of distinct sequences of length
    <= depth whose left-to-right products under mul coincide, or None.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > MAX_DEPTH:
        raise SearchAborted(depth, f"depth {depth} exceeds the search budget of {MAX_DEPTH}")
    seen: dict = {}
    prefix: dict[tuple[int, ...], object] = {}
    for length in range(1, depth + 1):
        nxt: dict[tuple[int, ...], object] = {}
        for seq in product((1, 2), repeat=length):
            head = seq[:-1]
            try:
                value = mul(prefix[head], gens[seq[-1] - 1]) if head else gens[seq[-1] - 1]
            except CountOverflow as exc:
                raise SearchAborted(length) from exc
            nxt[seq] = value
            if value in seen:
                return seen[value], seq
            seen[value] = seq
        prefix = nxt
    return None


def find_relation(
    g1: BinaryMorphism, g2: BinaryMorphism, depth: int = DEFAULT_DEPTH
) -> Relation | None:
    """First pair of distinct sequences of length <= depth composing equally."""
    pair = _first_collision((g1, g2), compose, depth)
    return None if pair is None else Relation(*pair)


def matrix_collision(g1: BinaryMorphism, g2: BinaryMorphism, depth: int) -> bool:
    """True iff two distinct sequences of length <= depth share a matrix product."""
    return _first_collision((g1.rows, g2.rows), mat_mul, depth) is not None


def verify_relation(g1: BinaryMorphism, g2: BinaryMorphism, rel: Relation) -> bool:
    """Recompose both sides of a relation and compare."""

    def build(seq: tuple[int, ...]) -> BinaryMorphism:
        gens = (g1, g2)
        morph = gens[seq[0] - 1]
        for k in seq[1:]:
            morph = compose(morph, gens[k - 1])
        return morph

    return build(rel.left) == build(rel.right)
