"""The two paths of the composition oracle, plain strings against run
streams, compared pair by pair on exhaustive sets of pairs.

direct_commute takes the string path on every pair the sweeps screen in, so
the stream path is checked here.  The module imports the package alone, so
it also runs without the test dependencies:

    PYTHONPATH=src:tests python -c "import oracle_paths; print(oracle_paths.box_agrees(max_p=4, max_exp=2))"
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from itertools import product

from trimorph.morphisms import BinaryMorphism, _texts_commute, first_difference, format_morphism, mat_mul
from trimorph.sweep import SweepConfig, enumerate_morphisms

Pair = tuple[BinaryMorphism, BinaryMorphism]


def screened_pairs(morphs: list[BinaryMorphism]) -> Iterator[Pair]:
    """The ordered pairs of morphs whose occurrence matrices commute, the
    pairs a sweep hands to the oracle, grouped by matrix."""
    by_rows = defaultdict(list)
    for g in morphs:
        by_rows[g.rows].append(g)
    for r1, r2 in product(by_rows, repeat=2):
        if mat_mul(r1, r2) == mat_mul(r2, r1):
            yield from product(by_rows[r1], by_rows[r2])


def paths_agree(pairs: Iterable[Pair]) -> tuple[int, int]:
    """(pairs, commuting pairs), raising AssertionError on the first pair
    where the string path and the stream path give different verdicts."""
    seen = commuting = 0
    for g1, g2 in pairs:
        verdict = _texts_commute(g1, g2)
        if verdict != (first_difference(g1, g2) is None):
            raise AssertionError(f"oracle paths disagree on {format_morphism(g1)} {format_morphism(g2)}")
        seen += 1
        commuting += verdict
    return seen, commuting


def box_agrees(**bounds: int) -> tuple[int, int]:
    """paths_agree on every screened pair of the sweep with these bounds."""
    return paths_agree(screened_pairs(enumerate_morphisms(SweepConfig(**bounds))))
