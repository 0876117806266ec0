"""Exhaustive oracle sweep over a bounded space of triangular morphisms.

The sweep enumerates every upper triangular morphism inside explicit
structural bounds (including singular ones), then walks all ordered pairs
comparing classify()'s structural prediction against the brute-force
composition oracle.  Any disagreement is a mismatch record; the expected
count is zero.  Enumeration order is fixed, so results are reproducible
and independent of the worker count.

Taking the occurrence matrix is a monoid homomorphism, so a pair whose
matrices do not commute cannot commute either.  The sweep classifies every
pair, screens it by whether its matrices commute and runs the oracle only
on the pairs that pass; on the default bounds that is 26,936 of 234,256.
No composed image of those pairs holds more than 57 letters, so the oracle
compares them as plain strings (see morphisms.MAX_TEXT_LETTERS).
The matrices are upper triangular, ((s, e), (0, p)), so the screen is one
cross product: they commute iff e1 (p2 - s2) = e2 (p1 - s1).  A screened
pair's oracle answer is False, which is what the oracle would return.  The
mismatches are the pairs predicted to commute xor found to commute, in
index order, so a wrong True prediction on a screened pair is still one.

The pair count is known in closed form from the bounds, and a sweep of
more than MAX_PAIRS pairs is refused before anything is enumerated.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import product

from .classifier import classify
from .morphisms import BinaryMorphism, Core, direct_commute, format_morphism, shape_to_word
from .words import SCHEMA_VERSION, A, BeyondBudget, Word

# About forty times the default sweep's 234,256 pairs.
MAX_PAIRS = 10_000_000


@dataclass(frozen=True)
class SweepConfig:
    """Structural bounds: images of a up to a^max_s, b-counts up to max_p,
    a-paddings and interior gaps up to max_exp, b-free images up to
    a^max_bonly_exp.  Negative bounds and parallel < 1 raise ValueError,
    and bounds that give more than MAX_PAIRS pairs raise BeyondBudget."""

    max_s: int = 3
    max_p: int = 3
    max_exp: int = 2
    max_bonly_exp: int = 3
    parallel: int = 1

    def __post_init__(self):
        for f in fields(self):
            least = 1 if f.name == "parallel" else 0
            value = getattr(self, f.name)
            if value < least:
                raise ValueError(f"{f.name} must be at least {least}, got {value}")
        if self.pair_count() > MAX_PAIRS:
            raise BeyondBudget(f"the sweep bounds give more than {MAX_PAIRS} pairs, the sweep budget")

    def pair_count(self) -> int:
        """The ordered pairs the sweep evaluates, counted without enumerating:
        (max_s+1)^2 (max_bonly_exp+1 + sum_{p=1..max_p} (max_exp+1)^(p+1))^2.
        Exact up to MAX_PAIRS; past it the sum stops early and the count is
        only some number above the budget, since for a large max_p the exact
        one is too big to compute.
        """
        e = self.max_exp + 1
        images = self.max_bonly_exp + 1
        if e == 1:
            images += self.max_p
        else:
            for p in range(1, self.max_p + 1):
                if images > MAX_PAIRS:
                    break
                images += e ** (p + 1)
        return ((self.max_s + 1) * images) ** 2


def enumerate_b_images(max_p: int, max_exp: int, max_bonly_exp: int) -> list[Word]:
    """a^0 .. a^max_bonly_exp, then (gamma1, *alphas, gamma2) from one product per b-count p."""
    images = [Word.single(A, e) for e in range(max_bonly_exp + 1)]
    for p in range(1, max_p + 1):
        for gamma1, *alphas, gamma2 in product(range(max_exp + 1), repeat=p + 1):
            images.append(shape_to_word(Core(gamma1, tuple(alphas), gamma2)))
    return images


def enumerate_morphisms(config: SweepConfig) -> list[BinaryMorphism]:
    """All in-bounds triangular morphisms in a fixed order: image of a ascending,
    then the b-images in enumerate_b_images order (b-count, gamma1, alphas, gamma2)."""
    b_images = enumerate_b_images(config.max_p, config.max_exp, config.max_bonly_exp)
    return [
        BinaryMorphism(Word.single(A, s), image_b)
        for s in range(config.max_s + 1)
        for image_b in b_images
    ]


@dataclass
class SweepResult:
    config: SweepConfig
    morphisms: int
    pairs: int
    commuting: int
    screened: int = 0
    cases: Counter = field(default_factory=Counter)
    conditions: Counter = field(default_factory=Counter)
    mismatches: list[dict] = field(default_factory=list)

    def summary_record(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "sweep_summary",
            "bounds": {
                f.name: getattr(self.config, f.name)
                for f in fields(SweepConfig)
                if f.name != "parallel"
            },
            "morphisms": self.morphisms,
            "pairs": self.pairs,
            "commuting": self.commuting,
            "screened": self.screened,
            "cases": {k: self.cases[k] for k in sorted(self.cases)},
            "conditions": {k: self.conditions[k] for k in sorted(self.conditions)},
            "mismatches": len(self.mismatches),
        }


def _mismatch_record(index: int, g1: BinaryMorphism, g2: BinaryMorphism, report, actual: bool) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "sweep_mismatch",
        "index": index,
        "g1": format_morphism(g1),
        "g2": format_morphism(g2),
        "case": report.case,
        "swapped": report.swapped,
        "conditions": dict(report.conditions),
        "predicted": report.prediction,
        "actual": actual,
    }


def _sweep_pairs(
    morphisms: list[BinaryMorphism], start: int, end: int
) -> tuple[int, Counter, Counter, list[dict], int]:
    """Evaluate ordered pair indices [start, end) against the oracle:
    (commuting, cases, conditions, mismatches, screened), screened counting
    the pairs whose occurrence matrices settled the oracle answer.  The
    oracle runs only on the pairs that pass that screen, and the mismatches
    are the pairs predicted xor found to commute, in index order."""
    n = len(morphisms)
    commuting = 0
    screened = 0
    cases: Counter = Counter()
    conditions: Counter = Counter()
    mismatches: list[dict] = []
    for i in range(start // n, -(-end // n)):
        g1, row = morphisms[i], i * n
        lo, hi = max(start - row, 0), min(end - row, n)
        reports = [classify(g1, g2) for g2 in morphisms[lo:hi]]
        cases.update([report.case for report in reports])
        # Upper triangular matrices ((s, e), (0, p)) commute iff
        # e1 (p2 - s2) = e2 (p1 - s1), read off the forms classify cached.
        e1, d1 = g1.form.a_count, g1.form.b_count - g1.form.s
        forms = [g2.form for g2 in morphisms[lo:hi]]
        passing = [j for j, f in enumerate(forms, lo) if e1 * (f.b_count - f.s) == f.a_count * d1]
        screened += hi - lo - len(passing)
        found = {j for j in passing if direct_commute(g1, morphisms[j])}
        commuting += len(found)
        predicted = {j for j, report in enumerate(reports, lo) if report.prediction}
        for j in predicted:
            case, named = reports[j - lo].case, reports[j - lo].conditions.items()
            conditions.update([f"{case}.{name}" for name, value in named if value])
        for j in sorted(predicted ^ found):
            actual = j in found
            mismatches.append(_mismatch_record(row + j, g1, morphisms[j], reports[j - lo], actual))
    return commuting, cases, conditions, mismatches, screened


def sweep_range(
    morphisms: list[BinaryMorphism], start: int, end: int
) -> tuple[int, Counter, Counter, list[dict]]:
    """Evaluate ordered pair indices [start, end) against the oracle:
    (commuting, cases, conditions, mismatches).  The benchmark sweeps one
    row per request through this four-tuple."""
    return _sweep_pairs(morphisms, start, end)[:4]


def _worker(args: tuple[SweepConfig, int, int]):
    # Enumerating the default bounds takes about 2 ms: no cache is worth it.
    config, start, end = args
    return _sweep_pairs(enumerate_morphisms(config), start, end)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Sweep every ordered pair within the bounds, on at most os.cpu_count()
    worker processes (the result does not depend on the worker count).
    """
    morphisms = enumerate_morphisms(config)
    n = len(morphisms)
    pairs = n * n
    result = SweepResult(config=config, morphisms=n, pairs=pairs, commuting=0)
    workers = min(config.parallel, os.cpu_count() or 1)
    if workers == 1:
        chunks = [_sweep_pairs(morphisms, 0, pairs)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-pairs // (workers * 4))
        ranges = [(config, lo, min(lo + step, pairs)) for lo in range(0, pairs, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_worker, ranges))
    for commuting, cases, conditions, mismatches, screened in chunks:
        result.commuting += commuting
        result.screened += screened
        result.cases.update(cases)
        result.conditions.update(conditions)
        result.mismatches.extend(mismatches)
    return result
