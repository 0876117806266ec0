from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import random
from collections import Counter
from itertools import product

import pytest

from trimorph import sweep
from trimorph.classifier import classify, direct_commute
from trimorph.morphisms import compose, format_morphism, is_nonsingular, mat_mul, matrix
from trimorph.sweep import SweepConfig, enumerate_b_images, enumerate_morphisms, run_sweep, sweep_range
from trimorph.words import Word

TINY = SweepConfig(max_s=2, max_p=2, max_exp=1, max_bonly_exp=2)


def test_enumeration_is_deterministic_and_distinct():
    morphs = enumerate_morphisms(TINY)
    assert morphs == enumerate_morphisms(TINY)
    texts = [format_morphism(g) for g in morphs]
    assert len(set(texts)) == len(texts)


def test_b_images_follow_one_loop_per_padding():
    # The order written out as nested loops over gamma1, the interior gaps
    # and gamma2, with each word spelled as text.
    expected = [Word.single("a", e) for e in range(2)]
    for p in range(1, 5):
        for gamma1 in range(3):
            for alphas in product(range(3), repeat=p - 1):
                for gamma2 in range(3):
                    text = "a" * gamma1 + "b" + "".join("a" * gap + "b" for gap in alphas) + "a" * gamma2
                    expected.append(Word.parse(text))
    assert len(expected) == 362
    assert enumerate_b_images(4, 2, 1) == expected


def test_enumeration_respects_bounds():
    for g in enumerate_morphisms(TINY):
        mat = [[g.image_a.occ("a"), g.image_b.occ("a")], [0, g.image_b.occ("b")]]
        assert mat[0][0] <= TINY.max_s
        assert mat[1][1] <= TINY.max_p**TINY.max_exp or mat[1][1] <= TINY.max_bonly_exp


def test_enumeration_covers_singular_and_nonsingular():
    morphs = enumerate_morphisms(TINY)
    flags = {is_nonsingular(g) for g in morphs}
    assert flags == {True, False}


def test_tiny_sweep_has_no_mismatches():
    result = run_sweep(TINY)
    assert result.mismatches == []
    assert result.morphisms == len(enumerate_morphisms(TINY))
    assert result.pairs == result.morphisms**2
    assert result.commuting > 0


def test_sweep_agrees_with_direct_oracle_on_counts():
    result = run_sweep(TINY)
    morphs = enumerate_morphisms(TINY)
    manual = sum(1 for g1 in morphs for g2 in morphs if direct_commute(g1, g2))
    assert result.commuting == manual
    mats = [matrix(g) for g in morphs]
    assert result.screened == sum(m1 @ m2 != m2 @ m1 for m1 in mats for m2 in mats)
    assert 0 < result.screened < result.pairs - result.commuting


def test_direct_commute_equals_composition_on_every_tiny_pair():
    # Composing both ways and comparing the morphisms stays the reference.
    morphs = enumerate_morphisms(TINY)
    for g1 in morphs:
        for g2 in morphs:
            assert direct_commute(g1, g2) == (compose(g1, g2) == compose(g2, g1))


def test_screened_pairs_still_report_mismatches(monkeypatch):
    # Every pair predicted to commute: each non-commuting pair is a
    # mismatch, screened or composed, with the oracle answer false.
    original = sweep.classify
    monkeypatch.setattr(
        sweep, "classify", lambda g1, g2: dataclasses.replace(original(g1, g2), prediction=True)
    )
    morphs = enumerate_morphisms(TINY)
    pairs = len(morphs) ** 2
    commuting, _, _, mismatches = sweep_range(morphs, 0, pairs)
    assert len(mismatches) == pairs - commuting
    assert all(rec["predicted"] is True and rec["actual"] is False for rec in mismatches)
    result = run_sweep(TINY)
    assert result.mismatches == mismatches
    screened = 0
    for rec in mismatches:
        i, j = divmod(rec["index"], len(morphs))
        m1, m2 = matrix(morphs[i]), matrix(morphs[j])
        screened += m1 @ m2 != m2 @ m1
    assert screened == result.screened > 0


def test_commuting_pairs_predicted_false_are_mismatches_in_index_order(monkeypatch):
    # Every pair predicted not to commute: the mismatches are exactly the
    # commuting pairs, in increasing index, from either entry point.
    original = sweep.classify
    monkeypatch.setattr(
        sweep, "classify", lambda g1, g2: dataclasses.replace(original(g1, g2), prediction=False)
    )
    morphs = enumerate_morphisms(TINY)
    pairs = len(morphs) ** 2
    commuting, _, conditions, mismatches = sweep_range(morphs, 0, pairs)
    assert not conditions
    n = len(morphs)
    assert [rec["index"] for rec in mismatches] == [
        k for k in range(pairs) if direct_commute(morphs[k // n], morphs[k % n])
    ]
    assert len(mismatches) == commuting > 0
    assert all(rec["predicted"] is False and rec["actual"] is True for rec in mismatches)
    assert run_sweep(TINY).mismatches == mismatches
    # A range that starts or ends mid-row gives the full range's records for
    # its window, each with its own pair's report.
    for start, end in ((n // 2, 3 * n + 1), (16 * n + 20, 16 * n + 40), (37 * n + 1, pairs - 1)):
        window = [rec for rec in mismatches if start <= rec["index"] < end]
        assert sweep_range(morphs, start, end)[3] == window and window


def test_sweep_pairs_equals_a_per_pair_reference(monkeypatch):
    # Every pair classified and composed on its own, with no screen, on
    # seeded ranges of the default bounds that start and end mid-row;
    # classify is patched to flip a seeded third of the predictions, so the
    # mismatches and the tallies of predicted pairs are exercised too.
    morphs = enumerate_morphisms(SweepConfig())
    n = len(morphs)
    index = {id(g): k for k, g in enumerate(morphs)}
    rng = random.Random(3011)
    flipped = set(rng.sample(range(n * n), n * n // 3))
    classified, composed = Counter(), Counter()

    def flipping(g1, g2):
        k = index[id(g1)] * n + index[id(g2)]
        report = classify(g1, g2)
        return dataclasses.replace(report, prediction=not report.prediction) if k in flipped else report

    def counted_classify(g1, g2):
        classified[index[id(g1)] * n + index[id(g2)]] += 1
        return flipping(g1, g2)

    def counted_oracle(g1, g2):
        composed[index[id(g1)] * n + index[id(g2)]] += 1
        return direct_commute(g1, g2)

    def matrices_commute(k):
        rows1, rows2 = morphs[k // n].rows, morphs[k % n].rows
        return mat_mul(rows1, rows2) == mat_mul(rows2, rows1)

    monkeypatch.setattr(sweep, "classify", counted_classify)
    monkeypatch.setattr(sweep, "direct_commute", counted_oracle)
    for _ in range(3):
        start = rng.randrange(n * n - 3 * n)
        end = start + rng.randrange(n, 3 * n)
        assert start % n and end % n
        commuting = screened = 0
        cases, conditions, mismatches = Counter(), Counter(), []
        for k in range(start, end):
            g1, g2 = morphs[k // n], morphs[k % n]
            report = flipping(g1, g2)
            actual = direct_commute(g1, g2)
            commuting += actual
            screened += not matrices_commute(k)
            cases[report.case] += 1
            if report.prediction:
                for name, value in report.conditions.items():
                    conditions[f"{report.case}.{name}"] += value
            if report.prediction != actual:
                mismatches.append({
                    "schema": 1,
                    "kind": "sweep_mismatch",
                    "index": k,
                    "g1": format_morphism(g1),
                    "g2": format_morphism(g2),
                    "case": report.case,
                    "swapped": report.swapped,
                    "conditions": report.conditions,
                    "predicted": report.prediction,
                    "actual": actual,
                })
        classified.clear()
        composed.clear()
        got = sweep._sweep_pairs(morphs, start, end)
        assert got == (commuting, cases, +conditions, mismatches, screened)
        assert mismatches and screened
        assert classified == Counter(range(start, end))
        assert composed == Counter(filter(matrices_commute, range(start, end)))


def test_screen_matches_matrix_products_on_every_default_pair(monkeypatch):
    # The sweep screens a pair by one cross product of the triangular
    # matrices; the pairs it passes to the oracle are exactly those whose
    # matrix products commute.  classify and the oracle are stubbed to
    # answer False, as only the screen is under test here.
    morphs = enumerate_morphisms(SweepConfig())
    index = {id(g): k for k, g in enumerate(morphs)}
    report = dataclasses.replace(classify(morphs[0], morphs[0]), prediction=False)
    oracle_pairs = set()

    def oracle(g1, g2):
        oracle_pairs.add((index[id(g1)], index[id(g2)]))
        return False

    monkeypatch.setattr(sweep, "classify", lambda g1, g2: report)
    monkeypatch.setattr(sweep, "direct_commute", oracle)
    pairs = len(morphs) ** 2
    assert pairs == 234_256
    sweep_range(morphs, 0, pairs)
    rows = [g.rows for g in morphs]
    assert oracle_pairs == {
        (i, j)
        for i, r1 in enumerate(rows)
        for j, r2 in enumerate(rows)
        if mat_mul(r1, r2) == mat_mul(r2, r1)
    }
    assert len(oracle_pairs) == 26_936


@pytest.mark.parametrize(
    "bounds",
    [
        (3, 3, 2, 3),
        (2, 2, 1, 2),
        (1, 0, 3, 0),
        (0, 4, 0, 1),
        (-1, 2, 1, 1),
        (1, -1, 1, -1),
        (2, 3, -1, 4),
        (1, 2, -3, 1),
    ],
)
def test_pair_count_matches_enumeration(bounds):
    if min(bounds) < 0:
        with pytest.raises(ValueError):
            SweepConfig(*bounds)
        return
    config = SweepConfig(*bounds)
    assert config.pair_count() == len(enumerate_morphisms(config)) ** 2


def test_parallel_workers_are_clamped_to_cpu_count(monkeypatch):
    started = []

    class FakePool:
        """Runs the chunks in this process and records the worker count."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    result = run_sweep(dataclasses.replace(TINY, parallel=100_000))
    assert started == [3]
    assert result.summary_record() == run_sweep(TINY).summary_record()
    # A negative bound or fewer than one worker is refused before any pool.
    for bad in (dict(max_s=-1, parallel=2), dict(parallel=0)):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(**bad))
    assert started == [3]


def test_parallel_sweep_matches_serial():
    serial = run_sweep(TINY)
    parallel = run_sweep(SweepConfig(
        max_s=TINY.max_s,
        max_p=TINY.max_p,
        max_exp=TINY.max_exp,
        max_bonly_exp=TINY.max_bonly_exp,
        parallel=2,
    ))
    # Byte-identical rendered output, not just equal tallies.
    a = json.dumps(serial.summary_record(), sort_keys=True)
    b = json.dumps(parallel.summary_record(), sort_keys=True)
    assert a == b
    assert serial.mismatches == parallel.mismatches


def test_summary_record_shape():
    record = run_sweep(TINY).summary_record()
    assert record["schema"] == 1
    assert record["kind"] == "sweep_summary"
    assert record["pairs"] == record["morphisms"] ** 2
    assert set(record["cases"]) <= {
        "SingularBImage",
        "SingularAImage",
        "BothGapOne",
        "GapOneVsMany",
        "MultIndependent",
        "MultDependent",
    }
    assert record["mismatches"] == 0
    for key, count in record["conditions"].items():
        case, _, name = key.partition(".")
        assert case and name
        assert count >= 1
