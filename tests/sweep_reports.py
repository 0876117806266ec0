"""The sha256 of every classify report of a sweep box, in sweep order.

Each report adds repr((case, swapped, conditions, witness, prediction)) to
the digest; test_acceptance pins the default box's digest as
REPORT_DIGEST.  The module imports the package alone, so it also runs
without the test dependencies:

    PYTHONPATH=src:tests python -c "import sweep_reports; print(sweep_reports.box_digest(max_p=4, max_exp=2))"
"""
from __future__ import annotations

import hashlib

from trimorph.classifier import classify
from trimorph.morphisms import BinaryMorphism
from trimorph.sweep import SweepConfig, enumerate_morphisms


def report_digest(morphs: list[BinaryMorphism]) -> str:
    """The hex sha256 of the reports of every ordered pair of morphs."""
    digest = hashlib.sha256()
    for g1 in morphs:
        for g2 in morphs:
            r = classify(g1, g2)
            digest.update(repr((r.case, r.swapped, r.conditions, r.witness, r.prediction)).encode())
    return digest.hexdigest()


def box_digest(**bounds: int) -> str:
    """report_digest of the morphisms of the sweep with these bounds."""
    return report_digest(enumerate_morphisms(SweepConfig(**bounds)))
