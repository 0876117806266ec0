"""Digest of every classification report on the default sweep.

Hashes (case, swapped, conditions, witness, prediction) of classify() on all
234,256 ordered pairs of the default sweep, in sweep order, prints the
sha256 hex digest and exits 1 when it differs from PINNED.  A refactor that
must leave every report unchanged proves it with one run:

    python3 tools/report_digest.py

A change that alters reports on purpose re-pins PINNED and says why.
Standard library only; it reads the package from src/ next to this file.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trimorph.classifier import classify  # noqa: E402
from trimorph.sweep import SweepConfig, enumerate_morphisms  # noqa: E402

PINNED = "db0d9183cbbe0546f7f0bf09cfa2ea50b330ae3fdae44e2dd03d81c36a1292e1"


def report_digest() -> str:
    morphisms = enumerate_morphisms(SweepConfig())
    digest = hashlib.sha256()
    for g1 in morphisms:
        for g2 in morphisms:
            r = classify(g1, g2)
            digest.update(repr((r.case, r.swapped, r.conditions, r.witness, r.prediction)).encode())
    return digest.hexdigest()


def main() -> int:
    value = report_digest()
    print(value)
    if value != PINNED:
        print(f"report digest differs from the pinned {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
