"""The traced benchmark swaps wrappers onto library names listed in
perfbench/tracer.py; a cleanup that drops one of them would silently stop
its per-layer metrics.  The lists are read from the file, not imported, so
the check needs nothing outside the package."""
from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

from trimorph.classifier import classify
from trimorph.morphisms import parse_morphism
from trimorph.sweep import SweepConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_names() -> list[tuple[str, str]]:
    lists = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TRACED", "WORDS_TRACED"):
                lists[target.id] = ast.literal_eval(node.value)
    names = list(lists["TRACED"]) + [("words", fn) for fn in lists["WORDS_TRACED"]]
    # Imported by the tracer directly.
    return names + [("morphisms", "matrix"), ("freeness", "matrix_collision")]


def test_every_traced_name_exists():
    names = _tracer_names()
    assert len(names) > 20
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"trimorph.{module}"), name, None))
    ]
    assert missing == []


def test_the_classifier_binds_the_oracle_of_morphisms():
    # The tracer wraps every binding of the one object, so
    # classifier.direct_commute counts the oracle calls the sweep makes.
    from trimorph import classifier, morphisms, sweep

    assert classifier.direct_commute is morphisms.direct_commute is sweep.direct_commute


def test_replace_flips_one_field_of_a_report():
    # perfbench/test_perfbench.py flips a prediction with dataclasses.replace.
    report = classify(parse_morphism("a=a,b=bab"), parse_morphism("a=a,b=bababab"))
    flipped = dataclasses.replace(report, prediction=not report.prediction)
    assert flipped.prediction is not report.prediction
    kept = [f.name for f in dataclasses.fields(report) if f.name != "prediction"]
    assert kept == ["case", "swapped", "conditions", "witness"]
    assert [getattr(flipped, k) for k in kept] == [getattr(report, k) for k in kept]


def test_replace_sets_the_worker_count_of_a_sweep_config():
    # perfbench/run.py re-runs the sweep with replace(config, parallel=...).
    config = dataclasses.replace(SweepConfig(), parallel=2)
    assert config.parallel == 2
    assert dataclasses.replace(config, parallel=1) == SweepConfig()
