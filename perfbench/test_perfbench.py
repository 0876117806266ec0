"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_CAP, Tracer  # noqa: E402
from trimorph import classifier, sweep  # noqa: E402


def bench(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv, "--seed", "3", "--seconds", "0.2", "--tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs(name, trace):
    result = bench("--workload", name, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def flip_one(monkeypatch, target):
    """Make classify flip its prediction on the pair ``target`` only."""
    original = classifier.classify

    def flipped(g1, g2):
        report = original(g1, g2)
        if (g1, g2) == target:
            report = dataclasses.replace(report, prediction=not report.prediction)
        return report

    for mod in (classifier, sweep):
        monkeypatch.setattr(mod, "classify", flipped)


@pytest.mark.parametrize("kind", [workloads.SweepWorkload, workloads.PowersWorkload])
def test_flipped_prediction_is_caught(monkeypatch, kind):
    workload = kind(random.Random(5), True)
    req = workload.requests[0]
    if kind is workloads.SweepWorkload:
        target = (workload.morphisms[req], workload.morphisms[0])
        holding = workload.requests.count(req)
    else:
        target = workload.reqs[req][:2]
        # A pass may draw the same pure b-power pair twice.
        holding = sum(workload.reqs[r][:2] == target for r in workload.requests)
    clean = run.run_passes(workload, 0, max_passes=1)
    assert clean.failed == 0
    flip_one(monkeypatch, target)
    assert holding >= 1
    assert run.run_passes(workload, 0, max_passes=1).failed == holding


@pytest.mark.parametrize(
    "kind",
    [
        workloads.SweepWorkload,
        workloads.PowersWorkload,
        workloads.GapsWorkload,
        workloads.RelationsWorkload,
    ],
)
def test_traced_spans_nest(kind):
    workload = kind(random.Random(7), True)
    originals = dict(vars(classifier))
    tracer = Tracer()
    tracer.install()
    try:
        phase = run.run_passes(workload, 0, max_passes=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0
    assert vars(classifier) == originals

    spans = {sid: (name, start, end, parent) for sid, name, start, end, parent, _ in tracer.spans}
    assert spans and len(spans) < SPAN_CAP
    covered = dict.fromkeys(spans, 0.0)
    for _, start, end, parent in spans.values():
        assert start <= end
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
            covered[parent] += end - start
    for sid, (_, start, end, _) in spans.items():
        assert end - start - covered[sid] >= -1e-9
    assert all(s >= -1e-9 for s in tracer.self_seconds.values())
    assert tracer.calls["bench.request"] == phase.attempted
    metrics = tracer.layer_metrics()
    assert all(value >= 0 for value in metrics.values())
