"""tools/bench_point.py pairs its measurements: each step runs on both
checkouts back to back, and which goes first alternates.  A fake `fresh`
records the calls and starts no process."""
from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_point.py"
ROOTS = {"parent": Path("parent"), "change": Path("change")}


@pytest.fixture
def bench_point():
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def step_of(args: tuple) -> tuple:
    """What a child run measures, whichever side it runs on."""
    if args[0] == "perfbench/run.py":
        return ("perfbench", args[2], args[4])
    if args[0] == "-m":
        return ("tier1",)
    if "run_sweep" in args[1]:
        return ("sweep", args[2])
    return ("cli", args[2])


def fake_output(bench_point, args: tuple) -> str:
    kind = step_of(args)[0]
    if kind == "perfbench":
        metrics = {m["name"]: {"value": 1.0} for m in bench_point.BENCHMARK["end_to_end"]}
        details = {"host_scale": 1.0}
        return f"{json.dumps(details)}\n" + json.dumps(
            {"attempted": 10, "failed": 0, "metrics": metrics}) + "\n"
    if kind == "sweep":
        return '0.5\n{"kind": "sweep_summary"}\n'
    if kind == "tier1":
        return "....\n4 passed in 0.01s\n"
    return "true\n"


def patch(bench_point, monkeypatch, fresh) -> tuple[dict, dict]:
    """Put the fake fresh in place, forbid starting a process, and return
    the empty sides and outputs for measure to fill."""

    def no_process(*args, **kwargs):
        raise AssertionError("the measurement started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(bench_point, "fresh", fresh)
    return {name: {"runs": [], "timings": {}} for name in ROOTS}, {}


def test_every_step_runs_on_both_sides_back_to_back(bench_point, monkeypatch):
    calls = []

    def fresh(root, *args):
        calls.append((root, args))
        return 0.2 if root == ROOTS["change"] else 0.25, fake_output(bench_point, args)

    sides, outputs = patch(bench_point, monkeypatch, fresh)
    commands, seeds, roots = bench_point.cli_commands(), [1, 2], ROOTS
    bench_point.measure(roots, sides, seeds, commands, outputs)

    rounds, repeats = bench_point.ROUNDS, bench_point.CLI_REPEATS
    runs = len(seeds) * len(bench_point.WORKLOADS)
    steps = runs + rounds * (3 + repeats * len(commands))
    assert len(calls) == 2 * steps
    for i in range(steps):
        (first, args1), (second, args2) = calls[2 * i], calls[2 * i + 1]
        assert step_of(args1) == step_of(args2)
        assert first == roots["parent" if i % 2 == 0 else "change"]
        assert second == roots["change" if i % 2 == 0 else "parent"]
    # Each workload's first side alternates from seed to seed, and each
    # command goes first on either side as often, give or take one.
    firsts = [(step_of(args), root) for root, args in calls[::2]]
    assert len({(step[1], root) for step, root in firsts[:runs]}) == runs
    for argv in commands:
        order = [root for step, root in firsts if step == ("cli", argv[0])]
        assert abs(order.count(roots["parent"]) - order.count(roots["change"])) <= 1

    for side in sides.values():
        assert len(side["runs"]) == runs
        counts = {key: len(values) for key, values in side["timings"].items()}
        assert counts == {
            "sweep_serial_s": rounds, "sweep_parallel2_s": rounds, "tier1_s": rounds,
            **{f"cli_{argv[0]}_s": rounds * repeats for argv in commands},
        }
        # The sweep is timed in process, not by the child's wall time.
        assert side["timings"]["sweep_serial_s"] == [0.5] * rounds
        assert side["tier1"] == "4 passed"
    assert set(outputs) == {"sweep", *(f"cli_{argv[0]}" for argv in commands)}

    pairs = bench_point.compare(sides["parent"], sides["change"])
    for workload in bench_point.WORKLOADS:
        assert pairs[workload]["throughput_rps"] == {"wins": 0, "pairs": 2, "median_change": 0.0}
    # A timing is better lower; the sweeps print the same time on both sides.
    for key, values in sides["parent"]["timings"].items():
        wins, change = (0, 0.0) if key.startswith("sweep") else (len(values), 0.2 / 0.25 - 1)
        assert pairs[key] == {"wins": wins, "pairs": len(values), "median_change": change}


def test_a_failure_leaves_the_last_value_unpaired(bench_point, monkeypatch):
    first = bench_point.cli_commands()[0][0]
    calls = []

    def fresh(root, *args):
        calls.append(step_of(args))
        # The second side of the command's second step fails.
        if calls.count(("cli", first)) == 4:
            raise bench_point.RunFailed(f"{root}: exited 1")
        return 0.25, fake_output(bench_point, args)

    sides, outputs = patch(bench_point, monkeypatch, fresh)
    with pytest.raises(bench_point.RunFailed):
        bench_point.measure(ROOTS, sides, [1], bench_point.cli_commands(), outputs)
    key = f"cli_{first}_s"
    assert sorted(len(side["timings"][key]) for side in sides.values()) == [1, 2]
    assert bench_point.compare(sides["parent"], sides["change"])[key]["pairs"] == 1


def test_both_sides_share_one_bytecode_cache_outside_the_checkouts(bench_point, monkeypatch):
    # A __pycache__ that one checkout holds and the other lacks, or a caller
    # that sets PYTHONDONTWRITEBYTECODE, must not make one side start faster.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    envs = {}

    def run(argv, cwd, env, **kwargs):
        envs[cwd] = dict(env)
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(subprocess, "run", run)
    for root in ROOTS.values():
        bench_point.fresh(root, "-c", "pass")
    parent, change = (envs[root] for root in ROOTS.values())
    assert (parent.pop("PYTHONPATH"), change.pop("PYTHONPATH")) == (
        str(ROOTS["parent"] / "src"), str(ROOTS["change"] / "src"))
    assert parent == change
    assert "PYTHONDONTWRITEBYTECODE" not in parent
    cache = Path(parent["PYTHONPYCACHEPREFIX"])
    assert cache == bench_point.pycache()
    assert not any(cache.is_relative_to(root.resolve()) for root in ROOTS.values())
