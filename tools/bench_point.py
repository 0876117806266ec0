"""One point of the benchmark trajectory, written to BENCH_<label>.json.

Runs perfbench/run.py for both workloads over the given seeds, each run as
long as BENCHMARK.json's run_seconds, and times the serial and the
--parallel 2 default sweep and the tier-1 suite five times each, and each
of the benchmark's eight CLI commands fifteen times, in fresh interpreters.
The given checkout (the parent) and this one (the change) alternate: for
each seed and each timing round they both run, and which goes first
alternates.

    python3 tools/bench_point.py --label pr16 --against PARENT_CHECKOUT \\
        --seeds 926-935

A checkout is a repository root holding src/trimorph and perfbench/.  The
file, at the root of this repository, holds the machine, the Python
version, the seeds, every run with its host_scale, per side the median,
quartiles, IQR and minimum of each metric and timing, each distinct output
of every sweep and CLI command, and the pairs the change won, by the
direction BENCHMARK.json gives each metric.  When a run fails (a nonzero
exit, a failed request or a failed test) the file holds what was measured
up to it, with the failure, and the tool exits 1; it also exits 1 when the
two sides print different output for a sweep or a CLI command.  Standard
library only.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verdicts", "structures")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUNDS = 5
BENCH_TIMEOUT = 600
# The sweep's summary is printed with its time, so the sides can be compared.
SWEEP = (
    "import json, sys, time\n"
    "from trimorph.sweep import SweepConfig, run_sweep\n"
    "start = time.perf_counter()\n"
    "result = run_sweep(SweepConfig(parallel=int(sys.argv[1])))\n"
    "elapsed = time.perf_counter() - start\n"
    "print(json.dumps(result.summary_record(), sort_keys=True))\n"
    "print(elapsed)\n"
)
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
# How the benchmark starts the CLI entry point; `-m` would also load runpy.
CLI = "import trimorph.cli; trimorph.cli.console_main()"
CLI_REPEATS = 3


def cli_commands() -> tuple[tuple[str, ...], ...]:
    """The argv of each of the benchmark's CLI_CASES, read from
    perfbench/workloads.py without importing the benchmark."""
    for node in ast.parse((ROOT / "perfbench" / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_CASES"]:
            return tuple(ast.literal_eval(case.elts[0]) for case in node.value.elts)
    raise SystemExit("perfbench/workloads.py defines no CLI_CASES")


class RunFailed(Exception):
    """A run exited nonzero, failed requests or failed tests."""


def parse_seeds(text: str) -> list[int]:
    """'921-925,930' -> [921, 922, 923, 924, 925, 930]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision(root: Path) -> str:
    """The checkout's commit, with -dirty when its tracked files differ."""
    proc = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or "unknown"


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        found = re.search(r"^model name\s*:\s*(.*)$", cpuinfo.read_text(), re.M)
        model = found.group(1) if found else ""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": model or platform.processor(),
        "cpu_count": os.cpu_count(),
    }


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metric values, host_scale and failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, timeout=BENCH_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"{root}: perfbench {workload} seed {seed} exited "
                        f"{proc.returncode}: {proc.stderr[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "host_scale": details["host_scale"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def fresh(root: Path, *args: str) -> tuple[float, str]:
    """(wall seconds, stdout) of one fresh interpreter run on the checkout's
    package; raises RunFailed when it exits nonzero."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=BENCH_TIMEOUT,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunFailed(f"{root}: {' '.join(args)[:80]} exited {proc.returncode}: "
                        f"{(proc.stdout + proc.stderr)[-2000:]}")
    return elapsed, proc.stdout


def spread(values: list[float]) -> dict:
    """Median, quartiles, IQR and minimum of the values (inclusive quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "min": min(values)}


def summarize(side: dict) -> dict:
    out: dict = {}
    for workload in WORKLOADS:
        runs = [r for r in side["runs"] if r["workload"] == workload]
        if not runs:
            continue
        values = [{**r["metrics"], "host_scale": r["host_scale"]} for r in runs]
        out[workload] = {name: spread([v[name] for v in values]) for name in values[0]}
    for name, values in side["timings"].items():
        if values:
            out[name] = spread(values)
    return out


def compare(parent: dict, change: dict) -> dict:
    """Per workload and metric: pairs (same seed) the change won, ties
    counting for neither, and the change of the medians."""
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    out: dict = {}
    for workload in WORKLOADS:
        before = {r["seed"]: r["metrics"] for r in parent["runs"] if r["workload"] == workload}
        after = {r["seed"]: r["metrics"] for r in change["runs"] if r["workload"] == workload}
        seeds = sorted(set(before) & set(after))
        if not seeds:
            continue
        rows = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (after[s][name] - before[s][name]) > 0 for s in seeds)
            m0 = statistics.median(before[s][name] for s in seeds)
            m1 = statistics.median(after[s][name] for s in seeds)
            rows[name] = {"wins": wins, "pairs": len(seeds), "median_change": m1 / m0 - 1}
        out[workload] = rows
    return out


def measure(roots: dict, sides: dict, seeds: list[int], commands: tuple, outputs: dict) -> None:
    """Fill sides with the runs and outputs with each distinct output of
    the sweeps (serial and parallel alike) and of each CLI command,
    alternating the checkouts; raises RunFailed after recording a perfbench
    run with failed requests."""
    seconds = BENCHMARK["run_seconds"]
    names = list(roots)
    for k, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for name in names if k % 2 == 0 else names[::-1]:
                run = bench(roots[name], workload, seed, seconds)
                sides[name]["runs"].append(run)
                print(f"{name} {workload} {seed}: " + ", ".join(
                    f"{n} {v:.4g}" for n, v in run["metrics"].items()), flush=True)
                if run["failed"]:
                    raise RunFailed(f"{name} {workload} seed {seed}: "
                                    f"{run['failed']} failed requests")
    for r in range(ROUNDS):
        for name in names if r % 2 == 0 else names[::-1]:
            root, timings = roots[name], sides[name]["timings"]
            for parallel, key in ((1, "sweep_serial_s"), (2, "sweep_parallel2_s")):
                _, out = fresh(root, "-c", SWEEP, str(parallel))
                summary, elapsed = out.strip().splitlines()
                timings[key].append(float(elapsed))
                outputs.setdefault("sweep", set()).add(summary)
            elapsed, out = fresh(root, *TIER1)
            timings["tier1_s"].append(elapsed)
            # The summary line ends in the suite's own time, which varies.
            last = out.strip().splitlines()[-1] if out.strip() else ""
            sides[name]["tier1"] = re.sub(r" in [\d.]+s.*$", "", last.strip("= "))
            for _ in range(CLI_REPEATS):
                for argv in commands:
                    elapsed, out = fresh(root, "-c", CLI, *argv)
                    timings[f"cli_{argv[0]}_s"].append(elapsed)
                    outputs.setdefault(f"cli_{argv[0]}", set()).add(out)
            cli_ms = sum(min(timings[f"cli_{argv[0]}_s"][-CLI_REPEATS:]) for argv in commands)
            print(f"{name} round {r}: sweep {timings['sweep_serial_s'][-1]:.3f} s, "
                  f"--parallel 2 {timings['sweep_parallel2_s'][-1]:.3f} s, "
                  f"tier-1 {timings['tier1_s'][-1]:.1f} s ({sides[name]['tier1']}), "
                  f"CLI sum of minima {cli_ms * 1e3:.0f} ms", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--against", type=Path, required=True,
                        help="the parent checkout to alternate with")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 921-925,930")
    args = parser.parse_args()
    roots = {"parent": args.against.resolve(), "change": ROOT}
    for root in roots.values():
        if not (root / "src" / "trimorph" / "__init__.py").is_file():
            parser.error(f"{root} holds no trimorph package")
    commands = cli_commands()
    sides = {
        name: {"revision": revision(root), "runs": [],
               "timings": {"sweep_serial_s": [], "sweep_parallel2_s": [], "tier1_s": [],
                           **{f"cli_{argv[0]}_s": [] for argv in commands}}}
        for name, root in roots.items()
    }
    outputs: dict[str, set[str]] = {}
    failure = None
    try:
        measure(roots, sides, args.seeds, commands, outputs)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        failure = str(exc)
    for side in sides.values():
        side["summary"] = summarize(side)
    point = {
        "label": args.label,
        "machine": machine(),
        "python": platform.python_version(),
        "seeds": args.seeds,
        "seconds": BENCHMARK["run_seconds"],
        "rounds": ROUNDS,
        "sides": sides,
        "pairs": compare(sides["parent"], sides["change"]),
        "outputs": {key: sorted(texts) for key, texts in outputs.items()},
        "failure": failure,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.name}")
    if failure:
        print(failure, file=sys.stderr)
        return 1
    differ = [key for key, texts in outputs.items() if len(texts) > 1]
    if differ:
        print(f"the sides' outputs differ: {' '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
