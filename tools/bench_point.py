"""One point of the benchmark trajectory, written to BENCH_<label>.json.

Runs perfbench/run.py for both workloads over the given seeds, each run as
long as BENCHMARK.json's run_seconds, and times the serial and the
--parallel 2 default sweep and the tier-1 suite five times each, and each
of the benchmark's eight CLI commands fifteen times, in fresh interpreters.
Each of these measurements is one step, run on the given checkout (the
parent) and on this one (the change) back to back, and which goes first
alternates from step to step, so every value has a partner taken next to
it in time.

    python3 tools/bench_point.py --label pr16 --against PARENT_CHECKOUT \\
        --seeds 926-935

A checkout is a repository root holding src/trimorph and perfbench/.  The
file, at the root of this repository, holds the machine, the Python
version, the seeds, every run with its host_scale, per side the median,
quartiles, IQR and minimum of each metric and timing, each distinct output
of every sweep and CLI command, and the pairs the change won on each metric
and timing, by the direction BENCHMARK.json gives it (lower is better for
a timing).  When a run fails (a nonzero exit, a failed request, a failed
test or output that does not parse) the file holds what was measured up to
it, with the failure, and the tool exits 1; it also exits 1 when the two
sides print different output for a sweep or a CLI command.  Standard
library only.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verdicts", "structures")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUNDS = 5
BENCH_TIMEOUT = 600
# The sweep prints its time in process, then its summary for the sides to compare.
SWEEP = (
    "import json, sys, time\n"
    "from trimorph.sweep import SweepConfig, run_sweep\n"
    "start = time.perf_counter()\n"
    "result = run_sweep(SweepConfig(parallel=int(sys.argv[1])))\n"
    "print(time.perf_counter() - start)\n"
    "print(json.dumps(result.summary_record(), sort_keys=True))\n"
)
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
# How the benchmark starts the CLI entry point; `-m` would also load runpy.
CLI = "import trimorph.cli; trimorph.cli.console_main()"
CLI_REPEATS = 3


def pycache() -> Path:
    """The bytecode cache of both checkouts, emptied when the tool starts, so
    neither side runs from a __pycache__ the other lacks, whatever the
    checkouts hold and whatever PYTHONDONTWRITEBYTECODE says.  It mirrors
    each source path, so the two sides never share an entry."""
    return Path(tempfile.gettempdir()) / f"bench_point_pycache_{os.getpid()}"


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


def bench(root: Path, workload: str, seed: int) -> dict:
    """One perfbench run: its metric values, host_scale and failures."""
    _, out = fresh(root, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]))
    details, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, "host_scale": details["host_scale"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def fresh(root: Path, *args: str) -> tuple[float, str]:
    """(wall seconds, stdout) of one fresh interpreter run on the checkout's
    package; raises RunFailed when it exits nonzero."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache()))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=root, env=env,
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
        values = [{**r["metrics"], "host_scale": r["host_scale"]}
                  for r in side["runs"] if r["workload"] == workload]
        if values:
            out[workload] = {name: spread([v[name] for v in values]) for name in values[0]}
    for name, values in side["timings"].items():
        out[name] = spread(values)
    return out


def won(before: list[float], after: list[float], sign: int) -> dict:
    """The pairs the change won (sign 1: higher is better, -1: lower), ties
    counting for neither, and the change of the medians of the pairs; a last
    value left without a partner by a failure is not counted."""
    pairs = list(zip(before, after))
    return {"wins": sum(sign * (a - b) > 0 for b, a in pairs), "pairs": len(pairs),
            "median_change": statistics.median(a for _, a in pairs)
            / statistics.median(b for b, _ in pairs) - 1}


def compare(parent: dict, change: dict) -> dict:
    """won() per workload and metric, and per timing (lower is better),
    pairing the two values that each step took."""
    better = {m["name"]: 1 if m["better"] == "higher" else -1 for m in BENCHMARK["end_to_end"]}
    out: dict = {}
    for workload in WORKLOADS:
        before, after = ([r["metrics"] for r in side["runs"] if r["workload"] == workload]
                         for side in (parent, change))
        if before and after:
            out[workload] = {name: won([m[name] for m in before], [m[name] for m in after], sign)
                             for name, sign in better.items()}
    for name, before in parent["timings"].items():
        if name in change["timings"]:
            out[name] = won(before, change["timings"][name], -1)
    return out


def measure(roots: dict, sides: dict, seeds: list[int], commands: tuple, outputs: dict) -> None:
    """Fill sides with the runs and timings, and outputs with each distinct
    output of the sweeps (serial and parallel alike) and of each CLI command.
    Each step runs on both checkouts back to back, the first side
    alternating from step to step; raises RunFailed after recording a
    perfbench run with failed requests."""

    def perfbench(name: str, workload: str, seed: int) -> str:
        run = bench(roots[name], workload, seed)
        sides[name]["runs"].append(run)
        if run["failed"]:
            raise RunFailed(f"{name} {workload} seed {seed}: {run['failed']} failed requests")
        return f"{workload} {seed}: {run['metrics']}"

    def keep(name: str, key: str, seconds: float) -> str:
        sides[name]["timings"].setdefault(key, []).append(seconds)
        return f"{key} {seconds:.3f}"

    def sweep(name: str, parallel: int, key: str) -> str:
        _, out = fresh(roots[name], "-c", SWEEP, str(parallel))
        elapsed, summary = out.strip().splitlines()
        outputs.setdefault("sweep", set()).add(summary)
        return keep(name, key, float(elapsed))

    def tier1(name: str) -> str:
        elapsed, out = fresh(roots[name], *TIER1)
        # The summary line ends in the suite's own time, which varies.
        last = out.strip().splitlines()[-1] if out.strip() else ""
        sides[name]["tier1"] = re.sub(r" in [\d.]+s.*$", "", last.strip("= "))
        return keep(name, "tier1_s", elapsed) + f" ({sides[name]['tier1']})"

    def cli(name: str, argv: tuple) -> str:
        elapsed, out = fresh(roots[name], "-c", CLI, *argv)
        outputs.setdefault(f"cli_{argv[0]}", set()).add(out)
        return keep(name, f"cli_{argv[0]}_s", elapsed)

    # Reversing the workloads on odd seeds, and the commands on odd repeats,
    # alternates the first side of each workload and each command too.
    steps = [partial(perfbench, workload=workload, seed=seed) for k, seed in enumerate(seeds)
             for workload in (WORKLOADS if k % 2 == 0 else WORKLOADS[::-1])]
    for _ in range(ROUNDS):
        steps += [partial(sweep, parallel=1, key="sweep_serial_s"),
                  partial(sweep, parallel=2, key="sweep_parallel2_s"), tier1]
        steps += [partial(cli, argv=argv) for t in range(CLI_REPEATS)
                  for argv in (commands if t % 2 == 0 else commands[::-1])]
    names = list(roots)
    for i, step in enumerate(steps):
        done = [f"{name} {step(name)}" for name in (names if i % 2 == 0 else names[::-1])]
        print(f"step {i + 1}/{len(steps)}: " + "; ".join(done), flush=True)


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
    sides = {name: {"revision": revision(root), "runs": [], "timings": {}}
             for name, root in roots.items()}
    outputs: dict[str, set[str]] = {}
    failure = None
    shutil.rmtree(pycache(), ignore_errors=True)
    try:
        measure(roots, sides, args.seeds, cli_commands(), outputs)
    except (RunFailed, subprocess.TimeoutExpired, ValueError) as exc:
        failure = str(exc)
    finally:
        shutil.rmtree(pycache(), ignore_errors=True)
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
