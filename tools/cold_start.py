"""Cold-start cost of the command line, compared between two checkouts.

Each command line call starts a fresh interpreter, so its latency is mostly
start-up and imports.  This runs the benchmark's eight CLI commands (the
README transcript plus conjugate and examples), read from CLI_CASES in
perfbench/workloads.py so the two cannot drift, in fresh interpreters,
alternating the two checkouts in every round and which goes first, and
prints for each command and checkout the minimum and median wall time,
then the sum of the per-command minima:

    python3 tools/cold_start.py PARENT_CHECKOUT CHANGED_CHECKOUT --rounds 15

A checkout is a repository root holding src/trimorph.  Exits 1 when the two
print different output for some command.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def cli_commands() -> tuple[tuple[str, ...], ...]:
    """The argv of each of the benchmark's CLI_CASES, read from the file
    without importing the benchmark."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_CASES"]:
            return tuple(ast.literal_eval(case.elts[0]) for case in node.value.elts)
    raise SystemExit(f"{WORKLOADS} defines no CLI_CASES")


COMMANDS = cli_commands()

# How the benchmark starts the entry point; `-m` would also load runpy.
RUN = "import trimorph.cli; trimorph.cli.console_main()"


def run(src: Path, argv: tuple[str, ...]) -> tuple[float, str]:
    """(wall seconds, stdout) of one command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return elapsed, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, help="two repository roots")
    parser.add_argument("--rounds", type=int, default=15, help="fresh runs of each command")
    args = parser.parse_args()
    srcs = [root.resolve() / "src" for root in args.checkouts]
    for src in srcs:
        if not (src / "trimorph" / "__init__.py").is_file():
            parser.error(f"{src} holds no trimorph package")
    times = {(i, cmd): [] for i in range(2) for cmd in COMMANDS}
    outputs: dict = {}
    for r in range(args.rounds):
        for cmd in COMMANDS:
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                elapsed, out = run(srcs[i], cmd)
                times[i, cmd].append(elapsed)
                outputs.setdefault(cmd, [None, None])[i] = out
    print(f"{args.rounds} rounds; ms as min / median; {sys.version.split()[0]}")
    print(f"{'command':<10} {'first':>15} {'second':>15}")
    sums = [0.0, 0.0]
    for cmd in COMMANDS:
        cells = []
        for i in range(2):
            best = min(times[i, cmd])
            sums[i] += best
            cells.append(f"{best * 1e3:6.1f} / {statistics.median(times[i, cmd]) * 1e3:6.1f}")
        print(f"{cmd[0]:<10} {cells[0]:>15} {cells[1]:>15}")
    change = (sums[1] - sums[0]) / sums[0]
    print(f"sum of minima: {sums[0] * 1e3:.1f} ms -> {sums[1] * 1e3:.1f} ms ({change:+.1%})")
    differ = [cmd[0] for cmd in COMMANDS if outputs[cmd][0] != outputs[cmd][1]]
    if differ:
        print(f"output differs: {' '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
