#!/usr/bin/env python3
"""trimorph benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 50 --trace 0

Each workload runs closed-loop with one client in its own child process,
under an address-space limit, so an input that exhausts memory becomes a
counted failure.  The child makes passes over a fixed list of requests
until its passes have taken ``--seconds``; a request's latency is the
least of its passes, the cost of the request when nothing else on the host
slows it.  End-to-end times are then scaled to a reference host speed,
gauged during the run by two fixed pure-Python tasks (see REFERENCE_S).
The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced run, plus the tracing overhead.
The line before it carries details such as the tail percentile and its
sample count.  Workloads, metrics and the layers they map to are described
in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("verdicts", "structures")
# Set-up is timed in this many processes: the measuring one and fresh ones
# started at even intervals between the measuring passes.
SETUP_SAMPLES = 15
# Address-space limit of the workload process and the processes it starts.
MEMORY_LIMIT = 3 << 30
# Passes of the traced run, fixed so that layer counts repeat for a seed.
TRACE_PASSES = 2
# Fresh CLI interpreters timed in the traced run of a mix without CLI requests.
CLI_PROBES = 3
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# End-to-end times are scaled to a reference host.  On a shared host the
# speed of the fastest spells drifts by 10-20% from one run to the next.
# Each fresh set-up process therefore also times two fixed tasks that share
# no code with the library, REFERENCE_REPEATS[task] times each, and a time
# is multiplied by the geometric mean over the tasks of REFERENCE_S[task]
# over the task's best time in the run: the tasks' best times on the
# 2-vCPU host the benchmark was built on.  The tasks run outside the
# measuring process, so its heap cannot slow them.
REFERENCE_S = {"small": 0.0042, "large": 0.027}
REFERENCE_REPEATS = {"small": 10, "large": 3}
CHILD_TIMEOUT = 160


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its
    nearest-rank value: the (TAIL_BEYOND + 1)-th largest sample.  Falls
    back to the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND  # 1-based
    if rank < (n + 1) // 2:
        return 50.0, statistics.median(ordered)
    return 100 * rank / n, ordered[rank - 1]


class Phase:
    """Request latencies of one closed-loop measuring phase, a list per
    request of the pass with one entry per pass."""

    def __init__(self, n: int):
        self.latencies: list[list[float]] = [[] for _ in range(n)]
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def best(self) -> list[float]:
        """Each request's least latency over the passes."""
        return [min(runs) for runs in self.latencies]

    def busy(self) -> float:
        return sum(self.best())

    def throughput(self) -> float:
        """Requests of one pass completed per second of library time."""
        return len(self.latencies) / self.busy()


def run_passes(
    workload, seconds: float, max_passes: int | None = None, tracer=None, after_pass=None
) -> Phase:
    """Run whole passes over the workload's requests until ``seconds`` of
    pass time have passed or ``max_passes`` ran.

    Only the library calls are timed; each answer is checked after its
    timer stops.  A request that raises, MemoryError included, or answers
    wrongly counts as failed.  ``after_pass(fraction)``, if given, runs
    between passes, outside the pass time, with the share of ``seconds``
    spent so far.
    """
    phase = Phase(len(workload.requests))
    spent = 0.0
    while True:
        pass_start = time.perf_counter()
        for k, req in enumerate(workload.requests):
            phase.attempted += 1
            if tracer is not None:
                tracer.request = phase.attempted
            start = time.perf_counter()
            elapsed = None
            try:
                if tracer is None:
                    out = workload.call(req)
                else:
                    out = tracer.span("bench.request", workload.call, req)
                elapsed = time.perf_counter() - start
                ok = workload.check(req, out)
            except Exception:
                if elapsed is None:
                    elapsed = time.perf_counter() - start
                traceback.print_exc(limit=3, file=sys.stderr)
                ok = False
            phase.latencies[k].append(elapsed)
            if not ok:
                phase.failed += 1
                print(f"perfbench: wrong answer or error on {workload.name} request {req!r}",
                      file=sys.stderr)
        phase.passes += 1
        spent += time.perf_counter() - pass_start
        if spent >= seconds or phase.passes == max_passes:
            return phase
        if after_pass is not None:
            after_pass(spent / seconds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def small_task() -> int:
    """Dict updates and short strings: a working set that stays in cache."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += len(str(i))
    return total


def large_task() -> int:
    """Lists of 300,000 integers: a working set of several megabytes."""
    numbers = list(range(300_000))
    return sum([x * 2 for x in numbers])


REFERENCE_TASKS = {"small": small_task, "large": large_task}


def time_reference_tasks() -> dict[str, float]:
    """Each reference task's best time over its repeats."""
    best = {}
    for name, task in REFERENCE_TASKS.items():
        times = []
        for _ in range(REFERENCE_REPEATS[name]):
            start = time.perf_counter()
            task()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    return best


def host_scale(best: dict[str, float]) -> float:
    """The factor that turns times measured in a run into reference times."""
    return math.prod(REFERENCE_S[name] / best[name] for name in REFERENCE_S) ** (
        1 / len(REFERENCE_S)
    )


# --- the child process: set-up, then one measuring phase


def child(args) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports trimorph

    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), args.tiny)
    workload.warm()
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.child == "setup":
        result["reference_best_s"] = time_reference_tasks()
        return result
    if args.trace:
        result.update(traced(workload, args))
        return result

    setups = [setup_s]
    reference = {name: float("inf") for name in REFERENCE_TASKS}
    samples = 3 if args.tiny else SETUP_SAMPLES

    def time_setup(fraction: float) -> None:
        while len(setups) < min(samples, 1 + int((samples - 1) * fraction)):
            probe = spawn(args, "setup", CHILD_TIMEOUT)
            if probe is None:
                raise RuntimeError("set-up process failed")
            setups.append(probe["setup_s"])
            for name, seconds in probe["reference_best_s"].items():
                reference[name] = min(reference[name], seconds)

    phase = run_passes(workload, args.seconds, after_pass=time_setup)
    time_setup(1.0)
    best = phase.best()
    pct, tail_value = tail(best)
    result.update(
        reference_best_s=reference,
        setup_samples_s=setups,
        attempted=phase.attempted,
        failed=phase.failed,
        throughput_rps=phase.throughput(),
        latency_p50_ms=statistics.median(best) * 1e3,
        latency_tail_ms=tail_value * 1e3,
        tail_percentile=pct,
        samples=len(best),
        passes=phase.passes,
        peak_rss_mb=peak_rss_mb(),
    )
    return result


def traced(workload, args) -> dict:
    """Untraced passes, then as many traced; per-layer metrics."""
    import workloads
    from tracer import Tracer
    from trimorph import sweep

    plain = run_passes(workload, args.seconds, max_passes=1 if args.tiny else TRACE_PASSES)
    attempted, failed = plain.attempted, plain.failed
    sweep_part = workload.part(workloads.SweepWorkload)
    cli_part = workload.part(workloads.CliWorkload)

    # run_sweep serially and with two workers; 0 where the mix has no sweep.
    extra = {"sweep.par2_throughput_rps": 0.0, "sweep.par2_speedup": 0.0}
    if sweep_part is not None:
        seconds = []
        for parallel in (1, 2):
            start = time.perf_counter()
            result = sweep.run_sweep(dataclasses.replace(sweep_part.config, parallel=parallel))
            seconds.append(time.perf_counter() - start)
            attempted += 1
            failed += not sweep_part.check_full(result)
        extra["sweep.par2_throughput_rps"] = result.pairs / seconds[1]
        extra["sweep.par2_speedup"] = seconds[0] / seconds[1]

    tracer = Tracer()
    tracer.install()
    try:
        if sweep_part is not None:
            sweep.enumerate_morphisms(sweep_part.config)
        traced_phase = run_passes(workload, args.seconds, plain.passes, tracer)
    finally:
        tracer.uninstall()
    attempted += traced_phase.attempted
    failed += traced_phase.failed

    # The CLI's cold start, from fresh interpreters: the mix's own CLI
    # requests, or a few probes, since every set-up imports trimorph too.
    if cli_part is None:
        cli_part = workloads.CliWorkload(random.Random(args.seed), args.tiny)
        for k in range(1 if args.tiny else CLI_PROBES):
            req = k % len(workloads.CLI_CASES)
            attempted += 1
            failed += not cli_part.check(req, cli_part.call(req))
    interp, imports, mains = [], [], []
    for start, end, t0, t1, t2 in cli_part.cli_traces:
        parent = tracer.record("cli.request", start, end)
        tracer.record("cli.import", t0, t1, parent)
        tracer.record("cli.main", t1, t2, parent)
        interp.append((end - start) - (t2 - t0))
        imports.append(t1 - t0)
        mains.append(t2 - t1)
    extra["cli.interp_ms"] = statistics.median(interp) * 1e3
    extra["cli.import_ms"] = statistics.median(imports) * 1e3
    extra["cli.main_ms"] = statistics.median(mains) * 1e3

    metrics = tracer.layer_metrics()
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = traced_phase.busy() / plain.busy() - 1
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    return {"attempted": attempted, "failed": failed, "layers": metrics, "spans": len(tracer.spans)}


# --- the parent process


def spawn(args, mode: str, timeout: float) -> dict | None:
    """Run a child process under the memory limit; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    # The measuring process gets a process group of its own, so that a
    # timeout also ends the set-up process it may be waiting for.
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=limit_memory,
        start_new_session=mode == "measure",
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        if mode == "measure":
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        print(f"perfbench: {mode} process timed out", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        result = child(args)
        print(json.dumps(result))
        return 0
    if not (SRC / "trimorph" / "__init__.py").is_file():
        print(f"perfbench: no trimorph sources under {SRC}", file=sys.stderr)
        return 2
    result = spawn(args, "measure", CHILD_TIMEOUT)
    if result is None:
        return 1
    units = metric_units(args.trace)
    if args.trace:
        values = result["layers"]
        details = {"spans_kept": result["spans"]}
    else:
        setups = result["setup_samples_s"]
        measured = {
            "setup_s": statistics.median(setups),
            "throughput_rps": result["throughput_rps"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_tail_ms": result["latency_tail_ms"],
        }
        scale = host_scale(result["reference_best_s"])
        values = {
            "setup_s": measured["setup_s"] * scale,
            "throughput_rps": measured["throughput_rps"] / scale,
            "latency_p50_ms": measured["latency_p50_ms"] * scale,
            "latency_tail_ms": measured["latency_tail_ms"] * scale,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        details = {
            "host_scale": scale,
            "reference_best_s": result["reference_best_s"],
            "unscaled": measured,
            "tail_percentile": result["tail_percentile"],
            "latency_samples": result["samples"],
            "passes": result["passes"],
            "setup_samples_s": setups,
            "failed_ratio": result["failed"] / result["attempted"],
        }
    if set(values) != set(units):
        print(
            "perfbench: metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
