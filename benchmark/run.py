#!/usr/bin/env python3
"""Benchmark harness for ringcol.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload span-exact --seed 1 --seconds 40 --trace 0

It imports ``ringcol`` from ``src/`` of that checkout and refuses to run
without it. The run repeats rounds until the next one would overrun
``--seconds`` (at least one round). A round runs the workload's pass and
checks every answer outside the timed region.

With ``--trace 0`` each round first starts a few fresh copies of this script
with ``--setup-only``. Each one imports the package and builds the inputs,
then exits; ``setup_s`` is the median time from starting such a process to
the end of its set-up. Spreading them over the run keeps one slow moment of
a shared machine from deciding the figure. The last stdout line carries the
end-to-end metrics. Their times are scaled to a fixed reference speed of
the machine (see ``speed.py``); the line before it gives the raw times.

With ``--trace 1`` untraced and traced passes alternate; the last line
carries the per-layer metrics, derived from the traced passes' spans, and
``benchmark/results/<workload>-seed<seed>/`` gets ``spans.jsonl``, the
per-query ``trail.csv`` and ``overhead.json``.

The metric names and units come from ``BENCHMARK.json`` at the checkout's
root. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import speed
import tracing
from workloads import WORKLOADS, Tally

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 5  # fresh set-up processes per round
EXACT_UNITS = ("count", "bytes", "frac")  # metrics in these units repeat exactly between runs


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def set_up(workload, seed: int, workdir: Path):
    """Import ringcol from this checkout's src/ and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ringcol")
    importlib.import_module("ringcol.cli")
    importlib.import_module("ringcol.io")
    if Path(pkg.__file__).resolve().parent != SRC.resolve() / "ringcol":
        raise SystemExit(f"error: imported ringcol from {pkg.__file__}, not from {SRC}")
    return pkg, workload.build(pkg, seed, workdir)


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh ``--setup-only`` process to the end of
    its set-up (both ends read CLOCK_MONOTONIC, which all processes share),
    and the speed scale of the bursts that process timed right after."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
            "--seed", str(seed), "--setup-only"]
    started_ns = time.monotonic_ns()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    ended_ns, burst_s = done.stdout.split()[-2:]
    return (int(ended_ns) - started_ns) / 1e9, speed.scale([float(burst_s)])


def timed_pass(workload, pkg, inputs, scaled: bool) -> tuple[float, float, Any]:
    """One pass: its wall time in seconds, the speed scale of the bursts
    timed alongside it (1 when not ``scaled``), and its result."""
    if not scaled:
        t0 = time.perf_counter()
        result = workload.run(pkg, inputs)
        return time.perf_counter() - t0, 1.0, result
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        result = workload.run(pkg, inputs)
        probe.stop()
        wall = time.perf_counter() - t0 - probe.spent_s
    return wall, speed.scale(probe.bursts), result


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return f"none (needs 11 samples, have {len(samples)})"
    ordered = sorted(samples)
    return f"p{100 * (len(ordered) - 10) / len(ordered):.0f}={ordered[-11]:.4f} s"


def measure(workload, pkg, inputs, seed: int, seconds: float, trace: bool, run_prefix: str):
    """Repeat rounds (set-up probes and one untraced pass, or one untraced
    and one traced pass) until the next round would overrun the budget.
    Without ``trace`` each time comes with its speed scale."""
    setups: list[tuple[float, float]] = []
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    scales: list[float] = []
    traced: list[list[tracing.Span]] = []
    tally = Tally()
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            setups += [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
        for kind in ("untraced", "traced") if trace else ("untraced",):
            patched = []
            if kind == "traced":
                tracer = tracing.Tracer(f"{run_prefix}/pass{len(traced)}")
                patched = tracing.install(tracer)
            try:
                wall, pass_scale, result = timed_pass(workload, pkg, inputs, scaled=not trace)
            finally:
                tracing.restore(patched)
            walls[kind].append(wall)
            scales.append(pass_scale)
            if kind == "traced":
                traced.append(tracer.spans)
            tally.add(workload.check(pkg, inputs, result))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - started + statistics.median(rounds) > seconds:
            return setups, walls, scales, traced, tally


def layer_metrics(names: list[str], traced: list[list[tracing.Span]], walls: dict[str, list[float]],
                  units: dict[str, str]):
    """Per-layer metrics (exact counts from the first traced pass, times as
    medians over the traced passes), the overhead report, and any problems
    the spans show."""
    entry_cost_s = tracing.wrapper_entry_cost_s()
    per_pass = [tracing.pass_metrics(spans) for spans in traced]
    tracer_costs = [tracing.tracer_cost_s(spans, entry_cost_s) for spans in traced]
    for m, cost in zip(per_pass, tracer_costs):
        m["trace.span_cost_s"] = cost
    problems = [p for spans in traced for p in tracing.consistency_problems(spans)]
    if any(tracing.shape(spans) != tracing.shape(traced[0]) for spans in traced[1:]):
        problems.append("traced passes differ in calls, statuses or counts")
    overhead = tracing.overhead_report(walls["untraced"], walls["traced"], tracer_costs, entry_cost_s)
    metrics = {"trace.overhead_s": overhead["overhead_s"]}
    for name in names:
        if name not in metrics:
            values = [m[name] for m in per_pass]
            metrics[name] = values[0] if units[name] in EXACT_UNITS else statistics.median(values)
    return metrics, overhead, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the CLOCK_MONOTONIC time in ns and a reference burst time, "
                             "and exit (the setup_s probe)")
    args = parser.parse_args(argv)

    if not (SRC / "ringcol" / "__init__.py").is_file():
        print(f"error: no ringcol package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_prefix = f"{workload.name}/seed{args.seed}"
    out_dir = RESULTS / f"{workload.name}-seed{args.seed}"
    workdir = RESULTS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pkg, inputs = set_up(workload, args.seed, workdir)
        if args.setup_only:
            ended_ns = time.monotonic_ns()
            print(ended_ns, statistics.median(speed.burst() for _ in range(5)))
            return 0
        setups, walls, scales, traced, tally = measure(
            workload, pkg, inputs, args.seed, args.seconds, bool(args.trace), run_prefix)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = walls["untraced"]
    print(f"{workload.name} seed={args.seed}: {len(untraced)} untraced passes, raw "
          f"wall_s median={statistics.median(untraced):.4f} s, tail {tail_percentile(untraced)}, "
          f"passes={[round(w, 3) for w in untraced]}; {len(traced)} traced passes; "
          f"raw setup_s samples={[round(s, 4) for s, _ in setups]}")

    if args.trace:
        units = metric_units("per_layer")
        metrics, overhead, problems = layer_metrics(list(units), traced, walls, units)
        tally.problems += problems
        out_dir.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(out_dir / "spans.jsonl", traced)
        tracing.write_trail(out_dir / "trail.csv", traced)
        (out_dir / "overhead.json").write_text(
            json.dumps({"workload": workload.name, "seed": args.seed, **overhead}, indent=2) + "\n", encoding="utf-8")
        print(f"tracing overhead {overhead['overhead_s']:+.4f} s ({overhead['overhead_frac']:+.2%}), "
              f"tracer's own time {overhead['tracer_cost_median_s']:.4f} s; "
              f"spans, trail and overhead in {out_dir}")
    else:
        units = metric_units("end_to_end")
        walls_at_ref = [w * s for w, s in zip(untraced, scales)]
        setups_at_ref = [t * s for t, s in setups]
        print(f"at reference speed: wall_s median={statistics.median(walls_at_ref):.4f} s, "
              f"tail {tail_percentile(walls_at_ref)}, speed scales={[round(s, 3) for s in scales]}; "
              f"setup_s median={statistics.median(setups_at_ref):.4f} s over {len(setups)} probes")
        metrics = {
            "setup_s": statistics.median(setups_at_ref),
            "wall_s": statistics.median(walls_at_ref),
            "decided_frac": tally.decided / tally.asked,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
