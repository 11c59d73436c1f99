"""Benchmark for revlogic: one workload, one run, one JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``verify-exhaustive``: ``revlogic bcd verify --digits 2`` in-process,
  20 000 cases per request; the paper's headline check.
* ``sim-sampled``: 64 seeded additions per request on the warm 4-digit
  adder, one ``simulate`` word each.
* ``netlist-roundtrip``: one circuit per request, built, emitted, parsed,
  elaborated, analysed and compared with the original.

Every workload is a closed loop with one caller in one thread, in a fresh
interpreter of its own. GC stays on. Before anything is timed, a
preflight in this process checks the paper's figures.

``--trace 0`` measures the end-to-end metrics. The ``--seconds`` of
requests are split over several fresh interpreters in turn. ``setup_s`` is
the median of their set-up times, ``throughput_per_s`` all words over all
request time, ``latency_p50_ms`` the median of all request latencies and
``peak_rss_mb`` the largest ``ru_maxrss``.

Request times are the worker thread's CPU time, which leaves out time the
host ran something else, in reference seconds: scaled by the speed a fixed
pure-Python kernel showed just after each window of about 0.2 s of
requests (``reference.py``). A shared host's speed can drift by up to a
quarter over seconds to minutes, and the scaling takes that drift out of
throughput and latency. ``setup_s`` is wall time. The report lines give
every segment's figures scaled, in plain CPU time and in wall time, and
the speed readings.

``--trace 1`` gives the per-layer metrics. One more interpreter runs the
workload's fixed request set twice, in alternating batches: plain, and with
every function in ``tracing.TRACED`` wrapped. The set depends only on the
seed, so call counts repeat exactly. The two must agree on every result,
and their CPU times give ``tracing_overhead``. The spans of the latest
traced run of each workload are in ``perfbench/out/``.

The lines before the last one report the environment, the run order and
every sample. The last line is the JSON result. The exit code is 0 when a
result was printed. It is 2, with no result, when the program cannot be
found or a phase cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SEGMENTS = 6
PHASE_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
         "peak_rss_mb": "MB", "calls": "count", "self_s": "s", "share": "ratio",
         "tracing_overhead": "ratio", "traced_requests": "count"}


class PhaseFailed(Exception):
    """A worker interpreter exited abnormally or printed no result."""


def run_phase(phase: str, args, **options) -> dict:
    """Run one phase in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--phase", phase,
           "--seed", str(args.seed)]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PhaseFailed(f"{phase} phase exceeded {PHASE_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseFailed(f"{phase} phase exited with {proc.returncode}")
    return json.loads(lines[-1])


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def measure_end_to_end(args, order: list[str]) -> tuple[dict, dict]:
    # The timed run is split over fresh interpreters, each continuing at the
    # request where the last one stopped. Their set-up times are spread over
    # the whole run, so the machine's slow drifts in speed reach every
    # sample alike rather than one burst of them.
    segments, first = [], 0
    for k in range(1, SEGMENTS + 1):
        order.append(f"segment#{k}")
        segment = run_phase("timed", args, seconds=args.seconds / SEGMENTS, first=first)
        first = segment["next"]
        segments.append(segment)
    latencies = sorted(x for s in segments for x in s["latencies_s"])
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "throughput_per_s": sum(s["words"] for s in segments)
                            / sum(s["elapsed_s"] for s in segments),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in segments),
    }
    print("segments (run order): setup_s; throughput 1/s in reference s, CPU s "
          "and wall s; p50 ms in reference s and CPU s; peak MB; "
          "speed readings min/median/max")
    for s in segments:
        speeds = s["speeds"]
        print(f"  {s['setup_s']:.6f};  {s['words'] / s['elapsed_s']:.6g}  "
              f"{s['words'] / s['cpu_elapsed_s']:.6g}  {s['words'] / s['wall_elapsed_s']:.6g};  "
              f"{1e3 * statistics.median(s['latencies_s']):.6g}  "
              f"{1e3 * statistics.median(s['cpu_latencies_s']):.6g};  {s['peak_rss_mb']};  "
              f"{min(speeds):.4f}/{statistics.median(speeds):.4f}/{max(speeds):.4f}")
    words = sum(s["words"] for s in segments)
    print(f"unscaled: throughput_per_s {words / sum(s['cpu_elapsed_s'] for s in segments)} "
          f"(CPU s), {words / sum(s['wall_elapsed_s'] for s in segments)} (wall s); "
          f"latency_p50_ms {1e3 * statistics.median(x for s in segments for x in s['cpu_latencies_s'])}"
          " (CPU s)")
    # p99 is reported only with at least 10 requests beyond it.
    p99 = (f"{1e3 * latencies[-(-99 * n // 100) - 1]} ms" if n >= 1000
           else f"not reported: {n} requests, fewer than the 1000 that put 10 beyond p99")
    print(f"{'latency_p99_ms':<18} {p99}")
    run = {"attempted": n, "failed": sum(s["failed"] for s in segments)}
    return metrics, run


def measure_per_layer(args, order: list[str]) -> tuple[dict, dict, list[str]]:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}.csv")
    order.append("traced (plain and traced batches in turn)")
    result = run_phase("traced", args, spans=spans)
    plain, traced = result["plain"], result["traced"]
    problems = [f"traced run differs from untraced run in {key}"
                for key in ("attempted", "failed", "words", "digest")
                if plain[key] != traced[key]]
    metrics = {}
    print(f"{'function':<38} {'calls':>8} {'self_s':>10} {'share':>7}")
    for name, stats in result["functions"].items():
        print(f"{name:<38} {stats['calls']:>8} {stats['self_s']:>10.4f} {stats['share']:>7.3f}")
        if name != "request":
            for key in ("calls", "self_s", "share"):
                metrics[f"{name}.{key}"] = stats[key]
    metrics["traced_requests"] = traced["attempted"]
    # Both did the same work, so the ratio of throughputs is the ratio of
    # their request times.
    metrics["tracing_overhead"] = 1 - plain["elapsed_s"] / traced["elapsed_s"]
    print(f"untraced {plain['elapsed_s']} s, traced {traced['elapsed_s']} s (CPU s) for "
          f"{traced['attempted']} requests; spans in {os.path.relpath(spans, ROOT)}")
    return metrics, traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="revlogic benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "revlogic", "__init__.py")):
        print("error: src/revlogic not found next to perfbench/", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    load_before = loadavg()
    order = ["preflight"]
    try:
        problems = workloads.preflight()
    except Exception as exc:  # a broken program is reported, not a crash
        problems = [f"preflight raised {exc!r}"]
    print(f"revlogic benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; closed loop, one caller")
    print("preflight (8/10/6/8, 4+1+3, 200 and 20000 cases): "
          + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    try:
        if args.trace:
            metrics, run, mismatches = measure_per_layer(args, order)
            problems += mismatches
        else:
            metrics, run = measure_end_to_end(args, order)
    except PhaseFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = run["attempted"], run["failed"]
    print(f"{'error_rate':<18} {failed / attempted} ({failed} of {attempted} requests failed)")
    for name, value in metrics.items():
        if "." not in name:
            print(f"{name:<18} {value} {UNITS[name]}")
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()} "
          f"(affinity {affinity}), loadavg before {load_before} after {loadavg()}; "
          "no CPU pinning or cache control is used, so noise is recorded, "
          "not removed")
    print(f"run order: {', '.join(order)}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[-1]]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
