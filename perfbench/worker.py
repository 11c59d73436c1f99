"""One benchmark phase in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per phase, so each phase's set-up time
and memory belong to it alone:

* ``timed``: set up, then run requests in a closed loop for ``--seconds``,
  starting at request ``--first``. Every window of about ``WINDOW_S`` of
  requests is followed by a reading of ``reference.speed``, and the
  window's CPU times are reported in reference seconds (see
  ``reference.py``) as well as unscaled, next to its wall time.
* ``traced``: set up, then run the workload's fixed traced request set
  twice, in alternating batches: plain, and with every traced function
  wrapped. The plain batches are the base of ``tracing_overhead``.

``setup_s`` runs from ``--t0``, the parent's monotonic clock just before
it started this interpreter, to the first request. It leaves out the time
``generate`` spends making the benchmark's own inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WINDOW_S = 0.2
REFERENCE_CALLS = 30
TRACE_BATCHES = 20


def run_requests(workload, state, *, first=0, count=None, deadline=None,
                 tracer=None, digest=0) -> dict:
    """Run requests ``first``, ``first + 1``, ... until ``count`` are done or
    ``deadline`` (a ``time.perf_counter`` value) passes.

    Latencies and ``elapsed_s`` are the thread's CPU time. The requests do
    no I/O, so it differs from wall time only by the time the thread was
    not running: other processes, and, on a kernel with paravirtual steal
    accounting (``CONFIG_PARAVIRT_TIME_ACCOUNTING``), time the hypervisor
    gave to other guests. Those bursts are the host's, not the program's.
    """
    latencies = []
    words = failed = 0
    first_error = None
    clock, wall = time.thread_time, time.perf_counter
    begin, wall_begin = clock(), wall()
    i = first
    while (count is None or i - first < count) and (deadline is None or wall() < deadline):
        start = clock()
        try:
            if tracer is None:
                ok, n, fingerprint = workload.request(state, i)
            else:
                ok, n, fingerprint = tracer.run_request(i, workload.request, state, i)
        except Exception:  # a failed request is counted, never fatal
            ok, n, fingerprint = False, 0, "exception"
            first_error = first_error or traceback.format_exc()
        latencies.append(clock() - start)
        words += n
        failed += not ok
        digest = zlib.crc32(fingerprint.encode(), digest)
        i += 1
    if first_error:
        print(first_error, file=sys.stderr)
    return {"attempted": i - first, "failed": failed, "words": words,
            "elapsed_s": clock() - begin, "wall_elapsed_s": wall() - wall_begin,
            "digest": digest, "next": i, "latencies_s": latencies}


def run_timed(workload, state, *, first: int, deadline: float) -> dict:
    """``run_requests`` in windows of about ``WINDOW_S``, each followed by a
    reading of the machine's speed that converts the window's CPU times to
    reference seconds. Time spent on the readings is not request time."""
    total = {"attempted": 0, "failed": 0, "words": 0, "elapsed_s": 0.0,
             "cpu_elapsed_s": 0.0, "wall_elapsed_s": 0.0, "latencies_s": [],
             "cpu_latencies_s": [], "speeds": [], "next": first}
    while time.perf_counter() < deadline:
        window_end = min(deadline, time.perf_counter() + WINDOW_S)
        window = run_requests(workload, state, first=total["next"], deadline=window_end)
        if not window["attempted"]:
            break
        speed = reference.speed(REFERENCE_CALLS)
        for key in ("attempted", "failed", "words"):
            total[key] += window[key]
        total["next"] = window["next"]
        total["elapsed_s"] += window["elapsed_s"] * speed
        total["cpu_elapsed_s"] += window["elapsed_s"]
        total["wall_elapsed_s"] += window["wall_elapsed_s"]
        total["latencies_s"] += [x * speed for x in window["latencies_s"]]
        total["cpu_latencies_s"] += window["latencies_s"]
        total["speeds"].append(speed)
    return total


def run_traced(workload, state, tracer) -> dict:
    """Run the fixed request set twice, plain and traced, in alternating
    batches, so that both see the same machine speed. The order within a
    batch alternates too. Returns the totals of each."""
    count = workload.traced_requests
    size = -(-count // TRACE_BATCHES)
    totals = {mode: {"attempted": 0, "failed": 0, "words": 0, "elapsed_s": 0.0, "digest": 0}
              for mode in ("plain", "traced")}
    for k, first in enumerate(range(0, count, size)):
        for mode in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            total = totals[mode]
            options = dict(first=first, count=min(size, count - first), digest=total["digest"])
            if mode == "plain":
                batch = run_requests(workload, state, **options)
            else:
                tracer.install()
                try:
                    batch = run_requests(workload, state, tracer=tracer, **options)
                finally:
                    tracer.restore()
            for key in ("attempted", "failed", "words", "elapsed_s"):
                total[key] += batch[key]
            total["digest"] = batch["digest"]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--phase", required=True, choices=("timed", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--first", type=int, default=0, help="index of the first request")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", help="CSV file for the traced phase's spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    inputs = workload.generate(args.seed)
    generate_s = time.monotonic() - started
    state = workload.setup(inputs)
    result = {"setup_s": time.monotonic() - args.t0 - generate_s}

    if args.phase == "timed":
        deadline = time.perf_counter() + args.seconds
        result.update(run_timed(workload, state, first=args.first, deadline=deadline))
    else:
        tracer = tracing.Tracer()
        result.update(run_traced(workload, state, tracer))
        result["functions"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
