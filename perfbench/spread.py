"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``), one run at a time, and prints every run's metrics. For
each metric it prints the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound. Exits 1 if any run
fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        row = {name: result["metrics"][name]["value"] for name in bounds}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: correct {result['correct']}, "
              + ", ".join(f"{name} {value:.6g}" for name, value in row.items()), flush=True)

    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<18} median {median:.6g}  spread {(q3 - q1) / median:.4f}  "
              f"bound/3 {bounds[name] / 3:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
