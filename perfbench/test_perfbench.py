"""Smoke tests of the benchmark itself.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
Each workload runs for one second, so the numbers are meaningless; the
tests check the result's shape, that the checks catch a wrong circuit,
that tracing restores what it wraps, and that call counts repeat exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from revlogic import cli, designs, gates  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, *BENCH["command"][1:]), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.cache
def bench_result(workload: str, trace: int) -> dict:
    return result_of(run_bench(workload, trace))


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(workload, trace, section):
    result = bench_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH[section]}
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_call_counts_repeat_exactly(workload):
    def calls(result):
        return {name: metric["value"] for name, metric in result["metrics"].items()
                if name.endswith(".calls")}

    first = bench_result(workload, 1)
    assert calls(result_of(run_bench(workload, 1))) == calls(first)
    if workload == "verify-exhaustive":
        requests = first["metrics"]["traced_requests"]["value"]
        assert first["metrics"]["netlist.Circuit.simulate.calls"]["value"] == 20000 * requests


def test_reference_reading_leaves_the_garbage_collector_on():
    assert reference.speed(3) > 0
    assert gc.isenabled()


def test_timed_run_reports_reference_and_cpu_time():
    workload = workloads.WORKLOADS["sim-sampled"]
    state = workload.setup(workload.generate(1))
    run = worker.run_timed(workload, state, first=0, deadline=time.perf_counter() + 0.5)
    assert run["attempted"] == len(run["latencies_s"]) == len(run["cpu_latencies_s"]) > 0
    assert run["failed"] == 0 and run["words"] == 64 * run["attempted"]
    assert len(run["speeds"]) >= 1 and run["elapsed_s"] > 0 and run["cpu_elapsed_s"] > 0


def swapped_adder(digits: int):
    """The n-digit adder rebuilt with the wires of its two lowest sum bits swapped."""
    plan = workloads.plan_from_circuit(designs.build_bcd_adder_n(digits))
    outputs = list(plan.outputs)
    (line_a, label_a), (line_b, label_b) = outputs[-2:]
    outputs[-2:] = [(line_b, label_a), (line_a, label_b)]
    return workloads.build(dataclasses.replace(plan, outputs=tuple(outputs)),
                           gates.catalog_by_name())


def test_wrong_circuit_raises_error_rate_in_sim_sampled():
    workload = workloads.WORKLOADS["sim-sampled"]
    state = workload.setup(workload.generate(1), circuit=swapped_adder(workload.digits))
    run = worker.run_requests(workload, state, count=4)
    assert run["attempted"] == 4
    assert run["failed"] / run["attempted"] > 0


def test_wrong_circuit_raises_error_rate_in_verify_exhaustive(monkeypatch):
    workload = workloads.WORKLOADS["verify-exhaustive"]
    wrong = swapped_adder(workload.digits)
    monkeypatch.setattr(designs, "build_bcd_adder_n", lambda n: wrong)
    run = worker.run_requests(workload, None, count=1)
    assert run["failed"] / run["attempted"] == 1


def test_tracer_wraps_every_binding_and_restores_it():
    original = designs.verify_bcd_adder
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert designs.verify_bcd_adder is not original
        assert cli.verify_bcd_adder is designs.verify_bcd_adder
        tracer.run_request(0, designs.verify_bcd_adder, 1)
    finally:
        tracer.restore()
    assert designs.verify_bcd_adder is original and cli.verify_bcd_adder is original
    tracer.install()
    try:
        assert cli.verify_bcd_adder is designs.verify_bcd_adder is not original
    finally:
        tracer.restore()
    assert designs.verify_bcd_adder is original and cli.verify_bcd_adder is original
    assert len(tracer.names) == 1 + len(tracing.TRACED)
    summary = tracer.summary()
    assert summary["designs.verify_bcd_adder"]["calls"] == 1
    assert summary["netlist.Circuit.simulate"]["calls"] == 200
    assert summary["designs.build_bcd_adder_n"]["calls"] == 1


def test_fails_without_a_result_where_the_program_is_missing():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(NAMES[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
