"""Acceptance gate: the eight headline criteria, one test each, plus the
exhaustive 3- and 4-digit cascade checks.

Every criterion test prints a single `criterion N PASS/FAIL: ...` line
directly to the terminal (bypassing capture) with the measured quantity
and, where a criterion carries one, its time bound. Tolerances are
exact-match unless a runtime bound is stated.
"""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import build_from_plan, circuit_plans
from revlogic.cli import main
from revlogic.designs import (
    bcd_digit_stage_tags,
    build_bcd_adder_digit,
    build_correction_stage,
    build_ripple_adder4,
    eval_correction_eq1,
    eval_correction_eq2,
    oracle_bcd_add,
    verify_bcd_adder,
)
from revlogic.gates import BitWord, builtin_catalog
from revlogic.metrics import analyze, delay_decomposition
from revlogic.netlist import FanOutViolation, ValidationFailed


def _report(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_exhaustive_bcd_correctness(capsys):
    start = time.perf_counter()
    code = main(["bcd", "verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and "200/200 cases pass" in out and elapsed < 1.0
    _report(capsys, 1, ok,
            f"bcd verify: 200/200 exact, {elapsed:.3f}s (bound 1s)")


def test_criterion_2_proposed_row_reproduction(capsys):
    digit = analyze(build_bcd_adder_digit())
    adder1 = analyze(build_ripple_adder4())
    correction = analyze(build_correction_stage())
    ok = (
        (digit.gate_count, digit.garbage_count,
         digit.constant_count, digit.delay_levels) == (8, 10, 6, 8)
        and (adder1.gate_count, adder1.garbage_count,
             adder1.constant_count) == (4, 8, 4)
        and (correction.gate_count, correction.garbage_count,
             correction.constant_count) == (1, 0, 0)
    )
    _report(capsys, 2, ok,
            f"metrics exact: digit {digit.gate_count}/{digit.garbage_count}"
            f"/{digit.constant_count}/delay {digit.delay_levels}, "
            f"adder-1 {adder1.gate_count}/{adder1.garbage_count}"
            f"/{adder1.constant_count}, correction {correction.gate_count}"
            f"/{correction.garbage_count}/{correction.constant_count}")


def test_criterion_3_delay_decomposition(capsys):
    decomposition = delay_decomposition(
        build_bcd_adder_digit(), bcd_digit_stage_tags())
    ok = (decomposition == {"adder1": 4, "correction": 1, "adder2": 3}
          and sum(decomposition.values()) == 8)
    _report(capsys, 3, ok, f"stage split exact: {decomposition}, sum 8")


def test_criterion_4_gate_catalog_soundness(capsys):
    start = time.perf_counter()
    gates = builtin_catalog()
    sound = True
    for gate in gates:
        sound &= len(set(gate.rows)) == len(gate.rows)
        inverse = gate.inverse()
        for value in range(1 << gate.arity):
            word = BitWord.from_int(value, gate.arity)
            sound &= inverse.apply(gate.apply(word)) == word
    elapsed = time.perf_counter() - start
    ok = sound and len(gates) == 7 and elapsed < 1.0
    _report(capsys, 4, ok,
            f"7 gates bijective, inverse*apply == id exhaustively, "
            f"{elapsed:.3f}s (bound 1s)")


def test_criterion_5_correction_equivalence(capsys):
    reachable_equal = True
    for a, b, cin in itertools.product(range(10), range(10), (0, 1)):
        total = a + b + cin
        c4, s3, s2, s1 = [(total >> k) & 1 for k in (4, 3, 2, 1)]
        reachable_equal &= (eval_correction_eq1(s3, s2, s1, c4)
                            == eval_correction_eq2(s3, s2, s1, c4)
                            == oracle_bcd_add(a, b, cin)[0])
    disagreements = [
        pattern
        for pattern in range(16)
        if eval_correction_eq1(*[(pattern >> k) & 1 for k in (3, 2, 1, 0)])
        != eval_correction_eq2(*[(pattern >> k) & 1 for k in (3, 2, 1, 0)])
    ]
    ok = reachable_equal and len(disagreements) >= 1 and 0b1111 in disagreements
    _report(capsys, 5, ok,
            f"Eq1 == Eq2 == decimal carry on all 200 reachable states; "
            f"{len(disagreements)}/16 free patterns disagree (incl. 1111)")


def test_criterion_6_recoverability(capsys):
    start = time.perf_counter()
    rows = build_bcd_adder_digit().mapping()
    images = {(outputs.bits, garbage.bits) for outputs, garbage in rows}
    elapsed = time.perf_counter() - start
    ok = len(rows) == 512 and len(images) == 512 and elapsed < 1.0
    _report(capsys, 6, ok,
            f"512-word map injective ({len(images)} distinct images), "
            f"{elapsed:.3f}s (bound 1s)")


def test_criterion_7_structural_enforcement(capsys):
    @settings(max_examples=60)
    @given(circuit_plans())
    def fan_out_always_raises(plan):
        builder, pool, consumed = build_from_plan(plan)
        wire = consumed[0] if consumed else pool[0]
        if not consumed:
            builder.mark_garbage(wire)
        with pytest.raises(FanOutViolation):
            builder.mark_garbage(wire)
        with pytest.raises(FanOutViolation):
            builder.mark_output(wire, "again")

    @settings(max_examples=60)
    @given(circuit_plans())
    def dangling_always_fails(plan):
        builder, pool, _ = build_from_plan(plan)
        for extra in pool[1:]:
            builder.mark_garbage(extra)
        with pytest.raises(ValidationFailed):
            builder.seal()

    ok = True
    try:
        fan_out_always_raises()
        dangling_always_fails()
    except BaseException:
        ok = False
        _report(capsys, 7, ok, "property tests for FanOutViolation/ValidationFailed")
        raise
    _report(capsys, 7, ok,
            "property tests: double consumption raises FanOutViolation, "
            "dangling wires fail sealing (60 random circuits each)")


def test_criterion_8_cascade_correctness(capsys):
    start = time.perf_counter()
    total, failures = verify_bcd_adder(2)
    elapsed = time.perf_counter() - start
    ok = total == 20000 and not failures and elapsed < 10.0
    _report(capsys, 8, ok,
            f"2-digit cascade: {total - len(failures)}/{total} exact vs "
            f"decimal oracle, {elapsed:.2f}s (bound 10s)")


@pytest.mark.parametrize("digits, cases, bound_s", [(3, 2_000_000, 10.0),
                                                    (4, 200_000_000, 60.0)])
def test_exhaustive_wide_cascades(digits, cases, bound_s):
    start = time.perf_counter()
    result = verify_bcd_adder(digits)
    elapsed = time.perf_counter() - start
    assert result == (cases, [])
    assert elapsed < bound_s, f"{digits} digits took {elapsed:.2f}s (bound {bound_s}s)"
