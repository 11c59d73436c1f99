"""Bit-parallel simulation against the scalar reference.

`Circuit.simulate_planes`, `Circuit.mapping` and `verify_bcd_adder` run
on planes; the tests here check them word for word against scalar
`Circuit.simulate`, which stays the reference path. Verify's parts, its
batch source, plane check and record builder, are called directly with
a circuit and a layout.
"""

from __future__ import annotations

import dataclasses
import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gates, sealed_circuits
from revlogic import designs
from revlogic.cli import EXIT_FAIL, main
from revlogic.designs import (
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_ripple_adder4,
    encode_bcd_operands,
    oracle_bcd_add_number,
    verify_bcd_adder,
)
from revlogic.gates import BitWord, GateDef, catalog_by_name
from revlogic.netlist import Circuit, Instance, WidthMismatch, new_circuit, tile
from test_simulate import NOT, build_custom_circuit


def pack(words: list[int], width: int) -> list[int]:
    """Planes for input words given as MSB-first ints: bit j of plane i is
    bit i of word j."""
    return [
        sum(((w >> (width - 1 - i)) & 1) << j for j, w in enumerate(words))
        for i in range(width)
    ]


def unpack(planes: list[int], j: int) -> BitWord:
    return BitWord(tuple((plane >> j) & 1 for plane in planes))


def check_planes_match_scalar(circuit, words: list[int]) -> None:
    outputs, garbage = circuit.simulate_planes(pack(words, circuit.width), len(words))
    for j, value in enumerate(words):
        want = circuit.simulate(BitWord.from_int(value, circuit.width))
        assert (unpack(outputs, j), unpack(garbage, j)) == want


class TestSimulatePlanes:
    @given(sealed_circuits())
    def test_full_enumeration_matches_scalar(self, circuit):
        check_planes_match_scalar(circuit, list(range(1 << circuit.width)))

    @given(st.data())
    def test_random_words_match_scalar(self, data):
        circuit = data.draw(sealed_circuits())
        words = data.draw(st.lists(st.integers(0, (1 << circuit.width) - 1),
                                   min_size=1, max_size=40))
        check_planes_match_scalar(circuit, words)

    def test_shipped_four_digit_adder_on_sampled_words(self):
        circuit = build_bcd_adder_n(4)
        words = [encode_bcd_operands(a, b, cin, 4).to_int()
                 for a, b, cin in [(0, 0, 0), (9999, 9999, 1), (1234, 8766, 0),
                                   (5000, 4999, 1), (9, 1, 0)]]
        words.append((1 << circuit.width) - 1)  # non-BCD operands too
        check_planes_match_scalar(circuit, words)

    def test_width_and_range_checked(self):
        circuit = build_bcd_adder_digit()
        with pytest.raises(WidthMismatch):
            circuit.simulate_planes([0] * 8, 4)
        with pytest.raises(ValueError):
            circuit.simulate_planes([0] * 8 + [0b10000], 4)


class TestMapping:
    @settings(max_examples=50)
    @given(sealed_circuits())
    def test_mapping_is_scalar_per_word(self, circuit):
        assert circuit.mapping() == [
            circuit.simulate(BitWord.from_int(v, circuit.width))
            for v in range(1 << circuit.width)
        ]

    # The custom circuit's NOT gates have ANF A^1, whose constant term no
    # catalog gate has.
    @pytest.mark.parametrize(
        "build", [build_bcd_adder_digit, build_ripple_adder4, build_custom_circuit])
    def test_shipped_designs(self, build):
        circuit = build()
        assert circuit.mapping() == [
            circuit.simulate(BitWord.from_int(v, circuit.width))
            for v in range(1 << circuit.width)
        ]


@st.composite
def drawn_gate_circuits(draw):
    """One to three gates, each `random_gates`' (arity 1 to 6, so generated
    kernels and the interpreted wide-gate one) or the NOT gate (whose ANF
    A^1 has the constant monomial), placed on random lines of a pool of up
    to 7, at most 6 of them inputs, then a random output/garbage split."""
    placed = draw(st.lists(st.one_of(random_gates(), st.just(NOT)), min_size=1, max_size=3))
    pool_size = max(gate.arity for gate in placed) + draw(st.integers(0, 1))
    n_inputs = draw(st.integers(1, min(pool_size, 6)))
    builder = new_circuit([f"i{k}" for k in range(n_inputs)])
    pool = [*builder.inputs, *[builder.add_constant(draw(st.integers(0, 1)))
                               for _ in range(pool_size - n_inputs)]]
    for gate in placed:
        picks = draw(st.permutations(range(pool_size)))[:gate.arity]
        for k, wire in zip(picks, builder.add_gate(gate, [pool[k] for k in picks])):
            pool[k] = wire
    n_out = draw(st.integers(0, pool_size))
    for k, wire in enumerate(pool[:n_out]):
        builder.mark_output(wire, f"o{k}")
    for wire in pool[n_out:]:
        builder.mark_garbage(wire)
    return builder.seal()


def check_kernel_against_rows(gate) -> None:
    """The gate's plane kernel on all 2^n words at once: pin p's plane has
    bit j set where input word j (MSB-first) has pin p set."""
    n, count = gate.arity, len(gate.rows)
    planes = pack(list(range(count)), n)
    outs = gate.plane_kernel(*planes, (1 << count) - 1)
    assert pack(list(gate.rows), n) == list(outs), gate.name


# The plane kernels, generated up to 4 inputs and interpreted above, meet
# scalar `simulate` on every word; a gate's name never enters a kernel.
@settings(max_examples=60)
@given(drawn_gate_circuits())
def test_drawn_gates_on_planes_match_scalar(circuit):
    for gate in catalog_by_name().values():
        check_kernel_against_rows(gate)
    for inst in circuit.instances:
        check_kernel_against_rows(inst.gate)
    check_planes_match_scalar(circuit, list(range(1 << circuit.width)))
    assert circuit.mapping() == [circuit.simulate(BitWord.from_int(v, circuit.width))
                                 for v in range(1 << circuit.width)]
    hostile = GateDef("x); import os; (", catalog_by_name()["NG"].rows)
    builder = new_circuit(["a", "b", "c"])
    for k, wire in enumerate(builder.add_gate(hostile, builder.inputs)):
        builder.mark_output(wire, f"y{k}")
    check_planes_match_scalar(builder.seal(), list(range(8)))


# The term-by-term evaluation shares no code with the Möbius transform.
@given(random_gates())
def test_anf_reproduces_every_catalog_table(drawn):
    for gate in [*catalog_by_name().values(), drawn]:
        for word in range(len(gate.rows)):
            ins = [(word >> (gate.arity - 1 - p)) & 1 for p in range(gate.arity)]
            out = 0
            for monomials in gate.anf:
                bit = 0
                for monomial in monomials:
                    bit ^= all(ins[p] for p in monomial)
                out = (out << 1) | bit
            assert out == gate.rows[word], (gate.name, word)


@pytest.mark.parametrize("block, length, repeats", [(0b10, 2, 5), (0b011, 3, 4),
                                                    (1, 7, 1), (0b1, 1, 0)])
def test_tile_is_block_times_repunit(block, length, repeats):
    repunit = ((1 << length * repeats) - 1) // ((1 << length) - 1)
    assert tile(block, length, repeats) == block * repunit


@pytest.mark.parametrize("length, repeats, argument", [(1, -1, "repeats"), (3, -5, "repeats"),
                                                       (0, 3, "length"), (-2, 3, "length")])
def test_tile_rejects_bad_arguments(length, repeats, argument):
    # A negative count would otherwise double the piece without end.
    with pytest.raises(ValueError, match=f"^tile {argument} must be "):
        tile(1, length, repeats)


# The (run, count) shapes the batch source asks `_digit_planes` for: each
# of the low `shared` digits p is built over one turn of a_p.
DIGIT_PLANE_SHAPES = sorted({(run, 20 * 10**(shared + p))
                             for shared in range(1, designs.MAX_DIGITS)
                             for p in range(shared)
                             for run in (2 * 10**(shared + p), 2 * 10**p)})


def test_digit_planes_equal_one_tile_per_value():
    for run, count in DIGIT_PLANE_SHAPES:
        per_value = [tile(((1 << run) - 1) << (run * x), 10 * run, count // (10 * run))
                     for x in range(10)]
        assert designs._digit_planes(run, count) == per_value, (run, count)
        if count <= 200:
            for j in range(count):
                assert [(p >> j) & 1 for p in per_value].index(1) == j // run % 10


def full_width_shared_planes(shared: int):
    """Reference for the batch source's shared planes: every shared digit's
    indicator planes built at the batch's full width, one tile per value,
    and added by value pairs with the carry's complement taken as ~carry."""
    low = 10**shared
    count = 2 * low * low

    def indicators(run):
        return [tile(((1 << run) - 1) << (run * x), 10 * run, count // (10 * run))
                for x in range(10)]

    def nibbles(planes):
        return [functools.reduce(operator.or_, (plane for x, plane in enumerate(planes)
                                                if (x >> (3 - k)) & 1))
                for k in range(4)]

    carry = tile(0b10, 2, low * low)
    a_lower, b_lower, want_lower = [], [], []
    for p in range(shared):
        a, b = indicators(2 * low * 10**p), indicators(2 * 10**p)
        digit, carry_out = [0] * 10, 0
        for x in range(10):
            for y in range(10):
                both = a[x] & b[y]
                for total, words in ((x + y, both & ~carry), (x + y + 1, both & carry)):
                    digit[total % 10] |= words
                    if total >= 10:
                        carry_out |= words
        a_lower[:0] = nibbles(a)
        b_lower[:0] = nibbles(b)
        want_lower[:0] = nibbles(digit)
        carry = carry_out
    return a_lower, b_lower, want_lower, carry


# Every layout verify uses at its own batch size (batch_words None), for
# 1-4 digits, and the 1- and 2-digit layouts a batch of 0 or 200 words
# would take. The first batch fixes its top digits, if any, to 0, so its
# planes above the shared digits are 0 but for the lowest expected one,
# which is the shared carry-out.
@pytest.mark.parametrize("digits, batch_words, shared", [
    (1, None, 1), (2, None, 2), (3, None, 2), (4, None, 3),
    (1, 0, 0), (2, 0, 1), (1, 200, 1), (2, 200, 1)])
def test_shared_planes_equal_full_width_construction(digits, batch_words, shared):
    if batch_words is None:
        assert designs._shared_digits(digits) == shared
    a0, b0, low, inputs, expected = next(designs._bcd_batches(digits, shared))
    assert (a0, b0, low) == (0, 0, 10**shared)
    a_lower, b_lower, want_lower, carry = full_width_shared_planes(shared)
    top = [0] * 4 * (digits - shared)
    assert inputs == top + a_lower + top + b_lower + [tile(0b10, 2, low * low)]
    assert expected == top + [carry] + want_lower
    for plane in [*inputs, *expected]:
        assert 0 <= plane < 1 << 2 * 100**shared


# Every layout the tests use: 1 and 2 digits at every shared count, and
# 3 digits at verify's own. Each case is one word of one batch: the
# offsets place every (a, b) row of words exactly once, and on up to
# 20 000 cases every word's input bits are its case's encoding. No
# circuit and no oracle is involved.
@pytest.mark.parametrize("digits, shared", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 2)])
def test_batches_hold_every_case_once(digits, shared):
    n = 10**digits
    seen = bytearray(2 * n * n)
    batches = 0
    for a0, b0, low, inputs, _ in designs._bcd_batches(digits, shared):
        batches += 1
        count = 2 * low * low
        assert low == 10**shared and a0 % low == b0 % low == 0
        assert all(0 <= plane < 1 << count for plane in inputs)
        for a_low in range(low):
            # Words (a_low * low + b_low) * 2 + cin for every b_low and cin.
            start = ((a0 + a_low) * n + b0) * 2
            assert not any(seen[start : start + 2 * low]), (a0 + a_low, b0)
            seen[start : start + 2 * low] = b"\x01" * (2 * low)
        if n <= 100:
            for j in range(count):
                a_low, b_low = divmod(j >> 1, low)
                assert unpack(inputs, j) == encode_bcd_operands(
                    a0 + a_low, b0 + b_low, j & 1, digits), j
    assert batches == 100**(digits - shared)
    assert all(seen)


def scalar_failures(circuit, digits: int):
    """Reference verify loop: one scalar simulate per case, bit-exact."""
    limit = 10**digits
    for a in range(limit):
        for b in range(limit):
            for cin in (0, 1):
                outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin, digits))
                cout, total = oracle_bcd_add_number(a, b, cin, digits)
                want = str(cout) + "".join(f"{int(d):04b}" for d in f"{total:0{digits}d}")
                if str(outputs) != want:
                    yield a, b, cin


def flipped(circuit, index: int):
    constants = list(circuit.constants)
    constants[index] ^= 1
    return dataclasses.replace(circuit, constants=tuple(constants))


def swapped_inputs(circuit, i: int, j: int):
    """`circuit` with primary inputs i and j exchanged at every pin."""
    swap = {("in", i): ("in", j), ("in", j): ("in", i)}
    return dataclasses.replace(circuit, instances=tuple(
        Instance(gate, tuple(swap.get(s, s) for s in sources))
        for gate, sources in circuit.instances))


@functools.cache
def two_digit_mutant(index: int):
    """The 2-digit adder with constant `index` flipped, and its failing
    cases in one batch.

    Each mutant is checked once and shared by the tests that read it;
    none of them changes the result.
    """
    mutant = flipped(build_bcd_adder_n(2), index)
    return mutant, designs._failing_cases(mutant, designs._bcd_batches(2, 2))


class TestVerifyAgainstScalar:
    @pytest.mark.parametrize("digits", [1, 2])
    def test_shipped_adder_passes_both(self, digits):
        assert list(scalar_failures(build_bcd_adder_n(digits), digits)) == []
        assert verify_bcd_adder(digits) == (2 * 100**digits, [])

    def test_one_digit_mutants_fail_identically(self):
        adder = build_bcd_adder_n(1)
        for index in range(len(adder.constants)):
            mutant = flipped(adder, index)
            cases = designs._failing_cases(mutant, designs._bcd_batches(1, 1))
            reference = list(scalar_failures(mutant, 1))
            assert reference, index
            assert cases == reference, index
            records = designs._failure_records(mutant, 1, cases)
            assert [f[:3] for f in records] == reference, index

    # A constant flip fails a set of cases symmetric in a and b, as the
    # adder adds them alike. Swapping a's first input with b's last does
    # not, so this pins which of a word's digits are a's and which b's.
    @pytest.mark.parametrize("digits, shared", [(1, 1), (1, 0), (2, 2), (2, 1)])
    def test_asymmetric_mutant_fails_identically(self, digits, shared):
        mutant = swapped_inputs(build_bcd_adder_n(digits), 0, 8 * digits - 1)
        cases = designs._failing_cases(mutant, designs._bcd_batches(digits, shared))
        assert cases == list(scalar_failures(mutant, digits))
        assert cases != sorted((b, a, cin) for a, b, cin in cases)

    @pytest.mark.parametrize("index", range(12))
    def test_two_digit_mutants_fail_in_both(self, index):
        mutant, cases = two_digit_mutant(index)
        first = next(scalar_failures(mutant, 2), None)
        assert first is not None
        assert cases and cases[0] == first

    # One simulate_planes call per batch: at verify's own batch size
    # (batch_words None) one batch up to two digits and 100 at three; a
    # batch of 0 or 200 words puts 1 or 2 digits in 100 (shared n - 1).
    # The wrapper only counts; verify runs to the end.
    @pytest.mark.parametrize("digits, batch_words, calls", [
        (1, None, 1), (2, None, 1), (3, None, 100), (1, 0, 100), (2, 200, 100),
    ])
    def test_one_batch_up_to_two_digits(self, monkeypatch, digits, batch_words, calls):
        seen = []
        simulate_planes = Circuit.simulate_planes

        def counted(circuit, planes, count):
            seen.append(count)
            return simulate_planes(circuit, planes, count)

        monkeypatch.setattr(Circuit, "simulate_planes", counted)
        if batch_words is None:
            assert verify_bcd_adder(digits) == (2 * 100**digits, [])
        else:
            batches = designs._bcd_batches(digits, digits - 1)
            assert designs._failing_cases(build_bcd_adder_n(digits), batches) == []
        assert seen == [2 * 100**digits // calls] * calls

    def test_plane_error_that_scalar_does_not_repeat_raises(self):
        # The planes report 0 + 0 + 0 failing; scalar `simulate` gets that
        # case right, so the planes are at fault.
        with pytest.raises(RuntimeError, match=r"^plane and scalar simulation "
                                               r"disagree on 0 \+ 0 \+ 0$"):
            designs._failure_records(build_bcd_adder_n(1), 1, [(0, 0, 0)])

    def test_one_digit_mutants_chunked_as_in_one_batch(self):
        adder = build_bcd_adder_n(1)
        for index in range(len(adder.constants)):
            mutant = flipped(adder, index)
            one_batch = designs._failing_cases(mutant, designs._bcd_batches(1, 1))
            assert one_batch, index
            assert designs._failing_cases(mutant, designs._bcd_batches(1, 0)) == one_batch, index

    @pytest.mark.parametrize("index", range(12))
    def test_two_digit_mutants_chunked_as_in_one_batch(self, index):
        mutant, one_batch = two_digit_mutant(index)
        assert one_batch
        assert designs._failing_cases(mutant, designs._bcd_batches(2, 1)) == one_batch

    def test_aliased_outputs_count_as_failures(self):
        # 0 + 9 + 1 outputs 0 0000 1010: the low nibble is not BCD but
        # decodes to 10, the right number. Only the bits show the fault.
        mutant, cases = two_digit_mutant(3)
        assert (0, 9, 1) in cases
        assert cases == sorted(cases)
        [record] = designs._failure_records(mutant, 2, [(0, 9, 1)])
        assert record.got == record.want == (0, 10)
        assert (str(record.got_bits), str(record.want_bits)) == ("000001010", "000010000")

    def test_cli_prints_raw_bits_of_failures(self, monkeypatch, capsys):
        mutant = flipped(build_bcd_adder_n(2), 3)
        monkeypatch.setattr(designs, "build_bcd_adder_n", lambda n: mutant)
        assert main(["bcd", "verify", "--digits", "2"]) == EXIT_FAIL
        lines = capsys.readouterr().out.splitlines()
        got, _ = mutant.simulate(encode_bcd_operands(0, 0, 0, 2))
        assert lines[0] == "0/20000 cases pass"
        assert lines[1] == (f"FAIL: 0 + 0 + 0: circuit {got} -> "
                            f"{designs.decode_bcd_result(got, 2)}, "
                            f"oracle 000000000 -> (0, 0)")
        assert lines[-1] == "... and 19990 more"
