"""Scalar `Circuit.simulate` against an independent reference.

`simulate` has two tiers. A circuit's first `COMPILE_AFTER - 1` calls
run each gate as a gather of its input slots, a lookup in
`GateDef.bit_rows` and a slice store into its output pins; later calls
run a compiled straight-line function making the same lookups. The
reference below walks the instances over a `{source: bit}` dict with
`GateDef.apply`, which reads the truth table directly, so neither tier
shares anything with it but the circuit.
"""

from __future__ import annotations

import io
import itertools
import pickle
import random
import re
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sealed_circuits
from revlogic.designs import (
    build_bcd_adder_digit,
    build_correction_stage,
    encode_bcd_operands,
)
from revlogic.gates import BitWord, GateDef, TruthTable, catalog_by_name, make_gate
from revlogic.netlist import COMPILE_AFTER, WidthMismatch, new_circuit


def reference_simulate(circuit, word: BitWord) -> tuple[BitWord, BitWord]:
    value = {("in", i): bit for i, bit in enumerate(word)}
    value.update((("const", j), bit) for j, bit in enumerate(circuit.constants))
    for idx, inst in enumerate(circuit.instances):
        outs = inst.gate.apply(BitWord(tuple(value[s] for s in inst.sources)))
        value.update((("gate", idx, pin), bit) for pin, bit in enumerate(outs))
    return (BitWord(tuple(value[s] for _, s in circuit.outputs)),
            BitWord(tuple(value[s] for s in circuit.garbage)))


def check_matches_reference(circuit, values) -> None:
    """Compare words with the reference on both tiers of a fresh circuit.

    The interpreted calls cycle through `values` until the next call is
    the one that compiles; then every value runs once more, compiled.
    """
    words = [BitWord.from_int(value, circuit.width) for value in values]
    for word in itertools.islice(itertools.cycle(words), COMPILE_AFTER - 1):
        assert circuit.simulate(word) == reference_simulate(circuit, word), word
    assert circuit._kernel is None
    for word in words:
        assert circuit.simulate(word) == reference_simulate(circuit, word), word
        assert circuit._kernel is not None
    # The kernel is the circuit's state; `simulate` stays the class's method.
    assert "simulate" not in vars(circuit)


NOT = make_gate("NOT", 1, [lambda a: a ^ 1])
# A 5-input Toffoli and a 6-input gate that rotates its pins and flips
# the last one under three controls: arities no catalog gate has.
TOFFOLI5 = make_gate("T5", 5, [lambda a, b, c, d, e: a,
                               lambda a, b, c, d, e: b,
                               lambda a, b, c, d, e: c,
                               lambda a, b, c, d, e: d,
                               lambda a, b, c, d, e: e ^ (a & b & c & d)])
ROT6 = make_gate("ROT6", 6, [lambda a, b, c, d, e, f: b,
                             lambda a, b, c, d, e, f: c,
                             lambda a, b, c, d, e, f: d,
                             lambda a, b, c, d, e, f: e,
                             lambda a, b, c, d, e, f: f ^ (a & b & c),
                             lambda a, b, c, d, e, f: a])


def build_custom_circuit():
    """NOT, T5 and ROT6 chained over 5 inputs and 2 constants."""
    builder = new_circuit([f"x{i}" for i in range(5)])
    lines = list(builder.inputs) + [builder.add_constant(1), builder.add_constant(0)]
    (lines[0],) = builder.add_gate(NOT, [lines[0]])
    lines[1:6] = builder.add_gate(TOFFOLI5, lines[1:6])
    (lines[6],) = builder.add_gate(NOT, [lines[6]])
    lines[:6] = builder.add_gate(ROT6, lines[:6])
    lines[2:7] = builder.add_gate(TOFFOLI5, lines[2:7])
    for k, wire in enumerate(lines[:5]):
        builder.mark_output(wire, f"o{k}")
    for wire in lines[5:]:
        builder.mark_garbage(wire)
    return builder.seal()


class TestAgainstReference:
    @settings(max_examples=150)
    @given(sealed_circuits())
    def test_random_circuits_every_word(self, circuit):
        check_matches_reference(circuit, range(1 << circuit.width))

    def test_custom_arity_1_5_and_6_gates(self):
        check_matches_reference(build_custom_circuit(), range(1 << 5))

    def test_single_not_gate(self):
        builder = new_circuit(["a"])
        (out,) = builder.add_gate(NOT, builder.inputs)
        builder.mark_output(out, "y")
        circuit = builder.seal()
        assert circuit.simulate(BitWord((0,))) == (BitWord((1,)), BitWord(()))
        assert circuit.simulate(BitWord((1,))) == (BitWord((0,)), BitWord(()))

    def test_zero_garbage(self):
        circuit = build_correction_stage()
        assert circuit.garbage == ()
        check_matches_reference(circuit, range(1 << circuit.width))
        assert circuit.simulate(BitWord((1, 1, 1, 0)))[1] == BitWord(())

    def test_one_output_and_one_garbage(self):
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(catalog_by_name()["FG"], builder.inputs)
        builder.mark_output(q, "q")
        builder.mark_garbage(p)
        circuit = builder.seal()
        check_matches_reference(circuit, range(4))
        assert circuit.simulate(BitWord((1, 0))) == (BitWord((1,)), BitWord((1,)))

    def test_no_outputs_only_garbage(self):
        builder = new_circuit(["a", "b"])
        for wire in builder.add_gate(catalog_by_name()["FG"], builder.inputs):
            builder.mark_garbage(wire)
        circuit = builder.seal()
        check_matches_reference(circuit, range(4))
        assert circuit.simulate(BitWord((1, 1))) == (BitWord(()), BitWord((1, 0)))

    def test_inputs_wired_straight_through(self):
        builder = new_circuit(["a", "b", "c"])
        a, b, c = builder.inputs
        builder.mark_output(c, "c")
        builder.mark_output(a, "a")
        builder.mark_garbage(b)
        circuit = builder.seal()
        check_matches_reference(circuit, range(8))

    @given(st.lists(st.booleans(), min_size=9, max_size=9))
    def test_boolean_input_bits(self, flags):
        circuit = build_bcd_adder_digit()
        as_bools = BitWord(tuple(flags))
        as_ints = BitWord(tuple(int(f) for f in flags))
        assert circuit.simulate(as_bools) == circuit.simulate(as_ints)
        assert circuit.simulate(as_bools) == reference_simulate(circuit, as_ints)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            build_bcd_adder_digit().simulate(BitWord((0, 1)))


class TestCompiledTier:
    def test_constants_marked_as_output_and_garbage(self):
        builder = new_circuit(["a"])
        one, zero = builder.add_constant(1), builder.add_constant(0)
        (flipped,) = builder.add_gate(NOT, builder.inputs)
        builder.mark_output(one, "one")
        builder.mark_garbage(zero)
        builder.mark_output(flipped, "not_a")
        circuit = builder.seal()
        check_matches_reference(circuit, range(2))
        assert circuit.simulate(BitWord((0,))) == (BitWord((1, 1)), BitWord((0,)))

    @pytest.mark.parametrize("build", [build_bcd_adder_digit, build_correction_stage])
    def test_boolean_input_bits(self, build):
        circuit = build()
        values = range(1 << circuit.width)
        for value in itertools.islice(itertools.cycle(values), COMPILE_AFTER + len(values)):
            as_ints = BitWord.from_int(value, circuit.width)
            as_bools = BitWord(tuple(bool(bit) for bit in as_ints))
            assert circuit.simulate(as_bools) == reference_simulate(circuit, as_ints)
        assert circuit._kernel is not None

    def test_width_mismatch_same_on_both_tiers(self):
        circuit = build_bcd_adder_digit()
        with pytest.raises(WidthMismatch) as cold:
            circuit.simulate(BitWord((0, 1)))
        check_matches_reference(circuit, range(4))
        with pytest.raises(WidthMismatch) as hot:
            circuit.simulate(BitWord((0, 1)))
        assert str(cold.value) == str(hot.value) == "circuit has 9 inputs, got a 2-bit word"

    def test_hot_circuit_pickles_and_recompiles(self):
        circuit = build_correction_stage()
        check_matches_reference(circuit, range(16))
        copy = pickle.loads(pickle.dumps(circuit))
        assert copy == circuit and copy._kernel is None
        word = BitWord((1, 1, 1, 0))
        assert copy.simulate(word) == circuit.simulate(word)
        assert copy._kernel is not None

    def test_source_holds_only_generated_names(self):
        hostile = ["x); import os; (", "__import__('os').system('false')",
                   "a\nraise SystemExit(3)", "R0", "v0", "i1", "kernel"]
        gate = make_gate(hostile[0], 2, [lambda a, b: a, lambda a, b: a ^ b])
        builder = new_circuit(hostile[:4])
        lines = list(builder.inputs) + [builder.add_constant(1)]
        lines[0], lines[4] = builder.add_gate(gate, [lines[0], lines[4]])
        lines[1], lines[2] = builder.add_gate(gate, [lines[1], lines[2]])
        for wire, label in zip(lines[1:], hostile[3:]):
            builder.mark_output(wire, label)
        builder.mark_garbage(lines[0])
        circuit = builder.seal()
        check_matches_reference(circuit, range(16))

        source, namespace = circuit._kernel_source()
        generated = re.compile(r"[ivR][0-9]+|def|kernel|return")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert generated.fullmatch(token.string), token
            elif token.type == tokenize.NUMBER:
                assert token.string in ("0", "1"), token
            else:
                assert token.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                                      tokenize.INDENT, tokenize.DEDENT,
                                      tokenize.ENDMARKER), token
                assert token.type != tokenize.OP or token.string in set("(),:=[]"), token
        for text in hostile[:3]:
            assert text not in source
        assert list(namespace) == ["R0", "R1"]
        assert all(rows is gate.bit_rows for rows in namespace.values())


class TestBitRows:
    def test_rows_match_truth_table(self):
        for gate in (*catalog_by_name().values(), NOT, TOFFOLI5, ROT6):
            for value in range(gate.table.size):
                word = BitWord.from_int(value, gate.arity)
                assert gate.bit_rows[word.bits] == gate.apply(word).bits

    def test_filled_only_as_rows_are_met(self):
        # A 16-input rotation: 2^16 rows in the truth table.
        rows = tuple(((v << 1) | (v >> 15)) & 0xFFFF for v in range(1 << 16))
        gate = GateDef("ROT16", TruthTable(16, rows))
        builder = new_circuit([f"x{i}" for i in range(16)])
        for k, wire in enumerate(builder.add_gate(gate, builder.inputs)):
            builder.mark_output(wire, f"y{k}")
        circuit = builder.seal()
        for value in (0, 1, 0x8001, 0x1234, 1):
            (out, _) = circuit.simulate(BitWord.from_int(value, 16))
            assert out.to_int() == rows[value]
        assert len(gate.bit_rows) == 4
        # Compiled, the circuit reads the same lazy table.
        for value in itertools.islice(itertools.cycle((0, 1, 0x8001, 0x1234)),
                                      COMPILE_AFTER):
            (out, _) = circuit.simulate(BitWord.from_int(value, 16))
            assert out.to_int() == rows[value]
        assert circuit._kernel is not None
        (out, _) = circuit.simulate(BitWord.from_int(0xBEEF, 16))
        assert out.to_int() == rows[0xBEEF]
        assert len(gate.bit_rows) == 5

    @pytest.mark.parametrize("key", [(0,), (0, 1, 1), (0, 2), ("0", "1"), 1])
    def test_bad_keys_rejected_and_not_stored(self, key):
        rows = catalog_by_name()["FG"].bit_rows
        with pytest.raises(KeyError):
            rows[key]
        assert key not in rows


def old_encode(a: int, b: int, cin: int, digits: int) -> BitWord:
    """The adder input word built nibble by nibble, bit by bit."""
    bits: list[int] = []
    for operand in (a, b):
        for d in range(digits - 1, -1, -1):
            nibble = (operand // 10**d) % 10
            bits.extend((nibble >> k) & 1 for k in (3, 2, 1, 0))
    bits.append(cin)
    return BitWord(tuple(bits))


class TestEncodeOperands:
    def test_all_one_digit_triples(self):
        triples = [(a, b, cin) for a in range(10) for b in range(10) for cin in (0, 1)]
        assert len(triples) == 200
        for a, b, cin in triples:
            assert encode_bcd_operands(a, b, cin) == old_encode(a, b, cin, 1)

    @pytest.mark.parametrize("digits", [2, 3, 4])
    def test_seeded_multi_digit_operands(self, digits):
        rng = random.Random(digits)
        limit = 10**digits
        cases = [(0, 0, 0), (limit - 1, limit - 1, 1)]
        cases += [(rng.randrange(limit), rng.randrange(limit), rng.getrandbits(1))
                  for _ in range(300)]
        for a, b, cin in cases:
            word = encode_bcd_operands(a, b, cin, digits)
            assert word.width == 8 * digits + 1
            assert word == old_encode(a, b, cin, digits)

    @pytest.mark.parametrize("args", [(10, 0, 0, 1), (0, -1, 0, 1), (0, 100, 0, 2),
                                      (0, 0, 2, 1), (0, 0, 0, 0)])
    def test_range_checks_kept(self, args):
        with pytest.raises(ValueError):
            encode_bcd_operands(*args)


class TestBitWordChecks:
    @pytest.mark.parametrize("bad", [2, -1, "1", [0], None, 0.5])
    def test_bad_bit_named(self, bad):
        message = f"bit values must be 0 or 1, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            BitWord((0, 1, bad, 1))

    def test_first_bad_bit_named(self):
        with pytest.raises(ValueError, match=re.escape("got [0]")):
            BitWord((1, [0], 2))

    def test_booleans_accepted(self):
        word = BitWord((True, False, True))
        assert word == BitWord((1, 0, 1))
        assert word.to_int() == 5

    def test_from_int_matches_per_bit_construction(self):
        for width in range(0, 9):
            for value in range(1 << width):
                want = tuple((value >> (width - 1 - i)) & 1 for i in range(width))
                assert BitWord.from_int(value, width).bits == want

    def test_from_int_checks_kept(self):
        with pytest.raises(ValueError, match="width must be nonnegative"):
            BitWord.from_int(0, -1)
        with pytest.raises(ValueError, match="value 8 does not fit in 3 bits"):
            BitWord.from_int(8, 3)
        with pytest.raises(ValueError, match="value -1 does not fit in 3 bits"):
            BitWord.from_int(-1, 3)
        assert BitWord.from_int(0, 0) == BitWord(())
