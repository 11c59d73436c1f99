"""Scalar `Circuit.simulate` against an independent reference.

`simulate` has two tiers, and both read each gate's `GateDef.trie`,
the truth table nested one input bit per level. A circuit's first
`COMPILE_AFTER - 1` calls walk each gate's trie one input slot at a
time and append the leaf, whose bits land on the gate's output pins;
later calls run a compiled straight-line function in which each walk is
one indexing expression. The reference below walks the instances over a `{source: bit}` dict with
`GateDef.apply`, which reads the truth table directly, so neither tier
shares anything with it but the circuit. Both tiers, `mapping`,
`BitWord.from_int` and `BitWord.from_string` build their words without
`BitWord`'s check, so `TestUncheckedWords` checks every word they return.
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
from revlogic.gates import BitWord, GateDef, catalog_by_name, make_gate
from revlogic.netlist import COMPILE_AFTER, Circuit, WidthMismatch, new_circuit
from revlogic.netlist_text import emit_netlist


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


NOT = make_gate("NOT", [lambda a: a ^ 1])
# A 5-input Toffoli and a 6-input gate that rotates its pins and flips
# the last one under three controls: arities no catalog gate has.
TOFFOLI5 = make_gate("T5", [lambda a, b, c, d, e: a,
                            lambda a, b, c, d, e: b,
                            lambda a, b, c, d, e: c,
                            lambda a, b, c, d, e: d,
                            lambda a, b, c, d, e: e ^ (a & b & c & d)])
ROT6 = make_gate("ROT6", [lambda a, b, c, d, e, f: b,
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

    def test_float_and_bool_bits_simulate_as_ints(self):
        # A word of floats or bools equal to 0 and 1 is legal. It stores
        # ints, so it prints, compares and simulates as the int word does,
        # on both tiers and from a fresh circuit's first call.
        circuit = build_bcd_adder_digit()
        words = [BitWord.from_int(value, circuit.width) for value in range(1 << 9)]
        for word in itertools.islice(itertools.cycle(words), COMPILE_AFTER + len(words)):
            for kind in (float, bool):
                same = BitWord(tuple(kind(bit) for bit in word))
                assert all(type(bit) is int for bit in same.bits)
                assert (same.bits, str(same), same.to_int()) == (
                    word.bits, str(word), word.to_int())
                assert circuit.simulate(same) == reference_simulate(circuit, word)
        assert circuit._kernel is not None

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

    # Like `GateDef.apply`, `simulate` takes any sequence of bits and
    # checks it as `BitWord` does, on both tiers.
    def test_bit_sequences_on_both_tiers(self):
        circuit = build_bcd_adder_digit()
        word = encode_bcd_operands(9, 9, 1)
        want = reference_simulate(circuit, word)
        for _ in range(COMPILE_AFTER // 4 + 1):
            assert circuit.simulate(tuple(word)) == want
            assert circuit.simulate(list(word)) == want
            assert circuit.simulate([bool(bit) for bit in word]) == want
            assert circuit.simulate(iter(word)) == want
            for bad, error, message in [
                    ("100110011", ValueError, "bit values must be 0 or 1, got '1'"),
                    ((0,) * 8, WidthMismatch, "circuit has 9 inputs, got a 8-bit word")]:
                with pytest.raises(error) as raised:
                    circuit.simulate(bad)
                assert str(raised.value) == message
        assert circuit._kernel is not None
        assert circuit.simulate((0,) * 9) == reference_simulate(circuit, BitWord((0,) * 9))

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
        gate = make_gate(hostile[0], [lambda a, b: a, lambda a, b: a ^ b])
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
        for idx, inst in enumerate(circuit.instances):
            assert namespace[f"R{idx}"] is inst.gate.trie


class TestInterpretedWalk:
    @settings(max_examples=100)
    @given(sealed_circuits(), st.data())
    def test_first_and_later_calls_kernel_and_planes_agree(self, circuit, data):
        # The first interpreted call builds the walk; the later ones reuse
        # it. Every word then runs compiled, and once more on planes.
        words = [BitWord.from_int(value, circuit.width)
                 for value in range(1 << circuit.width)]
        start = data.draw(st.integers(0, len(words) - 1))
        assert "_walk" not in vars(circuit)
        first = circuit.simulate(words[start])
        assert "_walk" in vars(circuit)
        interpreted = [circuit.simulate(word) for word in words]
        while circuit._interpreted < COMPILE_AFTER - 1:
            circuit.simulate(words[0])
        assert circuit._kernel is None
        compiled = [circuit.simulate(word) for word in words]
        assert circuit._kernel is not None
        assert first == interpreted[start]
        assert interpreted == compiled == circuit.mapping()
        assert interpreted == [reference_simulate(circuit, word) for word in words]

    def test_walk_reads_the_plan(self):
        # The custom circuit's gates take 1, 5 and 6 inputs, the digit's
        # 2, 3 and 4: a step holds the latter's slots padded with None to
        # four, and the former's slot tuple followed by three Nones.
        custom = build_custom_circuit()
        plan = custom._plan
        assert plan.fill == (1, 0)
        assert plan.size == 5 + 2 + sum(inst.gate.arity for inst in custom.instances)
        digit = build_bcd_adder_digit()
        assert {len(in_slots) for _, in_slots, _, _ in digit._plan.steps} == {2, 3, 4}
        for circuit in (custom, digit):
            circuit.simulate(BitWord.from_int(0, circuit.width))
            plan = circuit._plan
            assert len(circuit._walk) == len(plan.steps)
            for (trie, *slots), (gate, step_slots, _, _) in zip(circuit._walk, plan.steps):
                assert trie is gate.trie
                if 2 <= len(step_slots) <= 4:
                    assert slots == [*step_slots, *[None] * (4 - len(step_slots))]
                else:
                    assert slots == [step_slots, None, None, None]

    def test_pickled_after_interpreted_calls_drops_the_walk(self):
        circuit = build_custom_circuit()
        words = [BitWord.from_int(value, circuit.width) for value in range(32)]
        results = [circuit.simulate(word) for word in words]
        assert "_walk" in vars(circuit) and circuit._kernel is None
        assert {"_plan", "_walk", "_kernel"}.isdisjoint(circuit.__getstate__())
        copy = pickle.loads(pickle.dumps(circuit))
        assert copy == circuit and "_walk" not in vars(copy)
        assert [copy.simulate(word) for word in words] == results
        assert "_walk" in vars(copy) and copy._kernel is None


class TestBitRows:
    def test_rows_match_truth_table(self):
        # Each gate alone in a circuit: every row the interpreted tier
        # yields is the truth table's row for that input.
        for gate in (*catalog_by_name().values(), NOT, TOFFOLI5, ROT6):
            builder = new_circuit([f"x{i}" for i in range(gate.arity)])
            for k, wire in enumerate(builder.add_gate(gate, builder.inputs)):
                builder.mark_output(wire, f"y{k}")
            circuit = builder.seal()
            for value in range(len(gate.rows)):
                word = BitWord.from_int(value, gate.arity)
                (out, garbage) = circuit.simulate(word)
                assert out.bits == gate.apply(word).bits
                assert garbage.bits == ()
            assert circuit._kernel is None


class TestTrie:
    def test_leaves_are_rows_of_the_truth_table(self):
        for gate in (*catalog_by_name().values(), NOT, TOFFOLI5, ROT6):
            for value in range(len(gate.rows)):
                node = gate.trie
                for bit in BitWord.from_int(value, gate.arity):
                    node = node[bit]
                assert node == gate.apply(BitWord.from_int(value, gate.arity)).bits

    def test_built_once_with_leaves_shared_per_arity(self):
        tg, pg = catalog_by_name()["TG"], catalog_by_name()["PG"]
        assert tg.trie is tg.trie
        assert tg.trie[1][1][0] is pg.trie[1][0][1]  # both are (1, 1, 1)

    def test_wide_gate_agrees_with_rows_on_both_tiers(self):
        # A 16-input rotation: 2^16 rows, built whole into the trie that
        # both tiers read, on the circuit's first call.
        rows = tuple(((v << 1) | (v >> 15)) & 0xFFFF for v in range(1 << 16))
        gate = GateDef("ROT16", rows)
        builder = new_circuit([f"x{i}" for i in range(16)])
        for k, wire in enumerate(builder.add_gate(gate, builder.inputs)):
            builder.mark_output(wire, f"y{k}")
        circuit = builder.seal()
        values = (0, 1, 0x8001, 0x1234, 0xBEEF, 0xFFFF, 0x7FFE)
        for value in itertools.islice(itertools.cycle(values), COMPILE_AFTER - 1):
            (out, _) = circuit.simulate(BitWord.from_int(value, 16))
            assert out.to_int() == rows[value]
        assert circuit._kernel is None
        ((step_gate, _, _, _),) = circuit._plan.steps
        assert step_gate is gate
        for value in values:
            (out, _) = circuit.simulate(BitWord.from_int(value, 16))
            assert out.to_int() == rows[value]
        assert circuit._kernel is not None

    def test_only_scalar_simulate_builds_a_trie(self):
        # A fresh 10-input rotation, then a Feynman gate. Emission (which
        # refuses the rotation, a gate the text cannot name), planes and
        # mapping() read each plan step's gate but never its trie; the
        # first scalar call builds it.
        rot = make_gate("ROT10", [lambda *bits, k=k: bits[(k + 1) % 10]
                                   for k in range(10)])
        builder = new_circuit([f"x{i}" for i in range(10)])
        rotated = builder.add_gate(rot, builder.inputs)
        fed = builder.add_gate(catalog_by_name()["FG"], [rotated[0], builder.add_constant(1)])
        for k, wire in enumerate((*fed, *rotated[1:])):
            builder.mark_output(wire, f"y{k}")
        circuit = builder.seal()
        for (step_gate, _, _, _), inst in zip(circuit._plan.steps, circuit.instances,
                                              strict=True):
            assert step_gate is inst.gate
        with pytest.raises(ValueError, match="'ROT10' is not a built-in catalog gate"):
            emit_netlist(circuit)
        circuit.simulate_planes([0b01] * 5 + [0b10] * 5, 2)
        table = circuit.mapping()
        assert "trie" not in vars(rot)
        assert circuit.simulate(BitWord.from_int(0x2A5, 10)) == table[0x2A5]
        assert "trie" in vars(rot)


def assert_checked(word: BitWord) -> None:
    """`word` is a `BitWord` holding what its own check would have stored."""
    assert type(word) is BitWord
    assert type(word.bits) is tuple
    assert all(type(bit) is int and bit in (0, 1) for bit in word.bits), word
    assert word == BitWord(tuple(word.bits))


class TestUncheckedWords:
    @settings(max_examples=100)
    @given(sealed_circuits())
    def test_every_returned_word_passes_the_check(self, circuit):
        words = [BitWord.from_int(value, circuit.width)
                 for value in range(1 << circuit.width)]
        returned = list(words)
        for word in itertools.islice(itertools.cycle(words), COMPILE_AFTER + len(words)):
            returned.extend(circuit.simulate(word))
        assert circuit._kernel is not None
        for pair in circuit.mapping():
            returned.extend(pair)
        for word in returned:
            assert_checked(word)

    def test_parsed_words_pass_the_check(self):
        for text in ("", "0", "1", "0110", "1" * 33):
            assert_checked(BitWord.from_string(text))
            assert_checked(BitWord.from_int(int(text or "0", 2), len(text)))

    def test_true_constant_reads_as_int_one(self):
        # A circuit made directly, not through the builder, may hold a
        # `True` constant; every tier reads it as the int 1.
        circuit = Circuit(input_labels=("a",), constants=(True, 0), instances=(),
                          outputs=(("a", ("in", 0)), ("k", ("const", 0))),
                          garbage=(("const", 1),))
        words = [BitWord((0,)), BitWord((1,))]
        results = [circuit.simulate(word) for word in words]
        assert circuit._kernel is None
        for word in itertools.islice(itertools.cycle(words), COMPILE_AFTER):
            circuit.simulate(word)
        assert circuit._kernel is not None
        results += [circuit.simulate(word) for word in words]
        results += circuit.mapping()
        for outputs, garbage in results:
            assert outputs.bits[1] == 1 and garbage.bits == (0,)
            assert_checked(outputs)
            assert_checked(garbage)


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

    # The word as the padded decimal texts of a and b read in base 16,
    # checked by `from_int`; bools are operands and carry-ins too.
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d),
        st.integers(0, 10**d - 1) | st.booleans(),
        st.integers(0, 10**d - 1) | st.booleans(),
        st.sampled_from([0, 1, False, True]))))
    def test_matches_padded_hex_formula(self, case):
        d, a, b, cin = case
        want = BitWord.from_int(int(f"{a:0{d}d}{b:0{d}d}", 16) << 1 | cin, 8 * d + 1)
        word = encode_bcd_operands(a, b, cin, d)
        assert word == want
        assert_checked(word)


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
