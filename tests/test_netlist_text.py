"""Text-format tests: grammar, diagnostics, elaboration, round trips."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gates, sealed_circuits
from revlogic.designs import (
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_correction_stage,
    build_full_adder,
    build_ripple_adder4,
)
from revlogic.gates import GateDef, catalog_by_name, make_gate
from revlogic.metrics import analyze
from revlogic.netlist import (
    ArityMismatch,
    Circuit,
    FanOutViolation,
    Instance,
    ValidationFailed,
    new_circuit,
)
from revlogic.netlist_text import (
    NetlistSyntaxError,
    UnknownGateName,
    UseBeforeDeclaration,
    decode_netlist,
    elaborate,
    emit_netlist,
    parse_netlist,
)

MINIMAL = "INPUT a b\nGATE FG a b -> p q\nOUTPUT q\nGARBAGE p\n"

FULL_ADDER = """\
# one-bit full adder
INPUT a b cin
CONST zero = 0
GATE HNG a b cin zero -> g1 g2 sum carry
OUTPUT sum carry
GARBAGE g1 g2
"""


class TestParse:
    def test_minimal_document(self):
        lines = parse_netlist(MINIMAL)
        assert [(line.line_no, line.tokens) for line in lines] == [
            (1, ["INPUT", "a", "b"]),
            (2, ["GATE", "FG", "a", "b", "->", "p", "q"]),
            (3, ["OUTPUT", "q"]),
            (4, ["GARBAGE", "p"]),
        ]
        assert elaborate(lines).input_labels == ("a", "b")

    def test_statement_fields(self):
        circuit = elaborate(parse_netlist(MINIMAL))
        [gate] = circuit.instances
        assert gate.gate.name == "FG"
        assert gate.sources == (("in", 0), ("in", 1))
        assert circuit.outputs == (("q", ("gate", 0, 1)),)
        assert circuit.garbage == (("gate", 0, 0),)

    def test_const_statement(self):
        circuit = elaborate(parse_netlist("INPUT a\nCONST z = 1\nOUTPUT a z\n"))
        assert circuit.constants == (1,)
        assert circuit.outputs == (("a", ("in", 0)), ("z", ("const", 0)))

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nINPUT a  # trailing\n\nOUTPUT a\n"
        lines = parse_netlist(text)
        assert [line.line_no for line in lines] == [3, 5]
        assert lines[0].tokens == ["INPUT", "a"]

    def test_unknown_keyword(self):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(parse_netlist("WIRE a\n"))
        assert err.value.line == 1
        assert err.value.column == 1

    def test_bad_wire_name(self):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(parse_netlist("INPUT 9lives\n"))
        assert err.value.column == 7

    def test_input_needs_names(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT\n"))

    def test_const_needs_equals(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a\nCONST z 0\n"))

    def test_const_value_checked(self):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(parse_netlist("INPUT a\nCONST z = 2\n"))
        assert err.value.line == 2

    def test_const_extra_tokens(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a\nCONST z = 0 1\n"))

    def test_gate_without_arrow(self):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(parse_netlist("INPUT a b\nGATE FG a b\n"))
        assert err.value.line == 2

    def test_gate_without_inputs(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a b\nGATE FG -> p q\n"))

    def test_unknown_gate(self):
        with pytest.raises(UnknownGateName) as err:
            elaborate(parse_netlist("INPUT a b\nGATE XX a b -> p q\n"))
        assert (err.value.line, err.value.column) == (2, 6)

    def test_use_before_declaration(self):
        with pytest.raises(UseBeforeDeclaration) as err:
            elaborate(parse_netlist("INPUT a\nOUTPUT b\n"))
        assert err.value.line == 2
        with pytest.raises(UseBeforeDeclaration):
            elaborate(parse_netlist("INPUT a b\nGATE FG a q -> p q\n"))
        with pytest.raises(UseBeforeDeclaration):
            elaborate(parse_netlist("INPUT a\nGARBAGE zz\n"))

    def test_output_named_twice(self):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(parse_netlist(
                "INPUT a b\nGATE FG a b -> p q\nOUTPUT q\nOUTPUT p q\n"))
        assert (err.value.line, err.value.column) == (4, 10)

    def test_decode_locates_bad_bytes(self):
        assert decode_netlist("INPUT é\n".encode()) == "INPUT é\n"
        with pytest.raises(NetlistSyntaxError) as err:
            decode_netlist("INPUT é\r\n\nOUTPUT é ".encode() + b"\xff")
        assert (err.value.line, err.value.column) == (3, 10)

    def test_redeclaration(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a a\n"))
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a b\nGATE FG a b -> a q\n"))
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("INPUT a\nCONST a = 0\n"))

    def test_custom_catalog(self):
        # The built-in catalog is the format's only gate table, so a gate
        # it lacks, such as a `make_gate` XOR3, is unknown.
        doc = parse_netlist("INPUT a b c\nGATE XOR3 a b c -> p q r\nOUTPUT p q r\n")
        with pytest.raises(UnknownGateName) as err:
            elaborate(doc)
        assert str(err.value) == "line 2, column 6: unknown gate 'XOR3'"


class TestElaborate:
    def test_full_adder_metrics(self):
        circuit = elaborate(parse_netlist(FULL_ADDER))
        report = analyze(circuit)
        assert (report.gate_count, report.garbage_count, report.constant_count) \
            == (1, 2, 1)

    def test_fan_out_located(self):
        text = "INPUT a b\nGATE FG a b -> p q\nGATE FG a p -> r s\n"
        with pytest.raises(FanOutViolation) as err:
            elaborate(parse_netlist(text))
        assert "line 3" in str(err.value)

    def test_duplicate_gate_input_located(self):
        text = "INPUT a b\nGATE FG a a -> p q\n"
        with pytest.raises(FanOutViolation) as err:
            elaborate(parse_netlist(text))
        assert "line 2" in str(err.value)

    def test_arity_mismatch_located(self):
        text = "INPUT a b c\nGATE FG a b c -> p q r\nOUTPUT p q r\n"
        with pytest.raises(ArityMismatch) as err:
            elaborate(parse_netlist(text))
        assert "line 2" in str(err.value)

    def test_dangling_wires_named(self):
        text = "INPUT a b\nGATE FG a b -> p q\nOUTPUT q\n"
        with pytest.raises(ValidationFailed) as err:
            elaborate(parse_netlist(text))
        assert any("unconsumed wire names: p" in v for v in err.value.violations)

    def test_no_inputs_rejected(self):
        with pytest.raises(NetlistSyntaxError):
            elaborate(parse_netlist("# nothing\n"))

    def test_output_label_is_wire_name(self):
        circuit = elaborate(parse_netlist(MINIMAL))
        assert circuit.output_labels == ("q",)

    # Keywords and INPUT lines are checked first, in line order, then that
    # an INPUT line exists; every other defect comes in line order, so a
    # builder error can come before a later line's bad name. An OUTPUT or
    # GARBAGE line marks its names left to right.
    @pytest.mark.parametrize("text, error, message", [
        ("INPUT a b\nGATE FG a a -> p q\nOUTPUT 9x\n", FanOutViolation,
         "line 2: gate FG: the same wire was passed to two pins"),
        ("INPUT a b\nGATE FG a a -> p q\nINPUT 9x\n", NetlistSyntaxError,
         "line 3, column 7: bad wire name '9x'"),
        ("INPUT a b\nGATE FG a a -> p q\nWIRE x\n", NetlistSyntaxError,
         "line 3, column 1: unknown statement 'WIRE' "
         "(expected one of INPUT, CONST, GATE, OUTPUT, GARBAGE)"),
        ("GATE XX a -> p\n", NetlistSyntaxError,
         "line 1, column 1: netlist has no INPUT declarations"),
        ("OUTPUT zz\nINPUT a\n", UseBeforeDeclaration,
         "line 1, column 8: wire 'zz' used before declaration"),
        ("OUTPUT a\nINPUT a\n", UseBeforeDeclaration,
         "line 1, column 8: wire 'a' used before declaration"),
        ("CONST a = 0\nINPUT a\n", NetlistSyntaxError,
         "line 2, column 7: wire 'a' already declared"),
        ("INPUT a\nGARBAGE a a zz\n", FanOutViolation,
         "line 2: input 'a' is already consumed"),
    ], ids=["builder-error-before-later-bad-name", "input-lines-first",
            "keywords-first", "no-input-before-unknown-gate",
            "use-before-declaration", "input-declared-where-it-stands",
            "input-redeclares-earlier-const", "names-marked-left-to-right"])
    def test_defects_reported_in_pass_order(self, text, error, message):
        with pytest.raises(error) as err:
            elaborate(parse_netlist(text))
        assert type(err.value) is error
        assert str(err.value) == message

    def test_document_elaborates_twice(self):
        lines = parse_netlist(FULL_ADDER)
        assert elaborate(lines) == elaborate(lines)
        bad = parse_netlist("INPUT a b\nGATE FG a b -> p q\nOUTPUT q p q\n")
        for _ in range(2):
            with pytest.raises(NetlistSyntaxError) as err:
                elaborate(bad)
            assert str(err.value) == "line 3, column 12: wire 'q' is already an output"


class TestEmit:
    def test_round_trip_digit_adder(self):
        original = build_bcd_adder_digit()
        text = emit_netlist(original)
        rebuilt = elaborate(parse_netlist(text))
        assert analyze(rebuilt) == analyze(original)
        assert rebuilt.output_labels == original.output_labels
        assert rebuilt.mapping() == original.mapping()

    def test_round_trip_two_digit(self):
        original = build_bcd_adder_n(2)
        rebuilt = elaborate(parse_netlist(emit_netlist(original)))
        assert analyze(rebuilt) == analyze(original)

    def test_round_trip_pass_through(self):
        builder = new_circuit(["a", "b"])
        builder.mark_output(builder.inputs[0], "a")
        builder.mark_output(builder.inputs[1], "b")
        circuit = builder.seal()
        rebuilt = elaborate(parse_netlist(emit_netlist(circuit)))
        assert rebuilt.output_labels == ("a", "b")
        assert rebuilt.mapping() == circuit.mapping()

    def test_true_constant_round_trips(self):
        # A hand-made circuit may hold a bool constant; it simulates as
        # its int and must be written as one.
        fg = catalog_by_name()["FG"]
        circuit = Circuit(
            input_labels=("a",), constants=(True,),
            instances=(Instance(fg, (("const", 0), ("in", 0))),),
            outputs=(("q", ("gate", 0, 1)),), garbage=(("gate", 0, 0),))
        text = emit_netlist(circuit)
        assert "CONST c0 = 1\n" in text
        rebuilt = elaborate(parse_netlist(text))
        assert rebuilt.constants == (1,)
        assert rebuilt.mapping() == circuit.mapping()

    def test_relabeled_pass_through_rejected(self):
        builder = new_circuit(["a"])
        builder.mark_output(builder.inputs[0], "rose")
        circuit = builder.seal()
        with pytest.raises(ValueError):
            emit_netlist(circuit)

    def test_label_that_is_not_a_wire_name_rejected(self):
        builder = new_circuit(["a b"])
        builder.mark_output(builder.inputs[0], "a b")
        with pytest.raises(ValueError) as err:
            emit_netlist(builder.seal())
        assert str(err.value) == "label 'a b' is not expressible as a wire name"

    @pytest.mark.parametrize("inputs, outputs", [
        ((1,), (("x", ("in", 0)),)),
        (("a",), ((1, ("in", 0)),)),
    ], ids=["input", "output"])
    def test_label_that_is_not_a_str_rejected(self, inputs, outputs):
        # A hand-made Circuit checks no labels; emission names the bad one.
        circuit = Circuit(input_labels=inputs, constants=(), instances=(),
                          outputs=outputs, garbage=())
        with pytest.raises(ValueError) as err:
            emit_netlist(circuit)
        assert str(err.value) == "label 1 is not expressible as a wire name"

    def test_output_label_colliding_with_a_wire_name_rejected(self):
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(catalog_by_name()["FG"], builder.inputs)
        builder.mark_output(q, "a")
        builder.mark_garbage(p)
        with pytest.raises(ValueError) as err:
            emit_netlist(builder.seal())
        assert str(err.value) == "output label 'a' collides with a wire name"

    def test_generated_names_avoid_collisions(self):
        # Inputs squat on the generator's w0/c0 names; emit must step
        # around them and still round-trip.
        builder = new_circuit(["w0", "c0"])
        zero = builder.add_constant(0)
        p, q = builder.add_gate(catalog_by_name()["FG"], [builder.inputs[0], zero])
        builder.mark_output(q, "out")
        builder.mark_garbage(p)
        builder.mark_garbage(builder.inputs[1])
        circuit = builder.seal()
        text = emit_netlist(circuit)
        names = set()
        for line in text.splitlines():
            parts = line.split()
            if parts[0] == "INPUT":
                names.update(parts[1:])
            elif parts[0] == "CONST":
                names.add(parts[1])
            elif parts[0] == "GATE":
                arrow = parts.index("->")
                names.update(parts[arrow + 1 :])
        assert len(names) == 5
        rebuilt = elaborate(parse_netlist(text))
        assert rebuilt.mapping() == circuit.mapping()

    def test_digit_adder_text_is_pinned(self):
        # Generated names follow slot order: constants c0.., then each
        # gate's pins w0.. unless a pin feeds a primary output.
        assert emit_netlist(build_bcd_adder_digit()) == """\
INPUT a3 a2 a1 a0 b3 b2 b1 b0 cin
CONST c0 = 0
CONST c1 = 0
CONST c2 = 0
CONST c3 = 0
CONST c4 = 0
CONST c5 = 0
GATE HNG a0 b0 cin c0 -> w0 w1 s0 w2
GATE HNG a1 b1 w2 c1 -> w3 w4 w5 w6
GATE HNG a2 b2 w6 c2 -> w7 w8 w9 w10
GATE HNG a3 b3 w10 c3 -> w11 w12 w13 w14
GATE SCL w5 w9 w13 w14 -> w15 w16 w17 w18
GATE PG w18 w15 c4 -> w19 s1 w20
GATE HNG w16 w19 w20 c5 -> w21 cout s2 w22
GATE FG w22 w17 -> w23 s3
OUTPUT cout s3 s2 s1 s0
GARBAGE w0 w1 w3 w4 w7 w8 w11 w12 w21 w23
"""

    def test_generated_names_skip_labels_pinned(self):
        # Inputs and output labels squat on c0, c1, w0 and w1.
        builder = new_circuit(["w0", "c1", "x"])
        one = builder.add_constant(1)
        p, q, r = builder.add_gate(catalog_by_name()["TG"], [*builder.inputs[:2], one])
        builder.mark_output(r, "w1")
        builder.mark_output(p, "c0")
        builder.mark_output(builder.inputs[2], "x")
        builder.mark_garbage(q)
        circuit = builder.seal()
        text = emit_netlist(circuit)
        assert text == ("INPUT w0 c1 x\nCONST c2 = 1\nGATE TG w0 c1 c2 -> c0 w2 w1\n"
                        "OUTPUT w1 c0 x\nGARBAGE w2\n")
        assert elaborate(parse_netlist(text)).mapping() == circuit.mapping()

    @pytest.mark.parametrize("name", ["X Y", "N#1", "X\u00a0Y", "#", " FG"],
                             ids=["space", "hash", "no-break-space", "bare-hash", "padded"])
    def test_gate_name_that_is_not_a_token_rejected(self, name):
        gate = make_gate(name, (lambda a, b: a, lambda a, b: a ^ b))
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(gate, builder.inputs)
        builder.mark_output(q, "q")
        builder.mark_garbage(p)
        with pytest.raises(ValueError) as err:
            emit_netlist(builder.seal())
        assert str(err.value) == f"gate {name!r} is not a built-in catalog gate"

    @pytest.mark.parametrize("gate", [
        GateDef("FG", (1, 0, 2, 3)),
        make_gate("XOR", (lambda a, b: a, lambda a, b: a ^ b)),
    ], ids=["impostor-FG", "make_gate-XOR"])
    def test_gate_not_in_catalog_rejected(self, gate):
        # Either would be written as text that reads back as another
        # circuit (the catalog FG) or not at all (no gate XOR).
        builder = new_circuit(["a", "b"])
        fed = builder.add_gate(catalog_by_name()["TG"],
                               [*builder.inputs, builder.add_constant(0)])
        p, q = builder.add_gate(gate, fed[:2])
        for k, wire in enumerate((p, q, fed[2])):
            builder.mark_output(wire, f"y{k}")
        with pytest.raises(ValueError) as err:
            emit_netlist(builder.seal())
        assert str(err.value) == f"gate {gate.name!r} is not a built-in catalog gate"

    def test_gate_equal_to_a_catalog_gate_emits(self):
        # Gates are compared by value: a gate rebuilt with the catalog FG's
        # name and rows is the catalog FG.
        fg = GateDef("FG", catalog_by_name()["FG"].rows)
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(fg, builder.inputs)
        builder.mark_output(p, "p")
        builder.mark_output(q, "q")
        circuit = builder.seal()
        text = emit_netlist(circuit)
        assert text == "INPUT a b\nGATE FG a b -> p q\nOUTPUT p q\n"
        assert elaborate(parse_netlist(text)).mapping() == circuit.mapping()


# Every parse diagnostic, pinned to its exception type and exact text.
# Where one line holds two faults these fix which is reported: the names
# of a list are all checked for form before any is declared or resolved,
# GATE inputs are checked one by one, and a CONST name is checked only
# after the rest of its line.
PARSE_DIAGNOSTICS = [
    ("unknown-keyword", "INPUT a\nWIRE a\n", NetlistSyntaxError,
     "line 2, column 1: unknown statement 'WIRE' "
     "(expected one of INPUT, CONST, GATE, OUTPUT, GARBAGE)"),
    ("lowercase-keyword", "input a\n", NetlistSyntaxError,
     "line 1, column 1: unknown statement 'input' "
     "(expected one of INPUT, CONST, GATE, OUTPUT, GARBAGE)"),
    ("bad-input-name", "INPUT 9lives\n", NetlistSyntaxError,
     "line 1, column 7: bad wire name '9lives'"),
    ("bad-const-name", "INPUT a\nCONST 9z = 0\n", NetlistSyntaxError,
     "line 2, column 7: bad wire name '9z'"),
    ("bad-gate-input", "INPUT a b\nGATE FG a 9b -> p q\n", NetlistSyntaxError,
     "line 2, column 11: bad wire name '9b'"),
    ("bad-gate-output", "INPUT a b\nGATE FG a b -> p q-r\n", NetlistSyntaxError,
     "line 2, column 18: bad wire name 'q-r'"),
    ("bad-output-name", "INPUT a\nOUTPUT a 1x\n", NetlistSyntaxError,
     "line 2, column 10: bad wire name '1x'"),
    ("bad-garbage-name", "INPUT a\nGARBAGE a$\n", NetlistSyntaxError,
     "line 2, column 9: bad wire name 'a$'"),
    ("bad-non-ascii-name", "INPUT \u00e9\n", NetlistSyntaxError,
     "line 1, column 7: bad wire name '\u00e9'"),
    ("tabs-count-one-column", "INPUT\ta\t9b\n", NetlistSyntaxError,
     "line 1, column 9: bad wire name '9b'"),
    ("list-names-checked-first", "INPUT a a 9x\n", NetlistSyntaxError,
     "line 1, column 11: bad wire name '9x'"),
    ("output-names-checked-first", "INPUT a\nOUTPUT zz 9q\n", NetlistSyntaxError,
     "line 2, column 11: bad wire name '9q'"),
    ("gate-inputs-in-order", "INPUT a\nGATE FG zz 9q -> p q\n", UseBeforeDeclaration,
     "line 2, column 9: wire 'zz' used before declaration"),
    ("const-name-checked-last", "INPUT a\nCONST 9z = 2\n", NetlistSyntaxError,
     "line 2, column 12: constant value must be 0 or 1, got '2'"),
    ("repeated-input", "INPUT a a\n", NetlistSyntaxError,
     "line 1, column 9: wire 'a' already declared"),
    ("repeated-across-inputs", "INPUT a\nINPUT b a\n", NetlistSyntaxError,
     "line 2, column 9: wire 'a' already declared"),
    ("repeated-const", "INPUT a\nCONST a = 0\n", NetlistSyntaxError,
     "line 2, column 7: wire 'a' already declared"),
    ("gate-output-redeclares", "INPUT a b\nGATE FG a b -> a q\n", NetlistSyntaxError,
     "line 2, column 16: wire 'a' already declared"),
    ("gate-output-twice", "INPUT a b\nGATE FG a b -> p p\n", NetlistSyntaxError,
     "line 2, column 18: wire 'p' already declared"),
    ("empty-input-list", "INPUT\n", NetlistSyntaxError,
     "line 1, column 6: expected at least one input name"),
    ("empty-gate-outputs", "INPUT a b\nGATE FG a b ->\n", NetlistSyntaxError,
     "line 2, column 15: expected at least one output name"),
    ("empty-output-list", "INPUT a\nOUTPUT\n", NetlistSyntaxError,
     "line 2, column 7: expected at least one output name"),
    ("empty-garbage-list", "INPUT a\nGARBAGE\n", NetlistSyntaxError,
     "line 2, column 8: expected at least one garbage name"),
    ("const-no-name", "INPUT a\nCONST\n", NetlistSyntaxError,
     "line 2, column 6: expected constant name"),
    ("const-no-equals", "INPUT a\nCONST z\n", NetlistSyntaxError,
     "line 2, column 8: expected '='"),
    ("const-wrong-equals", "INPUT a\nCONST z 0\n", NetlistSyntaxError,
     "line 2, column 9: expected '='"),
    ("const-no-value", "INPUT a\nCONST z =\n", NetlistSyntaxError,
     "line 2, column 10: expected 0 or 1"),
    ("const-not-a-bit", "INPUT a\nCONST z = 2\n", NetlistSyntaxError,
     "line 2, column 11: constant value must be 0 or 1, got '2'"),
    ("const-extra-token", "INPUT a\nCONST z = 0 1\n", NetlistSyntaxError,
     "line 2, column 13: unexpected token '1'"),
    ("gate-no-name", "INPUT a\nGATE\n", NetlistSyntaxError,
     "line 2, column 5: expected gate name"),
    ("gate-no-arrow", "INPUT a b\nGATE FG a b\n", NetlistSyntaxError,
     "line 2, column 12: expected input wire or '->'"),
    ("gate-no-inputs", "INPUT a b\n  GATE FG -> p q\n", NetlistSyntaxError,
     "line 2, column 3: gate needs at least one input before '->'"),
    ("unknown-gate", "INPUT a b\nGATE XX a b -> p q\n", UnknownGateName,
     "line 2, column 6: unknown gate 'XX'"),
    ("unknown-gate-before-shape", "INPUT a b\nGATE XX\n", UnknownGateName,
     "line 2, column 6: unknown gate 'XX'"),
    ("output-before-declaration", "INPUT a\nOUTPUT b\n", UseBeforeDeclaration,
     "line 2, column 8: wire 'b' used before declaration"),
    ("gate-input-before-declaration", "INPUT a b\nGATE FG a q -> p q\n",
     UseBeforeDeclaration, "line 2, column 11: wire 'q' used before declaration"),
    ("garbage-before-declaration", "INPUT a\nGARBAGE zz\n", UseBeforeDeclaration,
     "line 2, column 9: wire 'zz' used before declaration"),
    ("output-named-twice", "INPUT a b\nGATE FG a b -> p q\nOUTPUT q\nOUTPUT p q\n",
     NetlistSyntaxError, "line 4, column 10: wire 'q' is already an output"),
    ("output-twice-on-one-line", "INPUT a\nOUTPUT a a\n", NetlistSyntaxError,
     "line 2, column 10: wire 'a' is already an output"),
    ("end-of-line-before-comment", "INPUT a\nCONST z =   # missing\n",
     NetlistSyntaxError, "line 2, column 10: expected 0 or 1"),
    ("gate-outputs-end-before-comment", "INPUT a b\nGATE FG a b -> # none\n",
     NetlistSyntaxError, "line 2, column 15: expected at least one output name"),
    # Any `str.isspace()` character that `splitlines` does not split on
    # separates tokens, and counts one column.
    ("nbsp-separates", "INPUT\u00a0a\u00a09b\n", NetlistSyntaxError,
     "line 1, column 9: bad wire name '9b'"),
    ("ideographic-space-separates", "INPUT a\nGATE\u3000FG a\u30009b -> p q\n",
     NetlistSyntaxError, "line 2, column 11: bad wire name '9b'"),
    ("unit-separator-separates", "INPUT a\x1fb\nOUTPUT b\x1fzz\n",
     UseBeforeDeclaration, "line 2, column 10: wire 'zz' used before declaration"),
]

# Every whitespace character that separates tokens within a line.
INLINE_SPACES = "".join(
    ch for ch in map(chr, range(sys.maxunicode + 1))
    if ch.isspace() and len(f"a{ch}b".splitlines()) == 1
)


@pytest.mark.parametrize(
    "text, error, message",
    [pytest.param(*case[1:], id=case[0]) for case in PARSE_DIAGNOSTICS],
)
def test_parse_diagnostic_is_exact(text, error, message):
    with pytest.raises(error) as err:
        elaborate(parse_netlist(text))
    assert type(err.value) is error
    assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(sealed_circuits())
def test_emit_parse_elaborate_round_trips(circuit):
    # The text format names an output by its wire, so an output that
    # carries an input's value under another label is the one circuit
    # it cannot express.
    relabels_input = any(
        source[0] == "in" and label != circuit.input_labels[source[1]]
        for label, source in circuit.outputs
    )
    if relabels_input:
        with pytest.raises(ValueError):
            emit_netlist(circuit)
        return
    rebuilt = elaborate(parse_netlist(emit_netlist(circuit)))
    assert rebuilt.input_labels == circuit.input_labels
    assert rebuilt.output_labels == circuit.output_labels
    assert analyze(rebuilt) == analyze(circuit)
    assert rebuilt.mapping() == circuit.mapping()


_CATALOG = catalog_by_name()
# A catalog gate, or a gate of random rows named "R" or after a catalog
# gate it may not equal.
_MIXED_GATES = st.one_of(
    st.sampled_from(list(_CATALOG.values())),
    st.tuples(random_gates(), st.sampled_from(["R", *_CATALOG])).map(
        lambda drawn: GateDef(drawn[1], drawn[0].rows)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MIXED_GATES, max_size=5), st.data())
def test_emit_accepts_only_what_reads_back(gates, data):
    # Catalog gates mixed with gates of random rows: emission refuses the
    # first gate that is not the catalog's gate of its name, and any text
    # it does write elaborates to the same mapping.
    width = max([1, *(gate.arity for gate in gates)])
    builder = new_circuit([f"i{k}" for k in range(width)])
    pool = list(builder.inputs)
    for gate in gates:
        picks = data.draw(st.permutations(range(width)))[:gate.arity]
        for k, wire in zip(picks, builder.add_gate(gate, [pool[k] for k in picks])):
            pool[k] = wire
    for k, wire in enumerate(pool):
        builder.mark_output(wire, f"i{k}" if wire is builder.inputs[k] else f"o{k}")
    circuit = builder.seal()
    impostors = [gate for gate in gates if _CATALOG.get(gate.name) != gate]
    if impostors:
        with pytest.raises(ValueError) as err:
            emit_netlist(circuit)
        assert str(err.value) == \
            f"gate {impostors[0].name!r} is not a built-in catalog gate"
        return
    assert elaborate(parse_netlist(emit_netlist(circuit))).mapping() == circuit.mapping()


@settings(max_examples=150, deadline=None)
@given(sealed_circuits())
def test_emission_is_a_fixed_point(circuit):
    # Reading emitted text back and emitting again gives the same text.
    try:
        text = emit_netlist(circuit)
    except ValueError:  # an output relabels an input; see above
        return
    assert emit_netlist(elaborate(parse_netlist(text))) == text


@settings(max_examples=100, deadline=None)
@given(sealed_circuits(), st.data())
def test_any_inline_whitespace_separates_tokens(circuit, data):
    try:
        text = emit_netlist(circuit)
    except ValueError:  # an output relabels an input; see above
        return
    pieces = text.split(" ")
    separators = data.draw(st.lists(
        st.text(INLINE_SPACES, min_size=1, max_size=3),
        min_size=len(pieces) - 1, max_size=len(pieces) - 1,
    ))
    spaced = pieces[0] + "".join(
        sep + piece for sep, piece in zip(separators, pieces[1:]))
    def token_lines(text):
        return [(line.line_no, line.tokens) for line in parse_netlist(text)]

    assert token_lines(spaced) == token_lines(text)


@pytest.mark.parametrize("build", [
    build_full_adder, build_ripple_adder4, build_correction_stage, build_bcd_adder_digit,
    lambda: build_bcd_adder_n(2), lambda: build_bcd_adder_n(3), lambda: build_bcd_adder_n(4),
], ids=["full_adder", "ripple_adder4", "correction_stage", "bcd_adder_digit",
        "bcd_adder_2", "bcd_adder_3", "bcd_adder_4"])
def test_shipped_design_round_trips(build):
    original = build()
    rebuilt = elaborate(parse_netlist(emit_netlist(original)))
    assert rebuilt.input_labels == original.input_labels
    assert rebuilt.output_labels == original.output_labels
    assert analyze(rebuilt) == analyze(original)
    if original.width <= 9:
        assert rebuilt.mapping() == original.mapping()
    else:
        rng = random.Random(original.width)
        planes = [rng.getrandbits(4096) for _ in range(original.width)]
        assert rebuilt.simulate_planes(planes, 4096) == original.simulate_planes(planes, 4096)
