"""Text-format tests: grammar, diagnostics, elaboration, round trips."""

from __future__ import annotations

import pytest

from revlogic.designs import build_bcd_adder_digit, build_bcd_adder_n
from revlogic.gates import catalog_by_name, make_gate
from revlogic.metrics import analyze
from revlogic.errors import RevLogicError
from revlogic.netlist import (
    ArityMismatch,
    DuplicateLabel,
    FanOutViolation,
    ValidationFailed,
    new_circuit,
)
from revlogic.netlist_text import (
    ConstStmt,
    GateStmt,
    GarbageStmt,
    InputStmt,
    NetlistDocument,
    NetlistSyntaxError,
    OutputStmt,
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
        doc = parse_netlist(MINIMAL)
        kinds = [type(s) for s in doc.statements]
        assert kinds == [InputStmt, GateStmt, OutputStmt, GarbageStmt]
        assert doc.input_labels == ("a", "b")

    def test_statement_fields(self):
        doc = parse_netlist(MINIMAL)
        gate = doc.statements[1]
        assert gate.gate == "FG"
        assert gate.inputs == ("a", "b")
        assert gate.outputs == ("p", "q")
        assert gate.line == 2

    def test_const_statement(self):
        doc = parse_netlist("INPUT a\nCONST z = 1\nOUTPUT a z\n")
        const = doc.statements[1]
        assert isinstance(const, ConstStmt)
        assert (const.name, const.value) == ("z", 1)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nINPUT a  # trailing\n\nOUTPUT a\n"
        doc = parse_netlist(text)
        assert len(doc.statements) == 2

    def test_unknown_keyword(self):
        with pytest.raises(NetlistSyntaxError) as err:
            parse_netlist("WIRE a\n")
        assert err.value.line == 1
        assert err.value.column == 1

    def test_bad_wire_name(self):
        with pytest.raises(NetlistSyntaxError) as err:
            parse_netlist("INPUT 9lives\n")
        assert err.value.column == 7

    def test_input_needs_names(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT\n")

    def test_const_needs_equals(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a\nCONST z 0\n")

    def test_const_value_checked(self):
        with pytest.raises(NetlistSyntaxError) as err:
            parse_netlist("INPUT a\nCONST z = 2\n")
        assert err.value.line == 2

    def test_const_extra_tokens(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a\nCONST z = 0 1\n")

    def test_gate_without_arrow(self):
        with pytest.raises(NetlistSyntaxError) as err:
            parse_netlist("INPUT a b\nGATE FG a b\n")
        assert err.value.line == 2

    def test_gate_without_inputs(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a b\nGATE FG -> p q\n")

    def test_unknown_gate(self):
        with pytest.raises(UnknownGateName) as err:
            parse_netlist("INPUT a b\nGATE XX a b -> p q\n")
        assert (err.value.line, err.value.column) == (2, 6)

    def test_use_before_declaration(self):
        with pytest.raises(UseBeforeDeclaration) as err:
            parse_netlist("INPUT a\nOUTPUT b\n")
        assert err.value.line == 2
        with pytest.raises(UseBeforeDeclaration):
            parse_netlist("INPUT a b\nGATE FG a q -> p q\n")
        with pytest.raises(UseBeforeDeclaration):
            parse_netlist("INPUT a\nGARBAGE zz\n")

    def test_output_named_twice(self):
        with pytest.raises(NetlistSyntaxError) as err:
            parse_netlist("INPUT a b\nGATE FG a b -> p q\nOUTPUT q\nOUTPUT p q\n")
        assert (err.value.line, err.value.column) == (4, 10)

    def test_decode_locates_bad_bytes(self):
        assert decode_netlist("INPUT é\n".encode()) == "INPUT é\n"
        with pytest.raises(NetlistSyntaxError) as err:
            decode_netlist("INPUT é\r\n\nOUTPUT é ".encode() + b"\xff")
        assert (err.value.line, err.value.column) == (3, 10)

    def test_redeclaration(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a a\n")
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a b\nGATE FG a b -> a q\n")
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("INPUT a\nCONST a = 0\n")

    def test_custom_catalog(self):
        xor3 = make_gate("XOR3", 3, (
            lambda a, b, c: a, lambda a, b, c: b, lambda a, b, c: a ^ b ^ c))
        doc = parse_netlist(
            "INPUT a b c\nGATE XOR3 a b c -> p q r\nOUTPUT p q r\n",
            catalog={"XOR3": xor3},
        )
        circuit = elaborate(doc, catalog={"XOR3": xor3})
        assert len(circuit.instances) == 1


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

    # Documents built in code skip parse_netlist's name checks, so
    # elaborate must locate these itself.
    def test_repeated_output_in_document_located(self):
        doc = NetlistDocument((
            InputStmt(("a", "b"), 1),
            OutputStmt(("a",), 2),
            OutputStmt(("a", "b"), 3),
        ))
        with pytest.raises(DuplicateLabel) as err:
            elaborate(doc)
        assert str(err.value) == "line 3: duplicate output label 'a'"

    def test_undeclared_wire_in_document_located(self):
        doc = NetlistDocument((
            InputStmt(("a", "b"), 1),
            GateStmt("FG", ("a", "q"), ("p", "r"), 2),
        ))
        with pytest.raises(UseBeforeDeclaration) as err:
            elaborate(doc)
        assert err.value.line == 2
        assert "'q'" in str(err.value)

    @pytest.mark.parametrize("statements, line, message", [
        ((InputStmt(("a",), 1), InputStmt(("b", "a"), 2)), 2,
         "wire 'a' already declared"),
        ((InputStmt(("a", "b c"), 1),), 1, "bad wire name 'b c'"),
        ((InputStmt(("a", "b"), 1), ConstStmt("z", 2, 2)), 2,
         "constant value must be 0 or 1, got 2"),
        ((InputStmt(("a", "b"), 1), GateStmt("FG", ("a", "b"), ("p", "a"), 3)), 3,
         "wire 'a' already declared"),
    ])
    def test_bad_declaration_in_document_located(self, statements, line, message):
        with pytest.raises(NetlistSyntaxError) as err:
            elaborate(NetlistDocument(statements))
        assert err.value.line == line
        assert message in str(err.value)

    def test_unknown_gate_in_document_located(self):
        doc = NetlistDocument((
            InputStmt(("a", "b"), 1),
            GateStmt("XYZ", ("a", "b"), ("p", "q"), 2),
        ))
        with pytest.raises(UnknownGateName) as err:
            elaborate(doc)
        assert err.value.line == 2
        assert isinstance(err.value, RevLogicError)


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

    def test_relabeled_pass_through_rejected(self):
        builder = new_circuit(["a"])
        builder.mark_output(builder.inputs[0], "rose")
        circuit = builder.seal()
        with pytest.raises(ValueError):
            emit_netlist(circuit)

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
