"""Netlist builder and circuit tests: structure rules, simulation."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given

from conftest import build_from_plan, circuit_plans
from revlogic.gates import BitWord, WidthMismatch, catalog_by_name
from revlogic.netlist import (
    ENUMERATION_LIMIT,
    ArityMismatch,
    DuplicateLabel,
    FanOutViolation,
    TooWide,
    ValidationFailed,
    Wire,
    new_circuit,
)


def _passthrough(labels):
    builder = new_circuit(labels)
    for label, wire in zip(labels, builder.inputs):
        builder.mark_output(wire, label)
    return builder.seal()


class TestBuilderBasics:
    def test_single_input(self):
        builder = new_circuit(["a0"])
        assert len(builder.inputs) == 1
        assert builder.input_labels == ("a0",)

    def test_duplicate_input_label(self):
        with pytest.raises(DuplicateLabel):
            new_circuit(["x", "x"])

    def test_needs_inputs(self):
        with pytest.raises(ValueError):
            new_circuit([])

    def test_bad_label(self):
        with pytest.raises(ValueError):
            new_circuit([""])

    def test_bcd_input_space(self):
        labels = ["a3", "a2", "a1", "a0", "b3", "b2", "b1", "b0", "cin"]
        builder = new_circuit(labels)
        assert len(builder.inputs) == 9

    def test_add_constant(self):
        builder = new_circuit(["a"])
        for _ in range(4):
            builder.add_constant(0)
        assert builder.constant_count == 4

    def test_constant_must_be_bit(self):
        builder = new_circuit(["a"])
        with pytest.raises(ValueError):
            builder.add_constant(2)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_constant_stored_as_int(self, value):
        builder = new_circuit(["a"])
        builder.mark_output(builder.inputs[0], "a")
        builder.mark_garbage(builder.add_constant(value))
        constants = builder.seal().constants
        assert constants == (1,) and type(constants[0]) is int


class TestAddGate:
    def test_returns_fresh_wires(self):
        builder = new_circuit(["a0", "b0", "cin"])
        hng = catalog_by_name()["HNG"]
        const0 = builder.add_constant(0)
        outs = builder.add_gate(hng, [*builder.inputs, const0])
        assert len(outs) == 4
        assert not any(w.consumed for w in outs)
        assert all(w.consumed for w in builder.inputs)

    def test_same_wire_twice_in_one_call(self):
        builder = new_circuit(["a", "b"])
        fg = catalog_by_name()["FG"]
        a = builder.inputs[0]
        with pytest.raises(FanOutViolation):
            builder.add_gate(fg, [a, a])

    def test_consumed_wire_rejected(self):
        builder = new_circuit(["a", "b", "c"])
        fg = catalog_by_name()["FG"]
        a, b, c = builder.inputs
        builder.add_gate(fg, [a, b])
        with pytest.raises(FanOutViolation):
            builder.add_gate(fg, [a, c])

    def test_failed_call_consumes_nothing(self):
        builder = new_circuit(["a", "b", "c"])
        fg = catalog_by_name()["FG"]
        a, b, c = builder.inputs
        builder.mark_garbage(c)
        with pytest.raises(FanOutViolation):
            builder.add_gate(fg, [a, c])
        assert not a.consumed

    def test_arity_mismatch(self):
        builder = new_circuit(["a", "b", "c"])
        fg = catalog_by_name()["FG"]
        with pytest.raises(ArityMismatch):
            builder.add_gate(fg, list(builder.inputs))

    def test_foreign_wire_rejected(self):
        fg = catalog_by_name()["FG"]
        other = new_circuit(["x", "y"])
        builder = new_circuit(["a", "b"])
        with pytest.raises(ValueError):
            builder.add_gate(fg, [builder.inputs[0], other.inputs[0]])


class TestMarks:
    def test_duplicate_output_label(self):
        builder = new_circuit(["a", "b"])
        builder.mark_output(builder.inputs[0], "out")
        with pytest.raises(DuplicateLabel):
            builder.mark_output(builder.inputs[1], "out")

    def test_output_then_garbage_is_fanout(self):
        builder = new_circuit(["a"])
        builder.mark_output(builder.inputs[0], "out")
        with pytest.raises(FanOutViolation):
            builder.mark_garbage(builder.inputs[0])

    def test_garbage_then_output_is_fanout(self):
        builder = new_circuit(["a"])
        builder.mark_garbage(builder.inputs[0])
        with pytest.raises(FanOutViolation):
            builder.mark_output(builder.inputs[0], "out")


class TestSeal:
    def test_dangling_wire(self):
        builder = new_circuit(["a", "b"])
        fg = catalog_by_name()["FG"]
        p, q = builder.add_gate(fg, list(builder.inputs))
        builder.mark_output(q, "q")
        with pytest.raises(ValidationFailed) as err:
            builder.seal()
        assert any("dangling" in v for v in err.value.violations)

    def test_pass_through_is_valid(self):
        circuit = _passthrough(["a", "b"])
        assert len(circuit.instances) == 0
        assert circuit.output_labels == ("a", "b")

    def test_conservation_reported(self):
        builder = new_circuit(["a", "b"])
        builder.mark_output(builder.inputs[0], "out")
        with pytest.raises(ValidationFailed) as err:
            builder.seal()
        assert any("conserved" in v for v in err.value.violations)

    def test_builder_unusable_after_seal(self):
        builder = new_circuit(["a"])
        builder.mark_output(builder.inputs[0], "a")
        builder.seal()
        with pytest.raises(ValueError):
            builder.add_constant(0)

    @pytest.mark.parametrize("source", [("gate", 3, 0), ("in", 0), ["in", 0]])
    def test_rejects_wires_it_did_not_issue(self, source):
        builder = new_circuit(["a", "b"])
        fg = catalog_by_name()["FG"]
        forged = Wire(source, builder)
        with pytest.raises(ValueError, match="not issued by this builder"):
            builder.add_gate(fg, [forged, builder.inputs[1]])
        with pytest.raises(ValueError, match="not issued by this builder"):
            builder.mark_output(forged, "x")
        with pytest.raises(ValueError, match="not issued by this builder"):
            builder.mark_garbage(forged)
        assert not builder.inputs[1].consumed
        builder.mark_output(builder.inputs[0], "a")
        builder.mark_garbage(builder.inputs[1])
        assert builder.seal().instances == ()

    def test_rejects_wires_of_another_builder(self):
        # The foreign wire's index is past the end of this builder's list.
        other = new_circuit(["x", "y", "z"])
        builder = new_circuit(["a"])
        for wire in (other.inputs[2], other.inputs[0]):
            with pytest.raises(ValueError, match="not issued by this builder"):
                builder.mark_output(wire, "x")
        assert not other.inputs[0].consumed

    def test_wire_descriptions(self):
        builder = new_circuit(["a", "b"])
        fg = catalog_by_name()["FG"]
        p, _ = builder.add_gate(fg, list(builder.inputs))
        assert builder.describe(builder.inputs[0].source) == "input 'a'"
        assert builder.describe(p.source) == "FG#0 output P"

    def test_sealed_builder_freed_by_refcount(self):
        # Wires reach their builder only weakly, so with the cyclic
        # collector off, dropping the builder and its wires frees it.
        gc.disable()
        try:
            builder = new_circuit(["a", "b"])
            p, q = builder.add_gate(catalog_by_name()["FG"], builder.inputs)
            builder.mark_output(q, "q")
            builder.mark_garbage(p)
            circuit = builder.seal()
            released = weakref.ref(builder)
            assert repr(p) == "<Wire FG#0 output P (consumed)>"
            del builder, q
            assert released() is None
            assert repr(p) == "<Wire ('gate', 0, 0) (consumed)>"
        finally:
            gc.enable()
        assert circuit.simulate(BitWord((1, 0))) == (BitWord((1,)), BitWord((1,)))

    def test_failed_seal_keeps_its_wires(self):
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(catalog_by_name()["FG"], builder.inputs)
        builder.mark_output(q, "q")
        for _ in range(2):
            with pytest.raises(ValidationFailed) as err:
                builder.seal()
            assert err.value.violations == [
                "dangling wire: FG#0 output P",
                "line count not conserved: 2 inputs + 0 constants"
                " != 1 outputs + 0 garbage",
            ]
        assert repr(p) == "<Wire FG#0 output P (free)>"
        builder.mark_garbage(p)
        assert builder.seal().garbage == (("gate", 0, 0),)


class TestSimulate:
    def test_pass_through_identity(self):
        circuit = _passthrough(["a", "b"])
        outputs, garbage = circuit.simulate(BitWord((1, 0)))
        assert outputs.bits == (1, 0)
        assert garbage.width == 0

    def test_full_adder_example(self):
        # Independent construction of the HNG full adder, not the one
        # from the designs module.
        builder = new_circuit(["a", "b", "cin"])
        hng = catalog_by_name()["HNG"]
        const0 = builder.add_constant(0)
        p, q, total, carry = builder.add_gate(hng, [*builder.inputs, const0])
        builder.mark_garbage(p)
        builder.mark_garbage(q)
        builder.mark_output(total, "sum")
        builder.mark_output(carry, "carry")
        circuit = builder.seal()
        outputs, garbage = circuit.simulate(BitWord((1, 1, 1)))
        assert outputs.bits == (1, 1)
        assert garbage.bits == (1, 1)

    def test_width_mismatch(self):
        circuit = _passthrough(["a", "b"])
        with pytest.raises(WidthMismatch):
            circuit.simulate(BitWord((1, 0, 1)))


class TestMapping:
    def test_identity_mapping(self):
        circuit = _passthrough(["a", "b"])
        rows = circuit.mapping()
        assert len(rows) == 4
        for value, (outputs, garbage) in enumerate(rows):
            assert outputs.to_int() == value
            assert garbage.width == 0

    def test_full_adder_mapping_matches_addition(self):
        builder = new_circuit(["a", "b", "cin"])
        hng = catalog_by_name()["HNG"]
        const0 = builder.add_constant(0)
        p, q, total, carry = builder.add_gate(hng, [*builder.inputs, const0])
        builder.mark_garbage(p)
        builder.mark_garbage(q)
        builder.mark_output(carry, "carry")
        builder.mark_output(total, "sum")
        circuit = builder.seal()
        for value, (outputs, _) in enumerate(circuit.mapping()):
            a, b, cin = (value >> 2) & 1, (value >> 1) & 1, value & 1
            assert outputs.to_int() == a + b + cin

    def test_too_wide(self):
        labels = [f"i{k}" for k in range(ENUMERATION_LIMIT + 1)]
        circuit = _passthrough(labels)
        with pytest.raises(TooWide):
            circuit.mapping()


class TestBuilderProperties:
    @given(circuit_plans())
    def test_sealed_circuits_conserve_and_recover(self, plan):
        builder, pool, _ = build_from_plan(plan)
        builder.mark_output(pool[0], "r0")
        for wire in pool[1:]:
            builder.mark_garbage(wire)
        circuit = builder.seal()

        n_in = len(circuit.input_labels) + len(circuit.constants)
        n_out = len(circuit.outputs) + len(circuit.garbage)
        assert n_in == n_out

        rows = circuit.mapping()
        images = {(out.bits, garbage.bits) for out, garbage in rows}
        assert len(images) == len(rows)

        for value, row in enumerate(rows):
            word = BitWord.from_int(value, circuit.width)
            assert circuit.simulate(word) == row

    @given(circuit_plans())
    def test_double_consumption_always_raises(self, plan):
        builder, pool, consumed = build_from_plan(plan)
        fg = catalog_by_name()["FG"]
        victims = consumed if consumed else [pool[0]]
        if not consumed:
            builder.mark_garbage(pool[0])
        for wire in victims:
            with pytest.raises(FanOutViolation):
                builder.mark_garbage(wire)
            with pytest.raises(FanOutViolation):
                builder.mark_output(wire, "dup")
            if len(pool) > 1:
                with pytest.raises(FanOutViolation):
                    builder.add_gate(fg, [wire, pool[-1]])

    @given(circuit_plans())
    def test_dangling_wire_always_fails_seal(self, plan):
        builder, pool, _ = build_from_plan(plan)
        for wire in pool[1:]:
            builder.mark_garbage(wire)
        with pytest.raises(ValidationFailed) as err:
            builder.seal()
        assert any("dangling" in v for v in err.value.violations)
