"""Netlist builder and circuit tests: structure rules, simulation."""

from __future__ import annotations

import copy
import dataclasses
import gc
import io
import pickle
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_from_plan, circuit_plans, sealed_circuits
from revlogic.designs import build_bcd_adder_n
from revlogic.gates import BitWord, GateDef, WidthMismatch, catalog_by_name
from revlogic.netlist import (
    ENUMERATION_LIMIT,
    ArityMismatch,
    Circuit,
    DuplicateLabel,
    FanOutViolation,
    Instance,
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

    # Input labels follow the rule output labels do (see _SINGLE_DEFECTS): a
    # nonempty str equal to its strip(). Inner spaces are allowed.
    @pytest.mark.parametrize("label, shown", [
        (1, "1"), (None, "None"), (b"a", "b'a'"), (" x ", "' x '"), ("x\n", "'x\\n'"),
        ("\tx", "'\\tx'"), ("", "''"),
    ])
    def test_bad_input_label_named(self, label, shown):
        with pytest.raises(ValueError) as err:
            new_circuit(["a", label])
        assert str(err.value) == f"bad input label {shown}"

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


class TestInstance:
    def test_named_tuple_of_gate_and_sources(self):
        fg = catalog_by_name()["FG"]
        sources = (("in", 0), ("const", 0))
        inst = Instance(fg, sources)
        assert Instance._fields == ("gate", "sources")
        assert (inst.gate, inst.sources) == (fg, sources)
        assert inst == Instance(gate=fg, sources=sources) == (fg, sources)
        assert inst == Instance(GateDef("FG", fg.rows), tuple(map(tuple, sources)))
        assert inst != Instance(fg, sources[::-1])
        assert hash(inst) == hash(Instance(fg, sources)) == hash((fg, sources))
        assert len({inst, Instance(fg, sources), (fg, sources)}) == 1

    def test_refuses_attribute_writes(self):
        inst = Instance(catalog_by_name()["FG"], (("in", 0), ("in", 1)))
        for name in ("gate", "sources", "extra"):
            with pytest.raises(AttributeError):
                setattr(inst, name, None)
        assert inst.sources == (("in", 0), ("in", 1))

    def test_builder_places_instances(self):
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(fg, builder.inputs)
        for wire in builder.add_gate(fg, [q, p]):
            builder.mark_garbage(wire)
        first, second = builder.seal().instances
        assert type(first) is Instance and type(second) is Instance
        assert first == (fg, (("in", 0), ("in", 1)))
        assert second == (fg, (("gate", 0, 1), ("gate", 0, 0)))


class TestMarks:
    def test_duplicate_output_label(self):
        builder = new_circuit(["a", "b"])
        builder.mark_output(builder.inputs[0], "out")
        with pytest.raises(DuplicateLabel) as err:
            builder.mark_output(builder.inputs[1], "out")
        assert str(err.value) == "duplicate output label 'out'"

    def test_empty_output_label(self):
        builder = new_circuit(["a"])
        with pytest.raises(ValueError) as err:
            builder.mark_output(builder.inputs[0], "")
        assert str(err.value) == "output label must be nonempty"

    def test_many_outputs_mark_and_seal_in_linear_time(self):
        # The repeated-label check must be a lookup: a scan of the earlier
        # outputs makes marking quadratic, about 10 s of CPU for these
        # 20 000 (2-CPU x86-64, CPython 3.11).
        start = time.process_time()
        builder = new_circuit([f"x{i}" for i in range(20_000)])
        for i, wire in enumerate(builder.inputs):
            builder.mark_output(wire, f"y{i}")
        circuit = builder.seal()
        assert time.process_time() - start < 2
        assert circuit.output_labels[-1] == "y19999"

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


def _add_gate(*names):
    return lambda builder, wires: builder.add_gate(catalog_by_name()["FG"],
                                                   [wires[n] for n in names])


def _mark_output(name, label):
    return lambda builder, wires: builder.mark_output(wires[name], label)


def _mark_garbage(name):
    return lambda builder, wires: builder.mark_garbage(wires[name])


_NOT_ISSUED = (ValueError, "wire was not issued by this builder")
_SEALED = (ValueError, "builder already sealed")
_C_CONSUMED = (FanOutViolation, "input 'c' is already consumed")

# Every builder call with one defect, and the exception it must raise. The
# calls run on a builder over inputs a, b and c, whose c is already output
# 'x'. "foreign" is another builder's input, "source" a's source tuple and
# "listed" that source as an unhashable list.
# For "sealed" the builder is first sealed, which consumes a and b too.
_SINGLE_DEFECTS = [
    ("add_gate", "sealed", _add_gate("a", "b"), _SEALED),
    ("add_gate", "arity", _add_gate("a"), (ArityMismatch, "gate FG has arity 2, got 1 wires")),
    ("add_gate", "foreign", _add_gate("a", "foreign"), _NOT_ISSUED),
    ("add_gate", "source", _add_gate("source", "b"), _NOT_ISSUED),
    ("add_gate", "listed", _add_gate("a", "listed"), _NOT_ISSUED),
    ("add_gate", "consumed", _add_gate("a", "c"), _C_CONSUMED),
    ("add_gate", "twice", _add_gate("a", "a"),
     (FanOutViolation, "gate FG: the same wire was passed to two pins")),
    ("mark_output", "sealed", _mark_output("a", "y"), _SEALED),
    ("mark_output", "foreign", _mark_output("foreign", "y"), _NOT_ISSUED),
    ("mark_output", "source", _mark_output("source", "y"), _NOT_ISSUED),
    ("mark_output", "listed", _mark_output("listed", "y"), _NOT_ISSUED),
    ("mark_output", "consumed", _mark_output("c", "y"), _C_CONSUMED),
    ("mark_output", "empty label", _mark_output("a", ""),
     (ValueError, "output label must be nonempty")),
    ("mark_output", "int label", _mark_output("a", 5), (ValueError, "bad output label 5")),
    ("mark_output", "None label", _mark_output("a", None),
     (ValueError, "bad output label None")),
    ("mark_output", "bytes label", _mark_output("a", b"y"),
     (ValueError, "bad output label b'y'")),
    ("mark_output", "padded label", _mark_output("a", " x "),
     (ValueError, "bad output label ' x '")),
    ("mark_output", "newline label", _mark_output("a", "x\n"),
     (ValueError, "bad output label 'x\\n'")),
    ("mark_output", "no-break space label", _mark_output("a", "\u00a0x"),
     (ValueError, "bad output label '\\xa0x'")),
    ("mark_output", "repeated label", _mark_output("a", "x"),
     (DuplicateLabel, "duplicate output label 'x'")),
    ("mark_garbage", "sealed", _mark_garbage("a"), _SEALED),
    ("mark_garbage", "foreign", _mark_garbage("foreign"), _NOT_ISSUED),
    ("mark_garbage", "source", _mark_garbage("source"), _NOT_ISSUED),
    ("mark_garbage", "listed", _mark_garbage("listed"), _NOT_ISSUED),
    ("mark_garbage", "consumed", _mark_garbage("c"), _C_CONSUMED),
]


@pytest.mark.parametrize("defect, act, expected", [
    pytest.param(defect, act, expected, id=f"{call}-{defect}")
    for call, defect, act, expected in _SINGLE_DEFECTS
])
def test_single_defect_call_raises_and_changes_nothing(defect, act, expected):
    builder = new_circuit(["a", "b", "c"])
    other = new_circuit(["a"])
    a, b, c = builder.inputs
    builder.mark_output(c, "x")
    if defect == "sealed":
        builder.mark_output(a, "a")
        builder.mark_garbage(b)
        builder.seal()
    wires = {"a": a, "b": b, "c": c, "foreign": other.inputs[0], "source": a.source,
             "listed": list(a.source)}

    def state():
        # The inputs are every wire the builder has issued.
        return ([(w, w.consumed) for w in builder.inputs], list(builder._instances),
                dict(builder._outputs), list(builder._garbage), list(builder._constants))

    before = state()
    with pytest.raises(expected[0]) as err:
        act(builder, wires)
    assert (type(err.value), str(err.value)) == expected
    assert state() == before
    assert not other.inputs[0].consumed


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
        # Only the builder makes wires: one made or copied by hand is a
        # TypeError, so what it did not issue is never a wire of its own.
        builder = new_circuit(["a", "b"])
        fg = catalog_by_name()["FG"]
        issued = builder.inputs[0]
        forges = [lambda: Wire(source, builder), lambda: copy.copy(issued),
                  lambda: copy.deepcopy(issued)]
        forges += [lambda protocol=protocol: pickle.dumps(issued, protocol)
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for forge in forges:
            with pytest.raises(TypeError):
                forge()
        for offered in (source, list(source), new_circuit(["x"]).inputs[0]):
            with pytest.raises(ValueError, match="not issued by this builder"):
                builder.add_gate(fg, [offered, builder.inputs[1]])
            with pytest.raises(ValueError, match="not issued by this builder"):
                builder.mark_output(offered, "x")
            with pytest.raises(ValueError, match="not issued by this builder"):
                builder.mark_garbage(offered)
        assert not builder.inputs[1].consumed
        builder.mark_output(builder.inputs[0], "a")
        builder.mark_garbage(builder.inputs[1])
        assert builder.seal().instances == ()

    def test_rejects_wires_of_another_builder(self):
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


# Circuits made without the builder. Each defect is a hand-made circuit on
# FG gates, with every violation its check must report.
_A, _B, _C = ("in", 0), ("in", 1), ("in", 2)


_FG = catalog_by_name()["FG"]


def _fg(*sources):
    return Instance(_FG, sources)


def _p(k):
    return ("gate", k, 0)


def _q(k):
    return ("gate", k, 1)


_HAND_MADE_DEFECTS = {
    "two-FG-read-a": (
        ("a", "b", "c"), (), (_fg(_A, _B), _fg(_A, _C)),
        (("p", _p(0)), ("q", _q(0)), ("r", _p(1))), (_q(1),),
        ["fanned-out wire: input 'a'",
         "line count not conserved: 3 inputs + 0 constants != 3 outputs + 1 garbage"]),
    "one-input-on-both-pins": (
        ("a", "b"), (), (_fg(_A, _A),), (("p", _p(0)), ("q", _q(0))), (),
        ["fanned-out wire: input 'a'", "dangling wire: input 'b'"]),
    "gate-output-unread": (
        ("a", "b"), (), (_fg(_A, _B),), (("q", _q(0)),), (),
        ["dangling wire: FG#0 output P",
         "line count not conserved: 2 inputs + 0 constants != 1 outputs + 0 garbage"]),
    "FG-with-one-source": (
        ("a", "b"), (), (_fg(_A),), (("p", _p(0)), ("q", _q(0))), (_B,),
        ["FG#0 has arity 2, got 1 sources",
         "line count not conserved: 2 inputs + 0 constants != 2 outputs + 1 garbage"]),
    "forward-reference": (
        ("a", "b"), (), (_fg(_A, _p(1)), _fg(_B, _q(0))), (("p", _p(0)), ("q", _q(1))), (),
        ["feedback wire: FG#1 output P read by FG#0 input pin 1"]),
    "own-output": (
        ("a", "b"), (), (_fg(_A, _p(0)),), (("q", _q(0)),), (_B,),
        ["feedback wire: FG#0 output P read by FG#0 input pin 1"]),
    "input-out-of-range": (
        ("a", "b"), (), (_fg(_A, _C),), (("p", _p(0)), ("q", _q(0))), (),
        ["unknown wire: ('in', 2) read by FG#0 input pin 1", "dangling wire: input 'b'"]),
    "gate-out-of-range": (
        ("a", "b"), (), (_fg(_A, _B),), (("p", _p(0)), ("q", _p(1))), (),
        ["unknown wire: ('gate', 1, 0) read by output 'q'", "dangling wire: FG#0 output Q"]),
    "negative-index": (
        ("a", "b"), (), (_fg(("in", -1), _B),), (("p", _p(0)), ("q", _q(0))), (),
        ["unknown wire: ('in', -1) read by FG#0 input pin 0", "dangling wire: input 'a'"]),
    "negative-pin": (
        ("a", "b"), (), (_fg(_A, _B), _fg(_p(0), ("gate", 1, -1))),
        (("q", _q(0)), ("s", _q(1))), (),
        ["unknown wire: ('gate', 1, -1) read by FG#1 input pin 1", "dangling wire: FG#1 output P"]),
    # ('gate', 0, 2) would land on FG#1's P, below its reader, which
    # emission wrote as a wire that elaborated to a deeper circuit.
    "pin-past-arity": (
        ("a", "b", "c", "d"), (), (_fg(_A, _B), _fg(_p(0), _C), _fg(_q(0), ("gate", 0, 2))),
        (("s", _q(1)), ("d", ("in", 3)), ("x", _p(2)), ("y", _q(2))), (),
        ["unknown wire: ('gate', 0, 2) read by FG#2 input pin 1", "dangling wire: FG#1 output P"]),
    "short-source": (
        ("a", "b"), (), (_fg(("in",), _B),), (("p", _p(0)), ("q", _q(0))), (),
        ["unknown wire: ('in',) read by FG#0 input pin 0", "dangling wire: input 'a'"]),
    "label-as-source": (
        ("a", "b", "c"), (), (_fg(_A, _B),), (("p", _p(0)), ("q", _q(0))), ("c",),
        ["unknown wire: 'c' read by garbage #0", "dangling wire: input 'c'"]),
    # True equals 1 and reads as 1; 2 would read as 1 too, and emission
    # wrote it so.
    "constant-not-a-bit": (
        ("a", "b"), (True, 2), (_fg(_A, ("const", 1)),), (("p", _p(0)), ("q", _q(0))),
        (_B, ("const", 0)), ["constant #1 is 2, not 0 or 1"]),
    # Lists where tuples belong constructed and simulated, but neither
    # hashed nor emitted. A list source is malformed like any other.
    "lists-for-tuples": (
        ["a", "b"], [0], [], [("a", _A), ("b", ["in", 1])], [["const", 0]],
        ["input_labels is a list, not a tuple", "constants is a list, not a tuple",
         "instances is a list, not a tuple", "outputs is a list, not a tuple",
         "garbage is a list, not a tuple",
         "unknown wire: ['in', 1] read by output 'b'",
         "unknown wire: ['const', 0] read by garbage #0",
         "dangling wire: input 'b'", "dangling wire: constant #0"]),
    "labels-a-list": (
        ["a", "b"], (), (_fg(_A, _B),), (("p", _p(0)), ("q", _q(0))), (),
        ["input_labels is a list, not a tuple"]),
    "output-pair-a-list": (
        ("a", "b"), (), (_fg(_A, _B),), (("p", _p(0)), ["q", _q(0)]), (),
        ["outputs[1] is a list, not a tuple"]),
    "pin-source-a-list": (
        ("a", "b"), (), (_fg(_A, ["in", 1]),), (("p", _p(0)), ("q", _q(0))), (),
        ["unknown wire: ['in', 1] read by FG#0 input pin 1", "dangling wire: input 'b'"]),
    # An instance the circuit cannot hash, or cannot read as a gate and
    # its sources, is one line naming it; past it no slot is known, so
    # no wire is reported.
    "instance-a-list": (
        ("a", "b"), (), ([_FG, (_A, _B)],), (("p", _p(0)), ("q", _q(0))), (),
        ["instances[0] is a list, not a tuple"]),
    "instance-not-a-pair": (
        ("a", "b"), (), (_fg(_A, _B), (_FG, (_p(0), _q(0)), "extra")),
        (("p", _p(1)), ("q", _q(1))), (),
        ["instances[1] is a tuple of 3, not a (gate, sources) pair"]),
    "gate-not-a-GateDef": (
        ("a", "b"), (), (("FG", (_A, _B)),), (("p", _p(0)), ("q", _q(0))), (),
        ["instances[0] gate is a str, not a GateDef"]),
    "sources-an-int": (
        ("a", "b"), (), ((_FG, 5),), (("p", _A), ("q", _B)), (),
        ["instances[0] sources are an int, not a tuple"]),
    "sources-a-list": (
        ("a", "b"), (), ((_FG, [_A, _B]),), (("p", _p(0)), ("q", _q(0))), (),
        ["instances[0] sources are a list, not a tuple"]),
    # An output that is no (label, source) pair, or a field that is no
    # sequence, leaves no slot known either: the shapes alone are
    # reported, and a field with no length gives no line count.
    "output-pair-of-one": (
        ("a",), (), (), (("a",),), (),
        ["outputs[0] is a tuple of 1, not a (label, source) pair"]),
    "output-pair-of-three": (
        ("a", "b"), (), (_fg(_A, _B),), (("p", _p(0), "x"), ("q", _q(0))), (),
        ["outputs[0] is a tuple of 3, not a (label, source) pair"]),
    "output-pair-an-int": (
        ("a",), (), (), (5,), (),
        ["outputs[0] is an int, not a tuple"]),
    "output-pair-a-list-of-three": (
        ("a",), (), (), (["a", _A, "x"],), (),
        ["outputs[0] is a list, not a tuple"]),
    "output-pair-a-generator": (
        ("a",), (), (), ((part for part in ("a", _A)),), (),
        ["outputs[0] is a generator, not a tuple"]),
    "instances-None": (
        ("a",), (), None, (("a", _A),), (),
        ["instances is a NoneType, not a tuple"]),
    "constants-an-int": (
        ("a",), 5, (), (("a", _A),), (),
        ["constants is an int, not a tuple"]),
    "garbage-a-generator": (
        ("a",), (), (), (("a", _A),), (source for source in ()),
        ["garbage is a generator, not a tuple"]),
    "no-sequence-among-others": (
        ("a", "b"), (3,), None, (("a", _A), ("b",)), 7,
        ["instances is a NoneType, not a tuple", "garbage is an int, not a tuple",
         "outputs[1] is a tuple of 1, not a (label, source) pair",
         "constant #0 is 3, not 0 or 1"]),
    # The other lines still come with them, in the report's order.
    "misfit-among-others": (
        ["a", "b"], (3,), (_fg(_A, _B), [_FG, (_p(0), _q(0))]), (["p", _p(1)],), (),
        ["input_labels is a list, not a tuple", "instances[1] is a list, not a tuple",
         "outputs[0] is a list, not a tuple", "constant #0 is 3, not 0 or 1",
         "line count not conserved: 2 inputs + 1 constants != 1 outputs + 0 garbage"]),
}


@pytest.mark.parametrize("labels, constants, instances, outputs, garbage, violations",
                         _HAND_MADE_DEFECTS.values(), ids=_HAND_MADE_DEFECTS.keys())
def test_hand_made_defect_fails_construction(labels, constants, instances, outputs, garbage,
                                             violations):
    with pytest.raises(ValidationFailed) as err:
        Circuit(labels, constants, instances, outputs, garbage)
    assert err.value.violations == violations


class _Tampering(pickle.Pickler):
    """Pickles each `Circuit` as its class and state, with `edit` applied
    to the fields it is made from."""

    def __init__(self, stream, edit):
        super().__init__(stream)
        self.edit = edit

    def reducer_override(self, obj):
        if type(obj) is not Circuit:
            return NotImplemented
        cls, args, state = obj.__reduce__()
        return cls, self.edit(*args), state


def _tampered_pickle(circuit, edit) -> bytes:
    stream = io.BytesIO()
    _Tampering(stream, edit).dump(circuit)
    return stream.getvalue()


@pytest.mark.parametrize("edit, violations", [
    (lambda labels, constants, instances, outputs, garbage:
     (labels, constants, instances, outputs, garbage[1:]),
     ["dangling wire: HNG#0 output P",
      "line count not conserved: 9 inputs + 6 constants != 5 outputs + 9 garbage"]),
    (lambda labels, constants, instances, outputs, garbage:
     (labels, (2, *constants[1:]), instances, outputs, garbage),
     ["constant #0 is 2, not 0 or 1"]),
], ids=["garbage-mark-dropped", "constant-of-2"])
def test_tampered_pickle_fails_at_load(edit, violations):
    # A pickle is the class and the fields it is called with, so loading
    # one runs the constructor's check and reports the constructor's lines.
    adder = build_bcd_adder_n(1)
    with pytest.raises(ValidationFailed) as made:
        Circuit(*edit(*[getattr(adder, f.name) for f in dataclasses.fields(adder)]))
    assert made.value.violations == violations
    data = _tampered_pickle(adder, edit)
    with pytest.raises(ValidationFailed) as loaded:
        pickle.loads(data)
    assert loaded.value.violations == violations
    assert pickle.loads(_tampered_pickle(adder, lambda *fields: fields)) == adder


@settings(max_examples=50)
@given(sealed_circuits(), st.integers(0, 3))
def test_copies_and_pickles_are_made_by_the_constructor(circuit, calls):
    for value in range(calls):
        circuit.simulate(BitWord.from_int(value % (1 << circuit.width), circuit.width))
    copies = [copy.copy(circuit), copy.deepcopy(circuit)]
    copies += [pickle.loads(pickle.dumps(circuit, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in copies:
        assert type(made) is Circuit and made == circuit and hash(made) == hash(circuit)
        assert made._plan == circuit._plan
        assert made._interpreted == circuit._interpreted == calls
        assert "_walk" not in vars(made) and made._kernel is None


def test_replace_checks_the_new_fields():
    adder = build_bcd_adder_n(1)
    flipped = dataclasses.replace(adder, constants=(1, *adder.constants[1:]))
    assert flipped.constants[0] == 1 and flipped.instances == adder.instances
    with pytest.raises(ValidationFailed) as err:
        dataclasses.replace(adder, garbage=adder.garbage[1:])
    assert err.value.violations == [
        "dangling wire: HNG#0 output P",
        "line count not conserved: 9 inputs + 6 constants != 5 outputs + 9 garbage",
    ]


@given(sealed_circuits(), st.data())
def test_rewired_circuit_is_refused_or_simulates_alike(circuit, data):
    # Swap two sources, or point one at another's wire; reading order is
    # each instance's pins, then the outputs, then the garbage.
    sources = [s for inst in circuit.instances for s in inst.sources]
    sources += [s for _, s in circuit.outputs] + list(circuit.garbage)
    i, j = data.draw(st.lists(st.integers(0, len(sources) - 1), min_size=2, max_size=2))
    if data.draw(st.booleans()):
        sources[i], sources[j] = sources[j], sources[i]
    else:
        sources[i] = sources[j]
    it = iter(sources)
    fields = {
        "instances": tuple(Instance(inst.gate, tuple(next(it) for _ in inst.sources))
                           for inst in circuit.instances),
        "outputs": tuple((label, next(it)) for label, _ in circuit.outputs),
        "garbage": tuple(next(it) for _ in circuit.garbage),
    }
    try:
        rewired = dataclasses.replace(circuit, **fields)
    except ValidationFailed:
        return
    words = [BitWord.from_int(value, rewired.width) for value in range(1 << rewired.width)]
    assert rewired.mapping() == [rewired.simulate(word) for word in words]
