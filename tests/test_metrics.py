"""Metrics tests: reports, delay model, stage decomposition."""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_from_plan, circuit_plans, sealed_circuits
from revlogic.designs import (
    bcd_digit_stage_tags,
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_correction_stage,
    build_full_adder,
    build_ripple_adder4,
)
from revlogic.gates import catalog_by_name, default_cost_table, make_gate, parse_cost_table
from revlogic.metrics import (
    MetricsReport,
    StagesNotLinear,
    UnknownGateCost,
    analyze,
    delay,
    delay_decomposition,
)
from revlogic.netlist import Wire, new_circuit
from revlogic.netlist_text import emit_netlist


def _fg_chain(length):
    """FG gates in series: gate k feeds gate k+1's A pin."""
    fg = catalog_by_name()["FG"]
    builder = new_circuit(["a", "b"])
    wire = builder.inputs[0]
    spare = builder.inputs[1]
    for _ in range(length):
        wire, out_b = builder.add_gate(fg, [wire, spare])
        spare = out_b
    builder.mark_output(wire, "p")
    builder.mark_output(spare, "q")
    return builder.seal()


def _levels(circuit):
    """Each instance's level in the whole circuit, counted independently."""
    levels = []
    for inst in circuit.instances:
        upstream = [levels[s[1]] for s in inst.sources if s[0] == "gate"]
        levels.append(1 + max(upstream, default=0))
    return levels


def _pass_through():
    builder = new_circuit(["a", "b"])
    builder.mark_output(builder.inputs[0], "a")
    builder.mark_output(builder.inputs[1], "b")
    return builder.seal()


class TestMetricsReport:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsReport(-1, 0, 0, 0, 0)

    def test_as_kv(self):
        report = MetricsReport(8, 10, 6, 41, 8)
        assert report.as_kv() == (
            "gate_count=8\ngarbage_count=10\nconstant_count=6\n"
            "quantum_cost=41\ndelay_levels=8"
        )


class TestAnalyze:
    def test_empty_pass_through(self):
        report = analyze(_pass_through())
        assert report == MetricsReport(0, 0, 0, 0, 0)

    def test_fg_chain_costs(self):
        report = analyze(_fg_chain(3), {"FG": 1})
        assert report.quantum_cost == 3
        assert report.delay_levels == 3
        assert report.gate_count == 3

    def test_unknown_gate_cost(self):
        with pytest.raises(UnknownGateCost):
            analyze(_fg_chain(1), {"TG": 5})

    def test_default_costs_used(self):
        report = analyze(_fg_chain(2))
        assert report.quantum_cost == 2

    def test_custom_gate_priced_only_by_the_table(self):
        swap = make_gate("SWAP", (lambda a, b: b, lambda a, b: a))
        builder = new_circuit(["a", "b"])
        p, q = builder.add_gate(swap, builder.inputs)
        builder.mark_output(p, "p")
        builder.mark_output(q, "q")
        circuit = builder.seal()
        assert analyze(circuit, {"SWAP": 3}).quantum_cost == 3
        with pytest.raises(UnknownGateCost):
            analyze(circuit)
        with pytest.raises(UnknownGateCost):
            analyze(circuit, {"FG": 1})

    @pytest.mark.parametrize("circuit, costs, bad", [
        (build_full_adder, {"HNG": "6"}, "'6'"),
        (build_full_adder, {"HNG": 1.5}, "1.5"),
        (build_full_adder, {"HNG": True}, "True"),
        # The sum, 5, is nonnegative; the HNG price is not.
        (build_bcd_adder_digit, {"HNG": -1, "SCL": 10, "PG": 0, "FG": 0}, "-1"),
    ], ids=["str", "float", "bool", "negative"])
    def test_cost_must_be_nonnegative_int(self, circuit, costs, bad):
        with pytest.raises(ValueError) as err:
            analyze(circuit(), costs)
        assert str(err.value) == f"cost for gate 'HNG' is {bad}, not a nonnegative int"

    def test_each_gate_name_priced_once(self):
        looked_up = []

        class Costs(dict):
            def __getitem__(self, name):
                looked_up.append(name)
                return super().__getitem__(name)

        costs = Costs(default_cost_table())
        assert analyze(build_bcd_adder_digit(), costs).quantum_cost == 41
        assert sorted(looked_up) == ["FG", "HNG", "PG", "SCL"]

    @given(circuit_plans())
    def test_all_ones_costs_equal_gate_count(self, plan):
        builder, pool, _ = build_from_plan(plan)
        for wire in pool:
            builder.mark_garbage(wire)
        circuit = builder.seal()
        ones = {gate.name: 1 for gate in catalog_by_name().values()}
        report = analyze(circuit, ones)
        assert report.quantum_cost == report.gate_count

    @given(circuit_plans())
    def test_delay_at_most_gate_count(self, plan):
        builder, pool, _ = build_from_plan(plan)
        for wire in pool:
            builder.mark_garbage(wire)
        circuit = builder.seal()
        assert delay(circuit) <= len(circuit.instances)


class TestDelay:
    def test_pass_through_is_zero(self):
        assert delay(_pass_through()) == 0

    def test_single_gate_is_one(self):
        assert delay(_fg_chain(1)) == 1

    def test_chain_grows_by_one_per_gate(self):
        for length in range(1, 6):
            assert delay(_fg_chain(length)) == length

    def test_parallel_gates_share_a_level(self):
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b", "c", "d"])
        a, b, c, d = builder.inputs
        for wire in builder.add_gate(fg, [a, b]) + builder.add_gate(fg, [c, d]):
            builder.mark_garbage(wire)
        assert delay(builder.seal()) == 1


class TestDelayDecomposition:
    def test_single_stage(self):
        circuit = _fg_chain(3)
        tags = {i: "only" for i in range(3)}
        assert delay_decomposition(circuit, tags) == {"only": 3}

    @given(circuit_plans())
    def test_one_stage_is_the_whole_delay(self, plan):
        builder, pool, _ = build_from_plan(plan)
        for wire in pool:
            builder.mark_garbage(wire)
        circuit = builder.seal()
        tags = {i: "s" for i in range(len(circuit.instances))}
        expected = {"s": delay(circuit)} if circuit.instances else {}
        assert delay_decomposition(circuit, tags) == expected

    @settings(max_examples=300)
    @given(circuit_plans(), st.data())
    def test_depth_bands_split_by_width(self, plan, data):
        # Cutting the levels 1..delay into bands gives a linear pipeline
        # whose stages contribute their band widths, in band order, however
        # the bands are named. Naming the first and third band alike makes
        # the stage graph cyclic.
        builder, pool, _ = build_from_plan(plan)
        for wire in pool:
            builder.mark_garbage(wire)
        circuit = builder.seal()
        levels = _levels(circuit)
        total = max(levels, default=0)
        cuts = sorted(data.draw(st.sets(st.integers(1, max(total - 1, 1)),
                                        max_size=max(total - 1, 0))))
        bounds = [0, *cuts, total]
        names = data.draw(st.permutations([f"s{k}" for k in range(len(cuts) + 1)]))
        band = [sum(level > cut for cut in cuts) for level in levels]
        tags = {i: names[b] for i, b in enumerate(band)}
        widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])] if total else []
        assert list(delay_decomposition(circuit, tags).items()) == list(
            zip(names, widths))
        if len(cuts) >= 2:
            merged = {i: names[0 if b == 2 else b] for i, b in enumerate(band)}
            with pytest.raises(StagesNotLinear):
                delay_decomposition(circuit, merged)

    def test_parallel_gates_in_one_stage_contribute_one(self):
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b", "c", "d"])
        a, b, c, d = builder.inputs
        for wire in builder.add_gate(fg, [a, b]) + builder.add_gate(fg, [c, d]):
            builder.mark_garbage(wire)
        circuit = builder.seal()
        assert delay_decomposition(circuit, {0: "s", 1: "s"}) == {"s": 1}

    def test_two_stage_chain(self):
        circuit = _fg_chain(4)
        tags = {0: "front", 1: "front", 2: "back", 3: "back"}
        assert delay_decomposition(circuit, tags) == {"front": 2, "back": 2}

    def test_result_order_follows_pipeline(self):
        circuit = _fg_chain(2)
        tags = {0: "zzz", 1: "aaa"}
        assert list(delay_decomposition(circuit, tags)) == ["zzz", "aaa"]

    def test_result_order_ignores_instance_order(self):
        # The later stage's first gate is placed first, beside the chain.
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b", "c", "d"])
        a, b, c, d = builder.inputs
        side = builder.add_gate(fg, [c, d])
        chain = builder.add_gate(fg, builder.add_gate(fg, [a, b]))
        for wire in side + chain:
            builder.mark_garbage(wire)
        tags = {0: "late", 1: "early", 2: "late"}
        assert list(delay_decomposition(builder.seal(), tags).items()) == [
            ("early", 1), ("late", 1)]

    def test_missing_tag_rejected(self):
        circuit = _fg_chain(2)
        with pytest.raises(ValueError):
            delay_decomposition(circuit, {0: "s"})

    def test_extra_tag_rejected(self):
        circuit = _fg_chain(2)
        with pytest.raises(ValueError):
            delay_decomposition(circuit, {0: "s", 1: "s", 2: "s"})

    def test_empty_circuit(self):
        assert delay_decomposition(_pass_through(), {}) == {}

    def test_unordered_stages_rejected(self):
        # Two independent gates in different stages: no edge orders them.
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b", "c", "d"])
        a, b, c, d = builder.inputs
        for wire in builder.add_gate(fg, [a, b]) + builder.add_gate(fg, [c, d]):
            builder.mark_garbage(wire)
        circuit = builder.seal()
        with pytest.raises(StagesNotLinear):
            delay_decomposition(circuit, {0: "s1", 1: "s2"})

    def test_interleaved_stages_rejected(self):
        # Chain of three gates tagged A, B, A: the stage graph is cyclic.
        circuit = _fg_chain(3)
        with pytest.raises(StagesNotLinear):
            delay_decomposition(circuit, {0: "A", 1: "B", 2: "A"})

    def test_bypassed_stage_rejected(self):
        # Stage "front" holds an unrelated 2-chain next to the 1-gate
        # path into "back": contributions 2 + 1 exceed the delay of 2.
        fg = catalog_by_name()["FG"]
        builder = new_circuit(["a", "b", "c", "d"])
        a, b, c, d = builder.inputs
        p1, q1 = builder.add_gate(fg, [a, b])
        p2, q2 = builder.add_gate(fg, [c, d])
        p3, q3 = builder.add_gate(fg, [p2, q2])
        p4, q4 = builder.add_gate(fg, [p1, q1])
        for wire in (p3, q3, p4, q4):
            builder.mark_garbage(wire)
        circuit = builder.seal()
        tags = {0: "front", 1: "front", 2: "front", 3: "back"}
        with pytest.raises(StagesNotLinear):
            delay_decomposition(circuit, tags)


# A public callable given a value of the wrong type raises a TypeError
# naming the type it takes, as the text layer's four do (see
# test_netlist_text); no wire is made outside a builder.
@pytest.mark.parametrize("call, arguments, message", [
    (analyze, ("x",), "analyze takes a Circuit, not str"),
    (delay, ("x",), "delay takes a Circuit, not str"),
    (delay_decomposition, ("x", {}), "delay_decomposition takes a Circuit, not str"),
    (parse_cost_table, (5,), "parse_cost_table takes a str, not int"),
    (Wire, (("in", 0), None), "a Wire is issued by a CircuitBuilder, not made by hand"),
], ids=["analyze", "delay", "delay_decomposition", "parse_cost_table", "Wire"])
def test_wrong_argument_type_is_a_type_error(call, arguments, message):
    with pytest.raises(TypeError) as err:
        call(*arguments)
    assert type(err.value) is TypeError
    assert str(err.value) == message


def _plain_pairs(circuit):
    """The circuit with each instance the plain tuple `(gate, sources)`."""
    return dataclasses.replace(circuit, instances=tuple(map(tuple, circuit.instances)))


def _emitted(circuit) -> str:
    """The netlist text of `circuit`, or the message it is refused with."""
    try:
        return emit_netlist(circuit)
    except ValueError as exc:
        return f"refused: {exc}"


def _check_twin_reads_alike(circuit):
    twin = _plain_pairs(circuit)
    assert all(type(inst) is tuple for inst in twin.instances) and twin == circuit
    assert analyze(twin) == analyze(circuit)
    assert delay(twin) == delay(circuit)
    assert _emitted(twin) == _emitted(circuit)


# Every reader unpacks an instance as `(gate, sources)`, so a circuit of
# plain pairs reads as its `Instance` twin does.
@pytest.mark.parametrize("build", [
    build_full_adder, build_ripple_adder4, build_correction_stage, build_bcd_adder_digit,
    *[partial(build_bcd_adder_n, digits) for digits in range(1, 5)],
], ids=["full_adder", "ripple_adder4", "correction_stage", "bcd_adder_digit",
        "bcd_adder_1", "bcd_adder_2", "bcd_adder_3", "bcd_adder_4"])
def test_plain_pair_twin_of_shipped_design_reads_alike(build):
    _check_twin_reads_alike(build())


def test_plain_pair_twin_of_digit_decomposes_alike():
    digit = build_bcd_adder_digit()
    tags = bcd_digit_stage_tags()
    assert (delay_decomposition(_plain_pairs(digit), tags)
            == delay_decomposition(digit, tags) == {"adder1": 4, "correction": 1, "adder2": 3})


@given(sealed_circuits())
def test_plain_pair_twin_of_random_circuit_reads_alike(circuit):
    _check_twin_reads_alike(circuit)
