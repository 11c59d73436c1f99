"""Shared test helpers: a hypothesis strategy for random circuit plans.

A plan is pure data (input count, constant bits, gate placements over a
fixed-size wire pool), so hypothesis can shrink it; `build_from_plan`
replays it through the builder. The pool keeps a constant size because
every reversible gate consumes and produces the same number of wires.
`sealed_circuits` seals such a circuit with a random split of its lines
into outputs and garbage. `random_gates` draws gates whose rows are a
random permutation.
"""

from __future__ import annotations

from hypothesis import strategies as st

from revlogic.gates import GateDef, catalog_by_name
from revlogic.netlist import Circuit, CircuitBuilder, Wire, new_circuit


@st.composite
def circuit_plans(draw):
    n_inputs = draw(st.integers(min_value=1, max_value=5))
    n_consts = draw(st.integers(min_value=0, max_value=3))
    const_bits = [draw(st.integers(0, 1)) for _ in range(n_consts)]
    pool_size = n_inputs + n_consts
    usable = [g for g in catalog_by_name().values() if g.arity <= pool_size]
    placements: list[tuple] = []
    if usable:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            gate = draw(st.sampled_from(usable))
            picks = draw(
                st.lists(
                    st.integers(0, pool_size - 1),
                    min_size=gate.arity,
                    max_size=gate.arity,
                    unique=True,
                )
            )
            placements.append((gate, tuple(picks)))
    return n_inputs, tuple(const_bits), tuple(placements)


def build_from_plan(plan) -> tuple[CircuitBuilder, list[Wire], list[Wire]]:
    """Replay a plan; returns (builder, free wire pool, consumed wires)."""
    n_inputs, const_bits, placements = plan
    builder = new_circuit([f"i{k}" for k in range(n_inputs)])
    pool = list(builder.inputs)
    for bit in const_bits:
        pool.append(builder.add_constant(bit))
    consumed: list[Wire] = []
    for gate, picks in placements:
        wires = [pool[i] for i in picks]
        outs = builder.add_gate(gate, wires)
        consumed.extend(wires)
        for i, out in zip(picks, outs):
            pool[i] = out
    return builder, pool, consumed


@st.composite
def sealed_circuits(draw) -> Circuit:
    """A random circuit with a random split of its lines into outputs and garbage."""
    builder, pool, _ = build_from_plan(draw(circuit_plans()))
    n_out = draw(st.integers(0, len(pool)))
    for k, wire in enumerate(pool[:n_out]):
        builder.mark_output(wire, f"o{k}")
    for wire in pool[n_out:]:
        builder.mark_garbage(wire)
    return builder.seal()


def random_gates():
    """A gate "R" whose rows are a random permutation, of arity 1 to 6."""
    return st.integers(1, 6).flatmap(
        lambda arity: st.permutations(range(1 << arity))
    ).map(lambda rows: GateDef("R", tuple(rows)))
