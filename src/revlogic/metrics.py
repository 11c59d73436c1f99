"""Optimization metrics for sealed circuits.

The figures of merit for a reversible design: gate count, garbage
outputs, constant inputs, quantum cost, and delay. Quantum cost is the
sum of configured per-gate costs (see the cost-table format in `gates`).
Delay uses a unit-delay model: every gate contributes one level, and the
circuit delay is the longest path through the instance DAG. "Gate
levels" and "delay" are the same number under this model.

`delay_decomposition` splits the delay across user-tagged pipeline
stages (e.g. adder-1 / correction / adder-2) and insists the tagging
actually forms a linear pipeline, so the per-stage numbers always sum to
the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import RevLogicError
from .gates import default_cost_table
from .netlist import Circuit


class UnknownGateCost(RevLogicError):
    """The cost table has no entry for a gate used in the circuit."""


class StagesNotLinear(RevLogicError):
    """Stage tags do not form a linear pipeline covering the delay."""


@dataclass(frozen=True)
class MetricsReport:
    """The five optimization parameters of one circuit."""

    gate_count: int
    garbage_count: int
    constant_count: int
    quantum_cost: int
    delay_levels: int

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def as_kv(self) -> str:
        """Machine-readable key=value block, one metric per line."""
        return "\n".join(
            f"{name}={getattr(self, name)}" for name in self.__dataclass_fields__
        )


def _depths(
    circuit: Circuit, stage_tags: Mapping[int, str] | None = None
) -> list[int]:
    """Longest-path depth of each instance, in levels (1 = first layer).

    With `stage_tags`, only wires between instances of the same stage
    count, so each depth is measured within its own stage's subgraph.
    """
    depths: list[int] = []
    for idx, inst in enumerate(circuit.instances):
        upstream = 0
        for source in inst.sources:
            if source[0] == "gate" and (
                stage_tags is None or stage_tags[source[1]] == stage_tags[idx]
            ):
                upstream = max(upstream, depths[source[1]])
        depths.append(upstream + 1)
    return depths


def delay(circuit: Circuit) -> int:
    """Longest source-to-output path, counting one level per gate."""
    return max(_depths(circuit), default=0)


def analyze(circuit: Circuit, costs: Mapping[str, int] | None = None) -> MetricsReport:
    """Compute the full MetricsReport for a sealed circuit.

    `costs` maps gate names to quantum costs; omitted, the packaged
    default table applies. Every gate in the circuit needs an entry.
    """
    if costs is None:
        costs = default_cost_table()
    total = 0
    for inst in circuit.instances:
        if inst.gate.name not in costs:
            raise UnknownGateCost(f"no cost entry for gate {inst.gate.name!r}")
        total += costs[inst.gate.name]
    return MetricsReport(
        gate_count=len(circuit.instances),
        garbage_count=len(circuit.garbage),
        constant_count=len(circuit.constants),
        quantum_cost=total,
        delay_levels=delay(circuit),
    )


def delay_decomposition(
    circuit: Circuit, stage_tags: Mapping[int, str]
) -> dict[str, int]:
    """Split delay(circuit) across pipeline stages.

    `stage_tags` assigns every instance index a stage label. The stages
    must form a linear pipeline: the stage-level graph has exactly one
    topological order and the per-stage longest paths sum to the total
    delay (i.e. every critical path passes through the stages in
    sequence). Returns {stage: levels} in pipeline order.
    """
    n = len(circuit.instances)
    if set(stage_tags) != set(range(n)):
        missing = sorted(set(range(n)) - set(stage_tags))
        extra = sorted(set(stage_tags) - set(range(n)))
        parts = []
        if missing:
            parts.append(f"untagged instances {missing}")
        if extra:
            parts.append(f"tags for nonexistent instances {extra}")
        raise ValueError("bad stage tags: " + ", ".join(parts))
    if n == 0:
        return {}

    stages = list(dict.fromkeys(stage_tags[i] for i in range(n)))
    succ: dict[str, set[str]] = {s: set() for s in stages}
    indegree = {s: 0 for s in stages}
    for idx, inst in enumerate(circuit.instances):
        for source in inst.sources:
            if source[0] != "gate":
                continue
            a, b = stage_tags[source[1]], stage_tags[idx]
            if a != b and b not in succ[a]:
                succ[a].add(b)
                indegree[b] += 1

    # Kahn's algorithm, requiring a unique choice at every step: that is
    # exactly the condition for the stage graph to be a single chain.
    order: list[str] = []
    remaining = dict(indegree)
    while remaining:
        ready = [s for s, d in remaining.items() if d == 0]
        if len(ready) != 1:
            raise StagesNotLinear(
                "stage graph is not a linear pipeline "
                f"(ambiguous or cyclic at {sorted(ready) or sorted(remaining)})"
            )
        stage = ready[0]
        order.append(stage)
        del remaining[stage]
        for nxt in succ[stage]:
            remaining[nxt] -= 1

    contribution = {s: 0 for s in stages}
    for idx, depth in enumerate(_depths(circuit, stage_tags)):
        stage = stage_tags[idx]
        contribution[stage] = max(contribution[stage], depth)

    total = delay(circuit)
    if sum(contribution.values()) != total:
        raise StagesNotLinear(
            f"per-stage contributions sum to {sum(contribution.values())}, "
            f"but the circuit delay is {total}; a critical path bypasses a stage"
        )
    return {s: contribution[s] for s in order}
