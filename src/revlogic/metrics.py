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

from collections import Counter
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
    """Longest source-to-output path, counting one level per gate.
    Anything but a `Circuit` is a TypeError."""
    if not isinstance(circuit, Circuit):
        raise TypeError(f"delay takes a Circuit, not {type(circuit).__name__}")
    return max(_depths(circuit), default=0)


def analyze(circuit: Circuit, costs: Mapping[str, int] | None = None) -> MetricsReport:
    """Compute the full MetricsReport for a sealed circuit.

    `costs` maps gate names to quantum costs; omitted, the packaged
    default table applies. Every gate in the circuit needs an entry, a
    nonnegative int; any other value is a ValueError. Anything but a
    `Circuit` is a TypeError.
    """
    if not isinstance(circuit, Circuit):
        raise TypeError(f"analyze takes a Circuit, not {type(circuit).__name__}")
    if costs is None:
        costs = default_cost_table()
    total = 0
    for name, uses in Counter(inst.gate.name for inst in circuit.instances).items():
        if name not in costs:
            raise UnknownGateCost(f"no cost entry for gate {name!r}")
        cost = costs[name]
        if not isinstance(cost, int) or isinstance(cost, bool) or cost < 0:
            raise ValueError(f"cost for gate {name!r} is {cost!r}, not a nonnegative int")
        total += uses * cost
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

    `stage_tags` assigns every instance index a stage label. A stage's
    reach is the deepest level, in the whole circuit, of any of its
    instances; the pipeline order is the stages sorted by reach. The
    split must form a linear pipeline: every wire runs forward in that
    order, and the per-stage longest paths sum to the total delay (every
    critical path passes through the stages in sequence). Otherwise it
    raises StagesNotLinear. Returns {stage: levels} in pipeline order.
    Anything but a `Circuit` is a TypeError.
    """
    if not isinstance(circuit, Circuit):
        raise TypeError(f"delay_decomposition takes a Circuit, not {type(circuit).__name__}")
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

    # With every wire running forward, the stage graph has no cycle. Then
    # the stage depths sum to the delay only if one critical path crosses
    # every stage once, in order, which makes that order the graph's only
    # topological order. Along such a path each reach is the running sum
    # of the stage depths, so sorting by reach finds the order.
    reach: dict[str, int] = {}
    for idx, depth in enumerate(_depths(circuit)):
        reach[stage_tags[idx]] = max(reach.get(stage_tags[idx], 0), depth)
    order = sorted(reach, key=reach.__getitem__)
    rank = {stage: pos for pos, stage in enumerate(order)}
    for idx, inst in enumerate(circuit.instances):
        for source in inst.sources:
            if source[0] == "gate" and rank[stage_tags[source[1]]] > rank[stage_tags[idx]]:
                raise StagesNotLinear(
                    "stage graph is not a linear pipeline (a wire runs from stage "
                    f"{stage_tags[source[1]]!r} back to {stage_tags[idx]!r})"
                )

    levels = dict.fromkeys(order, 0)
    for idx, depth in enumerate(_depths(circuit, stage_tags)):
        levels[stage_tags[idx]] = max(levels[stage_tags[idx]], depth)
    total = max(reach.values())
    if sum(levels.values()) != total:
        raise StagesNotLinear(
            f"per-stage contributions sum to {sum(levels.values())}, "
            f"but the circuit delay is {total}; a critical path bypasses a stage"
        )
    return levels
