"""Fan-out-free, feedback-free reversible circuits.

A circuit is a DAG of gate instances connected by wires. Two structural
rules from reversible-logic design are enforced:

* no fan-out: every wire is consumed by exactly one sink (a gate input
  pin, a primary output, or an explicit garbage mark), and
* no feedback: a gate's inputs must already exist when the gate is
  added, so cycles cannot be expressed.

Construction goes through `CircuitBuilder` (obtained from `new_circuit`),
which alone makes `Wire` handles (calling `Wire`, or copying or pickling
a wire, is a TypeError), accepts only the handles it issued, and
rejects any second consumption of a wire with `FanOutViolation`. Since
a gate's output wires are issued only after the gate is placed, and
every mark consumes its wire, feedback and double marking cannot be
expressed. `seal()` freezes what was built into an immutable `Circuit`
that can be simulated or exhaustively enumerated. Every `Circuit`, made
by `seal()`, by calling `Circuit` (as the text format's `elaborate`
does), by `dataclasses.replace`, or as a copy or pickle, checks the
rules itself, so every evaluator can rely on them: each constant is 0
or 1 (stored as that int), each source names an existing input,
constant or gate pin, in a slot before its reader's outputs, each gate
has one source per pin, every wire is read exactly once (none dangles,
none fans out), and inputs plus constants equal outputs plus garbage.
All violations are reported together in one `ValidationFailed`.

Garbage is explicit: an output that is neither marked as a primary
output nor as garbage is a dangling wire and fails sealing. This keeps
the garbage count an honest, declared quantity instead of an inferred
one.

A sealed circuit simulates two ways over one cached slot layout
(`_plan`): a flat value array holding the inputs, the constants, then
each gate's output pins side by side. The plan is plain data, one step
per gate, holding the gate and its slots, plus the output and garbage
slots, and it is the only place a wire's slot is decided: every
evaluator reads its gates and results from those steps, the compiled
kernel is generated from them, and the text format's `emit_netlist`
names one wire per slot. `simulate` is the scalar reference, in two
tiers that read one table, `GateDef.trie`: the truth table as nested
tuples, one input bit per level, so no key tuple is built or hashed.
Only these tiers build a trie. A circuit's first calls are
interpreted: for one input word, a value list starts as the inputs and
constants, and each gate indexes its trie with its input slots' values
and appends the leaf, its output bits. A gate's pins are the next slots
in the layout, so the bits land on them. The walk is built on the first
such call, one 5-tuple per gate: its trie, then the input slots of a
2-, 3- or 4-input gate (every catalog gate) padded with None, so the
first None picks one indexing expression for the whole trie; a gate of
any other arity holds its slot tuple and walks it one slot at a time.
On its `COMPILE_AFTER`th call a circuit compiles: it generates, `exec`s
and caches one straight-line Python function with a local per slot,
with no loop or store between gates, in which each gate's walk is one
indexing expression (compiled-code simulation, as in Barzilai et al.,
"HSS -- A High-Speed Simulator", IEEE TCAD 1987).
Compiling costs 70 to 190 interpreted calls, so a circuit simulated
only a few times never pays for it. Every bit either tier returns is an
input bit, a constant or a table row's, all ints known to be 0 or 1 (an
input that is not a `BitWord` is made one first, which checks it), so
the result words skip `BitWord`'s check.
`simulate_planes` is the bit-parallel kernel, checked against
`simulate`: it takes one Python int per input line, a *plane* whose bit
j is that line's value in word j, and evaluates each gate pin once for
the whole batch as the XOR of ANDs of its algebraic normal form
(`GateDef.anf`), so the cost per gate is a few big-int operations
however many words the planes hold. Scalar and plane simulation thus
derive from the truth table and the ANF independently. `mapping()` zips
`_columns`, one kernel run over all 2^width words that the CLI's `truth`
shares, straight into its result words.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import RevLogicError
from .gates import BIT_BYTES, BitWord, GateDef, WidthMismatch, _PIN_NAMES

# Exhaustive enumeration is capped here; 2^20 evaluations stay cheap.
ENUMERATION_LIMIT = 20

# The call on which `simulate` compiles a circuit's kernel; the calls
# before it are interpreted. Compiling costs as much as 70 to 190
# interpreted calls on the circuits measured (about 70 for the 1-digit
# adder, 110 for the 4-digit one, 135 and 185 for random 100- and
# 1000-gate circuits; CPython 3.11.7, 2-CPU x86-64 VM). As in ski
# rental, waiting until the calls already made cost about a compile
# bounds the waste: a circuit that stops being simulated just after
# compiling has spent at most about 2.5 times what the cheaper choice
# would have cost (twice where the compile costs exactly 128 calls), and
# one that stays in use pays the compile once. Short-lived circuits,
# such as those a netlist round trip builds and simulates a few times,
# never reach it.
COMPILE_AFTER = 128

# Words whose bits came from the circuit's own tables and planes are
# built without `BitWord`'s check.
_unchecked = BitWord._unchecked


class DuplicateLabel(RevLogicError):
    """An input or output label was used twice."""


class FanOutViolation(RevLogicError):
    """A wire was offered to a second sink; signals may not be split."""


class ArityMismatch(RevLogicError):
    """Number of wires passed to add_gate differs from the gate's arity."""


class TooWide(RevLogicError):
    """Circuit has too many primary inputs for exhaustive enumeration."""


class ValidationFailed(RevLogicError):
    """A circuit breaks the wiring rules; `.violations` lists every break."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# A wire source is one of:
#   ("in", input_index)  ("const", constant_index)  ("gate", instance, pin)
Source = tuple


class Instance(NamedTuple):
    """One placed gate: its definition plus the sources feeding its pins.

    It is the plain tuple `(gate, sources)` with names, and equals it.
    """

    gate: GateDef
    sources: tuple[Source, ...]


def _describe(input_labels: Sequence[str], instances: Sequence[Instance],
              source: Source) -> str:
    """Human-readable name for a wire source, used in diagnostics."""
    kind = source[0]
    if kind == "in":
        return f"input {input_labels[source[1]]!r}"
    if kind == "const":
        return f"constant #{source[1]}"
    _, idx, pin = source
    gate, _ = instances[idx]
    return f"{gate.name}#{idx} output {_PIN_NAMES[pin]}"


def _article(part) -> str:
    """The name of `part`'s type, after "a" or "an"."""
    kind = type(part).__name__
    return f"{'an' if kind[0] in 'aeiouAEIOU' else 'a'} {kind}"


def _misfit(inst) -> str:
    """Why `inst` is not a placed gate, the pair of a `GateDef` and a
    tuple of sources, or "" if it is one; an instance is unpacked only
    once it is a pair."""
    if not isinstance(inst, tuple):
        return f"is {_article(inst)}, not a tuple"
    if len(inst) != 2:
        return f"is a tuple of {len(inst)}, not a (gate, sources) pair"
    if not isinstance(inst[0], GateDef):
        return f"gate is {_article(inst[0])}, not a GateDef"
    if not isinstance(inst[1], tuple):
        return f"sources are {_article(inst[1])}, not a tuple"
    return ""


def _fan_out(input_labels: Sequence[str], instances: Sequence[Instance],
             source: Source | None, gate: GateDef | None = None) -> FanOutViolation:
    """The error for a wire offered to a second sink: to a second pin of
    `gate` when one is given, else to any sink after `source` was
    consumed. The builder and `netlist_text.elaborate` both raise it."""
    if gate is not None:
        return FanOutViolation(f"gate {gate.name}: the same wire was passed to two pins")
    return FanOutViolation(f"{_describe(input_labels, instances, source)} is already consumed")


class Wire:
    """Handle for a signal inside a builder; valid for one consumption.

    Only a builder makes wires: calling `Wire`, copying a wire and
    pickling one raise TypeError, so a wire is its builder's exactly when
    its `_builder` is that builder's weak reference to itself. The weak
    reference means the two form no cycle and are freed by refcount alone.
    """

    __slots__ = ("source", "_builder", "_consumed")

    def __init__(self, *args, **kwargs):
        raise TypeError("a Wire is issued by a CircuitBuilder, not made by hand")

    # `copy.copy`, `copy.deepcopy` and `pickle` reduce a wire through
    # this, so each refuses as the constructor does.
    __reduce_ex__ = __init__

    @property
    def consumed(self) -> bool:
        return self._consumed

    def __repr__(self) -> str:
        state = "consumed" if self._consumed else "free"
        builder = self._builder()
        where = repr(self.source) if builder is None else builder.describe(self.source)
        return f"<Wire {where} ({state})>"


class CircuitBuilder:
    """Accumulates gates and wire marks; `seal()` yields the Circuit.

    Use `new_circuit` to create one. It accepts exactly the wires that
    `_issue` made for it.
    """

    def __init__(self, input_labels: Iterable[str]):
        labels = list(input_labels)
        if not labels:
            raise ValueError("need at least one primary input")
        seen = set()
        for label in labels:
            if not isinstance(label, str) or not label or label != label.strip():
                raise ValueError(f"bad input label {label!r}")
            if label in seen:
                raise DuplicateLabel(f"duplicate input label {label!r}")
            seen.add(label)
        self.input_labels: tuple[str, ...] = tuple(labels)
        self._constants: list[int] = []
        self._instances: list[Instance] = []
        # Output sources by label, in marking order.
        self._outputs: dict[str, Source] = {}
        self._garbage: list[Source] = []
        self._sealed = False
        self._ref = weakref.ref(self)
        self.inputs = self._issue([("in", i) for i in range(len(labels))])

    @property
    def constant_count(self) -> int:
        return len(self._constants)

    def _issue(self, sources: Iterable[Source]) -> tuple[Wire, ...]:
        """The one place wires are made: `Wire()` refuses, so this skips it."""
        wires = []
        for source in sources:
            wire = object.__new__(Wire)
            wire.source = source
            wire._builder = self._ref
            wire._consumed = False
            wires.append(wire)
        return tuple(wires)

    def _check_open(self) -> None:
        if self._sealed:
            raise ValueError("builder already sealed")

    def _free(self, wire: Wire) -> None:
        """Check that the wire was issued here and is not yet consumed."""
        if type(wire) is not Wire or wire._builder is not self._ref:
            raise ValueError("wire was not issued by this builder")
        if wire._consumed:
            raise _fan_out(self.input_labels, self._instances, wire.source)

    def describe(self, source: Source) -> str:
        """Human-readable name for a wire source, used in diagnostics."""
        return _describe(self.input_labels, self._instances, source)

    def add_constant(self, value: int) -> Wire:
        """Add a constant input line fixed at 0 or 1; returns its wire."""
        self._check_open()
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value!r}")
        self._constants.append(int(value))
        return self._issue([("const", len(self._constants) - 1)])[0]

    def add_gate(self, gate: GateDef, inputs: Sequence[Wire]) -> tuple[Wire, ...]:
        """Place a gate instance; consumes the input wires, returns outputs.

        Output wires come back in pin order (P, Q, ...). All fan-out
        checks happen before anything is consumed, so a failed call
        leaves the builder unchanged.
        """
        self._check_open()
        wires = list(inputs)
        arity = gate.arity
        if len(wires) != arity:
            raise ArityMismatch(
                f"gate {gate.name} has arity {arity}, got {len(wires)} wires"
            )
        for wire in wires:
            self._free(wire)
        if len(set(map(id, wires))) != arity:
            raise _fan_out(self.input_labels, self._instances, None, gate)
        sources = []
        for wire in wires:
            wire._consumed = True
            sources.append(wire.source)
        idx = len(self._instances)
        self._instances.append(Instance(gate, tuple(sources)))
        return self._issue([("gate", idx, pin) for pin in range(arity)])

    def mark_output(self, wire: Wire, label: str) -> None:
        """Consume a wire as the primary output named `label`."""
        self._check_open()
        if label == "":
            raise ValueError("output label must be nonempty")
        if not isinstance(label, str) or label != label.strip():
            raise ValueError(f"bad output label {label!r}")
        if label in self._outputs:
            raise DuplicateLabel(f"duplicate output label {label!r}")
        self._free(wire)
        wire._consumed = True
        self._outputs[label] = wire.source

    def mark_garbage(self, wire: Wire) -> None:
        """Consume a wire as an explicit garbage output."""
        self._check_open()
        self._free(wire)
        wire._consumed = True
        self._garbage.append(wire.source)

    def seal(self) -> Circuit:
        """Freeze the gates and marks into a `Circuit`, which checks itself.

        The builder's own calls already rule out fan-out, feedback and
        double marking; the circuit reports a wire that nothing consumed
        and lines not conserved, together, in ValidationFailed. A builder
        whose seal fails stays open, so a caller can still mark the
        dangling wires and seal again.
        """
        self._check_open()
        circuit = Circuit(
            input_labels=self.input_labels,
            constants=tuple(self._constants),
            instances=tuple(self._instances),
            outputs=tuple(self._outputs.items()),
            garbage=tuple(self._garbage),
        )
        self._sealed = True
        return circuit


def new_circuit(input_labels: Iterable[str]) -> CircuitBuilder:
    """Start building a circuit over the given primary-input labels."""
    return CircuitBuilder(input_labels)


class _Plan(NamedTuple):
    """A circuit's flat slot layout, the one every evaluator and emission read.

    Slots hold the inputs, then the constants, then each instance's
    output pins, contiguous per instance, `size` in all. `steps` has one
    `(gate, in_slots, lo, hi)` per instance, in order: its `GateDef`,
    its input slots in pin order, and its output slots `lo` to `hi`.
    `outputs` and `garbage` are the slots of the output and garbage
    wires, in marking order; the constant slots hold the circuit's
    `constants`. A plan is built only for a circuit that keeps the
    rules: every slot is read exactly once, and each step reads only
    slots below its `lo`.
    """

    steps: tuple[tuple[GateDef, tuple[int, ...], int, int], ...]
    outputs: tuple[int, ...]
    garbage: tuple[int, ...]
    size: int


@dataclass(frozen=True)
class Circuit:
    """An immutable reversible circuit, checked when it is made.

    `outputs` holds (label, source) pairs in marking order; `garbage`
    holds sources in marking order. Simulation evaluates instances in
    list order. Making a circuit builds its plan, which checks the rules
    and raises ValidationFailed listing every violation.
    """

    input_labels: tuple[str, ...]
    constants: tuple[int, ...]
    instances: tuple[Instance, ...]
    outputs: tuple[tuple[str, Source], ...]
    garbage: tuple[Source, ...]

    def __post_init__(self) -> None:
        self._plan  # building the plan checks the rules
        # Stored as ints, as `GateDef` stores its rows: `True` reads as 1.
        object.__setattr__(self, "constants", tuple([1 if c else 0 for c in self.constants]))

    @property
    def width(self) -> int:
        return len(self.input_labels)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outputs)

    @cached_property
    def _plan(self) -> _Plan:
        # A source's slot is found by arithmetic: input i is slot i,
        # constant j follows the inputs, and a gate pin is its
        # instance's first output slot plus the pin number. A source
        # gets None if it is no such tuple, its index or pin is out of
        # range, or its slot is not below its reader's first output
        # slot, so that no gate reads its own or a later gate's output.
        # Gates are placed as they are read, so one not yet placed has
        # no start and any source naming it gets None.
        width = self.width
        first = {"in": 0, "const": width}
        count = {"in": width, "const": len(self.constants)}
        starts = []
        arities = []

        def slots(sources, limit: int) -> tuple:
            found = []
            for source in sources:
                try:
                    if not isinstance(source, tuple):
                        slot = None
                    elif source[0] == "gate":
                        _, idx, pin = source
                        slot = (starts[idx] + pin
                                if idx >= 0 and 0 <= pin < arities[idx] else None)
                    else:
                        kind, idx = source
                        slot = first[kind] + idx if 0 <= idx < count[kind] else None
                except (LookupError, TypeError, ValueError):
                    slot = None
                found.append(slot if type(slot) is int and slot < limit else None)
            return tuple(found)

        steps = []
        reads: list[int | None] = []
        faulty = False
        size = width + len(self.constants)
        for inst in self.instances:
            # Past an instance that is no (GateDef, tuple) pair, no
            # slot is known; the report then leaves the wiring out.
            if _misfit(inst):
                faulty = True
                break
            gate, sources = inst
            arity = gate.arity
            in_slots = slots(sources, size)
            faulty |= len(in_slots) != arity
            steps.append((gate, in_slots, size, size + arity))
            starts.append(size)
            arities.append(arity)
            reads += in_slots
            size += arity
        outputs = slots([s for _, s in self.outputs], size)
        garbage = slots(self.garbage, size)
        reads += outputs
        reads += garbage
        # With each source's count right, `size` reads of distinct slots
        # read every slot exactly once, and so conserve the lines too.
        if (faulty or len(reads) != size or None in reads or len(set(reads)) != size
                or not all(c in (0, 1) for c in self.constants)
                or not all(map(isinstance, (
                    self.input_labels, self.constants, self.instances, self.outputs,
                    self.garbage, *self.outputs), repeat(tuple)))):
            raise ValidationFailed(self._violations(steps, outputs, garbage, size, slots))
        return _Plan(tuple(steps), outputs, garbage, size)

    def _violations(self, steps, outputs, garbage, size: int, slots) -> list[str]:
        """`_plan`'s report, from its steps, result slots and `slots`
        lookup: each field, instance or output pair of the wrong shape;
        each constant that is not 0 or 1; each gate whose source count is
        not its arity; each source that names no slot, or a slot at or
        after its reader's outputs, in reading order; then each slot not
        read exactly once, in slot order; then the line count. Past an
        instance of the wrong shape no slot is known, so a circuit with
        one gets no source-count, source or slot lines."""
        width, n_const = self.width, len(self.constants)
        conserved = [] if width + n_const == len(self.outputs) + len(self.garbage) else [
            f"line count not conserved: {width} inputs + {n_const} constants"
            f" != {len(self.outputs)} outputs + {len(self.garbage)} garbage"]
        # A field, instance or output pair that is not a tuple would
        # neither hash nor emit; `slots` refuses such a source as any
        # malformed one.
        parts = [(field.name, getattr(self, field.name)) for field in fields(self)]
        violations = [f"{what} is {_article(part)}, not a tuple"
                      for what, part in parts if not isinstance(part, tuple)]
        misfits = [f"instances[{k}] {why}"
                   for k, inst in enumerate(self.instances) if (why := _misfit(inst))]
        violations += misfits
        violations += [f"outputs[{n}] is {_article(pair)}, not a tuple"
                       for n, pair in enumerate(self.outputs) if not isinstance(pair, tuple)]
        violations += [f"constant #{j} is {c!r}, not 0 or 1"
                       for j, c in enumerate(self.constants) if c not in (0, 1)]
        if misfits:
            return violations + conserved
        violations += [f"{gate.name}#{k} has arity {gate.arity}, got {len(sources)} sources"
                       for k, (gate, sources) in enumerate(self.instances)
                       if len(sources) != gate.arity]
        by_slot = [("in", i) for i in range(width)] + [("const", j) for j in range(n_const)]
        by_slot += [("gate", k, pin) for k, (gate, _) in enumerate(self.instances)
                    for pin in range(gate.arity)]
        name = [_describe(self.input_labels, self.instances, source) for source in by_slot]
        readers = [(f"{gate.name}#{k} input pin {pin}", source, slot)
                   for k, ((gate, sources), step) in enumerate(zip(self.instances, steps))
                   for pin, (source, slot) in enumerate(zip(sources, step[1]))]
        readers += [(f"output {label!r}", source, slot)
                    for (label, source), slot in zip(self.outputs, outputs)]
        readers += [(f"garbage #{n}", source, slot)
                    for n, (source, slot) in enumerate(zip(self.garbage, garbage))]
        reads = [0] * size
        for reader, source, slot in readers:
            (found,) = slots([source], size)
            if found is None:
                violations.append(f"unknown wire: {source!r} read by {reader}")
                continue
            if slot is None:
                violations.append(f"feedback wire: {name[found]} read by {reader}")
            reads[found] += 1
        violations += [f"{'dangling' if n == 0 else 'fanned-out'} wire: {name[slot]}"
                       for slot, n in enumerate(reads) if n != 1]
        return violations + conserved

    @cached_property
    def _walk(self) -> tuple[tuple, ...]:
        # The interpreted tier's steps, one 5-tuple per gate: its trie,
        # then the input slots of a 2-, 3- or 4-input gate padded with
        # None to four, or for any other arity its slot tuple and three
        # Nones. One shape unpacks in the loop header, and the first
        # None tells the arity.
        return tuple([(gate.trie, *in_slots, *[None] * (4 - len(in_slots)))
                      if 2 <= len(in_slots) <= 4 else (gate.trie, in_slots, None, None, None)
                      for gate, in_slots, _, _ in self._plan.steps])

    # Scalar tier state, set by `simulate` and not dataclass fields: the
    # calls interpreted so far, then the compiled kernel.
    _interpreted = 0
    _kernel = None

    def simulate(self, inputs: Iterable) -> tuple[BitWord, BitWord]:
        """Evaluate the circuit on an input word, or any sequence of bits;
        returns (outputs, garbage) as BitWords.

        Bits that are not a `BitWord` are checked as `BitWord` checks
        them. Output and garbage bits appear in marking order, MSB-first.
        A circuit's first `COMPILE_AFTER - 1` calls are interpreted; the
        next compiles the circuit, and every later call runs compiled.
        """
        if type(inputs) is not BitWord:
            inputs = BitWord(inputs)
        if len(inputs) != len(self.input_labels):
            raise WidthMismatch(
                f"circuit has {self.width} inputs, got a {len(inputs)}-bit word"
            )
        kernel = self._kernel
        if kernel is None:
            calls = self._interpreted + 1
            if calls < COMPILE_AFTER:
                object.__setattr__(self, "_interpreted", calls)
                plan = self._plan
                values = [*inputs, *self.constants]
                # A gate's pins are the next slots, so the leaf's bits
                # append onto them.
                for node, a, b, c, d in self._walk:
                    if d is not None:
                        values += node[values[a]][values[b]][values[c]][values[d]]
                    elif c is not None:
                        values += node[values[a]][values[b]][values[c]]
                    elif b is not None:
                        values += node[values[a]][values[b]]
                    else:
                        for slot in a:
                            node = node[values[slot]]
                        values += node
                return (_unchecked([values[s] for s in plan.outputs]),
                        _unchecked([values[s] for s in plan.garbage]))
            source, namespace = self._kernel_source()
            exec(source, namespace)
            kernel = namespace["kernel"]
            object.__setattr__(self, "_kernel", kernel)
        outputs, garbage = kernel(*inputs)
        return _unchecked(outputs), _unchecked(garbage)

    def __reduce__(self):
        # Copies and pickles call the class, which checks them; only the
        # call count carries over, and the plan, walk and kernel rebuild.
        args = (self.input_labels, self.constants, self.instances, self.outputs, self.garbage)
        return type(self), args, {"_interpreted": self._interpreted}

    def _kernel_source(self) -> tuple[str, dict[str, tuple]]:
        """The plan as one straight-line function `kernel`, and its globals.

        `kernel` takes one argument per input bit and returns the
        (outputs, garbage) bit tuples. Slot k is the local `v<k>`, except
        that a constant's slot is the literal 0 or 1, and step k's gate's
        trie is the global `R<k>`, so the source holds only names made
        here, never a label or gate name. A Feynman gate on inputs 0 and 2
        of a 3-input circuit, say, becomes `v3, v4 = R0[v0][v2]`.
        """
        plan = self._plan
        names = [f"v{slot}" for slot in range(plan.size)]
        names[self.width : self.width + len(self.constants)] = map(str, self.constants)

        def listed(slots) -> str:
            # A tuple's items as source text; a single item keeps its comma.
            return ", ".join([names[s] for s in slots]) + ("," if len(slots) == 1 else "")

        lines = [f"def kernel({', '.join(names[:self.width])}):"]
        namespace: dict[str, tuple] = {}
        for k, (gate, in_slots, lo, hi) in enumerate(plan.steps):
            namespace[f"R{k}"] = gate.trie
            path = "".join([f"[{names[s]}]" for s in in_slots])
            lines.append(f"    {listed(range(lo, hi))} = R{k}{path}")
        lines.append(f"    return ({listed(plan.outputs)}), ({listed(plan.garbage)})")
        return "\n".join(lines), namespace

    def _columns(self, inputs: bool = False) -> list[list[str]]:
        """All 2^width input words in one plane batch, as '0'/'1' columns: the
        input (only if `inputs`), output and garbage lines, each rendered once,
        character j being the line's value in the input word with integer
        value j (MSB-first). Refuses more than ENUMERATION_LIMIT inputs."""
        if self.width > ENUMERATION_LIMIT:
            raise TooWide(f"{self.width} primary inputs exceed the exhaustive "
                          f"enumeration bound of {ENUMERATION_LIMIT}")
        count = 1 << self.width
        # Input i is bit (width-1-i) of the word value: runs of 2^(width-1-i)
        # zeros then as many ones, repeated.
        planes = []
        for i in range(self.width):
            run = 1 << (self.width - 1 - i)
            planes.append(tile(((1 << run) - 1) << run, 2 * run, count // (2 * run)))
        outputs, garbage = self.simulate_planes(planes, count)
        spec = f"0{count}b"
        return [[format(plane, spec)[::-1] for plane in lines]
                for lines in (planes if inputs else [], outputs, garbage)]

    def mapping(self) -> list[tuple[BitWord, BitWord]]:
        """The (outputs, garbage) pair for every primary-input word.

        Entry `i` corresponds to the input word with integer value `i`
        (MSB-first). Refuses circuits wider than ENUMERATION_LIMIT.
        """
        # Bytes iterate as 0/1 ints; a side with no lines repeats the empty word.
        outputs, garbage = [
            map(_unchecked, zip(*[c.encode().translate(BIT_BYTES) for c in side]))
            if side else repeat(_unchecked(())) for side in self._columns()[1:]]
        return list(zip(outputs, garbage))

    def simulate_planes(
        self, planes: Sequence[int], count: int
    ) -> tuple[list[int], list[int]]:
        """Evaluate the circuit on `count` input words at once.

        `planes` holds one nonnegative int per primary input, in input
        order; bit j of plane i is input i's value in word j, for j in
        [0, count). Returns (output planes, garbage planes) in marking
        order, laid out the same way: word j of the result is what
        `simulate` returns for word j of the input. Constant lines are
        all-zero or all-one planes.
        """
        if len(planes) != self.width:
            raise WidthMismatch(
                f"circuit has {self.width} inputs, got {len(planes)} planes"
            )
        if count < 0 or planes and (min(planes) < 0 or max(planes) >> count):
            raise ValueError(f"every plane must fit in count={count} bits")
        plan = self._plan
        mask = (1 << count) - 1
        values = [*planes, *[mask if bit else 0 for bit in self.constants]]
        for gate, in_slots, _, _ in plan.steps:
            ins = [values[s] for s in in_slots]
            for s in in_slots:
                # No fan-out: each slot has exactly one reader, so free it.
                values[s] = 0
            # Pins take the next slots in pin order, so each appends.
            for monomials in gate.anf:
                acc = 0
                for monomial in monomials:
                    if monomial:
                        term = ins[monomial[0]]
                        for p in monomial[1:]:
                            term &= ins[p]
                    else:
                        term = mask
                    acc ^= term
                values.append(acc)
        return [values[s] for s in plan.outputs], [values[s] for s in plan.garbage]


def tile(block: int, length: int, repeats: int) -> int:
    """The `length`-bit `block` repeated `repeats` times, first copy lowest.

    This is block times the repunit (2^(length*repeats) - 1) / (2^length - 1),
    built by doubling the copy count with shifts and ORs: big-int division
    is quadratic in CPython, doubling is O(result size * log repeats).
    """
    if length < 1:
        raise ValueError(f"tile length must be at least 1, got {length}")
    if repeats < 0:
        raise ValueError(f"tile repeats must be nonnegative, got {repeats}")
    result, filled = 0, 0
    piece, copies = block, 1
    while repeats:
        if repeats & 1:
            result |= piece << (filled * length)
            filled += copies
        repeats >>= 1
        if repeats:
            piece |= piece << (copies * length)
            copies *= 2
    return result
