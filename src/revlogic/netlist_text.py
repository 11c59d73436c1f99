"""Line-oriented text format for reversible netlists.

Grammar (one statement per line, `#` starts a comment, tokens are
whitespace-separated):

    INPUT name+
    CONST name = 0|1
    GATE gatename in1 .. inK -> out1 .. outK
    OUTPUT name+
    GARBAGE name+

Wire names match ``[A-Za-z_][A-Za-z0-9_]*`` and must be unique. Every
name must be declared (by INPUT, CONST, or a GATE output list) before it
is used, which makes feedback impossible to express. A GATE names a gate
of the built-in catalog, the format's only gate table.

`decode_netlist` turns file bytes into text (a byte that is not UTF-8
is a located error), `parse_netlist` splits text into a tuple of token
lines, `elaborate` checks those lines and drives the circuit builder to
a sealed `Circuit`, and `emit_netlist` renders a circuit of catalog
gates back to text that elaborates to the same behavior and metrics.
Emission names one wire per slot of the circuit's plan, generating the
names it needs in slot order; parsed lines are never written, as
`elaborate` reads their tokens by index.

`elaborate` is the only validator; it reports the first defect in its
pass order. Text diagnostics carry a 1-based line and column, builder
errors (fan-out, arity) read ``line N: ...`` with no column.
"""

from __future__ import annotations

import re
from itertools import count, filterfalse, islice

from .errors import RevLogicError, _utf8_position
from .gates import catalog_by_name
from .netlist import (
    ArityMismatch,
    Circuit,
    DuplicateLabel,
    FanOutViolation,
    ValidationFailed,
    Wire,
    new_circuit,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A whole list of names joined by spaces, checked in one match.
_NAMES_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?: [A-Za-z_][A-Za-z0-9_]*)*")
# Tokens as `str.split()` finds them: `\s` and `str.isspace` agree.
_TOKEN_RE = re.compile(r"\S+")
_KEYWORDS = ("INPUT", "CONST", "GATE", "OUTPUT", "GARBAGE")


class LocatedError(RevLogicError):
    """A diagnostic tied to a source position (1-based line/column)."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class NetlistSyntaxError(LocatedError):
    """Malformed statement, bad name, or redeclared wire."""


class UseBeforeDeclaration(LocatedError):
    """A wire name was used before any statement declared it."""


class UnknownGateName(LocatedError):
    """A GATE statement names a gate missing from the catalog."""


class _Line:
    """One comment-stripped source line, read by token index.

    Tokens are the line's `str.split()` words, plain strings. A token's
    1-based column is found from its index, by re-running `_TOKEN_RE`
    over the line, only when a diagnostic needs it. Elaboration writes
    nothing here.
    """

    __slots__ = ("text", "tokens", "line_no")

    def __init__(self, text: str, line_no: int):
        self.text = text.split("#", 1)[0]
        self.tokens = self.text.split()
        self.line_no = line_no

    def column(self, index: int) -> int:
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None))
        return match.start() + 1

    def error(self, message: str, index: int | None = None) -> NetlistSyntaxError:
        """The error at token `index`, or at the line's end if None."""
        end = len(self.text.rstrip()) + 1
        return NetlistSyntaxError(
            message, self.line_no, end if index is None else self.column(index))

    def token(self, index: int, what: str) -> str:
        """Token `index`; a line that ends before it expected `what`."""
        if index >= len(self.tokens):
            raise self.error(f"expected {what}")
        return self.tokens[index]

    def check_name(self, index: int) -> None:
        """Raise the located error unless token `index` is a well-formed wire name."""
        if not NAME_RE.fullmatch(self.tokens[index]):
            raise self.error(f"bad wire name {self.tokens[index]!r}", index)

    def names(self, first: int, what: str) -> list[str]:
        """The tokens from `first` on: one or more wire names, each well formed."""
        rest = self.tokens[first:]
        if not rest:
            raise self.error(f"expected at least one {what}")
        # Tokens hold no space, so the joined list matches name by name.
        if not _NAMES_RE.fullmatch(" ".join(rest)):
            for index in range(first, len(self.tokens)):
                self.check_name(index)
        return rest

    def declare(self, table: dict, names: list[str], first: int) -> None:
        """Enter `names`, from token `first`, in `table` unbound; no repeats."""
        for index, name in enumerate(names, first):
            if name in table:
                raise self.error(f"wire {name!r} already declared", index)
            table[name] = None

    def resolve(self, wires: dict[str, Wire | None], index: int) -> Wire:
        """The wire that token `index` names; its form is checked first."""
        wire = wires.get(self.tokens[index])
        if wire is None:
            self.check_name(index)
            raise UseBeforeDeclaration(
                f"wire {self.tokens[index]!r} used before declaration",
                self.line_no, self.column(index))
        return wire


def decode_netlist(data: bytes) -> str:
    """Decode netlist file contents as UTF-8.

    An invalid byte is a NetlistSyntaxError at its line and column,
    counted the way `elaborate` counts them.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NetlistSyntaxError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
            *_utf8_position(data, exc),
        ) from None


def parse_netlist(text: str) -> tuple[_Line, ...]:
    """Split netlist text into its token lines; this checks nothing.

    Comments and blank lines are dropped, and the nonblank lines are
    kept in source order. Every check, with its line and column, is
    `elaborate`'s.
    """
    lines = (_Line(raw, line_no) for line_no, raw in enumerate(text.splitlines(), 1))
    return tuple(line for line in lines if line.tokens)


def elaborate(lines: tuple[_Line, ...]) -> Circuit:
    """Check parsed lines, then build and seal the circuit they describe.

    The builder takes every input at once, so a first pass checks each
    line's keyword and each INPUT line's names, in line order, and then
    that some INPUT line exists. The second walks the lines (and an
    OUTPUT or GARBAGE line's names) in order, raising at the first
    defect: a malformed statement, bad or repeated name, use before
    declaration or gate not in the built-in catalog as a located error,
    a fan-out or arity error as the netlist module's type with ``line
    N: `` prepended. Dangling wires fail sealing, their names listed.
    Nothing is written to the lines, so they can be elaborated again,
    or from several threads at once.
    """
    catalog = catalog_by_name()
    labels: dict[str, None] = {}
    for line in lines:
        keyword = line.tokens[0]
        if keyword not in _KEYWORDS:
            raise line.error(f"unknown statement {keyword!r} "
                             f"(expected one of {', '.join(_KEYWORDS)})", 0)
        if keyword == "INPUT":
            line.declare(labels, line.names(1, "input name"), 1)
    if not labels:
        raise NetlistSyntaxError("netlist has no INPUT declarations", 1, 1)
    builder = new_circuit(labels)
    inputs = iter(builder.inputs)
    # The one name table: each name is entered unbound when declared and
    # bound to its wire as soon as the builder issues it. An input is
    # declared when the walk reaches its INPUT line.
    wires: dict[str, Wire | None] = {}

    for line in lines:
        keyword = line.tokens[0]
        try:
            if keyword == "INPUT":
                names = line.tokens[1:]
                line.declare(wires, names, 1)
                wires.update(zip(names, inputs))
            elif keyword == "CONST":
                name = line.token(1, "constant name")
                if line.token(2, "'='") != "=":
                    raise line.error("expected '='", 2)
                value = line.token(3, "0 or 1")
                if value not in ("0", "1"):
                    raise line.error(f"constant value must be 0 or 1, got {value!r}", 3)
                if len(line.tokens) > 4:
                    raise line.error(f"unexpected token {line.tokens[4]!r}", 4)
                line.check_name(1)
                line.declare(wires, [name], 1)
                wires[name] = builder.add_constant(int(value))
            elif keyword == "GATE":
                gate = catalog.get(line.token(1, "gate name"))
                if gate is None:
                    raise UnknownGateName(f"unknown gate {line.tokens[1]!r}",
                                          line.line_no, line.column(1))
                try:
                    arrow = line.tokens.index("->", 2)
                except ValueError:
                    raise line.error("expected input wire or '->'") from None
                if arrow == 2:
                    raise line.error("gate needs at least one input before '->'", 0)
                ins = [line.resolve(wires, index) for index in range(2, arrow)]
                outs = line.names(arrow + 1, "output name")
                line.declare(wires, outs, arrow + 1)
                if not len(ins) == len(outs) == gate.arity:
                    raise ArityMismatch(f"gate {gate.name} has arity {gate.arity}, "
                                        f"statement wires {len(ins)} inputs and "
                                        f"{len(outs)} outputs")
                wires.update(zip(outs, builder.add_gate(gate, ins)))
            elif keyword == "OUTPUT":
                for index, name in enumerate(line.names(1, "output name"), 1):
                    try:
                        builder.mark_output(line.resolve(wires, index), name)
                    except DuplicateLabel:
                        raise line.error(
                            f"wire {name!r} is already an output", index) from None
            else:
                line.names(1, "garbage name")
                for index in range(1, len(line.tokens)):
                    builder.mark_garbage(line.resolve(wires, index))
        except (ArityMismatch, FanOutViolation) as exc:
            raise type(exc)(f"line {line.line_no}: {exc}") from None

    try:
        return builder.seal()
    except ValidationFailed as exc:
        loose = sorted(name for name, wire in wires.items() if not wire.consumed)
        raise ValidationFailed(
            exc.violations + [f"unconsumed wire names: {', '.join(loose)}"]
        ) from None


def emit_netlist(circuit: Circuit) -> str:
    """Render a circuit as netlist text that elaborates back to it.

    The text names one wire per slot of the circuit's plan: an input
    its label, a wire that feeds a primary output that output's label,
    so the OUTPUT line reads naturally, and every other slot, in slot
    order, a generated name: c0, c1, ... for constants and w0, w1, ...
    for gate outputs, skipping names already in use. Circuits whose
    labels cannot serve as wire names, that use a gate other than the
    built-in catalog's gate of its name, or that relabel an input as an
    output cannot be expressed and raise ValueError.
    """
    for label in circuit.input_labels + circuit.output_labels:
        if not isinstance(label, str) or not NAME_RE.fullmatch(label):
            raise ValueError(f"label {label!r} is not expressible as a wire name")

    plan = circuit._plan
    width = circuit.width
    names: list[str | None] = [*circuit.input_labels, *[None] * len(plan.fill)]
    used = set(circuit.input_labels)
    for label, slot in zip(circuit.output_labels, plan.outputs):
        if slot < width:
            if names[slot] != label:
                raise ValueError(
                    f"output {label!r} relabels input {names[slot]!r}; "
                    "the text format cannot express that"
                )
        elif label in used:
            raise ValueError(f"output label {label!r} collides with a wire name")
        else:
            names[slot] = label
            used.add(label)
    first_pin = width + len(circuit.constants)
    # One stream of free generated names per kind, drawn in slot order.
    free_c, free_w = (filterfalse(used.__contains__, map(f"{kind}{{}}".format, count()))
                      for kind in "cw")
    names = [name or next(free_c if slot < first_pin else free_w)
             for slot, name in enumerate(names)]

    lines = ["INPUT " + " ".join(circuit.input_labels)]
    lines += [f"CONST {name} = {bit}"
              for name, bit in zip(names[width:first_pin], plan.fill)]
    catalog = catalog_by_name()
    for gate, in_slots, lo, hi in plan.steps:
        if catalog.get(gate.name) != gate:
            raise ValueError(f"gate {gate.name!r} is not a built-in catalog gate")
        ins = " ".join([names[s] for s in in_slots])
        lines.append(f"GATE {gate.name} {ins} -> {' '.join(names[lo:hi])}")
    if plan.outputs:
        lines.append("OUTPUT " + " ".join([names[s] for s in plan.outputs]))
    if plan.garbage:
        lines.append("GARBAGE " + " ".join([names[s] for s in plan.garbage]))
    return "\n".join(lines) + "\n"
