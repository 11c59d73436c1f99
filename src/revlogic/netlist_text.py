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
is used, which makes feedback impossible to express. The no-fan-out rule
and the gate arities are enforced during elaboration, the rest at parse
time. `parse_netlist` diagnostics carry a 1-based line and column;
`elaborate`'s builder errors read ``line N: ...`` with no column, and
its checks on a document built in code, which keeps no columns, give
column 1.

`decode_netlist` turns file bytes into text (a byte that is not UTF-8
is a located error), `parse_netlist` turns text into a
`NetlistDocument`, `elaborate` drives the circuit builder to a sealed
`Circuit`, and `emit_netlist` renders a circuit back to text such that
re-elaborating reproduces its behavior and metrics exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Union

from .errors import RevLogicError, _utf8_position
from .gates import GateDef, catalog_by_name
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


@dataclass(frozen=True)
class InputStmt:
    names: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class ConstStmt:
    name: str
    value: int
    line: int


@dataclass(frozen=True)
class GateStmt:
    gate: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class OutputStmt:
    names: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class GarbageStmt:
    names: tuple[str, ...]
    line: int


Statement = Union[InputStmt, ConstStmt, GateStmt, OutputStmt, GarbageStmt]


@dataclass(frozen=True)
class NetlistDocument:
    """Parsed netlist: validated statements in source order."""

    statements: tuple[Statement, ...]

    @property
    def input_labels(self) -> tuple[str, ...]:
        inputs = [s for s in self.statements if isinstance(s, InputStmt)]
        return tuple(name for stmt in inputs for name in stmt.names)


class _Line:
    """Token cursor over one comment-stripped source line.

    Tokens are the line's `str.split()` words, plain strings. A token's
    1-based column is found from its index, by re-running `_TOKEN_RE`
    over the line, only when a diagnostic needs it.
    """

    __slots__ = ("text", "tokens", "line_no", "pos")

    def __init__(self, text: str, line_no: int):
        self.text = text.split("#", 1)[0]
        self.tokens = self.text.split()
        self.line_no = line_no
        self.pos = 0

    def column(self, index: int) -> int:
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None))
        return match.start() + 1

    def error(self, message: str, index: int | None = None) -> NetlistSyntaxError:
        """The error at token `index`, or at the line's end if None."""
        end = len(self.text.rstrip()) + 1
        return NetlistSyntaxError(
            message, self.line_no, end if index is None else self.column(index))

    def take(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise self.error(f"expected {what}")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def names(self, what: str) -> list[str]:
        """Take the rest of the line: one or more wire names, each well formed."""
        rest = self.tokens[self.pos :]
        if not rest:
            raise self.error(f"expected at least one {what}")
        # Tokens hold no space, so the joined list matches name by name.
        if not _NAMES_RE.fullmatch(" ".join(rest)):
            for index, text in enumerate(rest, self.pos):
                if not NAME_RE.fullmatch(text):
                    _wire_name(text, self.line_no, self.column(index))
        self.pos = len(self.tokens)
        return rest

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            raise self.error(f"unexpected token {self.tokens[self.pos]!r}", self.pos)


def _wire_name(text: str, line: int, column: int) -> None:
    """Raise the located error unless `text` is a well-formed wire name."""
    if not NAME_RE.fullmatch(text):
        raise NetlistSyntaxError(f"bad wire name {text!r}", line, column)


def _declare(table: dict, name: str, line: int, column: int) -> None:
    """Enter a new wire name in `table`, not yet bound; a repeat is an error."""
    if name in table:
        raise NetlistSyntaxError(f"wire {name!r} already declared", line, column)
    table[name] = None


def _gate(catalog: Mapping[str, GateDef], name: str, line: int, column: int) -> GateDef:
    gate = catalog.get(name)
    if gate is None:
        raise UnknownGateName(f"unknown gate {name!r}", line, column)
    return gate


def decode_netlist(data: bytes) -> str:
    """Decode netlist file contents as UTF-8.

    An invalid byte is a NetlistSyntaxError at its line and column,
    counted the way `parse_netlist` counts them.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NetlistSyntaxError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
            *_utf8_position(data, exc),
        ) from None


def parse_netlist(
    text: str, catalog: Mapping[str, GateDef] | None = None
) -> NetlistDocument:
    """Parse netlist text into a document, validating names and order.

    Checks statement shape, wire-name uniqueness, declaration-before-use,
    that no wire is named as an output twice, and gate-name existence;
    gate arities and fan-out are elaboration concerns. `catalog`
    defaults to the built-in gate catalog.
    """
    if catalog is None:
        catalog = catalog_by_name()
    # A name's form is checked once, before it is declared, so a declared
    # name needs no second check. A failed inline check calls its shared
    # helper with the token's column, which raises the diagnostic.
    declared: dict[str, None] = {}
    output_names: set[str] = set()
    statements: list[Statement] = []

    def declare(names: list[str], first: int) -> tuple[str, ...]:
        for index, name in enumerate(names, first):
            if name in declared:
                _declare(declared, name, line_no, line.column(index))
            declared[name] = None
        return tuple(names)

    def resolve(name: str, index: int) -> str:
        if name not in declared:
            raise UseBeforeDeclaration(f"wire {name!r} used before declaration",
                                       line_no, line.column(index))
        return name

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, line_no)
        if not line.tokens:
            continue
        keyword = line.take("statement keyword")
        if keyword == "INPUT":
            names = declare(line.names("input name"), 1)
            statements.append(InputStmt(names, line_no))
        elif keyword == "CONST":
            name = line.take("constant name")
            if line.take("'='") != "=":
                raise line.error("expected '='", 2)
            value = line.take("0 or 1")
            if value not in ("0", "1"):
                raise line.error(f"constant value must be 0 or 1, got {value!r}", 3)
            line.finish()
            if not NAME_RE.fullmatch(name):
                _wire_name(name, line_no, line.column(1))
            declare([name], 1)
            statements.append(ConstStmt(name, int(value), line_no))
        elif keyword == "GATE":
            gate = line.take("gate name")
            if gate not in catalog:
                _gate(catalog, gate, line_no, line.column(1))
            try:
                arrow = line.tokens.index("->", 2)
            except ValueError:
                raise line.error("expected input wire or '->'") from None
            if arrow == 2:
                raise line.error("gate needs at least one input before '->'", 0)
            inputs = tuple(line.tokens[2:arrow])
            # Unlike a name list, inputs are checked one by one, form
            # first; a declared name has passed the form check already.
            for index, name in enumerate(inputs, 2):
                if name not in declared:
                    _wire_name(name, line_no, line.column(index))
                    resolve(name, index)
            line.pos = arrow + 1
            outputs = declare(line.names("output name"), arrow + 1)
            statements.append(GateStmt(gate, inputs, outputs, line_no))
        elif keyword == "OUTPUT":
            names = line.names("output name")
            for index, name in enumerate(names, 1):
                if resolve(name, index) in output_names:
                    raise line.error(f"wire {name!r} is already an output", index)
                output_names.add(name)
            statements.append(OutputStmt(tuple(names), line_no))
        elif keyword == "GARBAGE":
            names = line.names("garbage name")
            for index, name in enumerate(names, 1):
                resolve(name, index)
            statements.append(GarbageStmt(tuple(names), line_no))
        else:
            raise line.error(f"unknown statement {keyword!r} "
                             f"(expected one of {', '.join(_KEYWORDS)})", 0)
    return NetlistDocument(tuple(statements))


def elaborate(
    doc: NetlistDocument, catalog: Mapping[str, GateDef] | None = None
) -> Circuit:
    """Build and seal the circuit a document describes.

    Structural errors (fan-out, arity, repeated output labels, dangling
    wires) surface as the netlist module's exception types with source
    locations prepended. A document built in code rather than parsed
    gets located errors for what `parse_netlist` would have rejected
    too, at column 1: a bad or repeated wire name, a constant that is
    not a bit, an undeclared wire or an unknown gate.
    """
    if catalog is None:
        catalog = catalog_by_name()
    input_labels = doc.input_labels
    if not input_labels:
        raise NetlistSyntaxError("netlist has no INPUT declarations", 1, 1)
    # The one declaration table: each name is entered unbound when
    # declared and bound to its wire as soon as the builder issues it.
    wires: dict[str, Wire | None] = {}

    def declare(names: tuple[str, ...], stmt: Statement) -> None:
        for name in names:
            _wire_name(name, stmt.line, 1)
            _declare(wires, name, stmt.line, 1)

    # The builder takes every input at once, so inputs are declared first.
    for stmt in doc.statements:
        if isinstance(stmt, InputStmt):
            declare(stmt.names, stmt)
    builder = new_circuit(input_labels)
    wires.update(zip(input_labels, builder.inputs))

    def wire(name: str, stmt: Statement) -> Wire:
        try:
            return wires[name]
        except KeyError:
            raise UseBeforeDeclaration(
                f"wire {name!r} used before declaration", stmt.line, 1
            ) from None

    for stmt in doc.statements:
        try:
            if isinstance(stmt, ConstStmt):
                declare((stmt.name,), stmt)
                if stmt.value not in (0, 1):
                    raise NetlistSyntaxError(
                        f"constant value must be 0 or 1, got {stmt.value!r}",
                        stmt.line,
                        1,
                    )
                wires[stmt.name] = builder.add_constant(stmt.value)
            elif isinstance(stmt, GateStmt):
                gate = _gate(catalog, stmt.gate, stmt.line, 1)
                if not len(stmt.inputs) == len(stmt.outputs) == gate.arity:
                    raise ArityMismatch(
                        f"gate {gate.name} has arity {gate.arity}, "
                        f"statement wires {len(stmt.inputs)} inputs "
                        f"and {len(stmt.outputs)} outputs"
                    )
                ins = [wire(n, stmt) for n in stmt.inputs]
                declare(stmt.outputs, stmt)
                wires.update(zip(stmt.outputs, builder.add_gate(gate, ins)))
            elif isinstance(stmt, OutputStmt):
                for name in stmt.names:
                    builder.mark_output(wire(name, stmt), name)
            elif isinstance(stmt, GarbageStmt):
                for name in stmt.names:
                    builder.mark_garbage(wire(name, stmt))
        except (ArityMismatch, DuplicateLabel, FanOutViolation) as exc:
            raise type(exc)(f"line {stmt.line}: {exc}") from None

    try:
        return builder.seal()
    except ValidationFailed as exc:
        loose = sorted(name for name, wire in wires.items() if not wire.consumed)
        raise ValidationFailed(
            exc.violations + [f"unconsumed wire names: {', '.join(loose)}"]
        ) from None


def emit_netlist(circuit: Circuit) -> str:
    """Render a circuit as netlist text that elaborates back to it.

    Internal wires get generated names (w0, w1, ...), constants c0,
    c1, ...; wires that feed primary outputs take their output label so
    the OUTPUT line reads naturally. Circuits whose labels cannot serve
    as wire names (or that relabel an input as an output) cannot be
    expressed and raise ValueError.
    """
    for label in circuit.input_labels + circuit.output_labels:
        if not NAME_RE.fullmatch(label):
            raise ValueError(f"label {label!r} is not expressible as a wire name")

    names = {("in", i): label for i, label in enumerate(circuit.input_labels)}
    used = set(circuit.input_labels)
    for label, source in circuit.outputs:
        if source[0] == "in" and names[source] != label:
            raise ValueError(
                f"output {label!r} relabels input {names[source]!r}; "
                "the text format cannot express that"
            )
        if source[0] != "in":
            if label in used:
                raise ValueError(f"output label {label!r} collides with a wire name")
            names[source] = label
            used.add(label)

    counters = {"c": 0, "w": 0}

    def fresh(prefix: str) -> str:
        while True:
            name = f"{prefix}{counters[prefix]}"
            counters[prefix] += 1
            if name not in used:
                used.add(name)
                return name

    def name_of(source: tuple) -> str:
        if source not in names:
            names[source] = fresh("c" if source[0] == "const" else "w")
        return names[source]

    lines = ["INPUT " + " ".join(circuit.input_labels)]
    for j, value in enumerate(circuit.constants):
        lines.append(f"CONST {name_of(('const', j))} = {value}")
    for idx, inst in enumerate(circuit.instances):
        ins = " ".join(name_of(s) for s in inst.sources)
        outs = " ".join(name_of(("gate", idx, pin)) for pin in range(inst.gate.arity))
        lines.append(f"GATE {inst.gate.name} {ins} -> {outs}")
    if circuit.outputs:
        lines.append("OUTPUT " + " ".join(name_of(s) for _, s in circuit.outputs))
    if circuit.garbage:
        lines.append("GARBAGE " + " ".join(name_of(s) for s in circuit.garbage))
    return "\n".join(lines) + "\n"
