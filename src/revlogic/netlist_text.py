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
time. All diagnostics carry 1-based line and column numbers.

`decode_netlist` turns file bytes into text (a byte that is not UTF-8
is a located error), `parse_netlist` turns text into a
`NetlistDocument`, `elaborate` drives the circuit builder to a sealed
`Circuit`, and `emit_netlist` renders a circuit back to text such that
re-elaborating reproduces its behavior and metrics exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
class _Token:
    text: str
    line: int
    column: int


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
        labels: list[str] = []
        for stmt in self.statements:
            if isinstance(stmt, InputStmt):
                labels.extend(stmt.names)
        return tuple(labels)


class _Line:
    """Token cursor over one comment-stripped source line."""

    def __init__(self, text: str, line_no: int):
        stripped = text.split("#", 1)[0]
        self.tokens = [
            _Token(m.group(), line_no, m.start() + 1)
            for m in re.finditer(r"\S+", stripped)
        ]
        self.line_no = line_no
        self.end_column = len(stripped.rstrip()) + 1
        self.pos = 0

    def take(self, what: str) -> _Token:
        if self.pos >= len(self.tokens):
            raise NetlistSyntaxError(
                f"expected {what}", self.line_no, self.end_column
            )
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def remaining(self) -> list[_Token]:
        rest = self.tokens[self.pos :]
        self.pos = len(self.tokens)
        return rest

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def finish(self) -> None:
        extra = self.peek()
        if extra is not None:
            raise NetlistSyntaxError(
                f"unexpected token {extra.text!r}", extra.line, extra.column
            )


def _name_token(token: _Token) -> str:
    if not NAME_RE.fullmatch(token.text):
        raise NetlistSyntaxError(
            f"bad wire name {token.text!r}", token.line, token.column
        )
    return token.text


def _declare(declared: set[str], name: str, line: int, column: int) -> str:
    """Add a new wire name to `declared`; a bad or repeated name is an error."""
    if not NAME_RE.fullmatch(name):
        raise NetlistSyntaxError(f"bad wire name {name!r}", line, column)
    if name in declared:
        raise NetlistSyntaxError(f"wire {name!r} already declared", line, column)
    declared.add(name)
    return name


def _name_list(line: _Line, what: str) -> list[_Token]:
    tokens = line.remaining()
    if not tokens:
        raise NetlistSyntaxError(
            f"expected at least one {what}", line.line_no, line.end_column
        )
    for token in tokens:
        _name_token(token)
    return tokens


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
    declared: set[str] = set()
    output_names: set[str] = set()
    statements: list[Statement] = []

    def declare(token: _Token) -> str:
        return _declare(declared, token.text, token.line, token.column)

    def resolve(token: _Token) -> str:
        name = _name_token(token)
        if name not in declared:
            raise UseBeforeDeclaration(
                f"wire {name!r} used before declaration", token.line, token.column
            )
        return name

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, line_no)
        if not line.tokens:
            continue
        head = line.take("statement keyword")
        if head.text == "INPUT":
            names = tuple(declare(t) for t in _name_list(line, "input name"))
            statements.append(InputStmt(names, line_no))
        elif head.text == "CONST":
            name_tok = line.take("constant name")
            eq = line.take("'='")
            if eq.text != "=":
                raise NetlistSyntaxError("expected '='", eq.line, eq.column)
            value_tok = line.take("0 or 1")
            if value_tok.text not in ("0", "1"):
                raise NetlistSyntaxError(
                    f"constant value must be 0 or 1, got {value_tok.text!r}",
                    value_tok.line,
                    value_tok.column,
                )
            line.finish()
            statements.append(ConstStmt(declare(name_tok), int(value_tok.text), line_no))
        elif head.text == "GATE":
            gate_tok = line.take("gate name")
            if gate_tok.text not in catalog:
                raise UnknownGateName(
                    f"unknown gate {gate_tok.text!r}", gate_tok.line, gate_tok.column
                )
            in_tokens: list[_Token] = []
            while True:
                token = line.take("input wire or '->'")
                if token.text == "->":
                    break
                in_tokens.append(token)
            if not in_tokens:
                raise NetlistSyntaxError(
                    "gate needs at least one input before '->'",
                    head.line,
                    head.column,
                )
            inputs = tuple(resolve(t) for t in in_tokens)
            outputs = tuple(declare(t) for t in _name_list(line, "output name"))
            statements.append(GateStmt(gate_tok.text, inputs, outputs, line_no))
        elif head.text == "OUTPUT":
            names = []
            for token in _name_list(line, "output name"):
                name = resolve(token)
                if name in output_names:
                    raise NetlistSyntaxError(
                        f"wire {name!r} is already an output", token.line, token.column
                    )
                output_names.add(name)
                names.append(name)
            statements.append(OutputStmt(tuple(names), line_no))
        elif head.text == "GARBAGE":
            names = tuple(resolve(t) for t in _name_list(line, "garbage name"))
            statements.append(GarbageStmt(names, line_no))
        else:
            raise NetlistSyntaxError(
                f"unknown statement {head.text!r} "
                f"(expected one of {', '.join(_KEYWORDS)})",
                head.line,
                head.column,
            )
    return NetlistDocument(tuple(statements))


def elaborate(
    doc: NetlistDocument, catalog: Mapping[str, GateDef] | None = None
) -> Circuit:
    """Build and seal the circuit a document describes.

    Structural errors (fan-out, arity, repeated output labels, dangling
    wires) surface as the netlist module's exception types with source
    locations prepended. A document built in code rather than parsed
    gets located errors for what `parse_netlist` would have rejected
    too: a bad or repeated wire name, a constant that is not a bit, an
    undeclared wire or an unknown gate. Column numbers are not kept in
    a document, so those errors point at column 1.
    """
    if catalog is None:
        catalog = catalog_by_name()
    input_labels = doc.input_labels
    if not input_labels:
        raise NetlistSyntaxError("netlist has no INPUT declarations", 1, 1)
    declared: set[str] = set()

    def declare(names: tuple[str, ...], stmt: Statement) -> None:
        for name in names:
            _declare(declared, name, stmt.line, 1)

    # The builder takes every input at once, so inputs are declared first.
    for stmt in doc.statements:
        if isinstance(stmt, InputStmt):
            declare(stmt.names, stmt)
    builder = new_circuit(input_labels)
    wires: dict[str, Wire] = dict(zip(input_labels, builder.inputs))

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
                gate = catalog.get(stmt.gate)
                if gate is None:
                    raise UnknownGateName(f"unknown gate {stmt.gate!r}", stmt.line, 1)
                if len(stmt.inputs) != gate.arity or len(stmt.outputs) != gate.arity:
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
        if loose:
            raise ValidationFailed(
                exc.violations
                + [f"unconsumed wire names: {', '.join(loose)}"]
            ) from None
        raise


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

    names: dict[tuple, str] = {}
    used = set(circuit.input_labels)
    for i in range(len(circuit.input_labels)):
        names[("in", i)] = circuit.input_labels[i]
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
    lines.append("OUTPUT " + " ".join(name_of(s) for _, s in circuit.outputs))
    if circuit.garbage:
        lines.append("GARBAGE " + " ".join(name_of(s) for s in circuit.garbage))
    return "\n".join(lines) + "\n"
