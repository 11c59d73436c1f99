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
lines, `elaborate` checks those lines, maps each wire name to its
source and makes the `Circuit` they describe, and `emit_netlist`
renders a circuit of catalog gates back to text that elaborates to the
same behavior and metrics. Emission names one wire per slot of the
circuit's plan, generating the names it needs in slot order; parsed
lines are never written, as `elaborate` reads their tokens by index.
Each of the four raises TypeError for an argument of the wrong type.

`elaborate` is the text's only validator, and the `Circuit` it makes
checks the wiring again, as every circuit does; the first defect in
`elaborate`'s pass order is reported. Text diagnostics carry a 1-based
line and column; fan-out and arity errors, worded as the circuit
builder words them, read ``line N: ...`` with no column.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import RevLogicError, _utf8_position
from .gates import catalog_by_name
from .netlist import (
    ArityMismatch,
    Circuit,
    FanOutViolation,
    Instance,
    Source,
    ValidationFailed,
    _fan_out,
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

    def resolve(self, sources: dict[str, Source | None], index: int) -> Source:
        """The source of the wire token `index` names; its form is checked first."""
        source = sources.get(self.tokens[index])
        if source is None:
            self.check_name(index)
            raise UseBeforeDeclaration(
                f"wire {self.tokens[index]!r} used before declaration",
                self.line_no, self.column(index))
        return source


def decode_netlist(data: bytes) -> str:
    """Decode netlist file contents as UTF-8.

    An invalid byte is a NetlistSyntaxError at its line and column,
    counted the way `elaborate` counts them. Anything but `bytes` or a
    `bytearray` is a TypeError.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"decode_netlist takes bytes, not {type(data).__name__}")
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
    `elaborate`'s. Anything but a `str` is a TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_netlist takes a str, not {type(text).__name__}")
    lines = (_Line(raw, line_no) for line_no, raw in enumerate(text.splitlines(), 1))
    return tuple(line for line in lines if line.tokens)


def elaborate(lines: tuple[_Line, ...]) -> Circuit:
    """Check parsed lines, then make the `Circuit` they describe.

    Input k is the k-th name over all INPUT lines, so a first pass checks
    each line's keyword and each INPUT line's names, in line order, and
    then that some INPUT line exists. The second walks the lines (and an
    OUTPUT or GARBAGE line's names) in order, mapping each declared name
    to its wire source, and raises at the first defect: a malformed
    statement, bad or repeated name, use before declaration or gate not
    in the built-in catalog as a located error, a wire read twice or a
    wire count that is not the gate's arity as `FanOutViolation` or
    `ArityMismatch` with ``line N: `` prepended, worded as the circuit
    builder words them. The circuit then checks its own wiring: dangling
    wires fail there, in ValidationFailed, their names listed. Nothing
    is written to the lines, so they can be elaborated again, or from
    several threads at once. An item that is not one of
    `parse_netlist`'s lines is a TypeError.
    """
    catalog = catalog_by_name()
    labels: dict[str, None] = {}
    for line in lines:
        if type(line) is not _Line:
            raise TypeError("elaborate takes the _Line items parse_netlist returns, "
                            f"not {type(line).__name__}")
        keyword = line.tokens[0]
        if keyword not in _KEYWORDS:
            raise line.error(f"unknown statement {keyword!r} "
                             f"(expected one of {', '.join(_KEYWORDS)})", 0)
        if keyword == "INPUT":
            line.declare(labels, line.names(1, "input name"), 1)
    if not labels:
        raise NetlistSyntaxError("netlist has no INPUT declarations", 1, 1)
    input_labels = tuple(labels)
    inputs = iter([("in", i) for i in range(len(input_labels))])
    # The one name table: each name is entered unbound when declared and
    # bound to its source in the same statement. An input is declared
    # when the walk reaches its INPUT line. A name that a gate pin, an
    # output or a garbage mark reads joins `consumed`.
    sources: dict[str, Source | None] = {}
    consumed: set[str] = set()
    constants: list[int] = []
    instances: list[Instance] = []
    outputs: dict[str, Source] = {}
    garbage: list[Source] = []

    for line in lines:
        keyword = line.tokens[0]
        try:
            if keyword == "INPUT":
                names = line.tokens[1:]
                line.declare(sources, names, 1)
                sources.update(zip(names, inputs))
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
                line.declare(sources, [name], 1)
                sources[name] = ("const", len(constants))
                constants.append(int(value))
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
                read = line.tokens[2:arrow]
                ins = list(map(sources.get, read))
                if None in ins:  # resolve raises at the first undeclared name
                    ins = [line.resolve(sources, index) for index in range(2, arrow)]
                outs = line.names(arrow + 1, "output name")
                if not sources.keys().isdisjoint(outs) or len(set(outs)) != len(outs):
                    line.declare(sources, outs, arrow + 1)  # raises at the first clash
                if not len(ins) == len(outs) == gate.arity:
                    raise ArityMismatch(f"gate {gate.name} has arity {gate.arity}, "
                                        f"statement wires {len(ins)} inputs and "
                                        f"{len(outs)} outputs")
                if not consumed.isdisjoint(read) or len(set(read)) != len(read):
                    # As the builder checks: every pin for a consumed
                    # wire first, then one wire on two pins.
                    for name, source in zip(read, ins):
                        if name in consumed:
                            raise _fan_out(input_labels, instances, source)
                    raise _fan_out(input_labels, instances, None, gate)
                consumed.update(read)
                k = len(instances)
                instances.append(tuple.__new__(Instance, (gate, tuple(ins))))
                for pin, name in enumerate(outs):
                    sources[name] = ("gate", k, pin)
            elif keyword == "OUTPUT":
                for index, name in enumerate(line.names(1, "output name"), 1):
                    source = line.resolve(sources, index)
                    if name in outputs:
                        raise line.error(f"wire {name!r} is already an output", index)
                    if name in consumed:
                        raise _fan_out(input_labels, instances, source)
                    consumed.add(name)
                    outputs[name] = source
            else:
                for index, name in enumerate(line.names(1, "garbage name"), 1):
                    source = line.resolve(sources, index)
                    if name in consumed:
                        raise _fan_out(input_labels, instances, source)
                    consumed.add(name)
                    garbage.append(source)
        except (ArityMismatch, FanOutViolation) as exc:
            raise type(exc)(f"line {line.line_no}: {exc}") from None

    try:
        return Circuit(
            input_labels=input_labels,
            constants=tuple(constants),
            instances=tuple(instances),
            outputs=tuple(outputs.items()),
            garbage=tuple(garbage),
        )
    except ValidationFailed as exc:
        loose = sorted(name for name in sources if name not in consumed)
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
    labels cannot serve as wire names, that repeat an input label, that
    use a gate other than the built-in catalog's gate of its name, or
    that relabel an input as an output cannot be expressed and raise
    ValueError; anything but a `Circuit` is a TypeError.
    """
    if not isinstance(circuit, Circuit):
        raise TypeError(f"emit_netlist takes a Circuit, not {type(circuit).__name__}")
    for label in circuit.input_labels + circuit.output_labels:
        if not isinstance(label, str) or not NAME_RE.fullmatch(label):
            raise ValueError(f"label {label!r} is not expressible as a wire name")

    used = set()
    for label in circuit.input_labels:
        if label in used:
            raise ValueError(f"input label {label!r} is repeated; "
                             "the text format cannot express that")
        used.add(label)

    plan = circuit._plan
    width = circuit.width
    names: list[str | None] = [*circuit.input_labels, *[None] * (plan.size - width)]
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
    # The free generated names of each kind, drawn in slot order: n
    # slots need at most n names, and at most len(used) are taken.
    free_c, free_w = (
        iter([name for i in range(n + len(used)) if (name := f"{kind}{i}") not in used])
        for kind, n in (("c", first_pin - width), ("w", plan.size - first_pin)))
    names = [name or next(free_c if slot < first_pin else free_w)
             for slot, name in enumerate(names)]

    lines = ["INPUT " + " ".join(circuit.input_labels)]
    lines += [f"CONST {name} = {bit}"
              for name, bit in zip(names[width:first_pin], circuit.constants)]
    catalog = catalog_by_name()
    for gate, in_slots, lo, hi in plan.steps:
        # A catalog gate is the catalog's own object, so most steps pass
        # on identity without comparing rows.
        known = catalog.get(gate.name)
        if known is not gate and known != gate:
            raise ValueError(f"gate {gate.name!r} is not a built-in catalog gate")
        ins = " ".join([names[s] for s in in_slots])
        lines.append(f"GATE {gate.name} {ins} -> {' '.join(names[lo:hi])}")
    if plan.outputs:
        lines.append("OUTPUT " + " ".join([names[s] for s in plan.outputs]))
    if plan.garbage:
        lines.append("GARBAGE " + " ".join([names[s] for s in plan.garbage]))
    return "\n".join(lines) + "\n"
