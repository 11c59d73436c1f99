"""Command-line front end.

Subcommands:

    gates                     list the built-in gate catalog
    check FILE                parse and validate a netlist file
    sim FILE --in BITS        simulate one input word (MSB-first)
    truth FILE                print the exhaustive mapping
    metrics FILE [--costs F]  print the metrics report
    bcd build [--digits N]    emit the built-in BCD adder as a netlist
    bcd verify [--digits N]   exhaustive check against the decimal oracle
    bcd table [--costs F]     reference comparison table plus recomputation

Exit codes: 0 success; 1 verification or validation failure, any other
library error, or a reader that closed stdout early (`revlogic truth F |
head`, or `--help` into a closed pipe), which prints nothing on stderr;
2 parse error (netlist or cost-table syntax, a netlist that is not
UTF-8); 3 usage error (bad arguments, unreadable files).

The argparse parser is built once per process, on the first `main` call,
and shared by every later call: `parse_args` returns a fresh namespace
each time, and the subcommand functions look up the library calls they
make when they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from functools import cache
from itertools import islice, repeat
from typing import Mapping

from .designs import (
    BadDigitCount,
    ReferenceRow,
    bcd_digit_stage_tags,
    build_bcd_adder_digit,
    build_bcd_adder_n,
    reference_table,
    verify_bcd_adder,
)
from .errors import RevLogicError
from .gates import (
    _CATALOG_DEFS,
    _PIN_NAMES,
    BitWord,
    CostTableError,
    WidthMismatch,
    load_cost_table,
)
from .metrics import MetricsReport, analyze
from .netlist import Circuit, ValidationFailed
from .netlist_text import (
    LocatedError,
    decode_netlist,
    elaborate,
    emit_netlist,
    parse_netlist,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

_MAX_PRINTED_FAILURES = 10


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; this CLI reserves 2 for
    parse errors in input files, so usage errors are remapped to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse drops a failed write here; `main` must see a closed stdout.
        (file or sys.stdout).write(self.format_help())


def _load_circuit(path: str) -> Circuit:
    with open(path, "rb") as fh:
        data = fh.read()
    return elaborate(parse_netlist(decode_netlist(data)))


def _shown(path: str) -> str:
    """`path`, escaped (`\\xff`, `\\n`) where it is not UTF-8, not printable or
    not writable on stdout."""
    text = path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    text = "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


def _load_costs(path: str | None) -> Mapping[str, int] | None:
    return load_cost_table(path) if path else None


def cmd_gates(args) -> int:
    for name, formulas in _CATALOG_DEFS:
        pins = ", ".join(map("{}={}".format, _PIN_NAMES, formulas))
        print(f"{name:<4} arity {len(formulas)}   {pins}")
    return EXIT_OK


def cmd_check(args) -> int:
    circuit = _load_circuit(args.file)
    print(
        f"{_shown(args.file)}: valid ({len(circuit.instances)} gates, "
        f"{len(circuit.garbage)} garbage, {len(circuit.constants)} constants)"
    )
    return EXIT_OK


def cmd_sim(args) -> int:
    circuit = _load_circuit(args.file)
    try:
        outputs, garbage = circuit.simulate(BitWord.from_string(args.in_bits))
    except (ValueError, WidthMismatch) as exc:
        print(f"error: --in: {exc}", file=sys.stderr)
        return EXIT_USAGE
    labeled = ", ".join(
        f"{label}={bit}" for label, bit in zip(circuit.output_labels, outputs)
    )
    print(f"outputs: {outputs} ({labeled})")
    print(f"garbage: {garbage}")
    return EXIT_OK


def cmd_truth(args) -> int:
    circuit = _load_circuit(args.file)
    inputs, outputs, garbage = circuit._columns(inputs=True)
    print(f"# inputs:  {' '.join(circuit.input_labels)}")
    print(f"# outputs: {' '.join(circuit.output_labels)}")
    print(f"# garbage wires: {len(circuit.garbage)}")
    # Row j joins character j of every column; writing by blocks never holds the table.
    columns = [*inputs, repeat(" -> "), *outputs]
    if garbage:
        columns += [repeat(" | "), *garbage]
    rows = map("".join, zip(*columns))
    while block := list(islice(rows, 4096)):
        sys.stdout.write("\n".join(block) + "\n")
    return EXIT_OK


def cmd_metrics(args) -> int:
    circuit = _load_circuit(args.file)
    report = analyze(circuit, _load_costs(args.costs))
    print(report.as_kv())
    return EXIT_OK


def cmd_bcd_build(args) -> int:
    text = emit_netlist(build_bcd_adder_n(args.digits))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {_shown(args.output)}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_bcd_verify(args) -> int:
    total, failures = verify_bcd_adder(args.digits)
    print(f"{total - len(failures)}/{total} cases pass")
    for f in failures[:_MAX_PRINTED_FAILURES]:
        print(f"FAIL: {f.a} + {f.b} + {f.cin}: circuit {f.got_bits} -> {f.got}, "
              f"oracle {f.want_bits} -> {f.want}")
    if len(failures) > _MAX_PRINTED_FAILURES:
        print(f"... and {len(failures) - _MAX_PRINTED_FAILURES} more")
    return EXIT_OK if not failures else EXIT_FAIL


def _recomputed_row(circuit: Circuit, report: MetricsReport) -> ReferenceRow:
    """Lay out the built one-digit adder as the reference table is: its
    per-stage gate/garbage counts, then the four totals from `report`."""
    tags = bcd_digit_stage_tags()
    gates = Counter(tags.values())
    garbage = Counter(tags[source[1]] for source in circuit.garbage)
    stages = ("adder1", "correction", "adder2")
    per_stage = [n for stage in stages for n in (gates[stage], garbage[stage])]
    return ReferenceRow(
        "recomputed from build", *per_stage, report.gate_count,
        report.garbage_count, report.constant_count, report.delay_levels,
    )


def _row_cells(row: ReferenceRow) -> list[str]:
    return [
        row.design_label,
        f"{row.adder1_gates}/{row.adder1_garbage}",
        f"{row.correction_gates}/{row.correction_garbage}",
        f"{row.adder2_gates}/{row.adder2_garbage}",
        str(row.total_gates),
        str(row.total_garbage),
        str(row.total_constants),
        str(row.total_delay),
    ]


def cmd_bcd_table(args) -> int:
    costs = _load_costs(args.costs)
    rows = reference_table()
    circuit = build_bcd_adder_digit()
    report = analyze(circuit, costs)
    recomputed = _recomputed_row(circuit, report)
    headers = [
        "design", "adder1 g/gb", "correction g/gb", "adder2 g/gb",
        "gates", "garbage", "constants", "delay",
    ]
    table = [headers] + [_row_cells(r) for r in rows] + [_row_cells(recomputed)]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    for line in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())

    proposed = rows[-1]
    mismatches = [
        field.name
        for field in dataclasses.fields(ReferenceRow)
        if field.name != "design_label"
        and getattr(proposed, field.name) != getattr(recomputed, field.name)
    ]
    print(f"recomputed quantum cost (no reference value): {report.quantum_cost}")
    if mismatches:
        print(f"MISMATCH against proposed row: {', '.join(mismatches)}")
        return EXIT_FAIL
    print("proposed row matches recomputation")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revlogic", description="Reversible-logic circuit tools.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gates", help="list the built-in gate catalog")
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("check", help="parse and validate a netlist file")
    p.add_argument("file", help="netlist file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sim", help="simulate one input word")
    p.add_argument("file", help="netlist file")
    p.add_argument(
        "--in", dest="in_bits", required=True, metavar="BITS",
        help="input bits, MSB-first, in INPUT declaration order",
    )
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("truth", help="print the exhaustive input/output mapping")
    p.add_argument("file", help="netlist file")
    p.set_defaults(func=cmd_truth)

    p = sub.add_parser("metrics", help="print gate/garbage/constant/cost/delay")
    p.add_argument("file", help="netlist file")
    p.add_argument("--costs", metavar="FILE", help="cost-table file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bcd", help="built-in BCD adder designs")
    bcd_sub = p.add_subparsers(dest="bcd_command", required=True, metavar="ACTION")

    q = bcd_sub.add_parser("build", help="emit the adder as a netlist")
    q.add_argument("--digits", type=int, default=1, help="decimal digits (default 1)")
    q.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
    q.set_defaults(func=cmd_bcd_build)

    q = bcd_sub.add_parser("verify", help="exhaustive check against the oracle")
    q.add_argument("--digits", type=int, default=1, help="decimal digits (default 1)")
    q.set_defaults(func=cmd_bcd_verify)

    q = bcd_sub.add_parser("table", help="print the design comparison table")
    q.add_argument("--costs", metavar="FILE", help="cost-table file")
    q.set_defaults(func=cmd_bcd_table)

    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the final
    flush of what is still buffered cannot fail again at interpreter exit.
    A stdout without a descriptor (an in-process `StringIO`) is left as is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            code = args.func(args)
        # Output still buffered would otherwise meet a closed stdout only
        # at interpreter exit, which reports it as exit 120.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`| head`): not a usage error.
        _discard_stdout()
        return EXIT_FAIL
    except (LocatedError, CostTableError) as exc:
        # A located netlist diagnostic or a malformed cost table.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailed as exc:
        print("error: netlist validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_FAIL
    except (BadDigitCount, OSError) as exc:
        if getattr(exc, "filename", None) is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: '{_shown(exc.filename)}'"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RevLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
