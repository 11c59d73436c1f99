"""CLI tests: command surface, output shapes, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import revlogic
from conftest import sealed_circuits
from revlogic import cli
from revlogic.cli import EXIT_FAIL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from revlogic.designs import build_bcd_adder_digit
from revlogic.errors import RevLogicError
from revlogic.gates import BitWord, catalog_by_name, parse_cost_table
from revlogic.metrics import analyze
from revlogic.netlist import new_circuit
from revlogic.netlist_text import (
    _KEYWORDS, decode_netlist, elaborate, emit_netlist, parse_netlist)

FG_NETLIST = "INPUT a b\nGATE FG a b -> p q\nOUTPUT q\nGARBAGE p\n"


@pytest.fixture
def fg_file(tmp_path):
    path = tmp_path / "fg.nl"
    path.write_text(FG_NETLIST)
    return str(path)


@pytest.fixture
def bcd_file(tmp_path):
    path = tmp_path / "bcd.nl"
    assert main(["bcd", "build", "-o", str(path)]) == EXIT_OK
    return str(path)


class TestGates:
    def test_lists_catalog(self, capsys):
        assert main(["gates"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "FG   arity 2   P=A, Q=A^B\n"
            "FRG  arity 3   P=A, Q=A'B^AC, R=A'C^AB\n"
            "TG   arity 3   P=A, Q=B, R=AB^C\n"
            "NG   arity 3   P=A, Q=AB^C, R=A'C'^B'\n"
            "PG   arity 3   P=A, Q=A^B, R=AB^C\n"
            "HNG  arity 4   P=A, Q=B, R=A^B^C, S=(A^B)C^AB^D\n"
            "SCL  arity 4   P=A, Q=B, R=C, S=D^C(A+B)\n"
        )


class TestCheck:
    def test_valid(self, fg_file, capsys):
        assert main(["check", fg_file]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_dangling_fails(self, tmp_path, capsys):
        path = tmp_path / "dangle.nl"
        path.write_text("INPUT a b\nGATE FG a b -> p q\nOUTPUT q\n")
        assert main(["check", str(path)]) == EXIT_FAIL
        assert "dangling" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.nl"
        path.write_text("INPUT a b\nGATE FG a\n")
        assert main(["check", str(path)]) == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_unknown_gate(self, tmp_path):
        path = tmp_path / "bad.nl"
        path.write_text("INPUT a b\nGATE XX a b -> p q\n")
        assert main(["check", str(path)]) == EXIT_PARSE

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.nl"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, shown", [(b"x\xff.nl", "x\\xff.nl"),
                                             (b"a\nb.nl", "a\\nb.nl")],
                             ids=["not-utf8", "newline"])
    def test_missing_path_printed_escaped(self, tmp_path, monkeypatch, capsys, name, shown):
        # Argv carries the byte 0xff as a lone surrogate; the error line
        # shows it, and a newline, as `_shown` does on stdout.
        monkeypatch.chdir(tmp_path)
        assert main(["check", os.fsdecode(name)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{shown}'\n")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.nl"
        path.write_bytes(b"INPUT a b\nGATE FG a b -> p q\nOUTPUT q # caf\xe9\nGARBAGE p\n")
        assert main(["check", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: line 3, column 15: invalid UTF-8 byte 0xe9\n"

    def test_output_named_twice(self, tmp_path, capsys):
        path = tmp_path / "dup.nl"
        path.write_text("INPUT a b\nGATE FG a b -> p q\nOUTPUT q p q\n")
        assert main(["check", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: line 3, column 12: wire 'q' is already an output\n"

    def test_wire_consumed_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.nl"
        path.write_text("INPUT a b\nOUTPUT a\nGARBAGE a b\n")
        assert main(["check", str(path)]) == EXIT_FAIL
        assert capsys.readouterr().err == "error: line 3: input 'a' is already consumed\n"

    def test_defects_reported_in_pass_order(self, tmp_path, capsys):
        # A builder error on line 2 comes before line 3's bad name.
        path = tmp_path / "two.nl"
        path.write_text("INPUT a b\nGATE FG a a -> p q\nOUTPUT 9x\n")
        assert main(["check", str(path)]) == EXIT_FAIL
        assert capsys.readouterr() == (
            "", "error: line 2: gate FG: the same wire was passed to two pins\n")

    def test_gate_statement_with_wrong_arity(self, tmp_path, capsys):
        path = tmp_path / "arity.nl"
        path.write_text("INPUT a b c\nGATE FG a b c -> p q r\nOUTPUT p q r\n")
        assert main(["check", str(path)]) == EXIT_FAIL
        assert capsys.readouterr().err == (
            "error: line 2: gate FG has arity 2, statement wires 3 inputs and 3 outputs\n"
        )


class TestSim:
    def test_outputs_and_garbage(self, fg_file, capsys):
        assert main(["sim", fg_file, "--in", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "outputs: 1 (q=1)" in out
        assert "garbage: 1" in out

    def test_bcd_nine_plus_nine_carry(self, bcd_file, capsys):
        assert main(["sim", bcd_file, "--in", "100110011"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cout=1" in out
        assert "outputs: 11001" in out

    def test_bad_bits(self, fg_file, capsys):
        assert main(["sim", fg_file, "--in", "1x"]) == EXIT_USAGE == 3
        assert capsys.readouterr().err == (
            "error: --in: bitstring may contain only 0 and 1: '1x'\n")

    def test_wrong_width(self, fg_file, capsys):
        assert main(["sim", fg_file, "--in", "101"]) == EXIT_USAGE == 3
        assert capsys.readouterr().err == (
            "error: --in: circuit has 2 inputs, got a 3-bit word\n")

    def test_in_required(self, fg_file):
        assert main(["sim", fg_file]) == EXIT_USAGE


def _fg_circuit(outputs: int):
    """FG on inputs a and b; its first `outputs` pins are outputs, the rest garbage."""
    builder = new_circuit(["a", "b"])
    for pin, wire in enumerate(builder.add_gate(catalog_by_name()["FG"], builder.inputs)):
        if pin < outputs:
            builder.mark_output(wire, f"o{pin}")
        else:
            builder.mark_garbage(wire)
    return builder.seal()


def _scalar_truth(circuit) -> str:
    """What `revlogic truth` prints, from one `Circuit.simulate` call per word."""
    lines = [f"# inputs:  {' '.join(circuit.input_labels)}",
             f"# outputs: {' '.join(circuit.output_labels)}",
             f"# garbage wires: {len(circuit.garbage)}"]
    for value in range(1 << circuit.width):
        word = BitWord.from_int(value, circuit.width)
        outputs, garbage = circuit.simulate(word)
        lines.append(f"{word} -> {outputs}" + (f" | {garbage}" if circuit.garbage else ""))
    return "".join(line + "\n" for line in lines)


class TestTruth:
    @settings(max_examples=150, deadline=None)
    @given(circuit=sealed_circuits())
    @example(circuit=_fg_circuit(0))  # no outputs
    @example(circuit=_fg_circuit(2))  # no garbage
    def test_matches_the_scalar_reference(self, tmp_path_factory, circuit):
        try:
            text = emit_netlist(circuit)
        except ValueError:  # an output that relabels an input
            assume(False)
        path = tmp_path_factory.mktemp("truth") / "circuit.nl"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["truth", str(path)]) == EXIT_OK
        assert out.getvalue() == _scalar_truth(circuit)

    def test_fg_table(self, fg_file, capsys):
        assert main(["truth", fg_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "00 -> 0 | 0" in out
        assert "11 -> 0 | 1" in out
        assert len([line for line in out.splitlines() if "->" in line]) == 4

    def test_refuses_wide_circuits(self, tmp_path, capsys):
        path = tmp_path / "wide.nl"
        assert main(["bcd", "build", "--digits", "3", "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["truth", str(path)]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert out == ""
        assert "enumeration" in err


class TestMetrics:
    def test_kv_block(self, bcd_file, capsys):
        assert main(["metrics", bcd_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gate_count=8" in out
        assert "garbage_count=10" in out
        assert "constant_count=6" in out
        assert "delay_levels=8" in out

    def test_round_trip_matches_in_memory_design(self, bcd_file, capsys):
        assert main(["metrics", bcd_file]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == analyze(build_bcd_adder_digit()).as_kv()

    def test_custom_costs(self, fg_file, tmp_path, capsys):
        costs = tmp_path / "costs.txt"
        costs.write_text("FG 7\n")
        assert main(["metrics", fg_file, "--costs", str(costs)]) == EXIT_OK
        assert "quantum_cost=7" in capsys.readouterr().out

    def test_missing_cost_entry(self, fg_file, tmp_path, capsys):
        costs = tmp_path / "costs.txt"
        costs.write_text("TG 5\n")
        assert main(["metrics", fg_file, "--costs", str(costs)]) == EXIT_FAIL
        assert capsys.readouterr().err == "error: no cost entry for gate 'FG'\n"

    def test_malformed_cost_table(self, fg_file, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("FG seven\n")
        assert main(["metrics", fg_file, "--costs", str(costs)]) == EXIT_PARSE

    def test_non_utf8_cost_table(self, fg_file, tmp_path, capsys):
        costs = tmp_path / "costs.txt"
        costs.write_bytes(b"FG 1\n# co\xfbt\n")
        assert main(["metrics", fg_file, "--costs", str(costs)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8 byte 0xfb\n"


class TestBcdBuild:
    def test_stdout(self, capsys):
        assert main(["bcd", "build"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("INPUT a3 a2 a1 a0 b3 b2 b1 b0 cin")
        assert "GATE SCL" in out
        assert out.count("GATE HNG") == 5

    def test_emitted_file_checks_out(self, bcd_file, capsys):
        assert main(["check", bcd_file]) == EXIT_OK
        assert "8 gates" in capsys.readouterr().out

    def test_two_digit_build(self, tmp_path, capsys):
        path = tmp_path / "two.nl"
        assert main(["bcd", "build", "--digits", "2", "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["metrics", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gate_count=16" in out
        assert "delay_levels=15" in out

    def test_bad_digits(self, capsys):
        assert main(["bcd", "build", "--digits", "7"]) == EXIT_USAGE
        assert "digit count" in capsys.readouterr().err


class TestBcdVerify:
    def test_one_digit(self, capsys):
        assert main(["bcd", "verify"]) == EXIT_OK
        assert "200/200 cases pass" in capsys.readouterr().out

    def test_two_digits(self, capsys):
        assert main(["bcd", "verify", "--digits", "2"]) == EXIT_OK
        assert "20000/20000 cases pass" in capsys.readouterr().out

    def test_bad_digits(self):
        assert main(["bcd", "verify", "--digits", "0"]) == EXIT_USAGE
        assert main(["bcd", "verify", "--digits", "x"]) == EXIT_USAGE


class TestBcdTable:
    def test_prints_rows_and_verdict(self, capsys):
        assert main(["bcd", "table"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Proposed BCD adder" in out
        assert "BCD adder[13] (without fan-out)" in out
        assert "matches recomputation" in out

    def test_recomputed_row(self, capsys):
        assert main(["bcd", "table"]) == EXIT_OK
        rows = [re.split(r"\s{2,}", line) for line in capsys.readouterr().out.splitlines()]
        assert ["recomputed from build", "4/8", "1/0", "3/2", "8", "10", "6", "8"] in rows

    def test_custom_costs_change_footnote(self, tmp_path, capsys):
        costs = tmp_path / "ones.txt"
        costs.write_text("FG 1\nTG 1\nFRG 1\nPG 1\nNG 1\nHNG 1\nSCL 1\n")
        assert main(["bcd", "table", "--costs", str(costs)]) == EXIT_OK
        assert "quantum cost (no reference value): 8" in capsys.readouterr().out

    def test_missing_cost_entry_prints_no_table(self, tmp_path, capsys):
        costs = tmp_path / "costs.txt"
        costs.write_text("FG 1\nPG 4\nHNG 6\n")
        assert main(["bcd", "table", "--costs", str(costs)]) == EXIT_FAIL
        assert capsys.readouterr() == ("", "error: no cost entry for gate 'SCL'\n")

    def test_mismatch_names_the_fields(self, monkeypatch, capsys):
        rows = cli.reference_table()
        rows[-1] = dataclasses.replace(rows[-1], correction_garbage=1, total_delay=9)
        monkeypatch.setattr(cli, "reference_table", lambda: rows)
        assert main(["bcd", "table"]) == EXIT_FAIL
        assert capsys.readouterr().out.splitlines()[-1] == (
            "MISMATCH against proposed row: correction_garbage, total_delay")


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_library_errors_never_reach_the_user_as_tracebacks(self, monkeypatch, capsys):
        def fail(digits):
            raise RevLogicError("boom")

        monkeypatch.setattr(cli, "verify_bcd_adder", fail)
        assert main(["bcd", "verify"]) == EXIT_FAIL
        assert capsys.readouterr().err == "error: boom\n"


# The fuzz alphabet: every keyword and catalog name, the punctuation, a
# pool of six wire names, a bad name, and separators that `str.split` and
# `str.splitlines` treat in different ways.
_FUZZ_GATES = tuple(g.name for g in catalog_by_name().values())
_FUZZ_POOL = ("a", "b", "c", "p", "q", "r")
_FUZZ_WORDS = (*_KEYWORDS, *_FUZZ_GATES, *_FUZZ_POOL, "->", "=", "0", "1", "#", "9b")
# A space is drawn most often, so that most lines stay whole.
_FUZZ_SEPARATORS = (" ",) * 8 + ("\n", "\t", "\u00a0", "\x0b", "\x1c", "\x85")


def _fuzz_line(*parts):
    """One line: the words each part draws, joined by one drawn separator."""
    return st.builds(lambda sep, *drawn: sep.join(w for words in drawn for w in words),
                     st.sampled_from(_FUZZ_SEPARATORS), *parts)


def _one(words):
    return st.sampled_from(words).map(lambda word: (word,))


def _splice(first, rest, junk, at):
    text = "\n".join((first, *rest)).encode()
    return text[:at] + junk + text[at:]


# Name lists draw the bad name too, so that each place a name is read checks it.
_names = st.lists(st.sampled_from((*_FUZZ_POOL, "9b")), min_size=1, max_size=4, unique=True)
# Statements shaped like the grammar's, so that many drawn files get past
# the parser into elaboration, mixed with a keyword and any words.
_fuzz_input = _fuzz_line(st.just(("INPUT",)), _names)
_fuzz_statement = st.one_of(
    _fuzz_input,
    _fuzz_line(st.just(("CONST",)), _one(_FUZZ_POOL), st.just(("=",)), _one(("0", "1"))),
    _fuzz_line(st.just(("GATE",)), _one(_FUZZ_GATES), _names, st.just(("->",)), _names),
    _fuzz_line(_one(("OUTPUT", "GARBAGE")), _names),
    _fuzz_line(_one(_KEYWORDS), st.lists(st.sampled_from(_FUZZ_WORDS), max_size=6)),
)
# An INPUT line and up to seven statements; half the files have a few
# arbitrary bytes spliced in.
_fuzz_netlist = st.builds(
    _splice, _fuzz_input, st.lists(_fuzz_statement, max_size=7),
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=3)), st.integers(0, 200))


@settings(max_examples=120, deadline=None)
@given(data=_fuzz_netlist, in_bits=st.text("01", max_size=7))
def test_fuzzed_netlists_exit_cleanly(tmp_path_factory, data, in_bits):
    """Any file, read as a netlist or as a cost table, gives a CLI exit code
    and at most error lines: never a traceback. The library readers raise
    only revlogic's own errors."""
    try:
        text = decode_netlist(data)
    except RevLogicError:
        text = data.decode("utf-8", "replace")
    circuit = None
    try:
        circuit = elaborate(parse_netlist(text))
    except RevLogicError:
        pass
    try:
        parse_cost_table(text)
    except RevLogicError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "drawn.nl"
    path.write_bytes(data)
    name = str(path)
    runs = [["check", name], ["metrics", name], ["metrics", name, "--costs", name],
            ["sim", name, "--in", in_bits]]
    if circuit is not None:
        runs.append(["sim", name, "--in", "0" * circuit.width])
    # Keywords, gate names and bytes glued into names are wire names too,
    # so a drawn INPUT line can be wider than the pool; `truth` is run
    # only where it prints at most 64 rows.
    if circuit is None or circuit.width <= 6:
        runs.append(["truth", name])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_USAGE), (argv, data)
        assert "Traceback" not in err.getvalue(), (argv, data)


# A fresh interpreter imports the same revlogic as this one.
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(revlogic.__file__)))


class TestSharedParser:
    """`main` builds its parser once per process; sharing it must not change
    any call's output or exit code."""

    @pytest.fixture
    def calls(self, fg_file, bcd_file, tmp_path):
        costs = tmp_path / "ones.txt"
        costs.write_text("FG 1\nTG 1\nFRG 1\nPG 1\nNG 1\nHNG 1\nSCL 1\n")
        return [
            ["gates"],
            ["check", fg_file],
            ["sim", bcd_file, "--in", "100110011"],
            ["truth", fg_file],
            ["metrics", bcd_file, "--costs", str(costs)],
            ["bcd", "build", "--digits", "2"],
            ["bcd", "table"],
            ["--help"],
            ["bcd", "--help"],
            ["bcd"],
            ["bcd", "verify", "--digits", "x"],
            ["bcd", "verify", "--digits", "5"],
            ["bcd", "verify", "--digits", "2"],
            ["sim", fg_file],
            ["check", "/no/such/file.nl"],
        ]

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_interleaved_calls_match_a_fresh_parser(self, calls, capsys):
        fresh = {}
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh[tuple(argv)] = self.run(argv, capsys)
        cli.build_parser.cache_clear()
        for argv in calls + calls[::-1] + calls[::2]:
            assert self.run(argv, capsys) == fresh[tuple(argv)], argv
        assert cli.build_parser.cache_info().misses == 1

    def test_fifty_calls_build_one_parser(self, monkeypatch):
        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.prog == "revlogic":
                    built.append(self)

        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli.build_parser.cache_clear()
        for _ in range(25):
            assert main(["gates"]) == EXIT_OK
            assert main(["bcd", "verify", "--digits", "0"]) == EXIT_USAGE
        cli.build_parser.cache_clear()  # later tests build with the real _Parser
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        probe = ("import revlogic.cli as cli; "
                 "assert cli.build_parser.cache_info().currsize == 0; "
                 "cli.main(['gates']); "
                 "assert cli.build_parser.cache_info().currsize == 1")
        done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")


def test_closed_stdout_is_not_a_usage_error(tmp_path):
    # 2^16 rows, far more than a pipe buffers, so the CLI is still writing
    # when the reader goes away after one line.
    names = " ".join(f"i{k}" for k in range(16))
    path = tmp_path / "identity16.nl"
    path.write_text(f"INPUT {names}\nOUTPUT {names}\n")
    proc = subprocess.Popen([sys.executable, "-m", "revlogic.cli", "truth", str(path)],
                            env=SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == f"# inputs:  {names}\n".encode()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_FAIL, b"")


@pytest.mark.parametrize("name, shown", [(b"x\xff.nl", "x\\xff.nl"),
                                         ("\u00e9.nl".encode(), "\u00e9.nl"),
                                         (b"a\nb.nl", "a\\nb.nl")],
                         ids=["not-utf8", "utf8", "newline"])
@pytest.mark.parametrize("command", ["check", "bcd build -o"])
def test_path_printed_on_a_utf8_stdout(tmp_path, command, name, shown):
    # Argv carries a byte that is not UTF-8 as a lone surrogate, which a
    # strict UTF-8 stdout cannot encode; it is printed escaped instead, as
    # is a newline, which would split the line.
    if command == "check":
        (tmp_path / os.fsdecode(name)).write_text(FG_NETLIST)
        want = f"{shown}: valid (1 gates, 1 garbage, 0 constants)\n"
    else:
        want = f"wrote {shown}\n"
    done = subprocess.run([sys.executable, "-m", "revlogic.cli", *command.split(), name],
                          env=dict(SRC_ENV, PYTHONIOENCODING="utf-8"), cwd=tmp_path,
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout.decode(), done.stderr) == (EXIT_OK, want, b"")
    if command != "check":
        built = (tmp_path / os.fsdecode(name)).read_text()
        assert built == emit_netlist(build_bcd_adder_digit())


@pytest.mark.parametrize("command, want", [
    ("check", "\\xe9.nl: valid (8 gates, 10 garbage, 6 constants)\n"),
    ("bcd build -o", "wrote \\xe9.nl\n")], ids=["check", "bcd-build"])
def test_path_printed_on_an_ascii_stdout(tmp_path, command, want):
    # A character the stdout encoding cannot write is printed escaped.
    if command == "check":
        (tmp_path / "\u00e9.nl").write_text(emit_netlist(build_bcd_adder_digit()))
    done = subprocess.run([sys.executable, "-m", "revlogic.cli", *command.split(),
                           "\u00e9.nl"], env=dict(SRC_ENV, PYTHONIOENCODING="ascii"),
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout.decode("ascii"), done.stderr) == (EXIT_OK, want, b"")
    assert (tmp_path / "\u00e9.nl").read_text() == emit_netlist(build_bcd_adder_digit())


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["bcd", "--help"], ["gates"]],
                         ids=" ".join)
def test_short_output_into_a_closed_pipe(argv, buffered):
    # The reader is gone before the CLI starts. Help and a subcommand fail
    # alike, whether the write fails at once or only when the buffer is
    # flushed (which, left to interpreter exit, would give exit 120).
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "revlogic.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_FAIL, b"")


def test_runs_on_the_standard_library_alone():
    # -I ignores PYTHON* variables and the user site, -S skips site-packages,
    # so only the standard library and `src` are importable.
    src = os.path.dirname(os.path.dirname(revlogic.__file__))
    probe = (f"import sys; sys.path.insert(0, {src!r}); "
             "from revlogic.cli import main; "
             "codes = [main(['gates']), main(['bcd', 'verify', '--digits', '2']), "
             "main(['bcd', 'table'])]; "
             "foreign = sorted({name.partition('.')[0] for name in sys.modules} "
             "- sys.stdlib_module_names - {'revlogic', '__main__'}); "
             "print(codes, foreign, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "[0, 0, 0] []\n")


def test_readme_python_example_runs():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    done = subprocess.run([sys.executable, "-c", example], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    out, report = done.stdout.splitlines()
    assert out == "11001"
    assert report.startswith(
        "MetricsReport(gate_count=8, garbage_count=10, constant_count=6,")
