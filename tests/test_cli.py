"""CLI tests: command surface, output shapes, exit codes."""

from __future__ import annotations

import re

import pytest

from revlogic import cli
from revlogic.cli import EXIT_FAIL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from revlogic.designs import build_bcd_adder_digit
from revlogic.errors import RevLogicError
from revlogic.metrics import analyze

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
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("FG")
        assert "Q=A^B" in lines[0]
        assert any(line.startswith("SCL") and "D^C(A+B)" in line for line in lines)


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
        assert main(["sim", fg_file, "--in", "1x"]) == EXIT_USAGE
        assert "--in" in capsys.readouterr().err

    def test_wrong_width(self, fg_file):
        assert main(["sim", fg_file, "--in", "101"]) == EXIT_USAGE

    def test_in_required(self, fg_file):
        assert main(["sim", fg_file]) == EXIT_USAGE


class TestTruth:
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
        assert "enumeration" in capsys.readouterr().err


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
