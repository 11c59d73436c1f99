"""Bit-parallel simulation against the scalar reference.

`Circuit.simulate_planes`, `Circuit.mapping` and `verify_bcd_adder` run
on planes; every test here checks them word for word against scalar
`Circuit.simulate`, which stays the reference path.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gates, sealed_circuits
from revlogic import designs
from revlogic.cli import EXIT_FAIL, main
from revlogic.designs import (
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_ripple_adder4,
    encode_bcd_operands,
    oracle_bcd_add_number,
    verify_bcd_adder,
)
from revlogic.gates import BitWord, catalog_by_name
from revlogic.netlist import Circuit, WidthMismatch, tile
from test_simulate import build_custom_circuit


def pack(words: list[int], width: int) -> list[int]:
    """Planes for input words given as MSB-first ints: bit j of plane i is
    bit i of word j."""
    return [
        sum(((w >> (width - 1 - i)) & 1) << j for j, w in enumerate(words))
        for i in range(width)
    ]


def unpack(planes: list[int], j: int) -> BitWord:
    return BitWord(tuple((plane >> j) & 1 for plane in planes))


def check_planes_match_scalar(circuit, words: list[int]) -> None:
    outputs, garbage = circuit.simulate_planes(pack(words, circuit.width), len(words))
    for j, value in enumerate(words):
        want = circuit.simulate(BitWord.from_int(value, circuit.width))
        assert (unpack(outputs, j), unpack(garbage, j)) == want


class TestSimulatePlanes:
    @given(sealed_circuits())
    def test_full_enumeration_matches_scalar(self, circuit):
        check_planes_match_scalar(circuit, list(range(1 << circuit.width)))

    @given(st.data())
    def test_random_words_match_scalar(self, data):
        circuit = data.draw(sealed_circuits())
        words = data.draw(st.lists(st.integers(0, (1 << circuit.width) - 1),
                                   min_size=1, max_size=40))
        check_planes_match_scalar(circuit, words)

    def test_shipped_four_digit_adder_on_sampled_words(self):
        circuit = build_bcd_adder_n(4)
        words = [encode_bcd_operands(a, b, cin, 4).to_int()
                 for a, b, cin in [(0, 0, 0), (9999, 9999, 1), (1234, 8766, 0),
                                   (5000, 4999, 1), (9, 1, 0)]]
        words.append((1 << circuit.width) - 1)  # non-BCD operands too
        check_planes_match_scalar(circuit, words)

    def test_width_and_range_checked(self):
        circuit = build_bcd_adder_digit()
        with pytest.raises(WidthMismatch):
            circuit.simulate_planes([0] * 8, 4)
        with pytest.raises(ValueError):
            circuit.simulate_planes([0] * 8 + [0b10000], 4)


class TestMapping:
    @settings(max_examples=50)
    @given(sealed_circuits())
    def test_mapping_is_scalar_per_word(self, circuit):
        assert circuit.mapping() == [
            circuit.simulate(BitWord.from_int(v, circuit.width))
            for v in range(1 << circuit.width)
        ]

    # The custom circuit's NOT gates have ANF A^1, whose constant term no
    # catalog gate has.
    @pytest.mark.parametrize(
        "build", [build_bcd_adder_digit, build_ripple_adder4, build_custom_circuit])
    def test_shipped_designs(self, build):
        circuit = build()
        assert circuit.mapping() == [
            circuit.simulate(BitWord.from_int(v, circuit.width))
            for v in range(1 << circuit.width)
        ]


# The term-by-term evaluation shares no code with the Möbius transform.
@given(random_gates())
def test_anf_reproduces_every_catalog_table(drawn):
    for gate in [*catalog_by_name().values(), drawn]:
        for word in range(len(gate.rows)):
            ins = [(word >> (gate.arity - 1 - p)) & 1 for p in range(gate.arity)]
            out = 0
            for monomials in gate.anf:
                bit = 0
                for monomial in monomials:
                    bit ^= all(ins[p] for p in monomial)
                out = (out << 1) | bit
            assert out == gate.rows[word], (gate.name, word)


@pytest.mark.parametrize("block, length, repeats", [(0b10, 2, 5), (0b011, 3, 4),
                                                    (1, 7, 1), (0b1, 1, 0)])
def test_tile_is_block_times_repunit(block, length, repeats):
    repunit = ((1 << length * repeats) - 1) // ((1 << length) - 1)
    assert tile(block, length, repeats) == block * repunit


@pytest.mark.parametrize("length, repeats, argument", [(1, -1, "repeats"), (3, -5, "repeats"),
                                                       (0, 3, "length"), (-2, 3, "length")])
def test_tile_rejects_bad_arguments(length, repeats, argument):
    # A negative count would otherwise double the piece without end.
    with pytest.raises(ValueError, match=f"^tile {argument} must be "):
        tile(1, length, repeats)


class _PlanesBuilt(Exception):
    pass


def verify_digit_plane_shapes(monkeypatch, digits: int) -> list[tuple[int, int]]:
    """The (run, count) of every `_digit_planes` call `verify_bcd_adder(digits)`
    makes; it is stopped at its first simulation, after the planes are built."""
    shapes = []
    digit_planes = designs._digit_planes

    def recorded(run, count):
        shapes.append((run, count))
        return digit_planes(run, count)

    def stop(circuit, planes, count):
        raise _PlanesBuilt

    with monkeypatch.context() as patch:
        patch.setattr(designs, "_digit_planes", recorded)
        patch.setattr(Circuit, "simulate_planes", stop)
        with pytest.raises(_PlanesBuilt):
            verify_bcd_adder(digits)
    return shapes


def test_digit_planes_equal_one_tile_per_value(monkeypatch):
    shapes = {shape for digits in range(1, designs.MAX_DIGITS + 1)
              for shape in verify_digit_plane_shapes(monkeypatch, digits)}
    assert max(count for _, count in shapes) == 2 * 10**6
    for run, count in sorted(shapes):
        per_value = [tile(((1 << run) - 1) << (run * x), 10 * run, count // (10 * run))
                     for x in range(10)]
        assert designs._digit_planes(run, count) == per_value, (run, count)
        if count <= 200:
            for j in range(count):
                assert [(p >> j) & 1 for p in per_value].index(1) == j // run % 10


def scalar_failures(circuit, digits: int):
    """Reference verify loop: one scalar simulate per case, bit-exact."""
    limit = 10**digits
    for a in range(limit):
        for b in range(limit):
            for cin in (0, 1):
                outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin, digits))
                cout, total = oracle_bcd_add_number(a, b, cin, digits)
                want = str(cout) + "".join(f"{int(d):04b}" for d in f"{total:0{digits}d}")
                if str(outputs) != want:
                    yield a, b, cin


def flipped(circuit, index: int):
    constants = list(circuit.constants)
    constants[index] ^= 1
    return dataclasses.replace(circuit, constants=tuple(constants))


def verify_circuit(monkeypatch, circuit, digits: int):
    monkeypatch.setattr(designs, "build_bcd_adder_n", lambda n: circuit)
    return verify_bcd_adder(digits)


@functools.cache
def two_digit_mutant(index: int):
    """The 2-digit adder with constant `index` flipped, and its one-batch verify.

    Each mutant's verify is run once and shared by the tests that read it;
    none of them changes the result.
    """
    mutant = flipped(build_bcd_adder_n(2), index)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(designs, "build_bcd_adder_n", lambda n: mutant)
        patch.setattr(designs, "_BATCH_WORDS", 20000)
        return mutant, verify_bcd_adder(2)


class TestVerifyAgainstScalar:
    @pytest.mark.parametrize("digits", [1, 2])
    def test_shipped_adder_passes_both(self, digits):
        assert list(scalar_failures(build_bcd_adder_n(digits), digits)) == []
        assert verify_bcd_adder(digits) == (2 * 100**digits, [])

    def test_one_digit_mutants_fail_identically(self, monkeypatch):
        adder = build_bcd_adder_n(1)
        for index in range(len(adder.constants)):
            mutant = flipped(adder, index)
            _, failures = verify_circuit(monkeypatch, mutant, 1)
            reference = list(scalar_failures(mutant, 1))
            assert reference, index
            assert [f[:3] for f in failures] == reference, index

    @pytest.mark.parametrize("index", range(12))
    def test_two_digit_mutants_fail_in_both(self, index):
        mutant, (_, failures) = two_digit_mutant(index)
        first = next(scalar_failures(mutant, 2), None)
        assert first is not None
        assert failures and failures[0][:3] == first

    @pytest.mark.parametrize("digits, batch_words, calls", [
        (1, None, 1), (2, None, 1), (3, None, 100), (1, 0, 100), (2, 200, 100),
    ])
    def test_one_batch_up_to_two_digits(self, monkeypatch, digits, batch_words, calls):
        if batch_words is not None:
            monkeypatch.setattr(designs, "_BATCH_WORDS", batch_words)
        seen = []
        simulate_planes = Circuit.simulate_planes

        def counted(circuit, planes, count):
            seen.append(count)
            return simulate_planes(circuit, planes, count)

        monkeypatch.setattr(Circuit, "simulate_planes", counted)
        assert verify_bcd_adder(digits) == (2 * 100**digits, [])
        assert len(seen) == calls
        assert sum(seen) == 2 * 100**digits

    def test_plane_error_that_scalar_does_not_repeat_raises(self, monkeypatch):
        # Bit 0 of the first output plane is cout for 0 + 0 + 0; scalar
        # `simulate` gets that case right, so the planes are at fault.
        simulate_planes = Circuit.simulate_planes

        def first_bit_flipped(circuit, planes, count):
            outputs, garbage = simulate_planes(circuit, planes, count)
            return [outputs[0] ^ 1, *outputs[1:]], garbage

        monkeypatch.setattr(Circuit, "simulate_planes", first_bit_flipped)
        with pytest.raises(RuntimeError, match=r"^plane and scalar simulation "
                                               r"disagree on 0 \+ 0 \+ 0$"):
            verify_bcd_adder(1)

    def test_one_digit_mutants_chunked_as_in_one_batch(self, monkeypatch):
        adder = build_bcd_adder_n(1)
        for index in range(len(adder.constants)):
            mutant = flipped(adder, index)
            monkeypatch.setattr(designs, "_BATCH_WORDS", 200)
            one_batch = verify_circuit(monkeypatch, mutant, 1)
            monkeypatch.setattr(designs, "_BATCH_WORDS", 0)
            assert verify_circuit(monkeypatch, mutant, 1) == one_batch, index

    @pytest.mark.parametrize("index", range(12))
    def test_two_digit_mutants_chunked_as_in_one_batch(self, monkeypatch, index):
        mutant, (total, one_batch) = two_digit_mutant(index)
        assert total == 20000 and one_batch
        monkeypatch.setattr(designs, "_BATCH_WORDS", 200)
        assert verify_circuit(monkeypatch, mutant, 2) == (total, one_batch)

    def test_aliased_outputs_count_as_failures(self):
        # 0 + 9 + 1 outputs 0 0000 1010: the low nibble is not BCD but
        # decodes to 10, the right number. Only the bits show the fault.
        _, (total, failures) = two_digit_mutant(3)
        assert total == 20000
        record = next(f for f in failures if f[:3] == (0, 9, 1))
        assert record.got == record.want == (0, 10)
        assert (str(record.got_bits), str(record.want_bits)) == ("000001010", "000010000")
        assert [f[:3] for f in failures] == sorted(f[:3] for f in failures)

    def test_cli_prints_raw_bits_of_failures(self, monkeypatch, capsys):
        mutant = flipped(build_bcd_adder_n(2), 3)
        monkeypatch.setattr(designs, "build_bcd_adder_n", lambda n: mutant)
        assert main(["bcd", "verify", "--digits", "2"]) == EXIT_FAIL
        lines = capsys.readouterr().out.splitlines()
        got, _ = mutant.simulate(encode_bcd_operands(0, 0, 0, 2))
        assert lines[0] == "0/20000 cases pass"
        assert lines[1] == (f"FAIL: 0 + 0 + 0: circuit {got} -> "
                            f"{designs.decode_bcd_result(got, 2)}, "
                            f"oracle 000000000 -> (0, 0)")
        assert lines[-1] == "... and 19990 more"
