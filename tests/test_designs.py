"""Design tests: oracle, correction equations, adder constructions."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from revlogic.designs import (
    BadDigitCount,
    ReferenceRow,
    bcd_digit_stage_tags,
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_correction_stage,
    build_full_adder,
    build_ripple_adder4,
    decode_bcd_result,
    encode_bcd_operands,
    eval_correction_eq1,
    eval_correction_eq2,
    oracle_bcd_add,
    oracle_bcd_add_number,
    reference_table,
    verify_bcd_adder,
)
from revlogic.gates import BitWord
from revlogic.metrics import analyze, delay, delay_decomposition


class TestOracle:
    def test_no_correction(self):
        assert oracle_bcd_add(4, 4, 0) == (0, 8)

    def test_maximum_sum(self):
        assert oracle_bcd_add(9, 9, 1) == (1, 9)

    def test_correction_path(self):
        assert oracle_bcd_add(7, 8, 0) == (1, 5)

    def test_matches_plain_arithmetic(self):
        for a in range(10):
            for b in range(10):
                for cin in (0, 1):
                    cout, total = oracle_bcd_add(a, b, cin)
                    assert cout * 10 + total == a + b + cin

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            oracle_bcd_add(10, 0, 0)
        with pytest.raises(ValueError):
            oracle_bcd_add(0, -1, 0)

    def test_rejects_bad_carry(self):
        with pytest.raises(ValueError):
            oracle_bcd_add(0, 0, 2)

    def test_carry_is_an_int_bit(self):
        assert oracle_bcd_add(1, 2, True) == (0, 4)
        with pytest.raises(ValueError):
            oracle_bcd_add(1, 2, 1.0)

    def test_number_oracle_chains_digits(self):
        assert oracle_bcd_add_number(99, 1, 0, 2) == (1, 0)
        assert oracle_bcd_add_number(99, 99, 1, 2) == (1, 99)
        assert oracle_bcd_add_number(45, 55, 0, 2) == (1, 0)
        for a in (0, 7, 42, 99):
            for b in (0, 9, 58, 99):
                for cin in (0, 1):
                    cout, total = oracle_bcd_add_number(a, b, cin, 2)
                    assert cout * 100 + total == a + b + cin

    def test_number_oracle_bounds(self):
        with pytest.raises(ValueError):
            oracle_bcd_add_number(100, 0, 0, 2)

    @staticmethod
    def chained(a, b, cin, digits):
        """oracle_bcd_add applied digit by digit, least significant first."""
        carry, total = cin, 0
        for position in range(digits):
            carry, digit = oracle_bcd_add(a // 10**position % 10,
                                          b // 10**position % 10, carry)
            total += digit * 10**position
        return carry, total

    def test_number_oracle_is_the_digit_chain(self):
        triples = [(a, b, cin, 1) for a in range(10) for b in range(10) for cin in (0, 1)]
        rng = random.Random(2010)
        for digits in (2, 3, 4):
            limit = 10**digits
            triples += [(rng.randrange(limit), rng.randrange(limit), rng.randrange(2),
                         digits) for _ in range(300)]
        for a, b, cin, digits in triples:
            assert oracle_bcd_add_number(a, b, cin, digits) == self.chained(
                a, b, cin, digits), (a, b, cin, digits)

    @pytest.mark.parametrize("a, b, cin, digits", [
        (1.5, 0, 0, 1), (5.0, 0, 0, 1), (0, 15.0, 0, 2), (-1, 0, 0, 1),
        (0, 10**4, 0, 4), (0, 0, 2, 2), (0, 0, -1, 1), (0, 0, 0, 0),
        ("5", 0, 0, 1), (None, 0, 0, 1), (1, 0, 0, "2"), (0, 0, 1.0, 1),
    ])
    def test_number_oracle_rejects(self, a, b, cin, digits):
        with pytest.raises(ValueError):
            oracle_bcd_add_number(a, b, cin, digits)

    # A bool is an int, but True is no digit count.
    @pytest.mark.parametrize("call, error", [
        (lambda: oracle_bcd_add_number(1, 2, 0, True), ValueError),
        (lambda: build_bcd_adder_n(True), BadDigitCount),
        (lambda: verify_bcd_adder(True), BadDigitCount),
        (lambda: decode_bcd_result(BitWord((1,)), 0), ValueError),
        (lambda: decode_bcd_result(BitWord.from_int(0, 5), True), ValueError),
    ], ids=["oracle", "build", "verify", "decode-zero", "decode-bool"])
    def test_digit_count_rejected(self, call, error):
        with pytest.raises(error):
            call()


class TestCorrectionEquations:
    def test_eq1_examples(self):
        assert eval_correction_eq1(0, 0, 0, 1) == 1
        assert eval_correction_eq1(1, 0, 1, 0) == 1
        assert eval_correction_eq1(1, 1, 1, 1) == 1

    def test_eq2_examples(self):
        assert eval_correction_eq2(0, 0, 0, 1) == 1
        assert eval_correction_eq2(1, 0, 1, 0) == 1
        assert eval_correction_eq2(1, 1, 1, 1) == 0

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            eval_correction_eq1(2, 0, 0, 0)
        with pytest.raises(ValueError):
            eval_correction_eq2(0, 0, 0, 2)

    def test_float_bits_rejected(self):
        with pytest.raises(ValueError):
            eval_correction_eq1(1.0, 0, 0, 0)
        with pytest.raises(ValueError):
            eval_correction_eq2(0, 0, 0, 1.0)

    def test_equal_on_reachable_states(self):
        # The reachable (s3,s2,s1,c4) states come from the binary sum
        # of two BCD digits plus carry: 0..19.
        for a, b, cin in itertools.product(range(10), range(10), (0, 1)):
            total = a + b + cin
            c4, s3, s2, s1 = [(total >> k) & 1 for k in (4, 3, 2, 1)]
            v1 = eval_correction_eq1(s3, s2, s1, c4)
            v2 = eval_correction_eq2(s3, s2, s1, c4)
            assert v1 == v2
            assert v1 == oracle_bcd_add(a, b, cin)[0]

    def test_disagree_somewhere_off_domain(self):
        disagreements = [
            (s3, s2, s1, c4)
            for s3 in (0, 1) for s2 in (0, 1) for s1 in (0, 1) for c4 in (0, 1)
            if eval_correction_eq1(s3, s2, s1, c4)
            != eval_correction_eq2(s3, s2, s1, c4)
        ]
        assert disagreements
        assert (1, 1, 1, 1) in disagreements


class TestFullAdder:
    def test_examples(self):
        circuit = build_full_adder()
        outputs, _ = circuit.simulate(BitWord((1, 1, 0)))
        assert outputs.bits == (0, 1)
        outputs, _ = circuit.simulate(BitWord((0, 0, 0)))
        assert outputs.bits == (0, 0)

    def test_all_inputs_match_binary_addition(self):
        circuit = build_full_adder()
        for value, (outputs, _) in enumerate(circuit.mapping()):
            a, b, cin = (value >> 2) & 1, (value >> 1) & 1, value & 1
            total, carry = outputs
            assert carry * 2 + total == a + b + cin

    def test_metrics(self):
        report = analyze(build_full_adder())
        assert (report.gate_count, report.garbage_count, report.constant_count) \
            == (1, 2, 1)


class TestRippleAdder4:
    def test_spot_values(self):
        circuit = build_ripple_adder4()
        word = BitWord.from_string("1001" "1001" "1")
        outputs, _ = circuit.simulate(word)
        assert outputs.bits == (1, 0, 0, 1, 1)

    def test_zero(self):
        circuit = build_ripple_adder4()
        outputs, _ = circuit.simulate(BitWord.from_int(0, 9))
        assert outputs.to_int() == 0

    def test_all_512_match_binary_addition(self):
        circuit = build_ripple_adder4()
        for value, (outputs, _) in enumerate(circuit.mapping()):
            a = (value >> 5) & 0xF
            b = (value >> 1) & 0xF
            cin = value & 1
            assert outputs.to_int() == a + b + cin

    def test_metrics(self):
        report = analyze(build_ripple_adder4())
        assert report.gate_count == 4
        assert report.garbage_count == 8
        assert report.constant_count == 4
        assert report.delay_levels == 4


class TestCorrectionStage:
    def test_metrics(self):
        report = analyze(build_correction_stage())
        assert report.gate_count == 1
        assert report.garbage_count == 0
        assert report.constant_count == 0

    def test_matches_eq2_everywhere(self):
        circuit = build_correction_stage()
        for value, (outputs, garbage) in enumerate(circuit.mapping()):
            s1, s2, s3, c4 = [(value >> k) & 1 for k in (3, 2, 1, 0)]
            assert garbage.width == 0
            assert outputs.bits == (s1, s2, s3,
                                    eval_correction_eq2(s3, s2, s1, c4))


class TestBcdAdderDigit:
    def test_metrics(self):
        report = analyze(build_bcd_adder_digit())
        assert report.gate_count == 8
        assert report.garbage_count == 10
        assert report.constant_count == 6
        assert report.delay_levels == 8

    def test_gate_mix(self):
        names = [inst.gate.name for inst in build_bcd_adder_digit().instances]
        assert names.count("HNG") == 5
        assert names.count("SCL") == 1
        assert names.count("PG") == 1
        assert names.count("FG") == 1

    def test_output_labels(self):
        circuit = build_bcd_adder_digit()
        assert circuit.output_labels == ("cout", "s3", "s2", "s1", "s0")

    def test_simulate_examples(self):
        circuit = build_bcd_adder_digit()
        outputs, _ = circuit.simulate(encode_bcd_operands(5, 5, 0))
        assert decode_bcd_result(outputs) == (1, 0)
        outputs, _ = circuit.simulate(encode_bcd_operands(0, 0, 0))
        assert decode_bcd_result(outputs) == (0, 0)
        outputs, _ = circuit.simulate(encode_bcd_operands(9, 9, 1))
        assert decode_bcd_result(outputs) == (1, 9)

    def test_all_200_cases_match_plain_arithmetic(self):
        circuit = build_bcd_adder_digit()
        for a, b, cin in itertools.product(range(10), range(10), (0, 1)):
            outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin))
            assert decode_bcd_result(outputs) == oracle_bcd_add(a, b, cin)

    def test_verify_helper_agrees(self):
        total, failures = verify_bcd_adder(1)
        assert total == 200
        assert failures == []

    def test_stage_tags(self):
        assert bcd_digit_stage_tags() == {
            0: "adder1", 1: "adder1", 2: "adder1", 3: "adder1",
            4: "correction", 5: "adder2", 6: "adder2", 7: "adder2",
        }

    def test_delay_decomposition(self):
        circuit = build_bcd_adder_digit()
        decomposition = delay_decomposition(circuit, bcd_digit_stage_tags())
        assert decomposition == {"adder1": 4, "correction": 1, "adder2": 3}
        assert list(decomposition) == ["adder1", "correction", "adder2"]
        assert sum(decomposition.values()) == delay(circuit)


class TestCascade:
    def test_one_digit_degenerate(self):
        assert analyze(build_bcd_adder_n(1)) == analyze(build_bcd_adder_digit())

    def test_one_digit_is_the_digit_adder(self):
        assert build_bcd_adder_n(1) == build_bcd_adder_digit()

    def test_bad_digit_counts(self):
        for n in (0, -1, 5):
            with pytest.raises(BadDigitCount):
                build_bcd_adder_n(n)
        with pytest.raises(BadDigitCount):
            build_bcd_adder_n("2")

    def test_two_digit_shape(self):
        circuit = build_bcd_adder_n(2)
        assert circuit.width == 17
        assert len(circuit.outputs) == 9
        assert circuit.output_labels == (
            "cout", "s1_3", "s1_2", "s1_1", "s1_0", "s0_3", "s0_2", "s0_1", "s0_0",
        )

    def test_two_digit_metrics_scale(self):
        report = analyze(build_bcd_adder_n(2))
        assert report.gate_count == 16
        assert report.garbage_count == 20
        assert report.constant_count == 12

    def test_two_digit_delay_hand_traced(self):
        # The carry leaves each block from the adder-2 HNG at level 7;
        # the final FG adds one more level: 7 + 7 + 1 = 15.
        assert delay(build_bcd_adder_n(2)) == 15

    def test_two_digit_examples(self):
        circuit = build_bcd_adder_n(2)
        for a, b, cin, want in [
            (99, 1, 0, (1, 0)),
            (99, 99, 1, (1, 99)),
            (45, 55, 0, (1, 0)),
            (12, 34, 0, (0, 46)),
            (0, 0, 0, (0, 0)),
        ]:
            outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin, 2))
            assert decode_bcd_result(outputs, 2) == want

    def test_two_digit_sample_against_arithmetic(self):
        circuit = build_bcd_adder_n(2)
        for a in range(0, 100, 7):
            for b in range(0, 100, 9):
                for cin in (0, 1):
                    outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin, 2))
                    cout, total = decode_bcd_result(outputs, 2)
                    assert cout * 100 + total == a + b + cin

    def test_three_digit_spot(self):
        circuit = build_bcd_adder_n(3)
        outputs, _ = circuit.simulate(encode_bcd_operands(999, 1, 0, 3))
        assert decode_bcd_result(outputs, 3) == (1, 0)

    def test_four_digit_seeded_additions_cross_the_compile_threshold(self):
        # 2 000 words on one adder: the first COMPILE_AFTER - 1 interpreted,
        # the rest through the compiled kernel.
        circuit = build_bcd_adder_n(4)
        rng = random.Random(4)
        for _ in range(2000):
            a, b, cin = rng.randrange(10**4), rng.randrange(10**4), rng.getrandbits(1)
            outputs, _ = circuit.simulate(encode_bcd_operands(a, b, cin, 4))
            got = decode_bcd_result(outputs, 4)
            assert got == oracle_bcd_add_number(a, b, cin, 4) == divmod(a + b + cin, 10**4)
        assert circuit._kernel is not None


class TestEncodeDecode:
    def test_encode_layout(self):
        word = encode_bcd_operands(9, 3, 1)
        assert str(word) == "1001" "0011" "1"

    def test_decode_inverts_oracle_layout(self):
        for a in range(10):
            for b in range(10):
                cout, total = oracle_bcd_add(a, b, 0)
                bits = (cout,) + tuple((total >> k) & 1 for k in (3, 2, 1, 0))
                assert decode_bcd_result(BitWord(bits)) == (cout, total)

    def test_encode_bounds(self):
        with pytest.raises(ValueError):
            encode_bcd_operands(10, 0, 0)
        with pytest.raises(ValueError):
            encode_bcd_operands(0, 0, 2)

    # Operands of the wrong type are a ValueError naming them, never a
    # TypeError from comparing or formatting them.
    @pytest.mark.parametrize("a, b, cin, digits, message", [
        ("5", 0, 0, 1, "operands must be integers, got '5' and 0"),
        (None, 0, 0, 1, "operands must be integers, got None and 0"),
        (1.5, 0, 0, 1, "operands must be integers, got 1.5 and 0"),
        (0, 15.0, 0, 2, "operands must be integers, got 0 and 15.0"),
        (1, 0, 0, "2", "digits must be an integer, got '2'"),
        (0, 0, 0, 0, "digits must be positive"),
        (0, 100, 0, 2, "operands must be in [0, 10**2 - 1]"),
        (0, 0, 1.0, 1, "cin must be 0 or 1, got 1.0"),
    ], ids=["str-a", "none-a", "float-a", "float-b", "str-digits", "zero-digits",
            "b-out-of-range", "float-cin"])
    def test_encode_rejects(self, a, b, cin, digits, message):
        with pytest.raises(ValueError) as err:
            encode_bcd_operands(a, b, cin, digits)
        assert str(err.value) == message

    def test_decode_width_checked(self):
        with pytest.raises(ValueError):
            decode_bcd_result(BitWord((1, 0, 1)))

    @staticmethod
    def nibble_decode(outputs: BitWord, digits: int) -> tuple[int, int]:
        """The sum read nibble by nibble, each at its binary value."""
        value = 0
        for i in range(1, 4 * digits, 4):
            b3, b2, b1, b0 = outputs[i : i + 4]
            value = value * 10 + 8 * b3 + 4 * b2 + 2 * b1 + b0
        return outputs[0], value

    # Every 1- and 2-digit output word, non-BCD nibbles included.
    @pytest.mark.parametrize("digits", [1, 2])
    def test_decode_equals_nibble_loop_on_every_word(self, digits):
        width = 4 * digits + 1
        for value in range(1 << width):
            outputs = BitWord.from_int(value, width)
            assert (decode_bcd_result(outputs, digits)
                    == self.nibble_decode(outputs, digits)), outputs

    # 4400 digits is past CPython's default limit of 4300 for int(str).
    def test_decode_past_the_int_string_limit(self):
        digits = 4400
        assert decode_bcd_result(BitWord((0,) * (4 * digits + 1)), digits) == (0, 0)
        nines = BitWord((1,) + (1, 0, 0, 1) * digits)
        assert decode_bcd_result(nines, digits) == (1, 10**digits - 1)

    # "%d" refuses such an operand; the nibbles come from int arithmetic.
    def test_encode_past_the_int_string_limit(self):
        nines = 10**4400 - 1
        assert encode_bcd_operands(nines, nines, 1, 4400) == (1, 0, 0, 1) * 8800 + (1,)
        word = encode_bcd_operands(nines, 1234, True, 4400)
        assert type(word) is BitWord
        assert str(word).endswith("1001" + "0000" * 4396 + "0001" "0010" "0011" "0100" "1")

    @pytest.mark.parametrize("call", [encode_bcd_operands, oracle_bcd_add_number])
    def test_operand_past_the_int_string_limit_rejected(self, call):
        # The bound is written symbolically: 10**4400 - 1 has too many
        # digits for str() to render.
        with pytest.raises(ValueError) as err:
            call(10**4400, 0, 0, 4400)
        assert str(err.value) == "operands must be in [0, 10**4400 - 1]"

    def test_decode_takes_any_bit_sequence(self):
        assert decode_bcd_result((0,) * 5) == (0, 0)
        assert decode_bcd_result([1, 1, 0, 0, 1]) == (1, 9)
        assert decode_bcd_result((True, False, False, True, True), 1) == (1, 3)
        with pytest.raises(ValueError, match=re.escape("bit values must be 0 or 1, got '0'")):
            decode_bcd_result("00000")
        with pytest.raises(ValueError, match=re.escape("expected 5 output bits for 1 digit(s), got 4")):
            decode_bcd_result((0,) * 4)


class TestReferenceTable:
    def test_six_rows(self):
        rows = reference_table()
        assert len(rows) == 6
        assert [r.design_label for r in rows] == [
            "BCD adder[13] (without fan-out)",
            "BCD adder[14]",
            "BCD adder[15]",
            "BCD adder[16]",
            "BCD adder[17]",
            "Proposed BCD adder",
        ]

    def test_row_17(self):
        row = next(r for r in reference_table() if r.design_label == "BCD adder[17]")
        assert (row.total_gates, row.total_garbage,
                row.total_constants, row.total_delay) == (9, 11, 7, 9)

    def test_row_15(self):
        row = next(r for r in reference_table() if r.design_label == "BCD adder[15]")
        assert (row.total_gates, row.total_garbage,
                row.total_constants, row.total_delay) == (23, 22, 17, 14)

    def test_proposed_row_matches_build(self):
        proposed = reference_table()[-1]
        assert proposed.design_label == "Proposed BCD adder"
        report = analyze(build_bcd_adder_digit())
        assert proposed.total_gates == report.gate_count
        assert proposed.total_garbage == report.garbage_count
        assert proposed.total_constants == report.constant_count
        assert proposed.total_delay == report.delay_levels

    def test_proposed_stage_columns_match_builds(self):
        proposed = reference_table()[-1]
        adder1 = analyze(build_ripple_adder4())
        assert proposed.adder1_gates == adder1.gate_count == 4
        assert proposed.adder1_garbage == adder1.garbage_count == 8
        correction = analyze(build_correction_stage())
        assert proposed.correction_gates == correction.gate_count == 1
        assert proposed.correction_garbage == correction.garbage_count == 0

    def test_rows_are_immutable_records(self):
        row = reference_table()[0]
        assert isinstance(row, ReferenceRow)
        with pytest.raises(AttributeError):
            row.total_gates = 0
