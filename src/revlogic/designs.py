"""Reference BCD-adder designs and their decimal oracle.

The centerpiece is a one-digit BCD adder built from 8 reversible gates:

* adder-1: four HNG full adders rippling a carry, computing the plain
  binary sum S4..S0 of the two digits plus carry-in (8 garbage outputs,
  4 constant inputs);
* correction: one SCL gate computing the decimal carry
  Cout = C4 xor S3·(S2 + S1) while passing S1,S2,S3 through. On every
  sum reachable from valid BCD operands this equals the textbook
  correction OR-form Cout = S3·S2 + S3·S1 + C4 (`eval_correction_eq1`);
  the two differ only on unreachable states, which is what lets an XOR
  replace the OR and saves the gate that would otherwise copy C4;
* adder-2: a PG, HNG, FG chain that adds 6 (0110) to the binary sum
  exactly when Cout is set. Cout is threaded through the PG and HNG
  pass-through pins so the carry reaches the primary output without
  fan-out. Bit 0 never changes when adding 6, so S0 wires straight out.

Totals: 8 gates (5 HNG, 1 SCL, 1 PG, 1 FG), 10 garbage outputs, 6
constant inputs, 8 gate levels with the stage split 4 + 1 + 3.

An N-digit adder cascades one-digit blocks on their carries. Everything
is verified against `oracle_bcd_add_number`, whole-number decimal
arithmetic with no circuit anywhere in it; the tests check that it
equals the one-digit `oracle_bcd_add` chained on its carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import RevLogicError
from .gates import _BIT_TEXT, BitWord, _int_word, catalog_by_name
from .netlist import Circuit, CircuitBuilder, Wire, new_circuit, tile


class BadDigitCount(RevLogicError):
    """Cascade size outside the supported range."""


MAX_DIGITS = 4

# Most cases an exhaustive verify runs as one plane batch. Per-gate
# Python overhead dominates narrow planes, so 100 chunks of 200 words
# cost far more than one batch of 20000 (9.0 against 1.2 ms at two
# digits), while at three digits one 2*10^6-word batch is the slower
# (about 85 against 21 ms; CPython 3.11, 2-CPU x86-64 VM).
_BATCH_WORDS = 2 * 10**4


def _bit(name: str, value: int) -> int:
    if not isinstance(value, int) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return value


def oracle_bcd_add(a: int, b: int, cin: int) -> tuple[int, int]:
    """Decimal-arithmetic oracle: (carry out, sum digit) of a + b + cin."""
    return oracle_bcd_add_number(a, b, cin, 1)


def _check_operands(a: int, b: int, cin: int, digits: int) -> int:
    """Check `digits`-digit operands and a carry-in bit; returns the carry-in.

    The digit count is checked as `decode_bcd_result` checks it, and the
    carry-in as `_bit` checks a bit, with the same messages; they are
    written out here since every encoded word and every oracle call
    passes them.
    """
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise ValueError(f"digits must be an integer, got {digits!r}")
    if digits < 1:
        raise ValueError("digits must be positive")
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError(f"operands must be integers, got {a!r} and {b!r}")
    limit = 10**digits
    if not 0 <= a < limit or not 0 <= b < limit:
        # Written symbolically: the bound itself may be too long for str().
        raise ValueError(f"operands must be in [0, 10**{digits} - 1]")
    if not isinstance(cin, int) or cin not in (0, 1):
        raise ValueError(f"cin must be 0 or 1, got {cin!r}")
    return cin


def oracle_bcd_add_number(a: int, b: int, cin: int, digits: int) -> tuple[int, int]:
    """Multi-digit oracle: (carry out, sum) of a + b + cin in whole-number
    decimal arithmetic, the sum kept to `digits` digits.

    For valid operands this is the decimal carry chain of `oracle_bcd_add`
    digit by digit; the tests check that equivalence.
    """
    cin = _check_operands(a, b, cin, digits)
    return divmod(a + b + cin, 10**digits)


def eval_correction_eq1(s3: int, s2: int, s1: int, c4: int) -> int:
    """OR-form decimal-carry correction: S3·S2 + S3·S1 + C4."""
    s3, s2, s1, c4 = (_bit(n, v) for n, v in
                      (("s3", s3), ("s2", s2), ("s1", s1), ("c4", c4)))
    return (s3 & s2) | (s3 & s1) | c4


def eval_correction_eq2(s3: int, s2: int, s1: int, c4: int) -> int:
    """XOR-form decimal-carry correction: C4 xor S3·(S2 + S1).

    Agrees with eval_correction_eq1 on every state reachable from valid
    BCD operands; differs on some unreachable ones (e.g. all-ones).
    """
    s3, s2, s1, c4 = (_bit(n, v) for n, v in
                      (("s3", s3), ("s2", s2), ("s1", s1), ("c4", c4)))
    return c4 ^ (s3 & (s2 | s1))


def _add_full_adder(
    builder: CircuitBuilder, a: Wire, b: Wire, cin: Wire
) -> tuple[Wire, Wire]:
    """Place one HNG full adder; marks its two pass-throughs garbage.

    Returns (sum, carry). Costs one constant input (the HNG D pin).
    """
    hng = catalog_by_name()["HNG"]
    d = builder.add_constant(0)
    p, q, total, carry = builder.add_gate(hng, [a, b, cin, d])
    builder.mark_garbage(p)
    builder.mark_garbage(q)
    return total, carry


def build_full_adder() -> Circuit:
    """Single-HNG full adder: outputs (sum, carry), 2 garbage, 1 constant."""
    builder = new_circuit(["a", "b", "cin"])
    a, b, cin = builder.inputs
    total, carry = _add_full_adder(builder, a, b, cin)
    builder.mark_output(total, "sum")
    builder.mark_output(carry, "carry")
    return builder.seal()


def _add_ripple4(
    builder: CircuitBuilder,
    a_bits: tuple[Wire, Wire, Wire, Wire],
    b_bits: tuple[Wire, Wire, Wire, Wire],
    cin: Wire,
) -> tuple[Wire, list[Wire]]:
    """Four chained full adders over MSB-first nibbles.

    Returns (c4, [s3, s2, s1, s0]).
    """
    a3, a2, a1, a0 = a_bits
    b3, b2, b1, b0 = b_bits
    s0, c1 = _add_full_adder(builder, a0, b0, cin)
    s1, c2 = _add_full_adder(builder, a1, b1, c1)
    s2, c3 = _add_full_adder(builder, a2, b2, c2)
    s3, c4 = _add_full_adder(builder, a3, b3, c3)
    return c4, [s3, s2, s1, s0]


def _seal_adder(add_block, n: int, carry_label: str) -> Circuit:
    """Seal n `add_block` digits, carry rippling between them.

    `add_block(builder, a_bits, b_bits, cin)` places one digit and
    returns (carry, [s3..s0]). The ports are a3..a0 and s3..s0 when n
    is 1, and as `build_bcd_adder_n` lays them out otherwise.
    """
    digits = [""] if n == 1 else [f"{d}_" for d in range(n - 1, -1, -1)]

    def ports(prefix: str) -> list[str]:
        return [f"{prefix}{d}{i}" for d in digits for i in (3, 2, 1, 0)]

    builder = new_circuit(ports("a") + ports("b") + ["cin"])
    ins = builder.inputs
    carry = ins[8 * n]
    sums: list[Wire] = []
    for d in range(n):
        # Digit d's nibbles sit (n-1-d) nibbles into a's and b's ports.
        start = (n - 1 - d) * 4
        carry, digit = add_block(builder, ins[start : start + 4],
                                 ins[4 * n + start : 4 * n + start + 4], carry)
        sums[:0] = digit
    builder.mark_output(carry, carry_label)
    for wire, label in zip(sums, ports("s")):
        builder.mark_output(wire, label)
    return builder.seal()


def build_ripple_adder4() -> Circuit:
    """4-bit binary ripple adder: 4 HNGs, 8 garbage, 4 constants, delay 4.

    Inputs a3..a0, b3..b0, cin; outputs c4, s3..s0.
    """
    return _seal_adder(_add_ripple4, 1, "c4")


def build_correction_stage() -> Circuit:
    """The correction gate alone: SCL(S1,S2,S3,C4) -> (S1,S2,S3,Cout).

    Inputs s1, s2, s3, c4; outputs s1p, s2p, s3p, cout (netlist text
    names an output by its wire, so none may reuse an input's label).
    1 gate, 0 garbage, 0 constants: the pass-throughs are real outputs
    here, which is exactly why the full adder design pays no garbage for
    its correction stage.
    """
    builder = new_circuit(["s1", "s2", "s3", "c4"])
    scl = catalog_by_name()["SCL"]
    for wire, label in zip(builder.add_gate(scl, builder.inputs),
                           ("s1p", "s2p", "s3p", "cout")):
        builder.mark_output(wire, label)
    return builder.seal()


def _add_bcd_digit(
    builder: CircuitBuilder,
    a_bits: tuple[Wire, Wire, Wire, Wire],
    b_bits: tuple[Wire, Wire, Wire, Wire],
    cin: Wire,
) -> tuple[Wire, list[Wire]]:
    """One full BCD digit block (8 gates); returns (cout, [sum3..sum0]).

    Marks the block's 10 garbage wires; the caller owns cout and sums.
    """
    gates = catalog_by_name()
    scl, pg, hng, fg = gates["SCL"], gates["PG"], gates["HNG"], gates["FG"]

    # adder-1: plain binary sum of the digit pair.
    c4, (s3, s2, s1, s0) = _add_ripple4(builder, a_bits, b_bits, cin)

    # correction: Cout = C4 ^ S3(S2+S1); S1,S2,S3 pass through untouched.
    s1p, s2p, s3p, cout = builder.add_gate(scl, [s1, s2, s3, c4])

    # adder-2: add 0110 when Cout is set. The PG and HNG pass-through
    # pins carry Cout forward, so no wire ever splits.
    #   PG(Cout, S1, 0)            -> Cout copy, Sum1 = S1^Cout, c1 = S1·Cout
    #   HNG(S2, Cout, c1, 0)       -> S2 (garbage), Cout copy, Sum2, c2
    #   FG(c2, S3)                 -> c2 (garbage), Sum3 = S3^c2
    zero_pg = builder.add_constant(0)
    cout_a, sum1, carry1 = builder.add_gate(pg, [cout, s1p, zero_pg])
    zero_hng = builder.add_constant(0)
    s2_spent, cout_b, sum2, carry2 = builder.add_gate(hng, [s2p, cout_a, carry1, zero_hng])
    builder.mark_garbage(s2_spent)
    c2_spent, sum3 = builder.add_gate(fg, [carry2, s3p])
    builder.mark_garbage(c2_spent)

    return cout_b, [sum3, sum2, sum1, s0]


def build_bcd_adder_digit() -> Circuit:
    """One-digit BCD adder: 8 gates, 10 garbage, 6 constants, delay 8.

    Inputs a3..a0, b3..b0, cin; outputs cout, s3..s0 (the BCD sum digit).
    """
    return build_bcd_adder_n(1)


def bcd_digit_stage_tags() -> dict[int, str]:
    """Stage labels for build_bcd_adder_digit's instances.

    Instances 0-3 are the ripple full adders, 4 the SCL correction,
    5-7 the PG/HNG/FG of adder-2.
    """
    tags = {i: "adder1" for i in range(4)}
    tags[4] = "correction"
    tags.update({i: "adder2" for i in (5, 6, 7)})
    return tags


def build_bcd_adder_n(n: int) -> Circuit:
    """Cascade of n one-digit blocks, carry rippling between blocks.

    Inputs: a and b most-significant digit first, 4 bits per digit
    (a{d}_3..a{d}_0 where d counts down from n-1), then cin. Outputs:
    cout, then the sum digits most-significant first. n is capped at
    MAX_DIGITS to keep exhaustive verification tractable.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIGITS:
        raise BadDigitCount(f"digit count must be in [1, {MAX_DIGITS}], got {n!r}")
    return _seal_adder(_add_bcd_digit, n, "cout")


def encode_bcd_operands(a: int, b: int, cin: int, digits: int = 1) -> BitWord:
    """Pack decimal operands into the adder's input word.

    Layout matches the builders: a's digits MSB-first (4 bits each,
    MSB-first), then b's, then cin.
    """
    _check_operands(a, b, cin, digits)
    # Read in base 16, a number's decimal digits are its BCD nibbles; the
    # shifts pad them, and "%d" writes True as 1.
    shift = 4 * digits
    try:
        word = (int("%d" % a, 16) << shift | int("%d" % b, 16)) << 1 | cin
    except ValueError:
        # "%d" refuses an operand past CPython's digit limit (4300 by
        # default); the nibbles then come from int arithmetic.
        word = 0
        for operand in (a, b):
            nibbles = 0
            for k in range(digits):
                operand, digit = divmod(operand, 10)
                nibbles |= digit << 4 * k
            word = word << shift | nibbles
        word = word << 1 | cin
    return _int_word(word, 2 * shift + 1)


def decode_bcd_result(outputs: Iterable, digits: int = 1) -> tuple[int, int]:
    """Unpack an adder's output word into (cout, decimal sum value).

    Inverse of the builders' output layout: cout, then sum digits
    MSB-first. Out-of-range nibbles (possible for non-BCD inputs) decode
    to their binary value so mismatches stay visible. Bits that are not a
    `BitWord` are checked as `BitWord` checks them.
    """
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise ValueError(f"digits must be an integer, got {digits!r}")
    if digits < 1:
        raise ValueError("digits must be positive")
    if type(outputs) is not BitWord:
        outputs = BitWord(outputs)
    if len(outputs) != 4 * digits + 1:
        raise ValueError(
            f"expected {4 * digits + 1} output bits for {digits} digit(s), "
            f"got {len(outputs)}"
        )
    # Written in base 16, BCD nibbles are the sum's decimal digits. int()
    # refuses the text if a nibble is not BCD (a letter) or if it is longer
    # than CPython's digit limit (4300 by default); both take the loop.
    text = "%x" % int(bytes(outputs[1:]).translate(_BIT_TEXT), 2)
    try:
        return outputs[0], int(text)
    except ValueError:
        pass
    value = 0
    for i in range(1, 4 * digits, 4):
        b3, b2, b1, b0 = outputs[i : i + 4]
        value = value * 10 + 8 * b3 + 4 * b2 + 2 * b1 + b0
    return outputs[0], value


class BcdFailure(NamedTuple):
    """One case the adder gets wrong, as `verify_bcd_adder` reports it.

    `got` and `want` are decoded (cout, sum) pairs; `got_bits` and
    `want_bits` are the raw output word and the BCD encoding of the
    oracle's result. The bits decide a failure: a non-BCD nibble can
    decode to the right number.
    """

    a: int
    b: int
    cin: int
    got: tuple[int, int]
    want: tuple[int, int]
    got_bits: BitWord
    want_bits: BitWord


def _bcd_result_word(cout: int, total: int, digits: int) -> BitWord:
    """The adder output word for a result: cout, then BCD digits MSB-first."""
    # Read in base 16, a number's decimal digits are its BCD nibbles.
    return _int_word(cout << 4 * digits | int("%d" % total, 16), 4 * digits + 1)


def _digit_planes(run: int, count: int) -> list[int]:
    """Indicator planes [digit == x] for x in 0..9 of a digit that holds
    each value for `run` consecutive words and cycles with period 10*run.

    Only [digit == 0] is tiled; [digit == x] is it shifted up by x runs.
    `count` is a multiple of 10*run, so the last run of [digit == 0] ends
    9 runs below bit `count` and no shifted run passes it.
    """
    zero = tile((1 << run) - 1, 10 * run, count // (10 * run))
    return [zero << (run * x) for x in range(10)]


def _nibble_planes(indicators: list[int]) -> list[int]:
    """The digit's four bit planes, MSB first, from its indicator planes."""
    bits = [0, 0, 0, 0]
    for x, plane in enumerate(indicators):
        for k in range(4):
            if (x >> (3 - k)) & 1:
                bits[k] |= plane
    return bits


def _add_digit_planes(
    a: list[int], b: list[int], carry: int, count: int
) -> tuple[list[int], int]:
    """Decimal addition on `count`-word planes: sum-digit bit planes (MSB
    first) and the carry-out plane, given the operands' indicator planes
    [a_p == x] and [b_p == x] for x in 0..9 and the carry-in plane."""
    pair_sums = [0] * 19
    for x, a_plane in enumerate(a):
        for y, b_plane in enumerate(b):
            pair_sums[x + y] |= a_plane & b_plane
    # Not ~carry: an AND with a negative int costs several times as much.
    no_carry = ((1 << count) - 1) ^ carry
    digit = [0] * 10
    carry_out = 0
    for s, plane in enumerate(pair_sums):
        for total, words in ((s, plane & no_carry), (s + 1, plane & carry)):
            digit[total % 10] |= words
            if total >= 10:
                carry_out |= words
    return _nibble_planes(digit), carry_out


def _shared_digit_planes(shared: int) -> tuple[list[int], list[int], list[int], int]:
    """Planes of the low `shared` digits on 2 * 100**shared words, word
    j = (a_low * 10**shared + b_low) * 2 + cin: a's and b's input planes
    and the expected sum planes, each MSB first, and the carry-out plane.

    Digit p is built over one turn of a_p, 10 runs of it (20 * 10**(shared
    + p) words), and then tiled: the lower digits, the b digits and the
    carry into p all repeat inside one run of a_p. Its carry-out repeats
    with that turn and is tiled up to the next digit's; the carry into
    digit 0 is cin, which repeats every 2 words. The top shared digit's
    turn is the whole batch, so its carry-out is the batch's.
    """
    low = 10**shared
    count = 2 * low * low
    a_lower: list[int] = []
    b_lower: list[int] = []
    want_lower: list[int] = []
    carry, period = 0b10, 2
    for p in range(shared):
        turn = 20 * low * 10**p
        carry = tile(carry, period, turn // period)
        a_digit = _digit_planes(2 * low * 10**p, turn)
        b_digit = _digit_planes(2 * 10**p, turn)
        sum_bits, carry = _add_digit_planes(a_digit, b_digit, carry, turn)
        repeats = count // turn
        a_lower[:0] = [tile(plane, turn, repeats) for plane in _nibble_planes(a_digit)]
        b_lower[:0] = [tile(plane, turn, repeats) for plane in _nibble_planes(b_digit)]
        want_lower[:0] = [tile(plane, turn, repeats) for plane in sum_bits]
        period = turn
    return a_lower, b_lower, want_lower, carry


def _set_bits(plane: int):
    """Indices of the set bits of `plane`, ascending."""
    text = format(plane, "b")[::-1]
    index = text.find("1")
    while index >= 0:
        yield index
        index = text.find("1", index + 1)


def verify_bcd_adder(digits: int = 1) -> tuple[int, list[BcdFailure]]:
    """Exhaustively compare the n-digit adder against the decimal oracle.

    Covers every valid operand pair and carry-in: 10^n * 10^n * 2 cases.
    A case passes only when the circuit's output bits equal the BCD
    encoding of the oracle's result. Returns (case count, failures),
    failures in (a, b, cin) order, each re-run through the scalar
    `simulate` to build its record.

    The cases run bit-parallel (`Circuit.simulate_planes`). The planes of
    the low s digits are shared by every batch: s = n when all cases fit
    in `_BATCH_WORDS` words (n <= 2), else s = n - 1 and 100 batches fix
    each pair of top digits. Word j of a batch is the case whose shared
    digits and carry-in satisfy j = (a_low * 10^s + b_low) * 2 + cin. The
    expected planes come from decimal arithmetic, never from the circuit:
    the shared digits' from their indicator planes, each digit's built
    over one turn of its a digit and tiled to the batch
    (`_shared_digit_planes`), and those above them picked from 0, all
    ones, the shared carry-out plane and its complement by the fixed
    digits' sum with and without that carry. Nothing outlives the call.
    """
    circuit = build_bcd_adder_n(digits)
    # Digits held in the shared planes; a chunked run fixes the top one.
    shared = digits if 2 * 100**digits <= _BATCH_WORDS else digits - 1
    low = 10**shared
    count = 2 * low * low
    mask = (1 << count) - 1
    cin = tile(0b10, 2, low * low)
    a_lower, b_lower, want_lower, carry = _shared_digit_planes(shared)

    # Each batch fixes the top `fixed` digits (none or one) to x and y, so
    # their input planes are 0 or mask. Each expected plane above the shared
    # digits is a bit of the decimal result of x + y where they do not carry
    # and of x + y + 1 where they do.
    fixed = digits - shared
    top = 10**fixed
    pick = {(0, 0): 0, (1, 1): mask, (0, 1): carry, (1, 0): mask ^ carry}
    results = [_bcd_result_word(*divmod(s, top), fixed) for s in range(2 * top)]
    top_in = [[pick[bit, bit] for bit in results[x][1:]] for x in range(top)]
    want_by_sum = [[pick[pair] for pair in zip(results[s], results[s + 1])] + want_lower
                   for s in range(2 * top - 1)]

    cases: list[tuple[int, int, int]] = []
    for x in range(top):
        for y in range(top):
            outputs, _ = circuit.simulate_planes(
                top_in[x] + a_lower + top_in[y] + b_lower + [cin], count)
            diff = 0
            for got, expected in zip(outputs, want_by_sum[x + y]):
                diff |= got ^ expected
            for j in _set_bits(diff):
                a_low, b_low = divmod(j >> 1, low)
                cases.append((x * low + a_low, y * low + b_low, j & 1))

    failures: list[BcdFailure] = []
    for a, b, c in sorted(cases):
        outputs, _ = circuit.simulate(encode_bcd_operands(a, b, c, digits))
        want = oracle_bcd_add_number(a, b, c, digits)
        want_bits = _bcd_result_word(*want, digits)
        if outputs == want_bits:
            raise RuntimeError(f"plane and scalar simulation disagree on {a} + {b} + {c}")
        failures.append(BcdFailure(a, b, c, decode_bcd_result(outputs, digits), want,
                                   outputs, want_bits))
    return 2 * 100**digits, failures


@dataclass(frozen=True)
class ReferenceRow:
    """One row of the published design-comparison table, stored verbatim.

    Stage figures and totals are carried as printed; for some designs
    the printed totals include fan-out workaround gates, so the columns
    are not additive and are never recomputed here.
    """

    design_label: str
    adder1_gates: int
    adder1_garbage: int
    correction_gates: int
    correction_garbage: int
    adder2_gates: int
    adder2_garbage: int
    total_gates: int
    total_garbage: int
    total_constants: int
    total_delay: int


def reference_table() -> list[ReferenceRow]:
    """The six-design comparison: five published designs plus this one."""
    return [
        ReferenceRow("BCD adder[13] (without fan-out)", 4, 8, 3, 6, 4, 8, 11, 22, 11, 10),
        ReferenceRow("BCD adder[14]", 4, 8, 6, 6, 4, 8, 14, 22, 17, 13),
        ReferenceRow("BCD adder[15]", 8, 8, 7, 6, 8, 8, 23, 22, 17, 14),
        ReferenceRow("BCD adder[16]", 4, 8, 3, 1, 3, 2, 10, 11, 7, 10),
        ReferenceRow("BCD adder[17]", 4, 8, 2, 1, 3, 2, 9, 11, 7, 9),
        ReferenceRow("Proposed BCD adder", 4, 8, 1, 0, 3, 2, 8, 10, 6, 8),
    ]
