"""Reversible gates modeled as permutations over n-bit words.

A reversible gate has as many outputs as inputs and computes a bijection
on {0,1}^n, so the input word can always be recovered from the output
word. A gate is its rows: the exhaustive truth table, one output word for
each of the 2^n input words, which keeps application, inversion, and
bijectivity checking exact and cheap for the small arities used in
gate-level design.

A `BitWord` is the tuple of its bits, the ints 0 and 1. Bit ordering
is most-significant-bit first everywhere: in `BitWord`, in row indices,
and in printed bitstrings. Gate pins follow the
conventional positional order (A,B,C,D) -> (P,Q,R,S).

The built-in catalog provides the classic reversible gates (Feynman,
Fredkin, Toffoli, New, Peres, HNG) plus SCL, a 4x4 gate that computes the
decimal-carry correction for BCD addition while passing its first three
inputs through untouched. Each catalog gate's rows are computed from
the switching functions that `revlogic gates` prints, e.g. SCL's
`D^C(A+B)`: `'` is NOT, juxtaposition AND, `^` XOR and `+` OR, binding in
that order (NOT tightest, OR loosest).
"""

from __future__ import annotations

import inspect
import os
import re
from dataclasses import dataclass
from functools import cache, cached_property, partial
from importlib import resources
from itertools import compress, product
from typing import Callable, Iterable, Sequence

from .errors import RevLogicError, _utf8_position

MAX_ARITY = 16

# Maps the ASCII digits of a bit string to bytes 0/1, so that
# `format(...).encode().translate(BIT_BYTES)` iterates as 0/1 ints.
BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_PIN_NAMES = ("P", "Q", "R", "S", *(f"pin{k}" for k in range(4, MAX_ARITY)))


class NotBijective(RevLogicError):
    """Two inputs map to the same output; not a valid reversible gate."""


class BadArity(RevLogicError):
    """Arity outside [1, MAX_ARITY]."""


class WidthMismatch(RevLogicError):
    """A bit word's width does not match what the operation expects."""


class CostTableError(RevLogicError):
    """Malformed cost-table text."""


class BitWord(tuple):
    """A fixed-width word as the tuple of its bits, the ints 0 and 1, most
    significant first; it equals, hashes and orders like that plain tuple.

    Width 0 is permitted so that circuits without garbage (or without
    primary outputs) can still report a uniform word type; gate I/O is
    separately constrained to arity >= 1.

    A bit may be given as anything equal to 0 or 1 (`True`, `1.0`, ...);
    it is stored as the int 0 or 1.
    """

    __slots__ = ()

    def __new__(cls, bits: Iterable) -> BitWord:
        bits = tuple(bits)
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        return tuple.__new__(cls, [1 if b == 1 else 0 for b in bits])

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits as a plain tuple."""
        return tuple(self)

    @property
    def width(self) -> int:
        return len(self)

    @classmethod
    def from_int(cls, value: int, width: int) -> BitWord:
        if not (isinstance(value, int) and isinstance(width, int)):
            raise ValueError(f"value {value!r} and width {width!r} must be ints")
        if width < 0:
            raise ValueError("width must be nonnegative")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return _int_word(value, width)

    @classmethod
    def from_string(cls, text: str) -> BitWord:
        if not isinstance(text, str):
            raise ValueError(f"bitstring {text!r} must be a str")
        if not all(ch in "01" for ch in text):
            raise ValueError(f"bitstring may contain only 0 and 1: {text!r}")
        return _unchecked(text.encode().translate(BIT_BYTES))

    def to_int(self) -> int:
        return int(str(self) or "0", 2)

    def __repr__(self) -> str:
        return f"BitWord(bits={tuple(self)!r})"

    def __str__(self) -> str:
        return bytes(self).translate(_BIT_TEXT).decode()


# The word over bits known to be the ints 0 and 1, such as truth-table
# rows and bit planes the library made itself: `tuple.__new__` called from
# C, with no Python frame and without `__new__`'s check.
_unchecked = BitWord._unchecked = partial(tuple.__new__, BitWord)


def _int_word(value: int, width: int) -> BitWord:
    """`from_int(value, width)` without its checks, for a value known to fit."""
    # The leading 1 keeps width 0 (and leading zeros) exact.
    return _unchecked(format(value | 1 << width, "b")[1:].encode().translate(BIT_BYTES))


@cache
def _words_of_arity(arity: int) -> tuple[tuple[int, ...], ...]:
    """Every `arity`-bit word as its bit tuple, indexed by its value."""
    return tuple(product((0, 1), repeat=arity))


# The widest gate whose plane kernel is generated source. Generating and
# compiling one took 0.1 ms at 4 inputs, 0.8 ms at 6, 5.7 ms at 8, 41 ms
# at 10 and 0.31 s at 12 (random permutations; CPython 3.11.7, 2-CPU
# x86-64 VM), so a dense 16-input ANF would take many seconds; every
# catalog gate has at most 4 inputs.
_COMPILED_ARITY = 4


def _interpret_anf(anf, *planes: int) -> list[int]:
    """A wide gate's plane kernel: `anf`'s pins over `planes`, the input
    pins' then the all-ones plane, as `GateDef.plane_kernel` computes."""
    *ins, one = planes
    outs = []
    for monomials in anf:
        acc = 0
        for monomial in monomials:
            if monomial:
                term = ins[monomial[0]]
                for p in monomial[1:]:
                    term &= ins[p]
            else:
                term = one
            acc ^= term
        outs.append(acc)
    return outs


@dataclass(frozen=True)
class GateDef:
    """A named reversible gate: its rows, a permutation of the n-bit words.

    A gate is its `name`, a nonempty str, and its `rows`. `rows[i]` is
    the output word (as an MSB-first integer) for the input word whose
    MSB-first integer value is `i`, so there are 2^n rows for arity n,
    and no two are equal. `arity` is derived from the row count when the
    gate is made.

    Three tables are derived from the rows, each on first use and
    cached: `anf`, the algebraic normal form of each output pin;
    `trie`, the rows as nested tuples that scalar simulation indexes;
    and `plane_kernel`, the function, written from `anf`, that
    bit-parallel simulation calls once per gate.

    Its quantum cost is not stored here: `metrics.analyze` prices it by
    name from a cost table, the one place a price is set. A catalog
    gate's published formulas live only in `_CATALOG_DEFS`.
    """

    name: str
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.name == "":
            raise ValueError("gate name must be nonempty")
        if not isinstance(self.name, str):
            raise ValueError(f"gate name {self.name!r} is not a str")
        rows = tuple(self.rows)
        size = len(rows)
        if not 2 <= size <= 1 << MAX_ARITY:
            raise BadArity(
                f"gate {self.name!r}: needs 2^n rows for an arity n in "
                f"[1, {MAX_ARITY}], got {size}"
            )
        if size & (size - 1):
            raise ValueError(f"gate {self.name!r}: {size} rows is not a power of two")
        arity = size.bit_length() - 1
        for i, out in enumerate(rows):
            if not isinstance(out, int):
                raise ValueError(f"gate {self.name!r}: row {i} is {out!r}, not an int")
            if not 0 <= out < size:
                raise ValueError(f"output word {out} does not fit in {arity} bits")
        # Stored as plain ints: a `bool` row equals and hashes as its int.
        rows = tuple(map(int, rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "arity", arity)
        if len(set(rows)) != size:
            raise NotBijective(f"gate {self.name!r}: truth table is not a permutation")

    def __reduce__(self):
        # Copies and pickles call the class, which checks the rows, and
        # carry no derived table: `anf`, `trie` and `plane_kernel` rebuild.
        return type(self), (self.name, self.rows)

    @cached_property
    def anf(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Algebraic normal form of each output pin, in pin order.

        Pin k's entry lists its monomials in ascending input-word order;
        each is a tuple of input pin indices, the empty tuple being the
        constant 1, and the pin's value is the XOR over them of the AND of
        the inputs each names. Computed once per gate by one Möbius
        transform of `rows` as whole words, as XOR acts bit by bit; word
        w's coefficient then sets the bits of the pins holding w's monomial.
        """
        n = self.arity
        coeffs = list(self.rows)
        for b in range(n):
            step = 1 << b
            for high in range(step, len(coeffs), 2 * step):
                for word in range(high, high + step):
                    coeffs[word] ^= coeffs[word ^ step]
        words = compress(product((0, 1), repeat=n), coeffs)
        monomials = [tuple(compress(range(n), bits)) for bits in words]
        nonzero = list(filter(None, coeffs))
        return tuple(tuple(compress(monomials, map((1 << k).__and__, nonzero)))
                     for k in reversed(range(n)))

    @cached_property
    def trie(self) -> tuple:
        """The rows as nested pairs, indexed one input bit per level.

        `trie[b0][b1]...[bn-1]` is the output-bit tuple for the input bits
        b0 ... bn-1 (MSB-first), so both scalar tiers of
        `Circuit.simulate` index it with plain bits and build, hash and
        compare no key. It is built whole, from `rows`, on first
        use, and its leaves are shared by every gate of the same arity.
        """
        leaves = _words_of_arity(self.arity)
        nodes = [leaves[out] for out in self.rows]
        # Pairing neighbours groups words by their last bit; after `arity`
        # rounds one node is left, branching on the first bit.
        while len(nodes) > 1:
            nodes = list(zip(nodes[::2], nodes[1::2]))
        return nodes[0]

    @cached_property
    def plane_kernel(self) -> Callable[..., Sequence[int]]:
        """The ANF as one function `(x0, ..., xn-1, one) -> output planes`.

        Each argument is a plane, an int whose bit j is that pin's value
        in word j, and `one` is the all-ones plane, which the constant
        monomial reads; the result holds one plane per output pin, in pin
        order. Up to `_COMPILED_ARITY` inputs it is generated source, one
        XOR of ANDs per pin, whose text holds only the names `x<k>` and
        `one`, `&` and `^`, never the gate's name. A wider gate's kernel
        interprets the ANF, monomial by monomial, as generation costs
        grow about 7-fold per two inputs.
        """
        if self.arity > _COMPILED_ARITY:
            return partial(_interpret_anf, self.anf)
        pins = [f"x{p}" for p in range(self.arity)]
        terms = [" ^ ".join([" & ".join([pins[p] for p in monomial]) or "one"
                             for monomial in monomials]) for monomials in self.anf]
        source = f"def kernel({', '.join(pins)}, one):\n    return {', '.join(terms)},"
        namespace: dict = {}
        exec(source, namespace)
        return namespace["kernel"]

    def apply(self, word: Iterable) -> BitWord:
        """Map an input word, or any sequence of bits, through the gate's rows.

        The bits are checked as `BitWord` checks them.
        """
        word = BitWord(word)
        if word.width != self.arity:
            raise WidthMismatch(
                f"gate {self.name} expects {self.arity} bits, got {word.width}"
            )
        return _int_word(self.rows[word.to_int()], self.arity)

    def inverse(self) -> GateDef:
        """The gate computing the inverse permutation.

        Self-inverse gates come back as the same object, so e.g. the
        inverse of a Feynman gate compares equal to the original.
        """
        inv_rows = [0] * len(self.rows)
        for src, dst in enumerate(self.rows):
            inv_rows[dst] = src
        if tuple(inv_rows) == self.rows:
            return self
        if self.name.endswith("_inv"):
            inv_name = self.name[: -len("_inv")]
        else:
            inv_name = self.name + "_inv"
        return GateDef(inv_name, tuple(inv_rows))


def make_gate(name: str, outputs: Sequence[Callable[..., int]]) -> GateDef:
    """Build a gate from one boolean expression per output pin.

    The gate's arity is `len(outputs)`. Each entry of `outputs` is a
    callable taking that many bit arguments (the inputs A, B, ... in
    order) and returning the corresponding output bit: anything equal to
    0 or 1, stored as the int, as in `BitWord`. A callable that cannot
    take `arity` positional bits fails with BadArity before any call.
    The expressions are evaluated over all 2^arity input words;
    construction fails with NotBijective if the resulting rows are not
    a permutation. The gate carries no cost; see `GateDef`.
    """
    arity = len(outputs)
    if not 1 <= arity <= MAX_ARITY:
        raise BadArity(f"arity must be in [1, {MAX_ARITY}], got {arity}")
    for pin, fn in enumerate(outputs):
        try:
            inspect.signature(fn).bind(*[0] * arity)
        except ValueError:
            pass  # No signature to read (some builtins): the first call checks.
        except TypeError:
            raise BadArity(f"gate {name!r}: output {_PIN_NAMES[pin]} "
                           f"cannot take {arity} positional bits") from None
    rows = []
    for ins in product((0, 1), repeat=arity):
        out = 0
        for fn in outputs:
            bit = fn(*ins)
            if bit not in (0, 1):
                raise ValueError(f"gate {name!r}: expression returned {bit!r}, not a bit")
            out = (out << 1) | (bit == 1)
        rows.append(out)
    return GateDef(name, tuple(rows))


# The built-in catalog, each gate by its published switching functions,
# pins (A,B,C,D) -> (P,Q,R,S). These strings are the gates' only
# definition: `_pin_function` reads them into the gates' rows, and
# `revlogic gates` prints them.
_CATALOG_DEFS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("FG", ("A", "A^B")),
    ("FRG", ("A", "A'B^AC", "A'C^AB")),
    ("TG", ("A", "B", "AB^C")),
    ("NG", ("A", "AB^C", "A'C'^B'")),
    ("PG", ("A", "A^B", "AB^C")),
    ("HNG", ("A", "B", "A^B^C", "(A^B)C^AB^D")),
    ("SCL", ("A", "B", "C", "D^C(A+B)")),
)


def _pin_function(formula: str) -> Callable[..., int]:
    """A catalog formula as a function of the pins A, B, ... in order.

    `X'` becomes `(1^X)`, adjacent operands get an `&` and `+` becomes
    `|`; Python then binds `&` before `^` before `|`, as the notation
    binds AND before XOR before OR. Anything but pins, 1, operators and
    parentheses is refused before it is compiled.
    """
    expr = re.sub(r"([A-D])'", r"(1^\1)", formula)
    expr = re.sub(r"(?<=[A-D)])(?=[A-D(])", "&", expr).replace("+", "|")
    if not set(expr) <= set("ABCD1^&|()"):
        raise ValueError(f"not a catalog formula: {formula!r}")
    code = compile(expr, "<catalog formula>", "eval")
    return lambda *pins: eval(code, {"__builtins__": {}}, dict(zip("ABCD", pins)))


@cache
def _catalog() -> tuple[GateDef, ...]:
    return tuple(make_gate(name, [_pin_function(f) for f in fml])
                 for name, fml in _CATALOG_DEFS)


def catalog_by_name() -> dict[str, GateDef]:
    return {g.name: g for g in _catalog()}


def parse_cost_table(text: str) -> dict[str, int]:
    """Parse cost-table text: one `<gate-name> <nonnegative-int>` per line.

    Blank lines are skipped and `#` starts a comment (whole-line or
    trailing). Duplicate gate names are rejected. Anything but a `str`
    is a TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_cost_table takes a str, not {type(text).__name__}")
    costs: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CostTableError(
                f"line {lineno}: expected '<gate-name> <cost>', got {raw.strip()!r}"
            )
        name, cost_text = parts
        # ASCII digits only: int() would also take "1_000", "+5" and
        # non-ASCII decimal digits.
        if not re.fullmatch(r"-?[0-9]+", cost_text):
            raise CostTableError(
                f"line {lineno}: cost for {name!r} is not an integer: {cost_text!r}"
            )
        value = int(cost_text)
        if value < 0:
            raise CostTableError(f"line {lineno}: cost for {name!r} must be nonnegative")
        if name in costs:
            raise CostTableError(f"line {lineno}: duplicate entry for gate {name!r}")
        costs[name] = value
    return costs


def load_cost_table(path) -> dict[str, int]:
    """Read a cost table from the file at `path`, which must be a path:
    anything else, an int file descriptor included, is a TypeError, so
    no descriptor the caller owns is read or closed."""
    with open(os.fspath(path), "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, _ = _utf8_position(data, exc)
        raise CostTableError(
            f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    return parse_cost_table(text)


@cache
def _default_costs() -> dict[str, int]:
    text = resources.files("revlogic").joinpath("data/default_costs.txt").read_text()
    return parse_cost_table(text)


def default_cost_table() -> dict[str, int]:
    """Costs from the packaged default table (a fresh copy per call).

    FG/TG/FRG/PG use the common literature figures; NG, HNG, and SCL have
    no authoritative published cost and ship as marked placeholders.
    Supply your own table wherever the numbers matter.
    """
    return dict(_default_costs())
