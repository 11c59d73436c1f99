"""Gate-core tests: words, gate rows, bijectivity, the catalog, costs."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_gates
from revlogic import gates
from revlogic.gates import (
    MAX_ARITY,
    BadArity,
    BitWord,
    CostTableError,
    GateDef,
    NotBijective,
    WidthMismatch,
    _CATALOG_DEFS,
    _pin_function,
    catalog_by_name,
    default_cost_table,
    load_cost_table,
    make_gate,
    parse_cost_table,
)
from revlogic.netlist import new_circuit


class TestBitWord:
    def test_msb_first(self):
        assert BitWord((1, 1, 0)).to_int() == 6
        assert BitWord((True, True, False)).to_int() == 6
        assert BitWord((1.0, 0)).to_int() == 2
        assert BitWord.from_int(6, 3).bits == (1, 1, 0)

    def test_round_trip(self):
        for value in range(16):
            assert BitWord.from_int(value, 4).to_int() == value

    def test_from_string(self):
        assert BitWord.from_string("101").bits == (1, 0, 1)
        for text in ("", "0", "1", "0110"):
            word = BitWord.from_string(text)
            assert word == BitWord(tuple(int(ch) for ch in text))
            assert all(type(b) is int for b in word.bits)
        for text in ("10x", "1 0", "2", "\uff11"):
            with pytest.raises(ValueError, match="^bitstring may contain only 0 and 1: "):
                BitWord.from_string(text)

    @pytest.mark.parametrize("text", [b"01", None, 5, ["0", "1"], ("1",)])
    def test_from_string_needs_a_str(self, text):
        with pytest.raises(ValueError) as err:
            BitWord.from_string(text)
        assert str(err.value) == f"bitstring {text!r} must be a str"

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitWord((0, 2))
        for bits, shown in (((0, 2), "2"), ("10", "'1'"), ([[1]], "[1]"), ((0.5,), "0.5")):
            message = f"bit values must be 0 or 1, got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BitWord(bits)
        for args in ((), (5,), (None,), ((1, 0), 3)):
            with pytest.raises(TypeError):
                BitWord(*args)

    def test_is_the_tuple_of_its_bits(self):
        word = BitWord(bits=(1, 0))
        assert isinstance(word, tuple)
        assert word == tuple(word) == (1, 0) and hash(word) == hash((1, 0))
        assert (0, 1) < word < (1, 1) and sorted([word, (0, 1)]) == [(0, 1), word]
        assert repr(word) == "BitWord(bits=(1, 0))"
        assert type(word.bits) is tuple and word.bits == (1, 0)
        for name in ("bits", "width", "other"):
            with pytest.raises(AttributeError):
                setattr(word, name, (1,))
        for copied in [copy.deepcopy(word)] + [
                pickle.loads(pickle.dumps(word, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert type(copied) is BitWord and copied == word

    def test_value_must_fit(self):
        with pytest.raises(ValueError, match="^value 8 does not fit in 3 bits$"):
            BitWord.from_int(8, 3)
        with pytest.raises(ValueError, match="^value -1 does not fit in 3 bits$"):
            BitWord.from_int(-1, 3)
        with pytest.raises(ValueError, match="^width must be nonnegative$"):
            BitWord.from_int(0, -1)

    @pytest.mark.parametrize("value, width", [(1.0, 1), (1, 1.5), ("1", 1), (1, None)],
                             ids=["float-value", "float-width", "str-value", "none-width"])
    def test_from_int_needs_ints(self, value, width):
        with pytest.raises(ValueError) as err:
            BitWord.from_int(value, width)
        assert str(err.value) == f"value {value!r} and width {width!r} must be ints"

    def test_zero_width(self):
        empty = BitWord(())
        assert empty.width == 0
        assert empty.to_int() == 0
        assert str(empty) == ""

    def test_str_and_iter(self):
        word = BitWord((1, 0, 0, 1))
        assert str(word) == "1001"
        assert str(BitWord((True, False))) == "10"
        assert str(BitWord((1.0, 0.0))) == "10"
        assert list(word) == [1, 0, 0, 1]
        assert word[0] == 1
        assert len(word) == 4


class TestTruthTable:
    """A gate is its truth table's rows; `GateDef` checks their shape."""

    def test_arity_bounds(self):
        for rows in ((), (0,), tuple(range(1 << (MAX_ARITY + 1)))):
            with pytest.raises(BadArity):
                GateDef("G", rows)
        assert GateDef("G", (1, 0)).arity == 1
        assert GateDef("G", tuple(range(1 << MAX_ARITY))).arity == MAX_ARITY

    def test_row_count(self):
        # A count that is not a power of two is no arity at all.
        for size in (3, 5, 6, 7, 12):
            with pytest.raises(ValueError, match="is not a power of two"):
                GateDef("G", tuple(range(size)))

    def test_row_range(self):
        for rows in ((0, 2), (-1, 0), (0, 1, 2, 4)):
            with pytest.raises(ValueError, match="does not fit in"):
                GateDef("G", rows)


class TestIsBijective:
    """`GateDef` accepts exactly the rows that are a permutation."""

    def test_identity(self):
        assert GateDef("I", (0, 1, 2, 3)).rows == (0, 1, 2, 3)

    def test_all_zeros(self):
        with pytest.raises(NotBijective, match=r"^gate 'Z': truth table is not a permutation$"):
            GateDef("Z", (0, 0, 0, 0))

    def test_swap(self):
        assert GateDef("NOT", [1, 0]).rows == (1, 0)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.permutations(list(range(1 << n)))))
    def test_permutations_are_bijective(self, rows):
        gate = GateDef("P", rows)
        assert gate.rows == tuple(rows)
        assert gate.arity == (len(rows) - 1).bit_length()

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1),
                           min_size=1 << n, max_size=1 << n)))
    def test_agrees_with_sort_check(self, rows):
        # Independent criterion: a permutation's sorted outputs are 0..2^n-1.
        expected = sorted(rows) == list(range(len(rows)))
        try:
            GateDef("P", rows)
        except NotBijective:
            accepted = False
        else:
            accepted = True
        assert accepted == expected


class TestMakeGate:
    def test_xor_gate(self):
        gate = make_gate("X", (lambda a, b: a, lambda a, b: a ^ b))
        assert gate.rows == (0, 1, 3, 2)

    def test_rejects_non_bijection(self):
        with pytest.raises(NotBijective):
            make_gate("BAD", (lambda a, b: a, lambda a, b: a))

    @pytest.mark.parametrize("arity", [0, 17])
    def test_arity_out_of_range(self, arity):
        with pytest.raises(BadArity) as err:
            make_gate("BAD", [lambda *bits: bits[0]] * arity)
        assert str(err.value) == f"arity must be in [1, 16], got {arity}"

    @pytest.mark.parametrize("outputs, pin, arity", [
        ((lambda a, b: a,), "P", 1),
        ((lambda a: a, lambda a: a), "P", 2),
        ((lambda a, b: a, lambda a: a), "Q", 2),
        ((lambda a, b: a, lambda a, b, *, c: a ^ b), "Q", 2),
        ([lambda a, b, c, d, e: a] * 4 + [lambda a, b, c, d: a], "pin4", 5),
        ((lambda a, b: a, 5), "Q", 2),
    ], ids=["too-few-callables", "too-many-callables", "second-pin", "keyword-only",
            "fifth-pin", "not-callable"])
    def test_callable_that_cannot_take_the_bits(self, outputs, pin, arity):
        with pytest.raises(BadArity) as err:
            make_gate("BAD", outputs)
        assert str(err.value) == \
            f"gate 'BAD': output {pin} cannot take {arity} positional bits"

    def test_callables_of_any_signature_that_takes_the_bits(self):
        # `*bits`, defaults and callables without a readable signature all
        # work; an error inside an expression surfaces as itself.
        rot = make_gate("ROT3", [lambda *bits, k=k: bits[(k + 1) % 3] for k in range(3)])
        assert rot.rows == tuple((v << 1 | v >> 2) & 7 for v in range(8))
        assert make_gate("FG", [lambda a, b=0: a, int.__xor__]).rows == (0, 1, 3, 2)
        with pytest.raises(NotBijective):  # `max` has no signature to read
            make_gate("OR", [max, max])
        with pytest.raises(TypeError, match="unsupported operand"):
            make_gate("E", [lambda a: a + "x"])

    def test_rejects_non_bit_result(self):
        with pytest.raises(ValueError):
            make_gate("BAD", (lambda a: 2 * a + 1,))

    def test_bits_stored_as_ints(self):
        # 1.0 equals 1, so it is a bit, but `|` takes no float.
        gate = make_gate("X", [lambda a: 1.0 - a])
        assert gate.rows == (1, 0) and {type(row) for row in gate.rows} == {int}
        assert gate.trie == ((1,), (0,))
        assert gate.apply(BitWord((0,))) == BitWord((1,))


class TestCatalog:
    def test_names_and_arities(self):
        gates = catalog_by_name().values()
        assert [(g.name, g.arity) for g in gates] == [
            ("FG", 2), ("FRG", 3), ("TG", 3), ("NG", 3),
            ("PG", 3), ("HNG", 4), ("SCL", 4),
        ]

    def test_all_bijective(self):
        for gate in catalog_by_name().values():
            assert sorted(gate.rows) == list(range(1 << gate.arity)), gate.name

    def test_fg_is_xor(self):
        fg = catalog_by_name()["FG"]
        for a in (0, 1):
            for b in (0, 1):
                assert fg.apply(BitWord((a, b))).bits == (a, a ^ b)

    def test_frg_is_controlled_swap(self):
        # Independent view of the Fredkin gate: a multiplexer pair.
        frg = catalog_by_name()["FRG"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    q = b if a == 0 else c
                    r = c if a == 0 else b
                    assert frg.apply(BitWord((a, b, c))).bits == (a, q, r)

    def test_tg_is_controlled_not(self):
        tg = catalog_by_name()["TG"]
        for word in range(8):
            a, b, c = (word >> 2) & 1, (word >> 1) & 1, word & 1
            assert tg.apply(BitWord((a, b, c))).bits == (a, b, (a & b) ^ c)

    def test_ng_functions(self):
        ng = catalog_by_name()["NG"]
        for word in range(8):
            a, b, c = (word >> 2) & 1, (word >> 1) & 1, word & 1
            q = (a & b) ^ c
            r = ((1 - a) & (1 - c)) ^ (1 - b)
            assert ng.apply(BitWord((a, b, c))).bits == (a, q, r)

    def test_pg_functions(self):
        pg = catalog_by_name()["PG"]
        for word in range(8):
            a, b, c = (word >> 2) & 1, (word >> 1) & 1, word & 1
            assert pg.apply(BitWord((a, b, c))).bits == (a, a ^ b, (a & b) ^ c)

    def test_hng_is_a_full_adder(self):
        # Independent oracle: binary addition. With D as an extra XOR
        # into the carry output.
        hng = catalog_by_name()["HNG"]
        for word in range(16):
            a, b, c, d = [(word >> k) & 1 for k in (3, 2, 1, 0)]
            total = a + b + c
            expected = (a, b, total & 1, ((total >> 1) & 1) ^ d)
            assert hng.apply(BitWord((a, b, c, d))).bits == expected

    def test_hng_frozen_example(self):
        hng = catalog_by_name()["HNG"]
        assert hng.apply(BitWord((1, 1, 0, 0))).bits == (1, 1, 0, 1)

    def test_scl_functions(self):
        scl = catalog_by_name()["SCL"]
        for word in range(16):
            a, b, c, d = [(word >> k) & 1 for k in (3, 2, 1, 0)]
            expected = (a, b, c, d ^ (c & (a | b)))
            assert scl.apply(BitWord((a, b, c, d))).bits == expected

    def test_scl_passthrough_example(self):
        scl = catalog_by_name()["SCL"]
        assert scl.apply(BitWord((0, 0, 0, 1))).bits == (0, 0, 0, 1)

    def test_formulas_present(self):
        by_name = catalog_by_name()
        assert [name for name, _ in _CATALOG_DEFS] == list(by_name)
        for name, formulas in _CATALOG_DEFS:
            assert len(formulas) == by_name[name].arity

    def test_formulas_agree_with_tables(self):
        # The published strings, which `gates` prints, read in their own
        # notation: ' is NOT, ^ XOR, + OR and juxtaposition AND. As
        # Python's &, ^ and |, AND binds tightest, then XOR.
        by_name = catalog_by_name()
        for name, formulas in _CATALOG_DEFS:
            gate = by_name[name]
            for pin, formula in enumerate(formulas):
                expr = re.sub(r"([A-D])'", r"(1^\1)", formula)
                expr = re.sub(r"(?<=[A-D)])(?=[A-D(])", "&", expr).replace("+", "|")
                assert set(expr) <= set("ABCD1^&|()"), expr
                for value, row in enumerate(gate.rows):
                    pins = dict(zip("ABCD", BitWord.from_int(value, gate.arity)))
                    want = BitWord.from_int(row, gate.arity)[pin]
                    assert eval(expr, {}, pins) == want, (gate.name, formula, value)

    def test_readme_table_matches_catalog(self):
        # The README's catalog table is the one copy of the formulas kept
        # outside the package. A row reads: | NAME (gloss) | arity | `formulas` |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Gate catalog\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| (\w+)[^|]*\| (\d+) \| `([^`]*)` \|$", section, re.M)
        by_name = catalog_by_name()
        assert rows == [
            (name, str(by_name[name].arity), ", ".join(formulas))
            for name, formulas in _CATALOG_DEFS
        ]

    @pytest.mark.parametrize("formula", ["__import__", "A;B", "A.B", "E", "A B", "A**B"])
    def test_pin_function_refuses_other_text(self, formula, monkeypatch):
        compiled = []
        monkeypatch.setattr(gates, "compile", lambda *args: compiled.append(args),
                            raising=False)
        with pytest.raises(ValueError, match="not a catalog formula"):
            _pin_function(formula)
        assert compiled == []
        _pin_function("A^B")  # a catalog formula does reach the compiler
        assert len(compiled) == 1


class TestApplyAndInverse:
    def test_apply_width_mismatch(self):
        fg = catalog_by_name()["FG"]
        with pytest.raises(WidthMismatch):
            fg.apply(BitWord((1, 0, 1)))

    def test_apply_takes_any_bit_sequence(self):
        fg = catalog_by_name()["FG"]
        for bits in ((1, 1), [1, 1], (True, 1.0), iter((1, 1)), BitWord((1, 1))):
            out = fg.apply(bits)
            assert type(out) is BitWord and out == (1, 0)
        with pytest.raises(ValueError, match=re.escape("bit values must be 0 or 1, got 2")):
            fg.apply((0, 2))
        with pytest.raises(WidthMismatch, match="^gate FG expects 2 bits, got 3$"):
            fg.apply([1, 0, 1])

    def test_inverse_round_trip_all_gates(self):
        for gate in catalog_by_name().values():
            inv = gate.inverse()
            for value in range(1 << gate.arity):
                word = BitWord.from_int(value, gate.arity)
                assert inv.apply(gate.apply(word)) == word
                assert gate.apply(inv.apply(word)) == word

    def test_self_inverse_returns_self(self):
        fg = catalog_by_name()["FG"]
        assert fg.inverse() is fg

    def test_non_self_inverse_naming(self):
        ng = catalog_by_name()["NG"]
        inv = ng.inverse()
        assert inv is not ng
        assert inv.name == "NG_inv"
        assert inv.inverse() == ng

    @given(random_gates())
    def test_inverse_of_random_permutation(self, gate):
        inv = gate.inverse()
        n = gate.arity
        for value in range(1 << n):
            word = BitWord.from_int(value, n)
            assert inv.apply(gate.apply(word)) == word
        # mapping() evaluates both gates on planes, through their ANF.
        builder = new_circuit([f"x{k}" for k in range(n)])
        outs = builder.add_gate(inv, builder.add_gate(gate, builder.inputs))
        for k, wire in enumerate(outs):
            builder.mark_output(wire, f"y{k}")
        assert builder.seal().mapping() == [
            (BitWord.from_int(value, n), BitWord(())) for value in range(1 << n)]


class TestGateDefValidation:
    def test_rejects_non_bijective_table(self):
        with pytest.raises(NotBijective):
            GateDef("BAD", (0, 0))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="^gate name must be nonempty$"):
            GateDef("", (0, 1))

    @pytest.mark.parametrize("name", [5, b"X", None, ("X",)])
    def test_name_must_be_str(self, name):
        message = f"gate name {name!r} is not a str"
        with pytest.raises(ValueError) as err:
            GateDef(name, (1, 0))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            make_gate(name, [lambda a: 1 - a])
        assert str(err.value) == message

    def test_carries_no_cost(self):
        # Quantum cost lives only in cost tables; see metrics.analyze.
        assert [f.name for f in dataclasses.fields(GateDef)] == ["name", "rows"]
        with pytest.raises(TypeError):
            make_gate("X", (lambda a: a,), cost=5)

    @pytest.mark.parametrize("rows, message", [
        ((1.0, 0.0), "gate 'F': row 0 is 1.0, not an int"),
        (("1", "0"), "gate 'F': row 0 is '1', not an int"),
        ((0, 1, 2.0, 3), "gate 'F': row 2 is 2.0, not an int"),
    ])
    def test_rejects_rows_that_are_not_ints(self, rows, message):
        with pytest.raises(ValueError) as err:
            GateDef("F", rows)
        assert str(err.value) == message

    def test_accepts_bool_rows(self):
        assert GateDef("F", (True, False)).apply(BitWord((1,))) == BitWord((0,))

    def test_rows_stored_as_ints(self):
        gate = GateDef("X", [True, False])
        assert gate.rows == (1, 0)
        assert gate == GateDef("X", (1, 0))
        assert hash(gate) == hash(GateDef("X", (1, 0)))
        for made in (gate, GateDef("Y", (False, 3, True, 2)), *catalog_by_name().values()):
            assert type(made.rows) is tuple
            assert all(type(row) is int for row in made.rows), made

    def test_copies_and_pickles_are_made_by_the_constructor(self):
        # A gate copies and pickles as its class, name and rows: the cached
        # `anf` and `trie` are not carried, and a tampered gate is refused
        # when it loads.
        rot = make_gate("ROT10", [lambda *bits, k=k: bits[(k + 1) % 10] for k in range(10)])
        fresh = pickle.dumps(rot)
        assert rot.anf and rot.trie and {"anf", "trie"} <= set(vars(rot))
        assert pickle.dumps(rot) == fresh
        for made in [copy.copy(rot), copy.deepcopy(rot), pickle.loads(fresh)]:
            assert made == rot and {"anf", "trie"}.isdisjoint(vars(made))
            assert made.arity == 10 and made.trie == rot.trie
        bad = GateDef("X", (1, 0))
        object.__setattr__(bad, "rows", (0, 0))
        for load in (lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.deepcopy(bad)):
            with pytest.raises(NotBijective, match="^gate 'X': truth table is not a permutation$"):
                load()


class TestCostTable:
    def test_parse_basic(self):
        assert parse_cost_table("FG 1\nTG 5\n") == {"FG": 1, "TG": 5}

    def test_comments_and_blanks(self):
        text = "# header\n\nFG 1  # trailing\n   \nTG 5\n"
        assert parse_cost_table(text) == {"FG": 1, "TG": 5}

    def test_rejects_bad_shape(self):
        with pytest.raises(CostTableError):
            parse_cost_table("FG\n")
        with pytest.raises(CostTableError):
            parse_cost_table("FG 1 2\n")

    def test_rejects_non_integer(self):
        # int() takes all but "one": underscores, a sign, Arabic-Indic and
        # full-width digits.
        for cost in ("one", "1_000", "+5", "\u0663", "\uff11"):
            message = f"line 1: cost for 'FG' is not an integer: '{cost}'"
            with pytest.raises(CostTableError, match=f"^{re.escape(message)}$"):
                parse_cost_table(f"FG {cost}\n")

    def test_rejects_negative(self):
        with pytest.raises(CostTableError, match="must be nonnegative"):
            parse_cost_table("FG -1\n")

    def test_rejects_duplicate(self):
        with pytest.raises(CostTableError):
            parse_cost_table("FG 1\nFG 2\n")

    def test_default_covers_catalog(self):
        costs = default_cost_table()
        for gate in catalog_by_name().values():
            assert gate.name in costs

    def test_default_literature_values(self):
        costs = default_cost_table()
        assert costs["FG"] == 1
        assert costs["TG"] == 5
        assert costs["FRG"] == 5
        assert costs["PG"] == 4

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "costs.txt"
        path.write_text("FG 3\n")
        assert load_cost_table(path) == {"FG": 3}

    @pytest.mark.parametrize("path", [0, 1, 2, True])
    def test_load_refuses_what_is_not_a_path(self, path):
        # `open` would take an int as a file descriptor, read it and close it.
        with pytest.raises(TypeError):
            load_cost_table(path)
        for fd in (0, 1, 2):
            os.fstat(fd)
