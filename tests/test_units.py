import random
from fractions import Fraction

import pytest

from toroidal.documents import unit_value_from_doc, unit_value_to_doc
from toroidal.units import TRIVIAL_UNIT, UnitFactor, UnitToken, UnitValue
from oracles import reference_mul, reference_pow

NAMES = ("a", "b", "c")


def random_value(rng) -> UnitValue:
    """Coefficient 1 or another nonzero rational, times zero to three
    symbols with integer or fractional exponents."""
    if rng.random() < 0.4:
        coeff = Fraction(1)
    else:
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
    value = UnitValue(coeff)
    for name in rng.sample(NAMES, rng.randint(0, 3)):
        exp = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 2)))
        value = reference_mul(value, UnitValue.symbol(name, exp))
    return value


def random_exponent(rng):
    return rng.choice((
        1, -1, 0, rng.randint(-4, 4), Fraction(1), Fraction(rng.randint(-4, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4))))


class TestFastPaths:
    def test_mul_and_pow_match_the_reference(self):
        rng = random.Random(404)
        kinds = set()
        for _ in range(2500):
            a, b = random_value(rng), random_value(rng)
            assert a * b == reference_mul(a, b), (a, b)
            e = random_exponent(rng)
            assert a ** e == reference_pow(a, e), (a, e)
            kinds.add((bool(a.symbols), bool(b.symbols), a.coeff == 1,
                       b.coeff == 1, type(e)))
        # Every combination of symbols, unit coefficient and exponent type.
        assert len(kinds) == 32

    def test_zero_coefficient_still_rejected(self):
        with pytest.raises(ValueError):
            UnitValue(Fraction(0))


class TestCachedConstants:
    def test_cache_is_invisible_to_eq_hash_repr(self):
        shift = UnitValue.symbol("s") * UnitValue.of(3)
        fresh = UnitToken(UnitValue.of(2), (UnitFactor(5, shift, -2),))
        used = UnitToken(UnitValue.of(2), (UnitFactor(5, shift, -2),))
        first = used.constant()
        assert used.constant() is first
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert first == UnitValue.of(2) * reference_pow(shift, -2)


def reference_constant(token: UnitToken) -> UnitValue:
    """base * prod(shift^exp), every power and product taken by the reference."""
    value = token.base
    for f in token.factors:
        value = reference_mul(value, reference_pow(f.shift, f.exp))
    return value


class TestCarriedConstants:
    def test_chains_carry_the_constant_of_their_factors(self):
        rng = random.Random(515)
        for _ in range(200):
            token = UnitToken(random_value(rng))
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.3:
                    token = token.remap_vars(rng.randint(0, 3))
                else:
                    token = token.with_factor([(rng.randint(30, 39), random_value(rng),
                                               rng.randint(-3, 3))])
                carried = token.constant()
                assert carried == UnitToken(token.base, token.factors).constant()
                assert carried == reference_constant(token), token

    def test_remap_keeps_the_value_and_renames_the_factors(self):
        token = UnitToken(UnitValue.of(5)).with_factor(
            [(7, UnitValue.symbol("s"), 2), (9, UnitValue.of(3), -1)])
        moved = token.remap_vars(4)
        assert [f.var for f in moved.factors] == [3, 5]
        assert moved.constant() is token.constant()
        assert token.remap_vars(0) is token
        assert TRIVIAL_UNIT.remap_vars(4) is TRIVIAL_UNIT


def _exponent_types(value: UnitValue):
    return {type(e) for _, e in value.symbols}


def rebuilt(value: UnitValue) -> UnitValue:
    """`value` made by the library's own symbol and product."""
    out = UnitValue(value.coeff)
    for name, e in value.symbols:
        out = out * UnitValue.symbol(name, e)
    return out


class TestExponentTypes:
    def test_integral_exponents_are_int_and_fractional_ones_fraction(self):
        rng = random.Random(616)
        seen = set()
        for _ in range(2000):
            a, b = rebuilt(random_value(rng)), rebuilt(random_value(rng))
            for value in (a, b, a * b, a ** random_exponent(rng)):
                for _, e in value.symbols:
                    assert type(e) is (int if e.denominator == 1 else Fraction), value
                    seen.add(type(e))
        assert seen == {int, Fraction}

    def test_halves_that_add_up_become_int(self):
        half = UnitValue.symbol("a", Fraction(1, 2))
        assert _exponent_types(half) == {Fraction}
        assert (half * half).symbols == (("a", 1),)
        assert _exponent_types(half * half) == {int}
        assert _exponent_types(half ** 4) == {int}
        assert _exponent_types(UnitValue.symbol("a", "6/3")) == {int}
        assert _exponent_types(UnitValue.symbol("a", 2) ** Fraction(1, 4)) == {Fraction}

    def test_document_encoding_is_unchanged(self):
        value = UnitValue.symbol("a", Fraction(4, 2)) * UnitValue.symbol("b", "-1/2")
        assert unit_value_to_doc(value) == {"coeff": "1", "symbols": [["a", "2"],
                                                                     ["b", "-1/2"]]}


class TestCanonicalParse:
    def test_document_symbols_come_out_canonical(self):
        doc = {"coeff": "2/3", "symbols": [["b", "1"], ["a", "1/2"], ["b", "-1"],
                                           ["c", "0"], ["a", "1"]]}
        value = unit_value_from_doc(doc, "unit value")
        assert value.symbols == (("a", Fraction(3, 2)),)
        assert unit_value_from_doc({"coeff": "1", "symbols": [["a", "4/2"]]},
                                   "unit value").symbols == (("a", 2),)
        assert value == UnitValue.of(Fraction(2, 3)) * UnitValue.symbol("a", "3/2")
        assert unit_value_from_doc(unit_value_to_doc(value), "unit value") == value
