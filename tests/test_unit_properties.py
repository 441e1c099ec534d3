"""Property test: `UnitValue` products, powers and inverses agree with the
reference arithmetic of `oracles`, over mixed `int` and `Fraction`
coefficients, in equality, hash and document encoding."""

from fractions import Fraction

import pytest

from oracles import reference_mul, reference_pow
from toroidal.documents import unit_value_to_doc
from toroidal.units import UnitFactor, UnitToken, UnitValue

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

NAMES = ("a", "b", "c")

nonzero_ints = st.integers(-12, 12).filter(bool)
fractions = st.builds(Fraction, nonzero_ints, st.integers(1, 9))
# Integral coefficients arrive as `int`s and as integral `Fraction`s.
coefficients = st.one_of(nonzero_ints, fractions, nonzero_ints.map(Fraction))
exponents = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6),
                                                     st.integers(1, 4)))


@st.composite
def unit_values(draw) -> UnitValue:
    value = UnitValue.of(draw(coefficients))
    for name in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3)):
        value = value * UnitValue.symbol(name, draw(exponents))
    return value


def normalized(value: UnitValue) -> bool:
    """Coefficient and exponents are `int` when integral, else `Fraction`."""
    parts = [value.coeff] + [e for _, e in value.symbols]
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in parts)


def agree(value: UnitValue, reference: UnitValue) -> None:
    assert value == reference
    assert hash(value) == hash(reference)
    assert unit_value_to_doc(value) == unit_value_to_doc(reference)
    assert normalized(value), value


@settings(max_examples=300, deadline=None)
@given(unit_values(), unit_values())
def test_product(a, b):
    agree(a * b, reference_mul(a, b))


@settings(max_examples=300, deadline=None)
@given(unit_values(), exponents)
def test_power(a, e):
    agree(a ** e, reference_pow(a, e))


@settings(max_examples=200, deadline=None)
@given(unit_values())
def test_inverse(a):
    agree(a.inv(), reference_pow(a, -1))
    agree(a * a.inv(), UnitValue())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.builds(Fraction, st.sampled_from([1, -1]), st.integers(1, 30)),
                 st.integers(-30, -1), st.integers(1, 30)),
       st.lists(st.tuples(st.sampled_from(NAMES), exponents.filter(bool)),
                unique_by=lambda p: p[0], max_size=3))
def test_inverse_of_unit_fractions_and_negative_integers(coeff, symbols):
    # 1/q inverts to an `int`, a negative integer to a `Fraction`, and the
    # symbols' exponents, fractional ones too, are negated.
    value = UnitValue.of(coeff)
    for name, e in symbols:
        value = value * UnitValue.symbol(name, e)
    agree(value.inv(), reference_pow(value, -1))


# (var, shift, exp) factors for one row; a zero exponent adds no factor.
factor_lists = st.lists(st.tuples(st.integers(30, 39), unit_values(), st.integers(-2, 4)),
                        max_size=4)


@settings(max_examples=200, deadline=None)
@given(unit_values(), factor_lists)
def test_batched_factors_equal_a_chain(base, factors):
    batched = UnitToken(base).with_factor(factors)
    chained, reference = UnitToken(base), base
    for factor in factors:
        chained = chained.with_factor([factor])
        reference = reference_mul(reference, reference_pow(factor[1], factor[2]))
    assert batched == chained
    assert batched.factors == tuple(UnitFactor(*f) for f in factors if f[2])
    agree(batched.constant(), chained.constant())
    agree(batched.constant(), reference)
    agree(batched.constant(), UnitToken(base, batched.factors).constant())
