"""Property test: `UnitValue` products, powers and inverses agree with the
reference arithmetic of `oracles`, over mixed `int` and `Fraction`
coefficients, in equality, hash and document encoding."""

from fractions import Fraction

import pytest

from oracles import reference_mul, reference_pow
from toroidal.documents import unit_value_to_doc
from toroidal.units import UnitValue

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
