"""Exact nonzero constants, point strata, and unit tokens.

Unit series are never materialized; the engine carries only what later
constructions consume: the nonzero constant value of each unit at the
chart point, plus a list of symbolic shift factors (x_j + alpha)^e for
display and reindexing.  Constants are products of a nonzero rational
and named generic nonzero symbols with exact exponents, so ratios and
fractional powers stay closed and comparable.  A coefficient or an
exponent is held as an `int` when integral and as a `Fraction` only when
fractional: every product, power and inverse normalizes its result, and
a negative power of an integer goes through `Fraction`, so the merges
the engine makes are integer operations and nothing becomes a float.

A unit token holds its constant as a third field, made with the token
and carried from parent to child: renaming its variables keeps the
constant, and appending a blowup child's new factors for one row
multiplies it by each new factor's constant, so a chart built by a
chain of blowups never walks its full factor list again.  A factor is a
plain immutable record, so moving a row's factors costs one tuple per
factor.

No record of the package is made by `dataclasses` or `typing`, so
importing it loads neither.  A record is a `namedtuple`, and one that
checks its fields does so in `__new__`, but for two `_Frozen` classes:
`ChartForm` keeps its fields in its instance dict, where they are read
faster than from a tuple, and `UnitValue` is number-like, so as a tuple
it would silently accept `v + w`, `2 * v`, `len` and ordering.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _exact(x) -> int | Fraction:
    """An exact rational: an `int` when integral, else a `Fraction`."""
    if type(x) is int:
        return x
    e = _as_fraction(x)
    return e.numerator if e.denominator == 1 else e


class _Frozen:
    """Base of the immutable values that are not tuples: a constructor sets
    the fields through a slot's own setter or the instance dict, and plain
    assignment or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class UnitValue(_Frozen):
    """A guaranteed-nonzero constant: coeff * prod(symbol^exponent).

    `symbols` is canonical: sorted by name, one entry per name, no zero
    exponent, and the coefficient and every exponent are `int`s unless
    they are fractional.  `of`, `symbol` and every operation here make
    canonical values, and equal values are equal tuples.  The constructor
    is the one check, and every value is built through it.
    """

    __slots__ = ("coeff", "symbols")

    def __init__(self, coeff: int | Fraction = 1,
                 symbols: tuple[tuple[str, int | Fraction], ...] = ()):
        if not coeff:
            raise ValueError("unit values are nonzero")
        _set_coeff(self, coeff)
        _set_symbols(self, symbols)

    def __eq__(self, other):
        if other.__class__ is not UnitValue:
            return NotImplemented
        return self.coeff == other.coeff and self.symbols == other.symbols

    def __hash__(self):
        return hash((self.coeff, self.symbols))

    def __repr__(self):
        return f"UnitValue(coeff={self.coeff!r}, symbols={self.symbols!r})"

    def __reduce__(self):
        return UnitValue, (self.coeff, self.symbols)

    @staticmethod
    def of(x) -> "UnitValue":
        if isinstance(x, UnitValue):
            return x
        return UnitValue(_exact(x))

    @staticmethod
    def symbol(name: str, exp=1) -> "UnitValue":
        e = _exact(exp)
        if e == 0:
            return ONE
        return UnitValue(1, ((name, e),))

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        # A side without symbols only scales the other side's coefficient.
        if not other.symbols:
            if other.coeff == 1:
                return self
            return UnitValue(_exact(self.coeff * other.coeff), self.symbols)
        if not self.symbols:
            if self.coeff == 1:
                return other
            return UnitValue(_exact(self.coeff * other.coeff), other.symbols)
        # Both sides are sorted by name: merge them in one pass.
        a, b = self.symbols, other.symbols
        i = j = 0
        syms = []
        while i < len(a) and j < len(b):
            name = a[i][0]
            if name < b[j][0]:
                syms.append(a[i])
                i += 1
            elif name > b[j][0]:
                syms.append(b[j])
                j += 1
            else:
                e = a[i][1] + b[j][1]
                if e:
                    syms.append((name, e.numerator if type(e) is Fraction
                                 and e.denominator == 1 else e))
                i += 1
                j += 1
        syms = tuple(syms) + a[i:] + b[j:]
        # A generic symbol's power, the common factor, has coefficient 1.
        coeff = self.coeff if other.coeff == 1 else _exact(self.coeff * other.coeff)
        return UnitValue(coeff, syms)

    def __pow__(self, exp) -> "UnitValue":
        e = _exact(exp)
        if e == 1:
            return self
        if e == 0:
            return ONE
        syms = tuple((n, _exact(x * e)) for n, x in self.symbols)
        coeff = self.coeff
        if coeff != 1:
            if type(e) is not int:
                # A fractional power of a non-unit rational: keep it symbolic.
                return UnitValue(1, tuple(sorted(syms + ((f"rat:{coeff}", e),))))
            # `int ** -k` is a float; a negative power goes through Fraction.
            coeff = _exact(coeff ** e if e > 0 else Fraction(coeff) ** e)
        return UnitValue(coeff, syms)

    def inv(self) -> "UnitValue":
        # 1 / coeff and the negated exponents, still canonical: no power.
        c = self.coeff
        return UnitValue(c if c == 1 else _exact(Fraction(1, c)),
                         tuple([(n, -e) for n, e in self.symbols]))

    def __str__(self):
        parts = [] if self.coeff == 1 and self.symbols else [str(self.coeff)]
        for name, e in self.symbols:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) or "1"


# Each slot's own setter, bound once: it writes past `_Frozen.__setattr__`
# without looking the slot up by name.
_set_coeff = UnitValue.coeff.__set__
_set_symbols = UnitValue.symbols.__set__

ONE = UnitValue()


class Stratum(namedtuple("Stratum", "kind value symbol")):
    """Case split on a translation constant: zero, generic nonzero, or a value.

    Generic strata carry the symbol that names their value once the
    constant is consumed, keeping enumeration and replay deterministic.
    """

    # `kind` is "zero", "generic" or "value".
    __slots__ = ()

    def __new__(cls, kind: str, value: Fraction | None = None,
                symbol: str | None = None):
        if kind not in ("zero", "generic", "value"):
            raise ValueError(f"bad stratum kind {kind!r}")
        if kind == "value" and (value is None or value == 0):
            raise ValueError("value strata must be nonzero")
        if kind == "generic" and not symbol:
            raise ValueError("generic strata need a symbol name")
        return tuple.__new__(cls, (kind, value, symbol))

    @staticmethod
    def zero() -> "Stratum":
        return Stratum("zero")

    @staticmethod
    def generic(symbol: str) -> "Stratum":
        return Stratum("generic", symbol=symbol)

    @staticmethod
    def of_value(x) -> "Stratum":
        return Stratum("value", value=_as_fraction(x))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def unit_value(self) -> UnitValue:
        """The constant this stratum assigns; only for nonzero strata."""
        if self.kind == "generic":
            return UnitValue.symbol(self.symbol)
        if self.kind == "value":
            return UnitValue.of(self.value)
        raise ValueError("zero stratum has no unit value")

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "generic":
            return self.symbol
        return str(self.value)


ZERO_STRATUM = Stratum.zero()


class UnitFactor(namedtuple("UnitFactor", "var shift exp")):
    """A translated-variable factor (x_var + shift)^exp of a unit series."""

    __slots__ = ()

    def constant(self) -> UnitValue:
        return self.shift ** self.exp


class UnitToken(namedtuple("UnitToken", "base factors value")):
    """A unit series reduced to its origin value and shift factors.

    The factor variables must stay outside the chart's active range
    (divisor, slot, and identity variables); `value`, the evaluation at
    the chart point, is base * prod((0 + shift)^exp), made with the token.
    """

    __slots__ = ()

    def __new__(cls, base: UnitValue = ONE, factors: tuple[UnitFactor, ...] = ()):
        value = base
        for f in factors:
            value = value * f.constant()
        return tuple.__new__(cls, (base, factors, value))

    def __reduce__(self):
        # The value is not pickled: unpickling makes it again.
        return UnitToken, (self.base, self.factors)

    def constant(self) -> UnitValue:
        return self.value

    def _carrying(self, factors: tuple[UnitFactor, ...], value: UnitValue) -> "UnitToken":
        return tuple.__new__(UnitToken, (self.base, factors, value))

    def with_factor(self, factors) -> "UnitToken":
        """This token with a factor (x_var + shift)^exp appended for each
        (var, shift, exp) of `factors` with a nonzero exponent.  The carried
        value is multiplied by each new factor's constant."""
        new = tuple([UnitFactor(*f) for f in factors if f[2]])
        if not new:
            return self
        value = self.value
        for f in new:
            value = value * f.constant()
        return self._carrying(self.factors + new, value)

    def remap_vars(self, drop: int) -> "UnitToken":
        """This token with each factor's variable moved down by `drop`: a
        blowup child absorbs `drop` variables below every factor of its
        parent's units, so the factors keep their order and spacing."""
        # Renaming variables does not change the value at the chart point.
        if not drop or not self.factors:
            return self
        return self._carrying(tuple(
            UnitFactor(f.var - drop, f.shift, f.exp) for f in self.factors), self.value)


TRIVIAL_UNIT = UnitToken()
