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

A unit token carries its constant from parent to child: renaming its
variables keeps the constant, and appending a factor multiplies it by
that factor's constant once, so a chart built by a chain of blowups
never walks its full factor list again.  A factor is a plain immutable
record, so renaming a row's variables costs one tuple per factor.

No record of the package is made by `dataclasses` or `typing`, so
importing it loads neither.  `UnitValue` and `UnitToken` are the
engine's most-built objects: each is a slotted class with one
constructor that refuses attribute assignment and compares, hashes and
prints by its fields alone.  Their constructors write each slot through
that slot's own setter, bound once when the module loads, so building
one looks no name up.  A token's cached constant sits in a slot of its
own that none of the three reads.  The checked records (`Stratum`
here, and others in the other modules) share `_Record`, which does the
same by their slots in order; the field-only records are
`collections.namedtuple`s.
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


_set = object.__setattr__


class _Frozen:
    """Base of the immutable values: a constructor sets the fields through
    `object.__setattr__`, a slot's own setter or the instance dict, and
    plain assignment or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """Base of the frozen records: a constructor checks its arguments and
    sets the slots, and equality (same class only), hashing, `repr` and
    pickling read the slots in their declared order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


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
        exps: dict[str, int | Fraction] = dict(self.symbols)
        for name, e in other.symbols:
            e += exps.get(name, 0)
            exps[name] = e.numerator if type(e) is Fraction and e.denominator == 1 else e
        syms = tuple(sorted((n, e) for n, e in exps.items() if e))
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
        return self ** -1

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


class Stratum(_Record):
    """Case split on a translation constant: zero, generic nonzero, or a value.

    Generic strata carry the symbol that names their value once the
    constant is consumed, keeping enumeration and replay deterministic.
    """

    # `kind` is "zero", "generic" or "value".
    __slots__ = ("kind", "value", "symbol")

    def __init__(self, kind: str, value: Fraction | None = None,
                 symbol: str | None = None):
        if kind not in ("zero", "generic", "value"):
            raise ValueError(f"bad stratum kind {kind!r}")
        if kind == "value" and (value is None or value == 0):
            raise ValueError("value strata must be nonzero")
        if kind == "generic" and not symbol:
            raise ValueError("generic strata need a symbol name")
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "symbol", symbol)

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


class UnitToken(_Frozen):
    """A unit series reduced to its origin value and shift factors.

    The factor variables must stay outside the chart's active range
    (divisor, slot, and identity variables); the evaluation at the
    chart point is base * prod((0 + shift)^exp).
    """

    # `_constant` caches the value at the chart point.  Equality, hashing
    # and repr read only `base` and `factors`, so they never see it.
    __slots__ = ("base", "factors", "_constant")

    def __init__(self, base: UnitValue = ONE, factors: tuple[UnitFactor, ...] = ()):
        _set_base(self, base)
        _set_factors(self, factors)
        _set_constant(self, None)

    def __eq__(self, other):
        if other.__class__ is not UnitToken:
            return NotImplemented
        return self.base == other.base and self.factors == other.factors

    def __hash__(self):
        return hash((self.base, self.factors))

    def __repr__(self):
        return f"UnitToken(base={self.base!r}, factors={self.factors!r})"

    def __reduce__(self):
        return UnitToken, (self.base, self.factors)

    def constant(self) -> UnitValue:
        # Computed on first use; tokens made by with_factor and remap_vars
        # receive theirs from the token they came from.
        value = self._constant
        if value is None:
            value = self.base
            for f in self.factors:
                value = value * f.constant()
            _set_constant(self, value)
        return value

    def _carrying(self, factors: tuple[UnitFactor, ...], value: UnitValue) -> "UnitToken":
        token = UnitToken(self.base, factors)
        _set_constant(token, value)
        return token

    def with_factor(self, var: int, shift: UnitValue, exp: int) -> "UnitToken":
        if exp == 0:
            return self
        factor = UnitFactor(var, shift, exp)
        return self._carrying(self.factors + (factor,), self.constant() * factor.constant())

    def remap_vars(self, var_map) -> "UnitToken":
        """This token with each factor's variable v renamed `var_map[v]`;
        `var_map` is indexed by every variable a factor names (a chart's
        variable map covers them all: its structure keeps them below d)."""
        # Renaming variables does not change the value at the chart point.
        if not self.factors:
            return self
        return self._carrying(tuple(
            UnitFactor(var_map[f.var], f.shift, f.exp) for f in self.factors),
            self.constant())


_set_base = UnitToken.base.__set__
_set_factors = UnitToken.factors.__set__
_set_constant = UnitToken._constant.__set__

TRIVIAL_UNIT = UnitToken()
