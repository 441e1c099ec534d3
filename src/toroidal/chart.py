"""Morphism germs as chart records, their classification, and center forms.

A chart describes one point of the source mapping to one point of the
target: the first `ell` target coordinates pull back to unit-times-
monomial expressions in the `n` divisor variables, slot rows (present
only on center-adapted charts) carry a translated extra variable, and
the remaining target coordinates pull back to plain variables.

Variable layout, 0-based and dense:

    [0..n)                         divisor variables
    [n..n+num_slots)               translated slot variables, one per
                                   translated slot row
    [.. + (m - ell - s))           identity-row variables
    [..d)                          tail variables (only units see these)

The `ChartForm` constructor is the input check and raises `ValueError`.
`built_chart` is the engine's postcondition on a chart it built, its
structure and its shape (`check_shape`), and raises `InternalCheckError`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalCheckError, quoted
from .monomial import MonomialIdeal
from .units import TRIVIAL_UNIT, ZERO_STRATUM, Stratum, UnitToken, _Frozen

TOROIDAL = "toroidal"
QTF1 = "qtf1"
QTF2 = "qtf2"
SMOOTH = "smooth"


class ValidityReport(namedtuple("ValidityReport", "failures", defaults=((),))):
    """The failed conditions of a check, as (code, detail) pairs."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "pass"
        return "; ".join(f"{code}: {detail}" for code, detail in self.failures)


class CenterDescriptor(namedtuple("CenterDescriptor", "ell_bar c divisor_rows")):
    """A blowup center seen from one chart: it lies in `ell_bar` of the
    divisor components through the point and has codimension `c`."""

    __slots__ = ()

    def __new__(cls, ell_bar: int, c: int, divisor_rows: tuple[int, ...] = ()):
        if not 0 <= ell_bar <= c:
            raise ValueError("need 0 <= ell_bar <= c")
        if c < 1:
            raise ValueError("centers have codimension >= 1")
        if len(divisor_rows) != ell_bar:
            raise ValueError("divisor_rows must list exactly ell_bar rows")
        if len(set(divisor_rows)) != ell_bar:
            raise ValueError("divisor_rows must be distinct")
        return tuple.__new__(cls, (ell_bar, c, divisor_rows))

    @property
    def extra_slots(self) -> int:
        return self.c - self.ell_bar


_CHART_FIELDS = ("d", "m", "n", "ell", "s", "tag", "matrix", "units", "betas", "ell_bar")


class ChartForm(_Frozen):
    """One chart of the morphism, laid out as the module docstring says;
    the constructor checks its structure (`structural_problems`).

    Its fields sit in its instance dict, written by one update: a slotted
    chart would pay one call per field for each copy.  Assignment and
    deletion raise, and equality (charts only), hashing, `repr` and
    pickling read the fields in the order of `_CHART_FIELDS`."""

    def __init__(self, d: int, m: int, n: int, ell: int, s: int, tag: str,
                 matrix: tuple[tuple[int, ...], ...] = (),
                 units: tuple[UnitToken, ...] = (),
                 betas: tuple[Stratum | None, ...] = (), ell_bar: int = 0):
        self.__dict__.update(d=d, m=m, n=n, ell=ell, s=s, tag=tag, matrix=matrix,
                             units=units, betas=betas, ell_bar=ell_bar)
        problems = structural_problems(self)
        if problems:
            raise ValueError("malformed chart: " + "; ".join(problems))

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in _CHART_FIELDS])

    def __eq__(self, other):
        if other.__class__ is not ChartForm:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in _CHART_FIELDS)
        return f"ChartForm({fields})"

    def __reduce__(self):
        return ChartForm, self._values()

    def with_constant_units(self, units: tuple[UnitToken, ...]) -> "ChartForm":
        """This chart with `units`, factor-free tokens one per row, in place
        of its own.  No structural condition reads a unit constant, so the
        copy is not checked again."""
        if len(units) != len(self.units) or any(u.factors for u in units):
            raise ValueError("constant units are factor-free, one per row")
        chart = object.__new__(ChartForm)
        chart.__dict__.update(self.__dict__, units=units)
        return chart

    @property
    def num_slots(self) -> int:
        """Translated slot variables (QTF2 absorbed its first slot)."""
        if self.tag == QTF1:
            return self.s
        if self.tag == QTF2:
            return self.s - 1
        return 0

    def slot_var(self, t: int) -> int | None:
        """Chart variable of slot row t (0-based among the s slot rows)."""
        if self.tag == QTF1:
            return self.n + t
        if self.tag == QTF2:
            return None if t == 0 else self.n + t - 1
        raise ValueError("chart has no slot rows")


def structural_problems(cf: ChartForm) -> list[str]:
    """The structure conditions `cf` fails, as messages in a fixed order;
    empty when it is sound.  It runs on every chart built, so it reads
    each field once and calls no property."""
    d, m, n, ell, s, tag = cf.d, cf.m, cf.n, cf.ell, cf.s, cf.tag
    matrix, units, betas, ell_bar = cf.matrix, cf.units, cf.betas, cf.ell_bar
    if tag == QTF1 or tag == QTF2:
        adapted, expected_rows = True, ell + s
        num_slots = s if tag == QTF1 else s - 1
    elif tag == TOROIDAL or tag == SMOOTH:
        adapted, expected_rows, num_slots = False, ell if tag == TOROIDAL else 0, 0
    else:
        return [f"unknown tag {quoted(tag)}"]
    p: list[str] = []
    if not (0 <= n <= d and 0 <= ell <= m):
        p.append("dimension counts out of range")
    if tag == SMOOTH and (n or ell or s):
        p.append("smooth charts have n = ell = s = 0")
    rows = len(matrix)
    if rows != expected_rows:
        p.append(f"expected {expected_rows} matrix rows, found {rows}")
    if s and not adapted:
        p.append("only center-adapted charts carry slot rows")
    if tag == QTF2 and s < 1:
        p.append("qtf2 needs at least one slot row")
    for i, row in enumerate(matrix):
        if len(row) != n:
            p.append(f"row {i} has length {len(row)} != n = {n}")
        elif row and min(row) < 0:
            p.append(f"row {i} has a negative exponent")
    if len(units) != rows:
        p.append("one unit token per matrix row required")
    if len(betas) != s:
        p.append("one beta entry per slot row required")
    if tag == QTF1 and None in betas:
        p.append("qtf1 slot rows all carry strata")
    if tag == QTF2 and betas and (betas[0] is not None or None in betas[1:]):
        p.append("qtf2 carries strata on slot rows 2..s only")
    if not 0 <= ell_bar <= min(ell, ell + s):
        p.append("ell_bar out of range")
    if ell_bar and not adapted:
        p.append("ell_bar only applies to center-adapted charts")
    identity_rows = m - ell - s
    active = n + num_slots + identity_rows
    if identity_rows < 0:
        p.append("more slot rows than spare target coordinates")
    elif active > d:
        p.append(f"active variables {active} exceed d = {d}")
    else:
        # A unit factor lies on a tail variable: at or above `active`, below d.
        for i, u in enumerate(units):
            if not u.factors:
                continue
            low = high = None
            for f in u.factors:
                if f.var < active:
                    low = f.var if low is None else low
                elif f.var >= d:
                    high = f.var if high is None else high
            if low is not None:
                p.append(f"unit of row {i} touches active variable {low}")
            if high is not None:
                p.append(f"unit of row {i} touches variable {high} >= d = {d}")
    return p


def column_minima(cf: ChartForm) -> tuple[int, ...]:
    """Columnwise minimum over the permissible row set I: the first
    `ell_bar` rows and the slot rows."""
    matrix = cf.matrix
    rows = matrix[:cf.ell_bar] + matrix[cf.ell:]
    if not rows:
        return (0,) * cf.n
    return tuple(map(min, zip(*rows)))


def shape_key(cf: ChartForm) -> tuple:
    """Everything the combinatorial kernels (locus, center selection, lift
    skeleton) read of a center-adapted chart: dimensions, tag, exponent
    matrix and which slot constants vanish, but no unit constant and no
    beta symbol.  Charts with equal keys get equal kernel results."""
    return (cf.d, cf.m, cf.n, cf.ell, cf.s, cf.tag, cf.ell_bar, cf.matrix,
            tuple([None if b is None else b.kind for b in cf.betas]))


def verify_toroidal_form(cf: ChartForm) -> ValidityReport:
    """Shape check for a toroidal chart: nonnegative matrix with
    positive column sums and positive row sums, units on tail variables."""
    if cf.tag != TOROIDAL:
        return ValidityReport((("tag", f"expected toroidal, found {cf.tag}"),))
    return ValidityReport(tuple(shape_failures(cf, TOROIDAL)))


def shape_failures(cf: ChartForm, tag: str) -> list[tuple[str, str]]:
    """The shape conditions of `tag` that a structurally sound chart
    fails; empty when they hold.  TOROIDAL is read on charts with s = 0.
    Column and row sums run over the divisor rows (qtf2: and its first
    slot row), and every slot row must lie on the column minima.  The
    structure check found the matrix nonnegative, so a sum is positive
    exactly when some entry is nonzero: each condition is decided once
    over whole rows, and its messages are written only when it fails."""
    if tag == SMOOTH:
        return []
    failures = []
    n, ell, matrix = cf.n, cf.ell, cf.matrix
    if tag == TOROIDAL:
        if ell and n == 0:
            failures.append(("shape", "divisor image needs divisor variables"))
        rows, over = ell, ""
    else:
        rows = ell + 1 if tag == QTF2 else ell
        over = f" over rows [{rows}]"
    top = matrix[:rows]
    if not (all(map(any, zip(*top))) if top else n == 0):
        for j, total in enumerate(map(sum, zip(*top)) if top else (0,) * n):
            if total <= 0:
                failures.append(("column", f"column {j} has zero sum{over}"))
    if not all(map(any, top)):
        for i, row in enumerate(top):
            if sum(row) <= 0:
                failures.append(("row", f"row {i} has zero sum"))
    if cf.s:
        mins = column_minima(cf)
        if matrix[ell:] != (mins,) * cf.s:
            for t in range(cf.s):
                row = matrix[ell + t]
                for j in range(n):
                    if row[j] != mins[j]:
                        failures.append(("min-row",
                                         f"slot row {t} column {j}: {row[j]} != min {mins[j]}"))
    if tag == QTF1 and ell == 0 and n > 0:
        failures.append(("shape", "an ell=0 chart cannot carry divisor columns"))
    return failures


def classify_form(cf: ChartForm) -> tuple[str | None, dict[str, list[tuple[str, str]]]]:
    """Strongest tag whose invariants hold, with per-tag diagnostics."""
    diagnostics: dict[str, list[tuple[str, str]]] = {}
    if cf.tag == SMOOTH:
        return SMOOTH, diagnostics
    candidates = ((TOROIDAL,) if cf.s == 0 else ()) + (
        (QTF2,) if cf.tag == QTF2 else (QTF1,))
    for tag in candidates:
        failures = shape_failures(cf, tag)
        if not failures:
            return tag, diagnostics
        diagnostics[tag] = failures
    return None, diagnostics


def check_shape(cf: ChartForm, error=ValueError, what: str = "chart") -> ChartForm:
    """`cf` if it has its own tag's shape (a qtf1 chart with s = 0 fails it exactly
    when it fails the toroidal shape); else raises `error`, ValueError on input."""
    failures = shape_failures(cf, cf.tag)
    if failures:
        raise error(f"{what} is not {cf.tag}: {ValidityReport(tuple(failures))}")
    return cf


def built_chart(**fields) -> ChartForm:
    """The chart built from `fields`, checked once: structure, then its
    shape (`check_shape`).  A failure is an engine bug."""
    try:
        cf = ChartForm(**fields)
    except ValueError as exc:
        raise InternalCheckError(f"built chart: {exc}") from exc
    return check_shape(cf, InternalCheckError, "built chart")


# `row_order` maps a new row index to the original row index.
AdaptedForm = namedtuple("AdaptedForm", "chart row_order")


def center_row_order(ell: int, z: CenterDescriptor) -> tuple[int, ...]:
    """Stable permutation bringing the center's divisor rows first."""
    first = sorted(z.divisor_rows)
    chosen = set(first)
    rest = [i for i in range(ell) if i not in chosen]
    return tuple(first + rest)


def derive_center_form(cf: ChartForm, z: CenterDescriptor) -> AdaptedForm:
    """Adapt a toroidal (or smooth) chart to a center: permute the center's
    divisor rows first and append one zero slot row per missing equation."""
    if cf.tag not in (TOROIDAL, SMOOTH):
        raise ValueError("only toroidal or smooth charts can be center-adapted")
    if z.ell_bar > cf.ell or z.c > cf.m:
        raise ValueError("descriptor inconsistent with chart dimensions")
    if any(i >= cf.ell for i in z.divisor_rows):
        raise ValueError("divisor row index out of range")
    s = z.extra_slots
    if s > cf.m - cf.ell:
        raise ValueError("center needs more spare target coordinates than exist")
    order = center_row_order(cf.ell, z)
    matrix = tuple(cf.matrix[i] for i in order) + ((0,) * cf.n,) * s
    units = tuple(cf.units[i] for i in order) + (TRIVIAL_UNIT,) * s
    chart = built_chart(
        d=cf.d, m=cf.m, n=cf.n, ell=cf.ell, s=s, tag=QTF1,
        matrix=matrix, units=units, betas=(ZERO_STRATUM,) * s,
        ell_bar=z.ell_bar)
    return AdaptedForm(chart, order)


def pullback_center_ideal(cf: ChartForm) -> MonomialIdeal:
    """Pullback of the center's ideal, as a monomial ideal in the
    `n + num_slots` divisor and slot variables.  Its generators come from
    the chart's checked matrix, so they are not checked again."""
    return MonomialIdeal.trusted(cf.n + cf.num_slots, pullback_center_generators(cf))


def pullback_center_generators(cf: ChartForm) -> list[tuple[int, ...]]:
    """One generator of the center's pullback per center row, unreduced,
    over the divisor and slot variables.

    Unit factors never change a monomial ideal and are dropped; a slot
    row contributes its translated variable only on the zero stratum.
    """
    if cf.tag not in (QTF1, QTF2):
        raise ValueError("pullback needs a center-adapted chart")
    gens: list[tuple[int, ...]] = []
    for i in range(cf.ell_bar):
        gens.append(cf.matrix[i] + (0,) * cf.num_slots)
    for t in range(cf.s):
        row = list(cf.matrix[cf.ell + t]) + [0] * cf.num_slots
        beta = cf.betas[t]
        if beta is not None and beta.is_zero:
            row[cf.slot_var(t)] += 1
        gens.append(tuple(row))
    return gens


def extend_to_global_form(cf: ChartForm, ell_global: int) -> ChartForm:
    """Extend a chart toroidal for k local divisor components to one
    toroidal for ell_global >= k components, by an identity block on
    spare identity variables.  A smooth chart is toroidal with k = 0."""
    if cf.tag not in (TOROIDAL, SMOOTH):
        raise ValueError("extension applies to toroidal charts")
    g = ell_global - cf.ell
    if g < 0:
        raise ValueError("global component count below the local one")
    if g == 0:
        return cf
    if g > cf.m - cf.ell:
        raise ValueError("not enough identity rows to extend")
    matrix = tuple(row + (0,) * g for row in cf.matrix)
    block = tuple(
        (0,) * cf.n + tuple(1 if j == k else 0 for j in range(g))
        for k in range(g))
    return built_chart(
        d=cf.d, m=cf.m, n=cf.n + g, ell=ell_global, s=0, tag=TOROIDAL,
        matrix=matrix + block, units=cf.units + (TRIVIAL_UNIT,) * g)


def smooth_chart(d: int, m: int) -> ChartForm:
    return ChartForm(d=d, m=m, n=0, ell=0, s=0, tag=SMOOTH)
