"""Chart-level blowup transforms and the permissible-center test.

A blowup center inside a center-adapted chart is cut out by some of the
divisor variables together with all slot variables.  Entering the chart
of the blowup means choosing which center coordinate becomes the
exceptional one (j0) and, for every other center coordinate, whether the
new translation constant is zero, a generic nonzero value, or a given
value.  A divisor j0 keeps the chart in translated (qtf1) shape; a slot
j0 turns its row into a plain monomial row (qtf2 shape).

A blowup's children differ only in j0 and in the zero/generic split, so
`enumerate_blowup_strata` first computes what they share, once per
blowup or once per j0 (`_Fanout`), then builds each child chart from it
with `_blowup_child` and returns (choice, chart) pairs.
`blowup_transform` builds its one child the same way and also returns
the child's variable map and row order (`BlowupResult`), which only the
`blowup` command writes.  Every child is checked as built
(`built_chart`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .chart import (
    QTF1,
    QTF2,
    ChartForm,
    ValidityReport,
    built_chart,
)
from .units import ZERO_STRATUM, Stratum, _Record, _set


class BlowupCenterChart(_Record):
    """Center in chart coordinates: divisor variables plus every slot."""

    # The constructor sorts `divisor_indices`.
    __slots__ = ("divisor_indices", "slot_count")

    def __init__(self, divisor_indices: tuple[int, ...], slot_count: int):
        divisor_indices = tuple(sorted(divisor_indices))
        if len(set(divisor_indices)) != len(divisor_indices):
            raise ValueError("duplicate divisor indices")
        if slot_count < 0:
            raise ValueError("negative slot count")
        _set(self, "divisor_indices", divisor_indices)
        _set(self, "slot_count", slot_count)

    @property
    def codim(self) -> int:
        return len(self.divisor_indices) + self.slot_count


class BlowupChartChoice(namedtuple("BlowupChartChoice", "j0 betas")):
    """Which center coordinate becomes exceptional, and the strata chosen
    for the remaining center coordinates (keyed by chart variable)."""

    __slots__ = ()


# `var_map` maps an old chart variable to its new one, and `row_order` a
# new row index to the old one.
BlowupResult = namedtuple("BlowupResult", "chart var_map row_order")


def center_coordinates(cf: ChartForm, center: BlowupCenterChart) -> list[int]:
    return list(center.divisor_indices) + [cf.n + t for t in range(center.slot_count)]


def check_center_snc(cf: ChartForm, center: BlowupCenterChart) -> ValidityReport:
    """Coordinate centers always cross the coordinate divisor normally;
    what can fail is the index bookkeeping or the codimension bound."""
    failures = []
    for j in center.divisor_indices:
        if not 0 <= j < cf.n:
            failures.append(("range", f"divisor index {j} outside [0,{cf.n})"))
    if center.slot_count != cf.s:
        failures.append(("slots", f"center must use all {cf.s} slots"))
    if center.codim < 2:
        failures.append(("codim", "blowup centers have codimension >= 2"))
    return ValidityReport(tuple(failures))


def _center_matrix(cf: ChartForm, center: BlowupCenterChart):
    """The permissibility matrix w: rows over [ell_bar] and the slot rows,
    columns over the center's divisor indices and an identity slot block."""
    div = center.divisor_indices
    k = center.slot_count
    rows = []
    for i in range(cf.ell_bar):
        rows.append([cf.matrix[i][j] for j in div] + [0] * k)
    for t in range(k):
        rows.append([cf.matrix[cf.ell + t][j] for j in div]
                    + [1 if u == t else 0 for u in range(k)])
    return rows


def check_permissible_center(cf: ChartForm, center: BlowupCenterChart):
    """Check the center, then run the permissibility matrix test on it.
    Returns (ok, witness) with the offending row or column."""
    _check_center(cf, center)
    return matrix_permissibility(cf, center)


def matrix_permissibility(cf: ChartForm, center: BlowupCenterChart):
    """Subtract column minima from the center matrix; a valid center is
    permissible when no row and no column of the result vanishes.
    Returns (ok, witness) with the offending row or column."""
    w = _center_matrix(cf, center)
    if not w:
        return False, ("row", "center has no defining rows on this chart")
    cols = len(w[0])
    mins = [min(row[g] for row in w) for g in range(cols)]
    wbar = [[row[g] - mins[g] for g in range(cols)] for row in w]
    for f, row in enumerate(wbar):
        if not any(row):
            return False, ("row", f)
    for g in range(cols):
        if not any(row[g] for row in wbar):
            return False, ("col", g)
    return True, None


def _validate_choice(cf: ChartForm, center: BlowupCenterChart,
                     choice: BlowupChartChoice) -> None:
    coords = center_coordinates(cf, center)
    if choice.j0 not in coords:
        raise ValueError(f"j0 = {choice.j0} is not a center coordinate")
    expected = sorted(set(coords) - {choice.j0})
    given = sorted(v for v, _ in choice.betas)
    if expected != given:
        raise ValueError("strata must cover exactly the center coordinates besides j0")


def _check_center(cf: ChartForm, center: BlowupCenterChart) -> None:
    """The one check of a center, run once per blowup or permissibility
    query: the chart is adapted, lies on the zero stratum of every slot,
    and the center is valid."""
    if cf.tag != QTF1:
        raise ValueError("blowups apply to center-adapted qtf1 charts")
    if any(b is None or not b.is_zero for b in cf.betas):
        raise ValueError("only all-zero-strata charts lie on the center")
    snc = check_center_snc(cf, center)
    if not snc.ok:
        raise ValueError(f"invalid center: {snc}")


def blowup_transform(cf: ChartForm, center: BlowupCenterChart,
                     choice: BlowupChartChoice) -> BlowupResult:
    _check_center(cf, center)
    _validate_choice(cf, center, choice)
    fan, = _fanouts(cf, center, (choice.j0,))
    strata = dict(choice.betas)
    betas = tuple((v, strata[v]) for v in fan.others)
    chart, var_map = _blowup_child(
        cf, fan, betas, tuple(None if b.is_zero else b.unit_value() for _, b in betas))
    return BlowupResult(chart, tuple(var_map), fan.row_order)


# What every child of one blowup with exceptional coordinate `j0` shares:
# the other center coordinates (divisor ones first), the divisor columns
# off the center (`noncenter`), the old variables each child keeps in its
# order (`kept`: the other slot variables, then those from n + s on), and
# the chart's rows in the child's row order, held as each row's
# exceptional exponent, each old divisor column and each row's unit.
_Fanout = namedtuple("_Fanout", "j0 others noncenter kept row_order exc columns units")


def _fanouts(cf: ChartForm, center: BlowupCenterChart, j0s):
    """The `_Fanout` of each exceptional coordinate in `j0s`; the rows'
    exceptional exponents (the row's sum over the center's divisor
    columns, plus one on a slot row), the non-center columns and the tail
    are computed once for all of them."""
    div = center.divisor_indices
    n, ell = cf.n, cf.ell
    noncenter = [j for j in range(n) if j not in div]
    tail = list(range(n + cf.s, cf.d))
    exc = [sum(row[j] for j in div) + (i >= ell) for i, row in enumerate(cf.matrix)]
    for j0 in j0s:
        other_slots = [v for v in range(n, n + cf.s) if v != j0]
        slot_rows = other_slots if j0 < n else [j0] + other_slots
        row_order = tuple(range(ell)) + tuple(ell + v - n for v in slot_rows)
        yield _Fanout(
            j0, tuple(j for j in div if j != j0) + tuple(other_slots), noncenter,
            other_slots + tail, row_order, tuple(exc[i] for i in row_order),
            list(zip(*(cf.matrix[i] for i in row_order))),
            tuple(cf.units[i] for i in row_order))


def _blowup_child(cf: ChartForm, fan: _Fanout, betas, values):
    """Substitute x_i -> x_j0 * x_i' (+ beta_i) for the other center
    coordinates i, on the strata `betas` ((i, stratum) in `fan.others`
    order) whose unit values are `values` (None on a zero stratum).
    Generic betas absorb their variable into the units; the exceptional
    column leads the divisor block for a divisor j0 (qtf1) and closes it
    for a slot j0, whose row then leads the slot rows (qtf2).  New
    variables: divisor, other slots, the old variables from n + s on,
    absorbed.  Returns the child chart and its variable map, a list
    indexed by old variable."""
    j0, n = fan.j0, cf.n
    zero, shifted = [], []
    for (v, _), value in zip(betas, values):
        if v < n:
            if value is None:
                zero.append(v)
            else:
                shifted.append((v, value))
    cols = zero + fan.noncenter
    qtf1 = j0 < n
    new_div = [j0] + cols if qtf1 else cols + [j0]
    order = new_div + fan.kept + [v for v, _ in shifted]
    var_map = [0] * cf.d
    for new, old in enumerate(order):
        var_map[old] = new

    block = [fan.columns[j] for j in cols]
    matrix = tuple(zip(fan.exc, *block) if qtf1 else zip(*block, fan.exc))
    shifts = [(fan.columns[v], var_map[v], value) for v, value in shifted]
    units = []
    for r, unit in enumerate(fan.units):
        u = unit.remap_vars(var_map)
        for column, var, value in shifts:
            u = u.with_factor(var, value, column[r])
        units.append(u)

    slot_betas = tuple(b for v, b in betas if v >= n)
    chart = built_chart(
        d=cf.d, m=cf.m, n=len(new_div), ell=cf.ell, s=cf.s, tag=QTF1 if qtf1 else QTF2,
        matrix=matrix, units=tuple(units),
        betas=slot_betas if qtf1 else (None,) + slot_betas, ell_bar=cf.ell_bar)
    return chart, var_map


def enumerate_blowup_strata(cf: ChartForm, center: BlowupCenterChart, symbol_prefix: str):
    """All (choice, chart) pairs covering the exceptional fiber: every
    exceptional coordinate j0, every zero/generic split of the remaining
    center coordinates, in a fixed canonical order.  A generic stratum's
    symbol is `symbol_prefix`.j0.v.  What the children share is computed
    once per blowup or once per j0, the generic strata and their unit
    values included."""
    _check_center(cf, center)
    out = []
    for fan in _fanouts(cf, center, center_coordinates(cf, center)):
        generic = [Stratum.generic(f"{symbol_prefix}.{fan.j0}.{v}") for v in fan.others]
        strata = itertools.product(*(((v, ZERO_STRATUM), (v, g))
                                     for v, g in zip(fan.others, generic)))
        values = itertools.product(*((None, g.unit_value()) for g in generic))
        for betas, vals in zip(strata, values):
            chart, _ = _blowup_child(cf, fan, betas, vals)
            out.append((BlowupChartChoice(fan.j0, betas), chart))
    return out
