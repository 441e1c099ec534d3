"""Lifting the morphism through the target blowup once the pullback of the
center is principal, reading the center off the adapted chart alone.

The generating row of the principal pullback names the blowup chart of
the target that the lifted morphism enters.  Every other center
coordinate turns into a ratio against the generator: ratios that still
vanish give strict-transform rows of the new chart, ratios with a
nonzero constant become fresh translated parameters whose constants are
exact unit-value ratios.  When the center lies in no divisor component
through the point, the exceptional direction never joins the divisor
and is dropped back out of the chart instead.

A lift runs in two passes.  The skeleton (`lift_skeleton`) reads only
the chart's shape: the case, the generator row, which center rows are
strict, vanished or kept, and the lifted chart's shape, checked for
structure.  The pipeline builds it once per principal shape of a chart
family, from the shape's first leaf, after the driver's `nonprincipal_locus`
found the pullback principal, and lifts each leaf of that shape through it.  The
constants pass fills in the generator constant, the lifted units and the
fresh parameters.  Commutation (`verify_commutes`) is the lift's one
check of exponents and constants, and every lift runs it in full
(`lift_after_principalization`).
The point of the target blowup chart the lift lands on is not stored
apart: the generator row, the row sources and the fresh parameters'
shifts name it, in the engine and in the trace alike.
"""

from __future__ import annotations

from collections import namedtuple

from .chart import (
    QTF2,
    TOROIDAL,
    ChartForm,
    ValidityReport,
    built_chart,
    column_minima,
    pullback_center_generators,
)
from .errors import InternalCheckError
from .linalg import rank
from .monomial import principal_generator
from .units import TRIVIAL_UNIT, UnitToken

CASE1, CASE2, CASE3, SMOOTH_CASE = "case1", "case2", "case3", "smooth"


class FreshParam(namedtuple("FreshParam", "source scale shift")):
    """A center coordinate consumed into a fresh translated parameter.

    `source` is ("row" | "slot", chart row index).  The target coordinate
    is scale * (original factor) - shift at the new point; `shift` is None
    when the subtracted value is zero.
    """

    __slots__ = ()


class LiftSkeleton(namedtuple("LiftSkeleton",
                              "case gen_row drop_col zero row_sources shape")):
    """The part of a lift fixed by the chart's shape.

    `row_sources` names the origin of each lifted row ("gen", "strict"
    or "kept", with the chart row), in the order of `matrix`; `zero`
    lists the center rows that collapse onto the generator and become
    fresh parameters.  `drop_col` is the exceptional column dropped by
    an outside-divisor lift, None when the exceptional joins the divisor.
    `shape` is the lifted chart with trivial units, checked here for
    structure; `verify_commutes` checks the exponents of its lifts.
    """

    __slots__ = ()


class LiftResult(namedtuple("LiftResult", "lifted skeleton fresh")):
    """The lifted chart, its shape's skeleton (one object for every leaf of
    that shape in one chart family) and its fresh parameters."""

    __slots__ = ()


def lift_case(cf: ChartForm) -> str:
    """Which branch of the lift applies; requires a principal pullback."""
    _require_principal(cf)
    return _case_and_generator(cf)[0]


def _require_principal(cf: ChartForm) -> None:
    """The precondition of a lift of an arbitrary chart: its pullback of
    the center is principal (`principal_generator`)."""
    if principal_generator(pullback_center_generators(cf)) is None:
        raise ValueError("pullback of the center is not principal")


def _case_and_generator(cf: ChartForm) -> tuple[str, int]:
    """The lift's branch and the chart row generating the principal pullback:
    the first slot row (smooth, case 3), the first slot row with a nonzero
    constant (case 2) or the first center row at the column minima (case 1).
    The caller has found the pullback principal."""
    if cf.ell == 0:
        return SMOOTH_CASE, cf.ell
    if cf.tag == QTF2:
        return CASE3, cf.ell
    for t, beta in enumerate(cf.betas):
        if not beta.is_zero:
            return CASE2, cf.ell + t
    mins = column_minima(cf)
    for i in range(cf.ell_bar):
        if cf.matrix[i] == mins:
            return CASE1, i
    raise InternalCheckError("principal qtf1 chart matches no lift case")


def lift_after_principalization(cf: ChartForm, skeleton: LiftSkeleton | None = None) -> LiftResult:
    """Lift one principal stratum through `skeleton`, the skeleton of its
    shape; without one, the pullback is checked principal and the skeleton
    built here.  Every lift runs the full `verify_commutes`: a lift that
    does not commute is an engine bug and raises `InternalCheckError`."""
    if skeleton is None:
        _require_principal(cf)
        skeleton = lift_skeleton(cf)
    result = _lift_constants(cf, skeleton)
    report = verify_commutes(cf, result)
    if not report.ok:
        raise InternalCheckError(f"lift does not commute: {report}")
    return result


def lift_skeleton(cf: ChartForm) -> LiftSkeleton:
    """The shape-only part of the lift of a chart whose pullback is
    principal, its structure checked as built."""
    case, gen_row = _case_and_generator(cf)
    build = _skeleton_outside_divisor if cf.ell_bar == 0 else _skeleton_inside_divisor
    drop_col, zero, row_sources, matrix = build(cf, case, gen_row)
    n = cf.n if drop_col is None else cf.n - 1
    shape = built_chart(d=cf.d, m=cf.m, n=n, ell=len(matrix), s=0, tag=TOROIDAL,
                        matrix=matrix, units=(TRIVIAL_UNIT,) * len(matrix))
    return LiftSkeleton(case, gen_row, drop_col, zero, row_sources, shape)


def _skeleton_inside_divisor(cf: ChartForm, case: str, gen_row: int):
    """Cases with ell_bar >= 1: the target exceptional joins the divisor.
    Returns the skeleton's drop column, vanished rows, row sources and
    lifted matrix."""
    mins = column_minima(cf)
    reduced = {i: tuple(map(int.__sub__, cf.matrix[i], mins))
               for i in range(cf.ell_bar) if i != gen_row}
    strict = tuple(i for i in reduced if any(reduced[i]))
    zero = tuple(i for i in reduced if not any(reduced[i]))

    if case == CASE1 and zero:
        # Vanished-row bound of the divisor-generator construction: at most
        # min(ell - rank, ell_bar - 1) rows can collapse onto the generator;
        # with none it holds, since ell_bar >= 1 here.
        r = rank(cf.matrix[:cf.ell])
        if len(zero) > min(cf.ell - r, cf.ell_bar - 1):
            raise InternalCheckError("too many vanished center rows for the rank bound")

    kept = range(cf.ell_bar, cf.ell)
    matrix = ((mins,) + tuple(reduced[i] for i in strict)
              + tuple(cf.matrix[i] for i in kept))
    row_sources = ((("gen", gen_row),) + tuple(("strict", i) for i in strict)
                   + tuple(("kept", i) for i in kept))
    return None, zero, row_sources, matrix


def _skeleton_outside_divisor(cf: ChartForm, case: str, gen_row: int):
    """ell_bar == 0: the center lies in no divisor component through the
    point, so neither exceptional joins a divisor; the exceptional chart
    variable is consumed back into an identity parameter.  Returns what
    `_skeleton_inside_divisor` does."""
    if cf.tag != QTF2:
        raise ValueError("an ell_bar = 0 stratum lifts only from the qtf2 shape")
    exc_col = cf.n - 1
    return (exc_col, (), tuple(("kept", i) for i in range(cf.ell)),
            tuple(row[:exc_col] for row in cf.matrix[:cf.ell]))


def _lift_constants(cf: ChartForm, sk: LiftSkeleton) -> LiftResult:
    """Put the chart's constants on a skeleton of its shape."""
    gen_const = cf.units[sk.gen_row].constant()
    if sk.case == CASE2:
        gen_const = gen_const * cf.betas[sk.gen_row - cf.ell].unit_value()
    gen_inv = gen_const.inv()

    units = tuple([UnitToken(gen_const if kind == "gen"
                             else cf.units[i].constant() * gen_inv if kind == "strict"
                             else cf.units[i].constant())
                   for kind, i in sk.row_sources])

    fresh: list[FreshParam] = []
    if sk.drop_col is not None:
        fresh.append(FreshParam(("slot", sk.gen_row), gen_const, None))
    for i in sk.zero:
        val = cf.units[i].constant() * gen_inv
        fresh.append(FreshParam(("row", i), val, val))
    for t, beta in enumerate(cf.betas):
        row = cf.ell + t
        if row == sk.gen_row:
            continue
        scale = cf.units[row].constant() * gen_inv
        shift = None
        if beta is not None and not beta.is_zero:
            shift = scale * beta.unit_value()
        fresh.append(FreshParam(("slot", row), scale, shift))

    return LiftResult(sk.shape.with_constant_units(units), sk, tuple(fresh))


def verify_commutes(cf: ChartForm, result: LiftResult) -> ValidityReport:
    """Substitute the target blowup equations into the lifted form and
    compare, row by row and constant by constant, with the original chart.
    The blowup coordinate y'_i of row i is the lifted row or the fresh
    parameter whose source is i, exactly one of them.  Exponents span the
    divisor and slot columns: a zero-stratum slot row and its fresh
    parameter carry its slot variable, and a fresh parameter has no other
    monomial unless it is the outside-divisor generator.  The center rows
    are the chart's first `ell_bar` rows and its slot rows: row g recomposes
    to y'_g, any other center row to y'_g * y'_i, any other row to y'_i.

    Each image is built once from whole rows: a fresh parameter's divisor
    exponents are one shared zero tuple, or the generator's unit vector,
    and a center row's product with y'_g sums two rows with one `map`."""
    sk, lifted = result.skeleton, result.lifted
    g, drop, n, ell, ell_bar = sk.gen_row, sk.drop_col, cf.n, cf.ell, cf.ell_bar
    matrix, units, betas = cf.matrix, cf.units, cf.betas
    failures: list[tuple[str, str]] = []
    images: dict[int, tuple] = {}
    # Slot-column exponents: zero but for a zero-stratum slot row's variable.
    pad = (0,) * cf.num_slots
    slot_pads = {ell + t: pad[:k] + (1,) + pad[k + 1:]
                 for t, beta in enumerate(betas) if beta is not None and beta.kind == "zero"
                 for k in (cf.slot_var(t) - n,)}

    for (_, i), row, unit in zip(sk.row_sources, lifted.matrix, lifted.units):
        if i in images:
            failures.append(("coverage", f"row {i} is covered twice"))
        if drop is not None:
            row = row[:drop] + (0,) + row[drop:]
        images[i] = row + pad, unit.constant(), None
    zero = (0,) * n
    for p in result.fresh:
        i = p.source[1]
        if i in images:
            failures.append(("coverage", f"row {i} is covered twice"))
        vec = zero
        if i == g and drop is not None:
            vec = tuple([int(j == drop) for j in range(n)])
        images[i] = vec + slot_pads.get(i, pad), p.scale, p

    if g not in images:
        return ValidityReport(tuple(failures) + (
            ("coverage", f"generator row {g} is unaccounted for"),))
    gen_vec, gen_const, _ = images[g]
    for i, row in enumerate(matrix):
        image = images.get(i)
        if image is None:
            failures.append(("coverage", f"row {i} of the input chart is unaccounted for"))
            continue
        vec, const, p = image
        beta = betas[i - ell] if i >= ell else None
        beta = None if beta is None or beta.kind == "zero" else beta.unit_value()
        expected = units[i].constant()
        if i == g:
            if beta is not None:
                expected = expected * beta
        elif i < ell_bar or i >= ell:
            vec = tuple(map(int.__add__, gen_vec, vec))
            const = gen_const * const
            if p is not None:
                shift = (p.scale * beta if beta is not None
                         else None if i >= ell else p.scale)
                if p.shift != shift:
                    failures.append(("constant", f"row {i} fresh parameter shift mismatch"))
        if vec != row + slot_pads.get(i, pad):
            failures.append(("exponent", f"row {i} does not recompose"))
        if const != expected:
            failures.append(("constant", f"row {i} constant does not recompose"))
    return ValidityReport(tuple(failures))
