"""Lifting the morphism through the target blowup once the pullback of the
center is principal.

The generating row of the principal pullback names the blowup chart of
the target that the lifted morphism enters.  Every other center
coordinate turns into a ratio against the generator: ratios that still
vanish give strict-transform rows of the new chart, ratios with a
nonzero constant become fresh translated parameters whose constants are
exact unit-value ratios.  When the center lies in no divisor component
through the point, the exceptional direction never joins the divisor
and is dropped back out of the chart instead.

A lift runs in two passes.  The skeleton (`lift_skeleton`) reads only
the chart's shape, its `shape_key`: the case, the generator row, which
center rows are strict, vanished or kept, and the lifted chart's shape,
with every check on them.  The constants pass fills in the generator
constant, the lifted units and the fresh parameters from the chart's
unit constants and beta values; a lifted chart has no betas and no unit
factors, so its structure is the skeleton's and is not checked again.
Charts of one shape share a skeleton, so a caller lifting many strata
can keep skeletons in a dict for the length of one chart family.  The
point of the target blowup chart the lift lands on is not stored apart:
the generator row, the row sources and the fresh parameters' shifts name
it, in the engine and in the trace alike.

The skeleton, the fresh parameters and the result are plain records
(`typing.NamedTuple`s): every check runs where they are built, so
their constructors check nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .chart import (
    QTF2,
    TOROIDAL,
    CenterDescriptor,
    ChartForm,
    ValidityReport,
    built_chart,
    column_minima,
    pullback_center_generators,
    shape_key,
)
from .errors import InternalCheckError
from .linalg import rank
from .units import TRIVIAL_UNIT, UnitToken, UnitValue

CASE1, CASE2, CASE3, SMOOTH_CASE = "case1", "case2", "case3", "smooth"


class FreshParam(NamedTuple):
    """A center coordinate consumed into a fresh translated parameter.

    The target coordinate is scale * (original factor) - shift at the
    new point; `shift` is None when the subtracted value is zero.
    """

    source: tuple[str, int]  # ("row" | "slot", chart row index)
    scale: UnitValue
    shift: UnitValue | None


class LiftSkeleton(NamedTuple):
    """The part of a lift fixed by the chart's shape.

    `row_sources` names the origin of each lifted row ("gen", "strict"
    or "kept", with the chart row), in the order of `matrix`; `zero`
    lists the center rows that collapse onto the generator and become
    fresh parameters.  `drop_col` is the exceptional column dropped by
    an outside-divisor lift, None when the exceptional joins the divisor.
    `shape` is the lifted chart with trivial units, checked once here.
    """

    case: str
    gen_row: int
    drop_col: int | None
    zero: tuple[int, ...]
    row_sources: tuple[tuple[str, int], ...]
    shape: ChartForm


class LiftResult(NamedTuple):
    """The lifted chart, its shape's skeleton (one object for every chart
    of that shape lifted through one skeleton dict) and its fresh parameters."""

    lifted: ChartForm
    skeleton: LiftSkeleton
    fresh: tuple[FreshParam, ...]


def lift_case(cf: ChartForm, z: CenterDescriptor) -> str:
    """Which branch of the lift applies; requires a principal pullback."""
    return _case_and_generator(cf, z)[0]


def _case_and_generator(cf: ChartForm, z: CenterDescriptor) -> tuple[str, int]:
    """The lift's branch and the chart row generating the principal
    pullback: the first slot row (smooth, case 3), the first slot row with
    a nonzero constant (case 2) or the first center row at the column
    minima (case 1).  `pullback_center_generators` checks that the chart
    is adapted; the pullback is principal iff the generators' gcd is one
    of them."""
    gens = pullback_center_generators(cf, z)
    if tuple(map(min, zip(*gens))) not in gens:
        raise ValueError("pullback of the center is not principal")
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


def lift_after_principalization(cf: ChartForm, z: CenterDescriptor,
                                skeletons: dict | None = None,
                                key: tuple | None = None) -> LiftResult:
    """Lift one principal stratum.  `skeletons`, when given, maps
    `shape_key`s to skeletons already built; the caller keeps it for the
    length of one chart family, and missing skeletons are added to it.
    `key`, when given, is `shape_key(cf, z)` as the caller computed it."""
    skeletons = {} if skeletons is None else skeletons
    key = shape_key(cf, z) if key is None else key
    if key not in skeletons:
        skeletons[key] = lift_skeleton(cf, z)
    return _lift_constants(cf, skeletons[key])


def lift_skeleton(cf: ChartForm, z: CenterDescriptor) -> LiftSkeleton:
    """The shape-only part of the lift, checked as it is built."""
    case, gen_row = _case_and_generator(cf, z)
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
    if cf.matrix[gen_row] != mins:
        raise InternalCheckError("generator row is not the columnwise minimum")

    reduced = {i: tuple(x - y for x, y in zip(cf.matrix[i], mins))
               for i in range(cf.ell_bar) if i != gen_row}
    strict = tuple(i for i in sorted(reduced) if any(reduced[i]))
    zero = tuple(i for i in sorted(reduced) if not any(reduced[i]))

    if case == CASE1:
        # Vanished-row bound of the divisor-generator construction: at most
        # min(ell - rank, ell_bar - 1) rows can collapse onto the generator.
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
    expected = tuple(1 if j == exc_col else 0 for j in range(cf.n))
    if cf.matrix[gen_row] != expected:
        raise InternalCheckError("unexpected generator shape for an outside-divisor lift")
    for i in range(cf.ell):
        if cf.matrix[i][exc_col] != 0:
            raise InternalCheckError("divisor rows meet the exceptional column")
    return (exc_col, (), tuple(("kept", i) for i in range(cf.ell)),
            tuple(row[:exc_col] for row in cf.matrix[:cf.ell]))


def _lift_constants(cf: ChartForm, sk: LiftSkeleton) -> LiftResult:
    """Put the chart's constants on a skeleton of its shape."""
    gen_const = cf.units[sk.gen_row].constant()
    if sk.case == CASE2:
        gen_const = gen_const * cf.betas[sk.gen_row - cf.ell].unit_value()
    gen_inv = gen_const.inv()

    units = []
    for kind, i in sk.row_sources:
        if kind == "gen":
            units.append(UnitToken(gen_const))
        elif kind == "strict":
            units.append(UnitToken(cf.units[i].constant() * gen_inv))
        else:
            units.append(UnitToken(cf.units[i].constant()))

    fresh: list[FreshParam] = []
    if sk.drop_col is not None:
        fresh.append(FreshParam(("slot", sk.gen_row), scale=gen_const, shift=None))
    for i in sk.zero:
        val = cf.units[i].constant() * gen_inv
        fresh.append(FreshParam(("row", i), scale=val, shift=val))
    for t, beta in enumerate(cf.betas):
        row = cf.ell + t
        if row == sk.gen_row:
            continue
        scale = cf.units[row].constant() * gen_inv
        shift = None
        if beta is not None and not beta.is_zero:
            shift = scale * beta.unit_value()
        fresh.append(FreshParam(("slot", row), scale=scale, shift=shift))

    return LiftResult(sk.shape.with_constant_units(tuple(units)), sk, tuple(fresh))


def verify_commutes(cf: ChartForm, z: CenterDescriptor,
                    result: LiftResult) -> ValidityReport:
    """Substitute the target blowup equations into the lifted form and
    compare, row by row and constant by constant, with the original chart."""
    sk = result.skeleton
    lifted = result.lifted
    failures: list[tuple[str, str]] = []

    def fail(code, msg):
        failures.append((code, msg))

    def pad(row: tuple[int, ...]) -> tuple[int, ...]:
        if sk.drop_col is None:
            return row
        return row[:sk.drop_col] + (0,) + row[sk.drop_col:]

    lifted_index = {src: k for k, src in enumerate(sk.row_sources)}
    fresh_index = {p.source[1]: p for p in result.fresh}

    if ("gen", sk.gen_row) in lifted_index:
        k = lifted_index[("gen", sk.gen_row)]
        gen_vec = pad(lifted.matrix[k])
        gen_const = lifted.units[k].constant()
    else:
        p = fresh_index.get(sk.gen_row)
        if p is None:
            return ValidityReport((("gen", "generator row is unaccounted for"),))
        gen_vec = tuple(1 if j == sk.drop_col else 0 for j in range(cf.n))
        gen_const = p.scale

    for i in range(cf.rows):
        original_const = cf.units[i].constant()
        slot_t = i - cf.ell if i >= cf.ell else None
        beta = cf.betas[slot_t] if slot_t is not None else None

        if i == sk.gen_row:
            if gen_vec != cf.matrix[i]:
                fail("exponent", f"generator row {i} exponents changed")
            expected = original_const
            if beta is not None and not beta.is_zero:
                expected = expected * beta.unit_value()
            if gen_const != expected:
                fail("constant", f"generator row {i} constant mismatch")
            continue

        if ("strict", i) in lifted_index:
            k = lifted_index[("strict", i)]
            recon = tuple(x + y for x, y in zip(gen_vec, pad(lifted.matrix[k])))
            if recon != cf.matrix[i]:
                fail("exponent", f"strict transform of row {i} does not recompose")
            if gen_const * lifted.units[k].constant() != original_const:
                fail("constant", f"strict transform of row {i} constant mismatch")
            continue

        if ("kept", i) in lifted_index:
            k = lifted_index[("kept", i)]
            if pad(lifted.matrix[k]) != cf.matrix[i]:
                fail("exponent", f"kept row {i} exponents changed")
            if lifted.units[k].constant() != original_const:
                fail("constant", f"kept row {i} constant mismatch")
            continue

        if i in fresh_index:
            p = fresh_index[i]
            if gen_vec != cf.matrix[i]:
                fail("exponent",
                     f"fresh parameter row {i} does not share the generator exponents")
            if gen_const * p.scale != original_const:
                fail("constant", f"fresh parameter row {i} scale mismatch")
            if beta is not None and not beta.is_zero:
                expected_shift = p.scale * beta.unit_value()
                if p.shift is None or p.shift != expected_shift:
                    fail("constant", f"fresh parameter row {i} shift mismatch")
            elif p.source[0] == "slot" and p.shift is not None:
                fail("constant", f"fresh slot row {i} should have zero shift")
            elif p.source[0] == "row" and (
                    p.shift is None or p.shift != p.scale):
                fail("constant",
                     f"fresh parameter row {i} must shift by its unit ratio")
            continue

        fail("coverage", f"row {i} of the input chart is unaccounted for")
    return ValidityReport(tuple(failures))
