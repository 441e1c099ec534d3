"""Driver that makes the pulled-back center ideal principal on every
tracked chart stratum by repeated permissible blowups.

Each input stratum roots its own tree, and the trees are expanded one
after another in family order, each depth first.  A stratum whose
pullback is principal, or that sits at the cap, is a leaf; any other is
blown up along a center inside its residual's maximum order locus, and
its children (the chart strata covering the exceptional fiber) are
expanded in enumeration order.  A subtree thus depends only on its root
chart, id and depth, not on the rest of the family.  A step
cap stands in for a termination proof; hitting it is a reported status.

The locus is the residual N of the factorization x^F * N of the
pullback, and nothing more: the policy picks the center among
`max_order_components(N)`, and the blowup checks it.  A
principal pullback, whose generators' gcd is one of them, has no
residual and is not factored; only a nonprincipal one is reduced and
factored.  The locus reads only the chart's shape (`shape_key`), so one
call keeps one plan per distinct shape: a nonprincipal shape's residual,
replaced at the shape's first blowup by its center and residual order, or
the index in `final` of a principal shape's first leaf, which each of its
leaves carries as `shape`.  Principality is decided there once per shape,
by `nonprincipal_locus`, and a nonprincipal shape's center and order once,
by the policy; no lift code runs here, and the pipeline builds each
shape's lift skeleton.  A failure names the stratum and its parent path.
"""

from __future__ import annotations

from collections import namedtuple

from .blowup import (
    BlowupCenterChart,
    BlowupChartChoice,
    center_coordinates,
    enumerate_blowup_strata,
    matrix_permissibility,
)
from .chart import (
    QTF1,
    QTF2,
    CenterDescriptor,
    ChartForm,
    check_shape,
    column_minima,
    pullback_center_generators,
    shape_key,
)
from .errors import InternalCheckError, RegimeLimit, cut
from .monomial import (
    MonomialIdeal,
    max_order_components,
    order_at_origin,
    principal_generator,
    principal_part_factorization,
)

PRINCIPAL = "principal"
EXCEEDED = "exceeded"

# Blowup rounds one driver call may run before it gives up as a runaway.
RUNAWAY_GUARD = 100_000

# Length of the longest chain of blowups above an input stratum.
DEFAULT_CAP = 50


def check_cap(cap: int, name: str = "cap") -> None:
    """The one check on a step cap; `name` names it in the error."""
    if cap < 0:
        raise ValueError(f"{name} must be >= 0")


def nonprincipal_locus(cf: ChartForm) -> MonomialIdeal | None:
    """The residual N of the pullback I = x^F * N, which cuts the locus
    where the pullback is not principal, or None when I is principal.
    The policy picks the center among N's maximum-order components
    (`MaxOrderLexPolicy.select`).  A principal pullback, F the
    generator that divides the others, is neither reduced nor factored;
    only a nonprincipal one goes through the factorization and its
    reconstruction check."""
    gens = pullback_center_generators(cf)
    if principal_generator(gens) is not None:
        return None
    return principal_part_factorization(MonomialIdeal.trusted(cf.n + cf.num_slots, gens))[1]


class MaxOrderLexPolicy:
    """The center selection among the maximum-order components.

    Ties between components are broken by the order of the reduced
    divisor block along the candidate (deepest first), then by size,
    then lexicographically.  Raw component order alone admits a cycle:
    the residual shape <x*y^2, z^2, slot> reproduces itself forever when
    the lexicographically first component is blown up, while the
    component along which the reduced block is most singular makes
    strict progress.
    """

    name = "max-order-lex"

    def select(self, cf: ChartForm, residual: MonomialIdeal) -> BlowupCenterChart:
        """The first component in tie-break order: on a chart in its tag's shape,
        a permissible center.  A qtf2 chart, or a slot off the zero stratum, has a
        generator on the column minima dividing the others, so a nonprincipal chart
        is qtf1 and each slot variable generates the residual: every component holds
        every slot.  Less its column minima (0 on a slot column: ell_bar >= 1 or s >= 2),
        the center matrix is the residual on the component, which a minimal one of
        order >= 1 meets in every row and column.  A failed check is an engine bug."""
        mins, rows = column_minima(cf), cf.matrix[:cf.ell_bar]

        def key(subset):
            divisor = [j for j in subset if j < cf.n]
            depth = min((sum(row[j] - mins[j] for j in divisor) for row in rows), default=0)
            return -depth, -len(subset), subset

        subset = min(max_order_components(residual), key=key)
        center = BlowupCenterChart(tuple(j for j in subset if j < cf.n), cf.s)
        ok, witness = matrix_permissibility(cf, center)
        if not ok or list(subset) != center_coordinates(cf, center):
            raise InternalCheckError(f"max-order component {subset} is not a permissible "
                                     f"center: {witness or 'it misses a slot variable'}")
        return center


POLICY = MaxOrderLexPolicy()


# `children` holds (choice, child id) pairs.
PrincipalizationStep = namedtuple(
    "PrincipalizationStep", "stratum_id center residual_order children")

# `descriptor` is the root's, for the trace alone; `shape` is the index in
# `final` of the first leaf of a principal stratum's shape, None on an exceeded one.
FinalStratum = namedtuple(
    "FinalStratum", "stratum_id status chart descriptor parent_path shape")


class PrincipalizationTrace(namedtuple("PrincipalizationTrace", "steps final")):
    __slots__ = ()

    @property
    def exceeded(self) -> bool:
        return any(f.status == EXCEEDED for f in self.final)


def _choice_tag(choice: BlowupChartChoice) -> str:
    flags = "".join("z" if b.is_zero else "g" for _, b in choice.betas)
    return f"e{choice.j0}{flags}"


class naming:
    """A context that re-raises a ValueError, an InternalCheckError, a
    MemoryError or a RecursionError as its own class with the stratum and
    its parent path in front.  A child's id extends its parent's, so the
    path is written as the root id, then each deeper ancestor's suffix:
    linear in the depth."""

    __slots__ = ("sid", "path")

    def __init__(self, sid: str, path: tuple[str, ...]):
        self.sid, self.path = sid, path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, InternalCheckError, MemoryError, RecursionError)):
            path, where = self.path, ""
            if path:
                steps = (sid[len(parent):] for parent, sid in zip(path, path[1:]))
                where = f" (parent path {' > '.join((cut(path[0]), *steps))})"
            raise type(exc)(f"stratum {cut(self.sid)}{where}: {str(exc) or 'out of memory'}") from exc
        return False


def principalize_chart_family(
        strata: list[tuple[str, ChartForm, CenterDescriptor]],
        cap: int = DEFAULT_CAP,
) -> PrincipalizationTrace:
    # Every root is checked in its tag's shape and adapted to its descriptor
    # first (a blowup child keeps its parent's `ell_bar` and `s`), then each
    # root's tree is expanded depth first from an explicit stack (the cap is
    # user-set, so recursion could outgrow Python's limit): steps come in
    # preorder and each root's finals are its leaves in preorder.  The cap
    # bounds the length of any single chain of blowups (the depth of a
    # stratum's history); a stratum at the cap finishes with Exceeded status.
    # `plans` holds each shape's residual, its (center, residual order) once it
    # is blown up, or its first leaf's index when principal, for the length of
    # this call and `ids` every id given out, roots first, so a child that
    # takes a root's id is named with its parent path.
    check_cap(cap)
    plans: dict[tuple, MonomialIdeal | tuple | int] = {}
    ids: set[str] = set()
    steps: list[PrincipalizationStep] = []
    final: list[FinalStratum] = []

    def register(sid, path):
        if sid in ids:
            with naming(sid, path):
                raise ValueError("id repeated in the family")
        ids.add(sid)

    for sid, chart, z in strata:
        register(sid, ())
        with naming(sid, ()):
            if chart.tag not in (QTF1, QTF2):
                raise ValueError("pullback needs a center-adapted chart")
            if chart.ell_bar != z.ell_bar or chart.s != z.extra_slots:
                raise ValueError("chart is not adapted to this descriptor")
            check_shape(chart)
    for root_id, root_chart, z in strata:
        stack = [(root_id, root_chart, ())]
        while stack:
            sid, chart, path = stack.pop()
            with naming(sid, path):
                shape = shape_key(chart)
                plan = plans.get(shape)
                if plan is None:
                    plan = nonprincipal_locus(chart)
                    plan = plans[shape] = len(final) if plan is None else plan
                principal = type(plan) is int
                if principal or len(path) >= cap:
                    final.append(FinalStratum(sid, PRINCIPAL if principal else EXCEEDED,
                                              chart, z, path, plan if principal else None))
                    continue
                if len(steps) >= RUNAWAY_GUARD:
                    raise RegimeLimit(f"runaway principalization: {RUNAWAY_GUARD} "
                                      "blowup rounds without finishing")
                if type(plan) is MonomialIdeal:
                    plan = plans[shape] = POLICY.select(chart, plan), order_at_origin(plan)
                center, order = plan
                children = enumerate_blowup_strata(chart, center, sid)
            path += (sid,)
            records = []
            top = len(stack)
            for choice, child in children:
                child_id = f"{sid}.{_choice_tag(choice)}"
                register(child_id, path)
                records.append((choice, child_id))
                # Each child goes under its elder siblings, so the first
                # child is expanded first.
                stack.insert(top, (child_id, child, path))
            steps.append(PrincipalizationStep(
                stratum_id=sid, center=center, residual_order=order,
                children=tuple(records)))
    return PrincipalizationTrace(tuple(steps), tuple(final))
