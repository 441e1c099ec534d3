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
pullback, and nothing more: the policy draws the candidate centers from
`max_order_components(N)`, and the blowup checks the chosen one.  A
principal pullback, whose generators' gcd is one of them, has no
residual and is not factored; only a nonprincipal one is reduced and
factored.  The locus reads only the chart's shape (`shape_key`), so one
driver call computes it once per distinct shape.  A failure on a stratum
names it and its parent path.

The steps, the finals and the trace are plain records
(`collections.namedtuple`s): they hold no invariant, so building one
runs no check.
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
    column_minima,
    pullback_center_generators,
    shape_key,
)
from .errors import InternalCheckError, RegimeLimit
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
    The candidate centers are the maximum-order components of N
    (`MaxOrderLexPolicy.candidates`).  A principal pullback, F the
    generator that divides the others, is neither reduced nor factored;
    only a nonprincipal one goes through the factorization and its
    reconstruction check."""
    gens = pullback_center_generators(cf)
    if principal_generator(gens) is not None:
        return None
    return principal_part_factorization(MonomialIdeal.trusted(cf.d, gens))[1]


# The shape memo's default: a shape whose locus is not yet computed.
_UNSEEN = object()


class NoPermissibleCenter(RegimeLimit):
    """No maximum-order component passes the permissibility test; the
    input is outside the guaranteed regime."""


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

    def _reduced_depth(self, cf: ChartForm, subset) -> int:
        if cf.ell_bar == 0:
            return 0
        mins = column_minima(cf)
        divisor = [j for j in subset if j < cf.n]
        return min(sum(cf.matrix[i][j] - mins[j] for j in divisor)
                   for i in range(cf.ell_bar))

    def candidates(self, cf: ChartForm, residual: MonomialIdeal):
        comps = max_order_components(residual)
        return sorted(comps, key=lambda s: (-self._reduced_depth(cf, s),
                                            -len(s), s))

    def select(self, cf: ChartForm, residual: MonomialIdeal) -> BlowupCenterChart:
        """The first candidate through every slot that passes the matrix
        test.  It is a valid center by construction (a single coordinate
        has order 0 on the gcd-free residual), so only the blowup checks it."""
        rejected = []
        for subset in self.candidates(cf, residual):
            center = BlowupCenterChart(tuple(j for j in subset if j < cf.n), cf.s)
            if list(subset) != center_coordinates(cf, center):
                rejected.append((subset, "component misses a slot variable"))
                continue
            ok, witness = matrix_permissibility(cf, center)
            if ok:
                return center
            rejected.append((subset, f"not permissible: {witness}"))
        raise NoPermissibleCenter(f"no permissible candidate; tried {rejected}")


POLICY = MaxOrderLexPolicy()


# `children` holds (choice, child id) pairs.
PrincipalizationStep = namedtuple(
    "PrincipalizationStep", "stratum_id center residual_order children")

# `descriptor` is the root's, for the trace alone; `shape` is
# shape_key(chart), the lift's skeleton key.
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
    """A context that re-raises a ValueError or an InternalCheckError as
    its own class with the stratum and its parent path in front.  A
    child's id extends its parent's, so the path is written as the root
    id, then each deeper ancestor's suffix: linear in the depth."""

    __slots__ = ("sid", "path")

    def __init__(self, sid: str, path: tuple[str, ...]):
        self.sid, self.path = sid, path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, InternalCheckError)):
            path, where = self.path, ""
            if path:
                steps = (sid[len(parent):] for parent, sid in zip(path, path[1:]))
                where = f" (parent path {' > '.join((path[0], *steps))})"
            raise type(exc)(f"stratum {self.sid}{where}: {exc}") from exc
        return False


def principalize_chart_family(
        strata: list[tuple[str, ChartForm, CenterDescriptor]],
        cap: int = DEFAULT_CAP,
) -> PrincipalizationTrace:
    # Every root is checked adapted to its descriptor first (a blowup child
    # keeps its parent's `ell_bar` and `s`), then each root's tree is expanded
    # depth first from an explicit stack (the cap is user-set, so recursion
    # could outgrow Python's limit): steps come in preorder and each root's
    # finals are its leaves in preorder.  The cap bounds the length of any
    # single chain of blowups (the depth of a stratum's history); a stratum at
    # the cap finishes with Exceeded status.  `loci` holds each shape's locus
    # for the length of this call and `ids` every id given out, roots first, so
    # a child that takes a root's id is named with its parent path; a
    # principal shape's entry is None.
    check_cap(cap)
    loci: dict[tuple, MonomialIdeal | None] = {}
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
    for root_id, root_chart, z in strata:
        stack = [(root_id, root_chart, ())]
        while stack:
            sid, chart, path = stack.pop()
            with naming(sid, path):
                shape = shape_key(chart)
                residual = loci.get(shape, _UNSEEN)
                if residual is _UNSEEN:
                    residual = loci[shape] = nonprincipal_locus(chart)
                if residual is None or len(path) >= cap:
                    final.append(FinalStratum(
                        sid, PRINCIPAL if residual is None else EXCEEDED,
                        chart, z, path, shape))
                    continue
                if len(steps) >= RUNAWAY_GUARD:
                    raise RegimeLimit(f"runaway principalization: {RUNAWAY_GUARD} "
                                      "blowup rounds without finishing")
                center = POLICY.select(chart, residual)
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
                stratum_id=sid, center=center,
                residual_order=order_at_origin(residual),
                children=tuple(records)))
    return PrincipalizationTrace(tuple(steps), tuple(final))
