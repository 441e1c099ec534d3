"""Driver that makes the pulled-back center ideal principal on every
tracked chart stratum by repeated permissible blowups.

The pullback's locus is found when a stratum is created (as a member
of the input family or as a blowup child) and kept with it.  Strata
that are not yet principal wait in a heap keyed by the order of their
residual ideal (largest first, ties broken by family position, then
creation order).  Each round pops the top stratum, selects a blowup
center inside the residual's maximum order locus, and replaces the
stratum by the finite list of chart strata covering the exceptional
fiber.  A step cap stands in for a termination proof; hitting it is a
reported status.

The locus is the factorization x^F * N of the pullback and nothing more:
the policy draws the candidate centers from `max_order_components(N)`,
and the blowup checks the chosen one.  The locus reads only the chart's
shape (`shape_key`), so one driver call factors each distinct shape
once.  A failure on a stratum names it and its parent path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .blowup import (
    BlowupCenterChart,
    BlowupChartChoice,
    center_coordinates,
    enumerate_blowup_strata,
    matrix_permissibility,
)
from .chart import (
    CenterDescriptor,
    ChartForm,
    column_minima,
    pullback_center_ideal,
    shape_key,
)
from .errors import InternalCheckError, RegimeLimit
from .monomial import (
    MonomialIdeal,
    max_order_components,
    order_at_origin,
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


@dataclass(frozen=True)
class NonprincipalLocus:
    monomial_part: tuple[int, ...]
    residual: MonomialIdeal

    @property
    def is_principal(self) -> bool:
        return self.residual.is_unit


def nonprincipal_locus(cf: ChartForm, z: CenterDescriptor) -> NonprincipalLocus:
    """Factor the pullback I = x^F * N; the residual N cuts the locus where
    the pullback is not principal.  The candidate centers are the
    maximum-order components of N (`MaxOrderLexPolicy.candidates`)."""
    f, n = principal_part_factorization(pullback_center_ideal(cf, z))
    return NonprincipalLocus(f, n)


class NoPermissibleCenter(RegimeLimit):
    """No maximum-order component passes the permissibility test; the
    input is outside the guaranteed regime."""


@dataclass(frozen=True)
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

    name: str = "max-order-lex"

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

    def select(self, cf: ChartForm, z: CenterDescriptor,
               residual: MonomialIdeal) -> BlowupCenterChart:
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


@dataclass(frozen=True)
class PrincipalizationStep:
    stratum_id: str
    center: BlowupCenterChart
    residual_order: int
    nonprincipal_count: int
    children: tuple[tuple[BlowupChartChoice, str], ...]


@dataclass(frozen=True)
class FinalStratum:
    stratum_id: str
    status: str
    chart: ChartForm
    descriptor: CenterDescriptor
    parent_path: tuple[str, ...]
    shape: tuple  # shape_key(chart, descriptor), the lift's skeleton key


@dataclass(frozen=True)
class PrincipalizationTrace:
    steps: tuple[PrincipalizationStep, ...]
    final: tuple[FinalStratum, ...]

    @property
    def exceeded(self) -> bool:
        return any(f.status == EXCEEDED for f in self.final)


@dataclass(frozen=True)
class _Stratum:
    stratum_id: str
    chart: ChartForm
    z: CenterDescriptor
    family_pos: int
    path: tuple[str, ...]
    shape: tuple
    locus: NonprincipalLocus


def _choice_tag(choice: BlowupChartChoice) -> str:
    flags = "".join("z" if b.is_zero else "g" for _, b in choice.betas)
    return f"e{choice.j0}{flags}"


class naming:
    """A context that re-raises a ValueError or an InternalCheckError as
    its own class with the stratum and its parent path in front."""

    __slots__ = ("sid", "path")

    def __init__(self, sid: str, path: tuple[str, ...]):
        self.sid, self.path = sid, path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, InternalCheckError)):
            where = f" (parent path {' > '.join(self.path)})" if self.path else ""
            raise type(exc)(f"stratum {self.sid}{where}: {exc}") from exc
        return False


def principalize_chart_family(
        strata: list[tuple[str, ChartForm, CenterDescriptor]],
        cap: int = DEFAULT_CAP,
) -> PrincipalizationTrace:
    # Strata still to blow up wait in `heap`; principal strata and strata
    # at the cap go to `done`, in creation order.  The cap bounds the
    # length of any single chain of blowups (the depth of a stratum's
    # history); strata at the cap stop expanding and finish with Exceeded
    # status.  `loci` holds each shape's locus for the length of this call
    # and `ids` every id given out, so its size counts the strata created.
    check_cap(cap)
    heap: list[tuple[int, int, int, _Stratum]] = []
    done: list[_Stratum] = []
    loci: dict[tuple, NonprincipalLocus] = {}
    ids: set[str] = set()

    def admit(sid, chart, z, family_pos, path):
        with naming(sid, path):
            if sid in ids:
                raise ValueError("id repeated in the family")
            ids.add(sid)
            shape = shape_key(chart, z)
            locus = loci.get(shape)
            if locus is None:
                locus = loci[shape] = nonprincipal_locus(chart, z)
        s = _Stratum(sid, chart, z, family_pos, path, shape, locus)
        if locus.is_principal or len(path) >= cap:
            done.append(s)
        else:
            heapq.heappush(heap, (-order_at_origin(locus.residual),
                                  family_pos, len(ids), s))

    for pos, (sid, cf, z) in enumerate(strata):
        admit(sid, cf, z, pos, ())
    steps: list[PrincipalizationStep] = []

    while heap:
        nonprincipal_count = len(heap)
        neg_order, _, _, target = heapq.heappop(heap)
        with naming(target.stratum_id, target.path):
            if len(steps) >= RUNAWAY_GUARD:
                raise RegimeLimit(f"runaway principalization: {RUNAWAY_GUARD} "
                                  "blowup rounds without finishing")
            center = POLICY.select(target.chart, target.z, target.locus.residual)
            children = enumerate_blowup_strata(
                target.chart, center, symbol_prefix=target.stratum_id)
        path = target.path + (target.stratum_id,)
        records = []
        for choice, result in children:
            child_id = f"{target.stratum_id}.{_choice_tag(choice)}"
            admit(child_id, result.chart, target.z, target.family_pos, path)
            records.append((choice, child_id))
        steps.append(PrincipalizationStep(
            stratum_id=target.stratum_id, center=center,
            residual_order=-neg_order,
            nonprincipal_count=nonprincipal_count,
            children=tuple(records)))

    done.sort(key=lambda s: s.family_pos)
    final = tuple(
        FinalStratum(s.stratum_id,
                     PRINCIPAL if s.locus.is_principal else EXCEEDED,
                     s.chart, s.z, s.path, s.shape)
        for s in done)
    return PrincipalizationTrace(tuple(steps), final)
