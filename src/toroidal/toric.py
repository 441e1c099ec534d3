"""Validation of dominant monomial morphism data between local models and
its reduction to toroidal shape.

The input is an integer exponent matrix describing how each target
coordinate pulls back as a Laurent monomial in the source coordinates.
Step 1 eliminates the torus-column part of the rank-basis rows by an
exact rational solve; step 2 repackages the remaining torus factors of
the other rows into translated parameters with nonzero constants.  Only
the constants of those parameters are retained.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chart import TOROIDAL, ChartForm, ValidityReport, built_chart, smooth_chart
from .errors import InternalCheckError
from .linalg import greedy_pivot_cols, greedy_pivot_rows, mat_mul, rank, solve_square
from .units import TRIVIAL_UNIT, UnitToken, UnitValue


class LocalModelDims(namedtuple("LocalModelDims", "dim cone")):
    __slots__ = ()

    def __new__(cls, dim: int, cone: int):
        if not 0 <= cone <= dim:
            raise ValueError("need 0 <= cone dimension <= ambient dimension")
        return tuple.__new__(cls, (dim, cone))


class ToricMorphismData(namedtuple("ToricMorphismData", "source target matrix")):
    # `source` is (d, n), `target` is (m, ell), and `matrix` has m rows
    # and d columns.
    __slots__ = ()

    @property
    def d(self) -> int:
        return self.source.dim

    @property
    def n(self) -> int:
        return self.source.cone

    @property
    def m(self) -> int:
        return self.target.dim

    @property
    def ell(self) -> int:
        return self.target.cone


def validate_toric_morphism(data: ToricMorphismData) -> ValidityReport:
    """Shape, block-vanishing, dominance-rank, and divisor-coverage checks.

    Divisor rows must also be nonzero on the divisor columns: a target
    divisor coordinate pulling back to a unit would contradict the source
    point mapping to the target point.
    """
    failures: list[tuple[str, str]] = []
    d, n, m, ell = data.d, data.n, data.m, data.ell
    if len(data.matrix) != m or any(len(row) != d for row in data.matrix):
        return ValidityReport((("shape", f"matrix must be {m} x {d}"),))
    for i in range(ell):
        for j in range(n):
            if data.matrix[i][j] < 0:
                failures.append(("negative", f"divisor block entry ({i},{j}) < 0"))
    for i in range(ell, m):
        for j in range(n):
            if data.matrix[i][j] != 0:
                failures.append(("block", f"torus row {i} touches divisor column {j}"))
    got_rank = rank(data.matrix)
    if got_rank != m:
        failures.append(("rank", f"rank {got_rank} < m = {m}, morphism not dominant"))
    for j in range(n):
        if sum(data.matrix[i][j] for i in range(ell)) <= 0:
            failures.append(("column", f"divisor column {j} is not covered"))
    for i in range(ell):
        if not any(data.matrix[i][j] for j in range(n)):
            failures.append(("row", f"divisor row {i} has no divisor part"))
    return ValidityReport(tuple(failures))


# `row_perm` and `col_perm` map a new row or column index to the input's;
# `elimination` is r x (d - n) and `c_block` (m - r) x (d - n), and
# `constants` holds the m - r translated constants.
ToroidalPresentation = namedtuple(
    "ToroidalPresentation",
    "r row_perm col_perm elimination c_block constants chart")


def normalize_toric_presentation(data: ToricMorphismData) -> ToroidalPresentation:
    """The toroidal chart of `data`; torus coordinate j takes the symbolic
    nonzero value a<j>."""
    report = validate_toric_morphism(data)
    if not report.ok:
        raise ValueError(f"invalid toric morphism data: {report}")
    d, n, m, ell = data.d, data.n, data.m, data.ell
    alphas = {j: UnitValue.symbol(f"a{j}") for j in range(n, d)}

    divisor_block = [[data.matrix[i][j] for j in range(n)] for i in range(ell)]
    basis_rows = greedy_pivot_rows(divisor_block)
    r = len(basis_rows)
    basis_cols = greedy_pivot_cols([divisor_block[i] for i in basis_rows])
    if len(basis_cols) != r:
        raise InternalCheckError("pivot column search disagrees with the rank")

    row_perm = tuple(basis_rows + [i for i in range(ell) if i not in basis_rows]
                     + list(range(ell, m)))
    col_perm = tuple(basis_cols + [j for j in range(n) if j not in basis_cols]
                     + list(range(n, d)))
    perm = [[data.matrix[row_perm[i]][col_perm[j]] for j in range(d)]
            for i in range(m)]

    tail = d - n
    if r:
        a_rr = [[perm[i][j] for j in range(r)] for i in range(r)]
        a_tail = [[perm[i][n + j] for j in range(tail)] for i in range(r)]
        elimination = solve_square(a_rr, a_tail)
    else:
        elimination = []
    for i in range(r):
        for j in range(tail):
            residual = perm[i][n + j] - sum(
                Fraction(perm[i][k]) * elimination[k][j] for k in range(r))
            if residual != 0:
                raise InternalCheckError(f"elimination residual nonzero at ({i},{j})")

    lower = [[Fraction(perm[i][k]) if i < ell else Fraction(0) for k in range(r)]
             for i in range(r, m)]
    correction = mat_mul(lower, elimination) if r else [
        [Fraction(0)] * tail for _ in range(m)]
    c_block = tuple(
        tuple(Fraction(perm[r + i][n + j]) - correction[i][j] for j in range(tail))
        for i in range(m - r))
    if rank(c_block) != m - r:
        raise InternalCheckError("torus block rank is not m - r")

    constants = tuple(
        _power_product(alphas, col_perm[n:], c_block[i]) for i in range(m - r))

    chart = _tf_chart(data, perm, r, constants)
    return ToroidalPresentation(
        r=r, row_perm=row_perm, col_perm=col_perm,
        elimination=tuple(tuple(row) for row in elimination),
        c_block=c_block, constants=constants, chart=chart)


def _power_product(alphas, cols, exponents) -> UnitValue:
    value = UnitValue()
    for j, e in zip(cols, exponents):
        if e:
            value = value * (alphas[j] ** e)
    return value


def _tf_chart(data: ToricMorphismData, perm, r: int,
              constants: tuple[UnitValue, ...]) -> ChartForm:
    """The absorbed toroidal chart: the permuted divisor block with the
    translated factors of rows r+1..ell carried as unit tokens."""
    d, n, m, ell = data.d, data.n, data.m, data.ell
    if ell == 0:
        return smooth_chart(d, m)
    matrix = tuple(tuple(perm[i][j] for j in range(n)) for i in range(ell))
    units: list[UnitToken] = []
    factor_base = n + (m - ell)
    for i in range(ell):
        if i < r:
            units.append(TRIVIAL_UNIT)
        else:
            units.append(UnitToken().with_factor(
                [(factor_base + (i - r), constants[i - r], 1)]))
    return built_chart(d=d, m=m, n=n, ell=ell, s=0, tag=TOROIDAL,
                       matrix=matrix, units=tuple(units))
