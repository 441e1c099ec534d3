#!/usr/bin/env python3
"""From dominant monomial morphism data to a toroidal chart.

The input is an integer matrix: row i says how target coordinate v_i
pulls back as a monomial in the source coordinates (divisor columns
first, torus columns after).  Validation checks the block structure,
dominance rank, and divisor coverage; normalization eliminates the
torus part of the rank-basis rows with an exact rational solve and
absorbs the rest into translated parameters with nonzero constants.
"""

from toroidal.chart import verify_toroidal_form
from toroidal.toric import (
    LocalModelDims,
    ToricMorphismData,
    normalize_toric_presentation,
    validate_toric_morphism,
)
from toroidal.units import UnitValue

# Source: dimension 3 with a 2-dimensional divisor corner (d, n) = (3, 2).
# Target: a surface with both coordinates divisorial, (m, ell) = (2, 2).
#   v1 = u1 u2 u3,  v2 = u1^2 u2^2 u3
data = ToricMorphismData(
    source=LocalModelDims(3, 2),
    target=LocalModelDims(2, 2),
    matrix=((1, 1, 1), (2, 2, 1)),
)

report = validate_toric_morphism(data)
print("validates:", report.ok)

pres = normalize_toric_presentation(data)
print("rank of the divisor block:", pres.r)
print("elimination solution b:", pres.elimination)
print("torus block c:", pres.c_block)
print("translated constants:", [str(v) for v in pres.constants])

# The resulting chart is the exponent matrix with the torus factors gone;
# the rank-deficient rows carry unit tokens with the constants above.
print("chart matrix:", pres.chart.matrix)
print("unit tokens:", [str(u.constant()) for u in pres.chart.units])
print("toroidal form:", verify_toroidal_form(pres.chart).ok)

# The constants are monomials in the torus coordinates a<j>; substituting
# a value for each evaluates them to rationals.
def evaluate(value, point):
    out = UnitValue.of(value.coeff)
    for name, e in value.symbols:
        out = out * UnitValue.of(point[name]) ** e
    return out


print("constants at u3 = 3:", [str(evaluate(v, {"a2": 3})) for v in pres.constants])
