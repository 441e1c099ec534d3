#!/usr/bin/env python3
"""Adapting a chart to a center and transforming it through a blowup.

A center seen from a chart is a list of divisor rows plus a codimension;
adaptation permutes those rows first and appends one zero "slot" row per
missing equation.  Blowing up replaces the chart by finitely many chart
strata, one per choice of exceptional coordinate and zero/nonzero split
of the translation constants.
"""

from toroidal.blowup import (
    check_permissible_center,
    enumerate_blowup_strata,
    exceptional_column_data,
)
from toroidal.chart import CenterDescriptor, ChartForm, derive_center_form
from toroidal.monomial import max_order_components
from toroidal.principalize import nonprincipal_locus
from toroidal.units import TRIVIAL_UNIT

# A toroidal chart at a 2-point: y1 = x1^2 x2, y2 = x1 x2^3.
chart = ChartForm(
    d=3, m=2, n=2, ell=2, s=0, tag="toroidal",
    matrix=((2, 1), (1, 3)), units=(TRIVIAL_UNIT,) * 2)

# The center is the origin of the target: both divisor rows, codim 2.
z = CenterDescriptor(ell_bar=2, c=2, divisor_rows=(0, 1))
adapted, order = derive_center_form(chart, z)
print("adapted tag:", adapted.tag, " row order:", order)

# Its pullback factors into a principal part and a residual whose
# maximum-order components are the candidate blowup centers.
locus = nonprincipal_locus(adapted)
print("pullback principal part:", locus.monomial_part)
print("residual:", locus.residual.gens)
print("components:", max_order_components(locus.residual))

# The permissibility test: subtract column minima from the center
# matrix; no row and no column may vanish.
from toroidal.blowup import BlowupCenterChart
center = BlowupCenterChart((0, 1), 0)
ok, witness = check_permissible_center(adapted, center)
print("permissible:", ok)

# The exceptional exponent the slot rows would receive, versus the
# center rows: the strict drop that makes blowing up progress.
slot_value, row_sums = exceptional_column_data(adapted, center)
print("exceptional slot value:", slot_value, " center row sums:", row_sums)

# All chart strata of the blowup: every j0, every zero/generic split.
for choice, result in enumerate_blowup_strata(adapted, center, "demo"):
    betas = ",".join(f"x{v}={b}" for v, b in choice.betas)
    print(f"  j0 = {choice.j0:>2}  [{betas:<12}] -> n = {result.chart.n}, "
          f"matrix {result.chart.matrix}")
