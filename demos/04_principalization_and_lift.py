#!/usr/bin/env python3
"""Principalizing a pulled-back center and lifting the morphism.

The driver repeatedly blows up permissible centers inside the residual's
maximum order locus until every tracked stratum has a principal
pullback, then each stratum lifts into the blown-up target: the
generator row names the target chart, vanished ratios become fresh
translated parameters, and a symbolic commutation check certifies each
lift against the original chart.
"""

from toroidal.chart import CenterDescriptor, ChartForm, derive_center_form
from toroidal.lift import lift_after_principalization, verify_commutes
from toroidal.principalize import principalize_chart_family
from toroidal.units import TRIVIAL_UNIT

chart = ChartForm(
    d=3, m=2, n=2, ell=2, s=0, tag="toroidal",
    matrix=((2, 1), (1, 3)), units=(TRIVIAL_UNIT,) * 2)
z = CenterDescriptor(ell_bar=2, c=2, divisor_rows=(0, 1))
adapted, _ = derive_center_form(chart, z)

trace = principalize_chart_family([("x0", adapted, z)], cap=50)
print("blowups performed:", len(trace.steps))
for step in trace.steps:
    print(f"  blew up {step.stratum_id} at divisor {step.center.divisor_indices}")
print("final strata:", len(trace.final))

for final in trace.final:
    result = lift_after_principalization(final.chart)
    commuted = verify_commutes(final.chart, result).ok
    print(f"  {final.stratum_id:<16} {result.skeleton.case}: "
          f"ell1 = {result.lifted.ell}, lifted matrix {result.lifted.matrix}, "
          f"commutes = {commuted}")
