"""Seeded random generators for charts, descriptors, and toric data."""

from __future__ import annotations

from fractions import Fraction

from toroidal.chart import CenterDescriptor, ChartForm, TOROIDAL, derive_center_form
from toroidal.linalg import rank
from toroidal.toric import LocalModelDims, ToricMorphismData, validate_toric_morphism
from toroidal.units import UnitToken, UnitValue


def random_positive_matrix(rng, rows, cols, max_exp):
    """Nonnegative matrix with every row sum and column sum positive."""
    mat = [[rng.randint(0, max_exp) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if not any(mat[i]):
            mat[i][rng.randrange(cols)] = rng.randint(1, max_exp)
    for j in range(cols):
        if not any(mat[i][j] for i in range(rows)):
            mat[rng.randrange(rows)][j] = rng.randint(1, max_exp)
    return [tuple(row) for row in mat]


def random_unit(rng) -> UnitToken:
    if rng.random() < 0.5:
        return UnitToken()
    value = UnitValue(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
    return UnitToken(value)


def random_toroidal_chart(rng, max_ell=3, max_n=3, max_m=4, max_d=6, max_exp=4):
    ell = rng.randint(1, max_ell)
    m = rng.randint(ell, max_m)
    n = rng.randint(1, max_n)
    matrix = tuple(random_positive_matrix(rng, ell, n, max_exp))
    d_min = n + m - rank(matrix)
    d = rng.randint(d_min, max(max_d, d_min))
    units = tuple(random_unit(rng) for _ in range(ell))
    return ChartForm(d=d, m=m, n=n, ell=ell, s=0, tag=TOROIDAL,
                     matrix=matrix, units=units)


def random_descriptor(rng, chart: ChartForm) -> CenterDescriptor | None:
    """A random center view consistent with the chart, codimension >= 2."""
    options = []
    for ell_bar in range(0, chart.ell + 1):
        for c in range(max(2, ell_bar), chart.m + 1):
            if c - ell_bar <= chart.m - chart.ell:
                options.append((ell_bar, c))
    if not options:
        return None
    ell_bar, c = rng.choice(options)
    rows = tuple(sorted(rng.sample(range(chart.ell), ell_bar)))
    return CenterDescriptor(ell_bar=ell_bar, c=c, divisor_rows=rows)


def random_adapted_chart(rng, **kwargs):
    """A center-adapted chart plus its descriptor, or None when the random
    dimensions leave no room for a codimension >= 2 center."""
    chart = random_toroidal_chart(rng, **kwargs)
    z = random_descriptor(rng, chart)
    if z is None:
        return None
    adapted, _ = derive_center_form(chart, z)
    return adapted, z


def random_toric_data(rng, max_m=4, max_d=6, max_exp=4) -> ToricMorphismData:
    """Random data passing validate_toric_morphism (rank built by retry)."""
    while True:
        m = rng.randint(1, max_m)
        ell = rng.randint(1, m)
        d = rng.randint(m, max_d)
        n = rng.randint(1, max(1, d - (m - 1)))
        if n > d:
            continue
        divisor = random_positive_matrix(rng, ell, n, max_exp)
        matrix = tuple(
            tuple(list(divisor[i]) + [rng.randint(-max_exp, max_exp)
                                      for _ in range(d - n)])
            if i < ell else
            tuple([0] * n + [rng.randint(-max_exp, max_exp)
                             for _ in range(d - n)])
            for i in range(m))
        data = ToricMorphismData(LocalModelDims(d, n), LocalModelDims(m, ell),
                                 matrix)
        if validate_toric_morphism(data).ok:
            return data


def permissible_center_for(adapted):
    """The policy's center for an adapted chart, or None when it is principal."""
    from toroidal.principalize import POLICY, nonprincipal_locus

    residual = nonprincipal_locus(adapted)
    return None if residual is None else POLICY.select(adapted, residual)


def blowup_triples(rng, count, **kwargs):
    """(adapted chart, descriptor, permissible center, choice, child chart)."""
    from toroidal.blowup import enumerate_blowup_strata

    produced = 0
    while produced < count:
        pair = random_adapted_chart(rng, **kwargs)
        if pair is None:
            continue
        adapted, z = pair
        center = permissible_center_for(adapted)
        if center is None:
            continue
        for choice, child in enumerate_blowup_strata(adapted, center, f"t{produced}"):
            yield adapted, z, center, choice, child
            produced += 1
            if produced >= count:
                break
