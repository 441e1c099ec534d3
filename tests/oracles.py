"""Brute-force oracles for monomial ideal operations, plus a reference
principalization driver and reference unit-value arithmetic.

The monomial oracles work by explicit divisibility scans over all
monomials up to a degree bound, independent of the library's own
algebra, so the two sides can disagree only when one of them is wrong.
The reference driver is the plain rescanning heap-order loop whose
tree the depth-first driver in `toroidal.principalize` must build, step
record for step record and final for final.  The
reference product and power are the general `UnitValue` operations
without the fast paths the library takes for symbol-free sides and
integer exponents.  The reference blowup transform builds divisor-j0
(qtf1) and slot-j0 (qtf2) charts in two separate functions; the single
chart builder in `toroidal.blowup` must agree with both.  The reference
lift case derives the case and then, separately, its generator row; the
single helper in `toroidal.lift` must agree with it.
`exceptional_column_data` gives the exceptional exponents a blowup's
slot rows and center rows receive, which the blowup acceptance tests
check the built children against.  The reference
locus factors every pullback as an ideal; the library's locus, which
factors only a nonprincipal one, must agree with it.  The reference
maximum-order locus scans every subset of the generator support, and the
reference locus components come from the irreducible decomposition of
the radical; the one transversal search in `toroidal.monomial` must
agree with both.  The reference irreducible decomposition drops a
redundant component by intersecting all the others; the library's
pairwise containment test must leave the same components.  The
reference rank eliminates over `Fraction`s with division; the library's
fraction-free elimination must find the same rank.  The reference
column minima, shape check and commutation check walk single rows,
columns and entries; the library's forms, which decide each condition
over whole rows, must return the same (code, message) lists in the same
order.  `trace2_of` turns a
toroidal-trace/3 document back into the toroidal-trace/2 bytes by
replaying the heap order trace/3 no longer follows, and `trace1_of` turns
that into the toroidal-trace/1 bytes by rebuilding the fields trace/2
leaves out, so digests recorded under trace/1 and trace/2 still pin the
engine's output.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from toroidal.blowup import BlowupResult, enumerate_blowup_strata
from toroidal.chart import (
    QTF1,
    QTF2,
    SMOOTH,
    TOROIDAL,
    ChartForm,
    ValidityReport,
    column_minima,
    pullback_center_ideal,
    shape_key,
)
from toroidal.errors import InternalCheckError
from toroidal.lift import CASE1, CASE2, CASE3, SMOOTH_CASE, LiftResult
from toroidal.monomial import (
    _is_pure_power,
    contains_monomial,
    intersect,
    irreducible_decomposition,
    minimal_generators,
    order_at_origin,
    principal_part_factorization,
    radical,
)
from toroidal.principalize import (
    EXCEEDED,
    PRINCIPAL,
    FinalStratum,
    MaxOrderLexPolicy,
    PrincipalizationStep,
    PrincipalizationTrace,
    nonprincipal_locus,
)
from toroidal.units import UnitValue, _as_fraction


def rebuilt_chart(cf: ChartForm, **changes) -> ChartForm:
    """`cf` with the fields in `changes` replaced, built again through the
    `ChartForm` constructor, so its structure check runs on the result."""
    return ChartForm(**{**vars(cf), **changes})


@lru_cache(maxsize=None)
def monomials_up_to(dim: int, maxdeg: int) -> np.ndarray:
    """All exponent vectors in `dim` variables of total degree <= maxdeg."""
    rows = [e for e in itertools.product(range(maxdeg + 1), repeat=dim)
            if sum(e) <= maxdeg]
    return np.array(sorted(rows), dtype=np.int64)


def membership_mask(gens, monomials: np.ndarray) -> np.ndarray:
    """Boolean mask: which monomials are divisible by some generator."""
    if len(gens) == 0:
        return np.zeros(len(monomials), dtype=bool)
    g = np.array([tuple(x) for x in gens], dtype=np.int64)
    return (monomials[:, None, :] >= g[None, :, :]).all(axis=2).any(axis=1)


def oracle_colon_mask(gens, m, monomials: np.ndarray) -> np.ndarray:
    """x^e in (I : x^m) iff x^{e+m} in I."""
    shifted = monomials + np.array(m, dtype=np.int64)[None, :]
    return membership_mask(gens, shifted)


def oracle_radical_mask(gens, monomials: np.ndarray) -> np.ndarray:
    """x^e in sqrt(I) iff x^{ke} in I for some k up to the max exponent."""
    if len(gens) == 0:
        return np.zeros(len(monomials), dtype=bool)
    kmax = max(max(g) for g in gens) + 1
    mask = np.zeros(len(monomials), dtype=bool)
    for k in range(1, kmax + 1):
        mask |= membership_mask(gens, monomials * k)
    return mask


def oracle_gcd(gens) -> tuple[int, ...]:
    return tuple(min(col) for col in zip(*[tuple(g) for g in gens]))


def oracle_is_gcd(gens, f) -> bool:
    """f divides every generator and no variable can be added to it."""
    gens = [tuple(g) for g in gens]
    if not all(all(x <= y for x, y in zip(f, g)) for g in gens):
        return False
    for j in range(len(f)):
        bumped = tuple(x + 1 if i == j else x for i, x in enumerate(f))
        if all(all(x <= y for x, y in zip(bumped, g)) for g in gens):
            return False
    return True


def oracle_order(gens, dim: int, maxdeg: int) -> int:
    """Smallest total degree of a monomial in the ideal."""
    mons = monomials_up_to(dim, maxdeg)
    mask = membership_mask(gens, mons)
    degrees = mons.sum(axis=1)[mask]
    if len(degrees) == 0:
        raise ValueError("no member up to the degree bound")
    return int(degrees.min())


def reference_max_order_components(ideal) -> tuple[tuple[int, ...], ...]:
    """Scan every subset S of the generator support, keep those of largest
    order min_g sum_{j in S} g_j, and prune to the inclusion-minimal ones."""
    support = sorted({j for g in ideal.gens for j, x in enumerate(g) if x})
    best, maximizers = 0, []
    for size in range(1, len(support) + 1):
        for subset in itertools.combinations(support, size):
            val = min(sum(g[j] for j in subset) for g in ideal.gens)
            if val > best:
                best, maximizers = val, [subset]
            elif val == best and val > 0:
                maximizers.append(subset)
    return tuple(sorted(s for s in maximizers
                        if not any(set(t) < set(s) for t in maximizers)))


def reference_irreducible_decomposition(ideal) -> tuple:
    """Split on non-pure-power generators, then repeatedly drop the first
    component that contains the intersection of all the others."""
    components = []
    stack = [ideal]
    while stack:
        current = stack.pop()
        split_gen = next((g for g in current.gens if not _is_pure_power(g)), None)
        if split_gen is None:
            components.append(current)
            continue
        j = next(i for i, x in enumerate(split_gen) if x)
        pure = tuple(split_gen[j] if i == j else 0 for i in range(len(split_gen)))
        rest = tuple(0 if i == j else x for i, x in enumerate(split_gen))
        stack.append(minimal_generators(list(current.gens) + [pure], current.ambient_dim))
        stack.append(minimal_generators(list(current.gens) + [rest], current.ambient_dim))
    unique = []
    for comp in sorted(components, key=lambda c: c.gens):
        if comp not in unique:
            unique.append(comp)
    changed = True
    while changed:
        changed = False
        for k, comp in enumerate(unique):
            others = unique[:k] + unique[k + 1:]
            if not others:
                continue
            inter = others[0]
            for o in others[1:]:
                inter = intersect(inter, o)
            if all(contains_monomial(comp, g) for g in inter.gens):
                unique.pop(k)
                changed = True
                break
    return tuple(unique)


def reference_radical_components(ideal) -> tuple[tuple[int, ...], ...]:
    """The variable sets of the irreducible components of the radical."""
    return tuple(sorted(
        tuple(sorted(next(j for j, x in enumerate(g) if x) for g in comp.gens))
        for comp in irreducible_decomposition(radical(ideal))))


def rescan_principalize(strata, cap=50):
    """Reference driver: every round recomputes the locus of every live
    stratum, sorts the nonprincipal ones below the cap by (-residual
    order, family position, creation order) and blows up the first.  It
    builds the same tree as the depth-first driver, in the heap order of
    toroidal-trace/2."""
    # live entries: [stratum_id, chart, z, family_pos, created, path]
    live = [[sid, cf, z, pos, pos, ()] for pos, (sid, cf, z) in enumerate(strata)]
    counter = len(live)
    steps = []
    while True:
        working = []
        for s in live:
            residual = nonprincipal_locus(s[1])
            if residual is not None and len(s[5]) < cap:
                working.append((s, residual))
        if not working:
            break
        working.sort(key=lambda p: (-order_at_origin(p[1]), p[0][3], p[0][4]))
        target, residual = working[0]
        sid, cf, z, pos, _, path = target
        center = MaxOrderLexPolicy().select(cf, residual)
        live.remove(target)
        records = []
        for choice, child in enumerate_blowup_strata(cf, center, sid):
            flags = "".join("z" if b.is_zero else "g" for _, b in choice.betas)
            child_id = f"{sid}.e{choice.j0}{flags}"
            live.append([child_id, child, z, pos, counter, path + (sid,)])
            counter += 1
            records.append((choice, child_id))
        steps.append(PrincipalizationStep(sid, center, order_at_origin(residual),
                                          tuple(records)))
    final = []
    for sid, cf, z, _, _, path in sorted(live, key=lambda s: (s[3], s[4])):
        status = PRINCIPAL if nonprincipal_locus(cf) is None else EXCEEDED
        final.append(FinalStratum(sid, status, cf, z, path, shape_key(cf)))
    return PrincipalizationTrace(tuple(steps), tuple(final))


def reference_mul(a: UnitValue, b: UnitValue) -> UnitValue:
    """UnitValue product by merging the symbol exponents."""
    exps: dict[str, Fraction] = dict(a.symbols)
    for name, e in b.symbols:
        exps[name] = exps.get(name, Fraction(0)) + e
    syms = tuple(sorted((n, e) for n, e in exps.items() if e != 0))
    return UnitValue(a.coeff * b.coeff, syms)


def reference_pow(a: UnitValue, exp) -> UnitValue:
    """UnitValue power with the exponent and the coefficient taken as
    Fractions, so a negative power of an `int` coefficient stays exact."""
    e = _as_fraction(exp)
    if e == 0:
        return UnitValue()
    syms = tuple((n, x * e) for n, x in a.symbols)
    if e.denominator == 1:
        coeff = Fraction(a.coeff) ** e.numerator
    elif a.coeff == 1:
        coeff = Fraction(1)
    else:
        return UnitValue(Fraction(1), tuple(sorted(
            syms + ((f"rat:{a.coeff}", e),))))
    return UnitValue(coeff, syms)


def reference_rank(matrix) -> int:
    """Rank by Gaussian elimination over `Fraction`s, dividing by the pivot."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / inv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def reference_blowup_transform(cf, center, choice) -> BlowupResult:
    """Chart of the blowup of `center` picked by `choice`, built by one of
    two twin functions, one per kind of j0; the inputs are not checked."""
    div = list(center.divisor_indices)
    if choice.j0 < cf.n:
        return _ref_case1(cf, choice, div)
    return _ref_case2(cf, choice, div)


def _ref_split_by_stratum(choice, div, j0):
    betas = dict(choice.betas)
    j1 = [j for j in div if j != j0 and betas[j].is_zero]
    j2 = [j for j in div if j != j0 and not betas[j].is_zero]
    return j1, j2


def _ref_assemble(cf, new_divisor_old_vars, kept_slot_old_vars, absorbed_old_vars):
    """Dense new variable order: divisor, slots, identity, old tail, absorbed."""
    identity_rows = cf.m - cf.ell - cf.s
    active_vars = cf.n + cf.num_slots + identity_rows
    identity_old = [cf.n + cf.num_slots + r for r in range(identity_rows)]
    tail_old = [v for v in range(active_vars, cf.d)]
    order = (list(new_divisor_old_vars) + list(kept_slot_old_vars)
             + identity_old + tail_old + list(absorbed_old_vars))
    var_map = [0] * cf.d
    for new, old in enumerate(order):
        var_map[old] = new
    return tuple(var_map)


def _ref_case1(cf, choice, div):
    betas = dict(choice.betas)
    j0 = choice.j0
    j1, j2 = _ref_split_by_stratum(choice, div, j0)
    noncenter = [j for j in range(cf.n) if j not in set(div)]
    new_div = [j0] + j1 + noncenter
    kept_slots = [cf.n + t for t in range(cf.s)]
    var_map = _ref_assemble(cf, new_div, kept_slots, j2)

    matrix = []
    for i in range(len(cf.matrix)):
        exc = sum(cf.matrix[i][j] for j in div) + (1 if i >= cf.ell else 0)
        matrix.append(tuple([exc] + [cf.matrix[i][j] for j in new_div[1:]]))

    units = []
    for i, unit in enumerate(cf.units):
        u = unit.remap_vars({old: var_map[old] for old in range(cf.d)})
        for j in j2:
            u = u.with_factor(var_map[j], betas[j].unit_value(), cf.matrix[i][j])
        units.append(u)

    chart = ChartForm(
        d=cf.d, m=cf.m, n=len(new_div), ell=cf.ell, s=cf.s, tag=QTF1,
        matrix=tuple(matrix), units=tuple(units),
        betas=tuple(betas[cf.n + t] for t in range(cf.s)), ell_bar=cf.ell_bar)
    return BlowupResult(chart, var_map, tuple(range(len(cf.matrix))))


def _ref_case2(cf, choice, div):
    betas = dict(choice.betas)
    t0 = choice.j0 - cf.n
    j1, j2 = _ref_split_by_stratum(choice, div, choice.j0)
    noncenter = [j for j in range(cf.n) if j not in set(div)]
    new_div = j1 + noncenter + [choice.j0]
    kept_slots = [cf.n + t for t in range(cf.s) if t != t0]
    var_map = _ref_assemble(cf, new_div, kept_slots, j2)

    row_order = (list(range(cf.ell)) + [cf.ell + t0]
                 + [cf.ell + t for t in range(cf.s) if t != t0])
    matrix = []
    units = []
    for i in row_order:
        exc = sum(cf.matrix[i][j] for j in div) + (1 if i >= cf.ell else 0)
        matrix.append(tuple([cf.matrix[i][j] for j in new_div[:-1]] + [exc]))
        u = cf.units[i].remap_vars({old: var_map[old] for old in range(cf.d)})
        for j in j2:
            u = u.with_factor(var_map[j], betas[j].unit_value(), cf.matrix[i][j])
        units.append(u)

    chart = ChartForm(
        d=cf.d, m=cf.m, n=len(new_div), ell=cf.ell, s=cf.s, tag=QTF2,
        matrix=tuple(matrix), units=tuple(units),
        betas=(None,) + tuple(betas[cf.n + t] for t in range(cf.s) if t != t0),
        ell_bar=cf.ell_bar)
    return BlowupResult(chart, var_map, tuple(row_order))


def exceptional_column_data(cf, center):
    """Exceptional exponents a case-1 blowup of `center` produces: the
    common slot value 1 + the sum of the center's column minima, and each
    center row's sum over the center's divisor columns."""
    div = center.divisor_indices
    mins = column_minima(cf)
    slot_value = 1 + sum(mins[j] for j in div)
    row_sums = [sum(cf.matrix[i][j] for j in div) for i in range(cf.ell_bar)]
    return slot_value, row_sums


def reference_locus(cf):
    """The pullback's (principal part, residual), factored as an ideal
    whatever the shape: the reduced pullback ideal through the library's
    factorization, with no principality test first."""
    return principal_part_factorization(pullback_center_ideal(cf))


def reference_lift_case(cf):
    """(case, generator row) of the lift of a principal stratum: the case
    from the chart's adaptedness, tag, betas and column minima, then the
    generator row derived again from the case."""
    if cf.tag not in (QTF1, QTF2):
        raise ValueError("lift needs a center-adapted chart")
    if len(pullback_center_ideal(cf).gens) != 1:
        raise ValueError("pullback of the center is not principal")
    mins = column_minima(cf)
    if cf.ell == 0:
        case = SMOOTH_CASE
    elif cf.tag == QTF2:
        case = CASE3
    elif any(b is not None and not b.is_zero for b in cf.betas):
        case = CASE2
    elif any(cf.matrix[i] == mins for i in range(cf.ell_bar)):
        case = CASE1
    else:
        raise InternalCheckError("principal qtf1 chart matches no lift case")
    if cf.ell_bar == 0 or case == CASE3:
        return case, cf.ell
    if case == CASE1:
        return case, next(i for i in range(cf.ell_bar) if cf.matrix[i] == mins)
    t_w = next(t for t in range(cf.s)
               if cf.betas[t] is not None and not cf.betas[t].is_zero)
    return case, cf.ell + t_w


def _reference_min_row_indices(cf: ChartForm) -> list[int]:
    """Rows of the permissible set I = [ell_bar] + slot rows."""
    return list(range(cf.ell_bar)) + list(range(cf.ell, cf.ell + cf.s))


def reference_column_minima(cf: ChartForm) -> tuple[int, ...]:
    """Columnwise minimum over the permissible row set I."""
    rows = _reference_min_row_indices(cf)
    if not rows:
        return (0,) * cf.n
    return tuple(map(min, zip(*(cf.matrix[i] for i in rows))))


def reference_shape_failures(cf: ChartForm, tag: str) -> list[tuple[str, str]]:
    """The shape conditions of `tag` that a structurally sound chart
    fails; empty when they hold.  TOROIDAL is read on charts with s = 0.
    Column and row sums run over the divisor rows (qtf2: and its first
    slot row), and every slot row must lie on the column minima."""
    if tag == SMOOTH:
        return []
    failures = []
    if tag == TOROIDAL:
        if cf.ell and cf.n == 0:
            failures.append(("shape", "divisor image needs divisor variables"))
        rows, over = cf.ell, ""
    else:
        rows = cf.ell + 1 if tag == QTF2 else cf.ell
        over = f" over rows [{rows}]"
    top = cf.matrix[:rows]
    for j, total in enumerate(map(sum, zip(*top)) if top else (0,) * cf.n):
        if total <= 0:
            failures.append(("column", f"column {j} has zero sum{over}"))
    for i, row in enumerate(top):
        if sum(row) <= 0:
            failures.append(("row", f"row {i} has zero sum"))
    if cf.s:
        mins = reference_column_minima(cf)
        for t in range(cf.s):
            row = cf.matrix[cf.ell + t]
            for j in range(cf.n):
                if row[j] != mins[j]:
                    failures.append(("min-row",
                                     f"slot row {t} column {j}: {row[j]} != min {mins[j]}"))
    if tag == QTF1 and cf.ell == 0 and cf.n > 0:
        failures.append(("shape", "an ell=0 chart cannot carry divisor columns"))
    return failures


def reference_verify_commutes(cf: ChartForm, result: LiftResult) -> ValidityReport:
    """Substitute the target blowup equations into the lifted form and
    compare, row by row and constant by constant, with the original chart.
    The blowup coordinate y'_i of row i is the lifted row or the fresh
    parameter whose source is i, exactly one of them.  Exponents span the
    divisor and slot columns: a zero-stratum slot row and its fresh
    parameter carry its slot variable, and a fresh parameter has no other
    monomial unless it is the outside-divisor generator.  The center rows
    are the chart's first `ell_bar` rows and its slot rows: row g recomposes
    to y'_g, any other center row to y'_g * y'_i, any other row to y'_i."""
    sk, lifted, g = result.skeleton, result.lifted, result.skeleton.gen_row
    failures: list[tuple[str, str]] = []
    images: dict[int, tuple] = {}
    # Slot-column exponents: zero but for a zero-stratum slot row's variable.
    pad = (0,) * cf.num_slots
    slot_pads = {cf.ell + t: pad[:k] + (1,) + pad[k + 1:]
                 for t, beta in enumerate(cf.betas) if beta is not None and beta.is_zero
                 for k in (cf.slot_var(t) - cf.n,)}

    def cover(i, vec, const, param=None):
        if i in images:
            failures.append(("coverage", f"row {i} is covered twice"))
        images[i] = vec, const, param

    for (_, i), row, unit in zip(sk.row_sources, lifted.matrix, lifted.units):
        if sk.drop_col is not None:
            row = row[:sk.drop_col] + (0,) + row[sk.drop_col:]
        cover(i, row + pad, unit.constant())
    for p in result.fresh:
        i = p.source[1]
        vec = tuple(int(i == g and j == sk.drop_col) for j in range(cf.n))
        cover(i, vec + slot_pads.get(i, pad), p.scale, p)

    if g not in images:
        return ValidityReport(tuple(failures) + (
            ("coverage", f"generator row {g} is unaccounted for"),))
    gen_vec, gen_const, _ = images[g]
    for i in range(len(cf.matrix)):
        if i not in images:
            failures.append(("coverage", f"row {i} of the input chart is unaccounted for"))
            continue
        vec, const, p = images[i]
        beta = cf.betas[i - cf.ell] if i >= cf.ell else None
        beta = None if beta is None or beta.is_zero else beta.unit_value()
        expected = cf.units[i].constant()
        if i == g:
            if beta is not None:
                expected = expected * beta
        elif i < cf.ell_bar or i >= cf.ell:
            vec = tuple(x + y for x, y in zip(gen_vec, vec))
            const = gen_const * const
            if p is not None:
                shift = (p.scale * beta if beta is not None
                         else None if i >= cf.ell else p.scale)
                if p.shift != shift:
                    failures.append(("constant", f"row {i} fresh parameter shift mismatch"))
        if vec != cf.matrix[i] + slot_pads.get(i, pad):
            failures.append(("exponent", f"row {i} does not recompose"))
        if const != expected:
            failures.append(("constant", f"row {i} constant does not recompose"))
    return ValidityReport(tuple(failures))


def target1_of(rec: dict) -> dict:
    """The `target` block a toroidal-trace/1 lift record carried, rebuilt
    from the record document: ratio zero on each strict row, each fresh
    parameter's shift on its row."""
    values = [(i, None) for kind, i in rec["row_sources"] if kind == "strict"]
    values += [(p["source"][1], p["shift"]) for p in rec["fresh"]
               if p["source"][1] != rec["gen_row"]]
    return {
        "denominator_row": rec["gen_row"],
        "ell1": len(rec["row_sources"]),
        "exceptional_in_divisor": rec["drop_col"] is None,
        "values": [[row, v] for row, v in sorted(values, key=lambda rv: rv[0])],
    }


def record1_of(rec: dict) -> dict:
    """A toroidal-trace/2 lift record with the fields trace/1 also wrote."""
    return {**rec, "target": target1_of(rec),
            "t_nonzero": sum(kind in ("gen", "strict") for kind, _ in rec["row_sources"])}


def trace1_of(doc: dict) -> dict:
    """The toroidal-trace/1 document (engine 0.1.0) for a toroidal-trace/2
    one: every lift record and the verdicts get back the fields trace/2
    derives instead of writing."""
    steps = [{**step, "charts": {
        chart_id: {**chart_doc, "lifts": [{**lift, "record": record1_of(lift["record"])}
                                         for lift in chart_doc["lifts"]]}
        for chart_id, chart_doc in step["charts"].items()}} for step in doc["steps"]]
    verdicts = doc["verdicts"]
    return {**doc, "schema": "toroidal-trace/1", "engine": "0.1.0", "steps": steps,
            "verdicts": {**verdicts,
                         "resolution_script": True,
                         "all_strata_toroidal": not verdicts["cap_exceeded"],
                         "global_toroidal": verdicts["global_failures"] == []}}


def principalization2_of(doc: dict, roots: list[str]) -> tuple[dict, list[str]]:
    """The toroidal-trace/2 principalization record for a toroidal-trace/3
    one over the family `roots`, and its finals' ids in trace/2 order.

    Trace/2 blew up the stratum first in (-residual order, family
    position, creation order) and wrote the number of strata waiting as
    `nonprincipal_count`; a stratum with a step record is one that
    waited, any other is a final.  Trace/2 listed the finals by family
    position, then creation order."""
    steps = {step["stratum"]: step for step in doc["steps"]}
    heap, done, created = [], [], 0

    def admit(sid, pos):
        nonlocal created
        created += 1
        if sid in steps:
            heapq.heappush(heap, (-steps[sid]["residual_order"], pos, created, sid))
        else:
            done.append((pos, sid))

    for pos, sid in enumerate(roots):
        admit(sid, pos)
    steps2 = []
    while heap:
        count = len(heap)
        _, pos, _, sid = heapq.heappop(heap)
        for child in steps[sid]["children"]:
            admit(child["id"], pos)
        steps2.append({**steps[sid], "nonprincipal_count": count})
    order = [sid for _, sid in sorted(done, key=lambda ps: ps[0])]
    finals = {f["id"]: f for f in doc["final"]}
    return {"steps": steps2, "final": [finals[sid] for sid in order]}, order


def trace2_of(doc: dict, atlas_doc: dict) -> dict:
    """The toroidal-trace/2 document (engine 0.2.0) for a toroidal-trace/3
    one run on `atlas_doc`.  Each chart's strata are followed in trace/2
    order from step to step: that order sets the adapted records (and so
    the family positions), the principalization record, the lifts, and
    the strata each step leaves to the next and to `final_atlas`."""
    order = {chart["id"]: [f"{chart['id']}/{s['id']}" for s in chart.get("strata", [])]
             for chart in atlas_doc["charts"]}
    steps = []
    for step in doc["steps"]:
        charts = {}
        for chart_id, chart_doc in step["charts"].items():
            adapted = {a["stratum"]: a for a in chart_doc["adapted"]}
            if not adapted:
                charts[chart_id] = chart_doc
                continue
            roots = [sid for sid in order[chart_id] if sid in adapted]
            principalization, finals = principalization2_of(
                chart_doc["principalization"], roots)
            lifts = {lift["stratum"]: lift for lift in chart_doc["lifts"]}
            charts[chart_id] = {
                **chart_doc, "principalization": principalization,
                "adapted": [adapted[sid] for sid in roots],
                "lifts": [lifts[sid] for sid in finals if sid in lifts]}
            order[chart_id] = [sid for sid in order[chart_id] if sid not in adapted] + [
                lifts[sid]["lifted_id"] if sid in lifts else sid for sid in finals]
        steps.append({**step, "charts": charts})
    final_atlas = doc["final_atlas"]
    charts = []
    for chart in final_atlas["charts"]:
        strata = {s["id"]: s for s in chart["strata"]}
        charts.append({**chart, "strata": [strata[sid] for sid in order[chart["id"]]]})
    return {**doc, "schema": "toroidal-trace/2", "engine": "0.2.0", "steps": steps,
            "final_atlas": {**final_atlas, "charts": charts}}
