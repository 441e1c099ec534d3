"""Brute-force oracles for monomial ideal operations, plus a reference
principalization driver and reference unit-value arithmetic.

The monomial oracles work by explicit divisibility scans over all
monomials up to a degree bound, independent of the library's own
algebra, so the two sides can disagree only when one of them is wrong.
The reference driver is the plain rescanning loop the incremental
driver in `toroidal.principalize` must agree with step for step.  The
reference product and power are the general `UnitValue` operations
without the fast paths the library takes for symbol-free sides and
integer exponents.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from toroidal.blowup import enumerate_blowup_strata
from toroidal.monomial import order_at_origin
from toroidal.principalize import (
    EXCEEDED,
    PRINCIPAL,
    POLICIES,
    FinalStratum,
    PrincipalizationStep,
    PrincipalizationTrace,
    nonprincipal_locus,
)
from toroidal.units import UnitValue, _as_fraction


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


def rescan_principalize(strata, cap=50, policy=POLICIES["max-order-lex"]):
    """Reference driver: every round recomputes the locus of every live
    stratum, sorts the nonprincipal ones below the cap by (-residual
    order, family position, creation order) and blows up the first."""
    # live entries: [stratum_id, chart, z, family_pos, created, path]
    live = [[sid, cf, z, pos, pos, ()] for pos, (sid, cf, z) in enumerate(strata)]
    counter = len(live)
    steps = []
    while True:
        working = []
        for s in live:
            locus = nonprincipal_locus(s[1], s[2])
            if not locus.is_principal and len(s[5]) < cap:
                working.append((s, locus))
        if not working:
            break
        working.sort(key=lambda p: (-order_at_origin(p[1].residual), p[0][3], p[0][4]))
        target, locus = working[0]
        sid, cf, z, pos, _, path = target
        center = policy.select(cf, z, locus.residual)
        live.remove(target)
        records = []
        for choice, result in enumerate_blowup_strata(cf, center, symbol_prefix=sid):
            flags = "".join("z" if b.is_zero else "g" for _, b in choice.betas)
            child_id = f"{sid}.e{choice.j0}{flags}"
            live.append([child_id, result.chart, z, pos, counter, path + (sid,)])
            counter += 1
            records.append((choice, child_id))
        steps.append(PrincipalizationStep(sid, center, order_at_origin(locus.residual),
                                          len(working), tuple(records)))
    final = []
    for sid, cf, z, _, _, path in sorted(live, key=lambda s: (s[3], s[4])):
        status = PRINCIPAL if nonprincipal_locus(cf, z).is_principal else EXCEEDED
        final.append(FinalStratum(sid, status, cf, z, path))
    return PrincipalizationTrace(tuple(steps), tuple(final))


def reference_mul(a: UnitValue, b: UnitValue) -> UnitValue:
    """UnitValue product by merging the symbol exponents."""
    exps: dict[str, Fraction] = dict(a.symbols)
    for name, e in b.symbols:
        exps[name] = exps.get(name, Fraction(0)) + e
    syms = tuple(sorted((n, e) for n, e in exps.items() if e != 0))
    return UnitValue(a.coeff * b.coeff, syms)


def reference_pow(a: UnitValue, exp) -> UnitValue:
    """UnitValue power with the exponent taken as a Fraction."""
    e = _as_fraction(exp)
    if e == 0:
        return UnitValue()
    syms = tuple((n, x * e) for n, x in a.symbols)
    if e.denominator == 1:
        coeff = a.coeff ** e.numerator
    elif a.coeff == 1:
        coeff = Fraction(1)
    else:
        return UnitValue(Fraction(1), tuple(sorted(
            syms + ((f"rat:{a.coeff}", e),))))
    return UnitValue(coeff, syms)
