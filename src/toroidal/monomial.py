"""Exact algebra of monomial ideals in a local chart at the origin.

Ideals are stored by their unique minimal (antichain) generating set of
exponent tuples.  The zero ideal is the empty generator set; the unit
ideal is generated by the all-zeros exponent.  Everything is integer
arithmetic on tuples, so values are hashable and order-independent.

Every exponent is checked once, where it enters: by the constructor,
`minimal_generators` and the monomial arguments of the operations.  The
constructor also requires the generators as their sorted antichain.  An
ideal built from checked exponents (a chart's pullback, a colon or a
product) goes through `MonomialIdeal.trusted`, which checks nothing.
"""

from __future__ import annotations

from .errors import InternalCheckError, RegimeLimit
from .units import _Record, _set

Exponent = tuple[int, ...]
TRANSVERSAL_SEARCH_BOUND = 2 ** 10  # visited sets; any support of <= 10 variables fits


def _check_exponent(e: Exponent, dim: int) -> None:
    if len(e) != dim:
        raise ValueError(f"exponent length {len(e)} != ambient dimension {dim}")
    if any(x < 0 for x in e):
        raise ValueError(f"negative entry in exponent {e}")


def divides(a: Exponent, b: Exponent) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


class MonomialIdeal(_Record):
    """A monomial ideal held by its sorted antichain of generators; the
    constructor checks every exponent and the antichain."""

    # `gens` is the sorted antichain.
    __slots__ = ("ambient_dim", "gens")

    def __init__(self, ambient_dim: int, gens: tuple[Exponent, ...]):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        for g in gens:
            _check_exponent(g, ambient_dim)
        if gens != _antichain(map(tuple, gens)):
            raise ValueError("generators must be given as their sorted antichain")
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "gens", gens)

    @classmethod
    def trusted(cls, ambient_dim: int, gens) -> "MonomialIdeal":
        """The ideal generated by `gens`, tuples of `ambient_dim`
        nonnegative integers built from checked exponents; they are reduced
        to the sorted antichain and not checked again."""
        return cls._of_antichain(ambient_dim, _antichain(gens))

    @classmethod
    def _of_antichain(cls, ambient_dim: int, gens: tuple) -> "MonomialIdeal":
        """The ideal whose sorted antichain of checked exponents is `gens`."""
        ideal = object.__new__(cls)
        _set(ideal, "ambient_dim", ambient_dim)
        _set(ideal, "gens", gens)
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])


def minimal_generators(gens, ambient_dim: int | None = None) -> MonomialIdeal:
    """Reduce a generator collection to the unique minimal antichain.

    A generator is dropped when another one divides it.  The empty set
    denotes the zero ideal.
    """
    gens = [tuple(g) for g in gens]
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient dimension required for an empty generator set")
        ambient_dim = len(gens[0])
    if ambient_dim < 0:
        raise ValueError("ambient dimension must be nonnegative")
    for g in gens:
        _check_exponent(g, ambient_dim)
    return MonomialIdeal.trusted(ambient_dim, gens)


def _antichain(gens) -> tuple[Exponent, ...]:
    """The generators no other one divides, sorted.  A proper divisor
    comes first in lexicographic order, so one sorted pass finds them."""
    minimal: list[Exponent] = []
    for g in sorted(set(gens)):
        if not any(divides(h, g) for h in minimal):
            minimal.append(g)
    return tuple(minimal)


def contains_monomial(ideal: MonomialIdeal, e: Exponent) -> bool:
    """Membership of the monomial x^e, i.e. some generator divides it."""
    e = tuple(e)
    _check_exponent(e, ideal.ambient_dim)
    return any(divides(g, e) for g in ideal.gens)


def gcd_generators(ideal: MonomialIdeal) -> Exponent:
    """Componentwise minimum over the generators (the monomial gcd)."""
    if ideal.is_zero:
        raise ValueError("gcd of the zero ideal is undefined")
    return tuple(min(col) for col in zip(*ideal.gens))


def principal_generator(gens) -> Exponent | None:
    """The one of `gens` that divides them all, None when there is none:
    the ideal they generate is principal exactly when their componentwise
    minimum, the gcd, is one of them.  `gens` need not be reduced."""
    f = tuple(map(min, zip(*gens)))
    return f if f in gens else None


def colon_by_monomial(ideal: MonomialIdeal, m: Exponent) -> MonomialIdeal:
    """The colon ideal I : x^m, via truncated subtraction per generator."""
    m = tuple(m)
    _check_exponent(m, ideal.ambient_dim)
    if ideal.is_zero:
        return ideal
    shifted = [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in ideal.gens]
    return MonomialIdeal.trusted(ideal.ambient_dim, shifted)


def multiply_by_monomial(ideal: MonomialIdeal, m: Exponent) -> MonomialIdeal:
    """x^m * I.  Adding m keeps lexicographic order and divisibility, so
    the products of a sorted antichain are one and are not reduced again."""
    m = tuple(m)
    _check_exponent(m, ideal.ambient_dim)
    return MonomialIdeal._of_antichain(
        ideal.ambient_dim, tuple(tuple(x + y for x, y in zip(g, m)) for g in ideal.gens))


def principal_part_factorization(ideal: MonomialIdeal) -> tuple[Exponent, MonomialIdeal]:
    """Factor I = x^F * N with F the generator gcd and N = I : x^F.

    N has all-zeros gcd, and multiplying its generators back by F
    reproduces I exactly.
    """
    if ideal.is_zero:
        raise ValueError("cannot factor the zero ideal")
    f = gcd_generators(ideal)
    n = colon_by_monomial(ideal, f)
    if multiply_by_monomial(n, f).gens != ideal.gens:
        raise InternalCheckError("principal part factorization failed to reconstruct")
    return f, n


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two monomial ideals via pairwise lcms."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.is_zero or b.is_zero:
        return MonomialIdeal(a.ambient_dim, ())
    lcms = [tuple(max(x, y) for x, y in zip(g, h)) for g in a.gens for h in b.gens]
    return minimal_generators(lcms, a.ambient_dim)


def _is_pure_power(e: Exponent) -> bool:
    return sum(1 for x in e if x) <= 1


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Write I as an irredundant intersection of pure-power ideals.

    Recursive splitting on a generator that is not a pure power:
    I = (I + x_j^{a_j}) \\cap (I + x^{a - a_j e_j}).  The result is
    post-filtered to an irredundant set and verified against the input.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("irreducible decomposition needs a nonzero proper ideal")

    components: list[MonomialIdeal] = []
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

    # Dedupe, then drop every component that contains another one.  For an
    # irreducible P, an intersection of the B_i lies in P only if some B_i
    # does, so this pairwise test leaves exactly the irredundant components.
    unique = sorted(set(components), key=lambda c: c.gens)
    unique = [p for p in unique if not any(
        b != p and all(contains_monomial(p, g) for g in b.gens) for b in unique)]

    check = unique[0]
    for comp in unique[1:]:
        check = intersect(check, comp)
    if check.gens != ideal.gens:
        raise InternalCheckError("irreducible decomposition does not intersect to the input")
    return tuple(unique)


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Supports of the generators (0/1 truncation), minimalized."""
    if ideal.is_zero:
        raise ValueError("radical of the zero ideal is undefined")
    supports = [tuple(1 if x else 0 for x in g) for g in ideal.gens]
    return minimal_generators(supports, ideal.ambient_dim)


def order_at_origin(ideal: MonomialIdeal) -> int:
    """Largest k with I inside the k-th power of the maximal ideal.

    For a monomial ideal this is the minimum total degree of a minimal
    generator; the unit ideal has order 0.
    """
    if ideal.is_zero:
        raise ValueError("order of the zero ideal is undefined")
    return min(sum(g) for g in ideal.gens)


def order_along(ideal: MonomialIdeal, subset: tuple[int, ...]) -> int:
    """Order of I at the generic point of the coordinate subspace V(x_S)."""
    return min(sum(g[j] for j in subset) for g in ideal.gens)


def minimal_transversals(gens, k: int) -> tuple[tuple[int, ...], ...]:
    """The inclusion-minimal sets S with sum_{j in S} g_j >= k for every
    generator g, sorted.  Depth-first from the empty set, S grows by each
    support variable of the first generator it misses; past
    `TRANSVERSAL_SEARCH_BOUND` distinct visited sets it raises `RegimeLimit`."""
    found, visited, stack = [], set(), [frozenset()]
    while stack:
        s = stack.pop()
        if s in visited or any(t <= s for t in found):
            continue
        visited.add(s)
        if len(visited) > TRANSVERSAL_SEARCH_BOUND:
            raise RegimeLimit(f"transversal search visited over "
                              f"{TRANSVERSAL_SEARCH_BOUND} coordinate sets")
        missed = next((g for g in gens if sum(g[j] for j in s) < k), None)
        if missed is None:
            found.append(s)
        else:
            stack.extend(s | {j} for j, x in enumerate(missed) if x and j not in s)
    return tuple(sorted(tuple(sorted(s)) for s in found
                        if not any(t < s for t in found)))


def max_order_components(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Coordinate subsets along which I has maximal order: ord_S(I) grows
    with S, so they are the minimal S reaching the order at the origin."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("maximum order locus needs a nonzero proper ideal")
    return minimal_transversals(ideal.gens, order_at_origin(ideal))
