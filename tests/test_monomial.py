import random

import pytest

from toroidal.monomial import (
    MonomialIdeal,
    colon_by_monomial,
    contains_monomial,
    gcd_generators,
    intersect,
    irreducible_decomposition,
    max_order_components,
    minimal_generators,
    minimal_transversals,
    multiply_by_monomial,
    order_at_origin,
    principal_part_factorization,
    radical,
)
from toroidal.errors import RegimeLimit
from oracles import (
    membership_mask,
    monomials_up_to,
    oracle_colon_mask,
    oracle_is_gcd,
    oracle_order,
    oracle_radical_mask,
    reference_irreducible_decomposition,
    reference_max_order_components,
    reference_radical_components,
)


def ideal(*gens, dim=None):
    return minimal_generators(list(gens), dim)


def random_ideal(rng, dim, max_exp=5, max_gens=6):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(dim))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)] or [tuple([1] + [0] * (dim - 1))]
    return minimal_generators(gens, dim)


class TestMinimalGenerators:
    def test_divisibility_reduction(self):
        assert ideal((2, 1), (1, 0), (3, 3)).gens == ((1, 0),)

    def test_empty_is_zero_ideal(self):
        assert minimal_generators([], 2).is_zero

    def test_all_zeros_is_unit(self):
        assert ideal((0, 0)).is_unit

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            minimal_generators([(1, 0), (1, 0, 0)])

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            i = random_ideal(rng, rng.randint(1, 4))
            assert minimal_generators(i.gens, i.ambient_dim) == i


class TestConstructor:
    @pytest.mark.parametrize("gens", [
        ((1, 1), (0, 1)),  # (0, 1) divides (1, 1)
        ((1, 0), (0, 1)),  # an antichain, unsorted
        ((0, 1), (0, 1)),
        [(0, 1), (1, 0)],
    ])
    def test_non_canonical_generators_rejected(self, gens):
        with pytest.raises(ValueError, match="sorted antichain"):
            MonomialIdeal(2, gens)

    def test_canonical_generators_accepted(self):
        reduced = ideal((1, 1), (0, 1), (2, 0))
        assert MonomialIdeal(2, reduced.gens) == reduced
        assert MonomialIdeal(2, ()).is_zero


class TestContainsMonomial:
    def test_divisible(self):
        assert contains_monomial(ideal((1, 1)), (2, 3))

    def test_not_divisible(self):
        assert not contains_monomial(ideal((2, 0), (0, 2)), (1, 1))

    def test_unit_contains_one(self):
        assert contains_monomial(ideal((0, 0)), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contains_monomial(ideal((1, 1)), (1, 1, 1))


class TestGcd:
    def test_componentwise_min(self):
        assert gcd_generators(ideal((2, 3), (3, 2))) == (2, 2)

    def test_single_generator(self):
        assert gcd_generators(ideal((4, 1))) == (4, 1)

    def test_coprime_generators(self):
        assert gcd_generators(ideal((2, 1, 0), (0, 0, 1))) == (0, 0, 0)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            gcd_generators(minimal_generators([], 2))


class TestColon:
    def test_example(self):
        assert colon_by_monomial(ideal((2, 1), (0, 3)), (1, 1)).gens == ((0, 2), (1, 0))

    def test_colon_by_unit(self):
        i = ideal((2, 1), (0, 3))
        assert colon_by_monomial(i, (0, 0)) == i

    def test_generator_divides_divisor(self):
        assert colon_by_monomial(ideal((1, 0)), (2, 0)).is_unit

    def test_against_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            dim = rng.randint(1, 4)
            i = random_ideal(rng, dim)
            m = tuple(rng.randint(0, 3) for _ in range(dim))
            mons = monomials_up_to(dim, 10)
            got = membership_mask(colon_by_monomial(i, m).gens, mons)
            want = oracle_colon_mask(i.gens, m, mons)
            assert (got == want).all()


class TestMultiply:
    def test_example(self):
        assert multiply_by_monomial(ideal((2, 1), (0, 3)), (1, 0)).gens == \
            ((1, 3), (3, 1))

    def test_matches_reduced_products(self):
        rng = random.Random(41)
        for _ in range(300):
            dim = rng.randint(1, 5)
            i = random_ideal(rng, dim)
            m = tuple(rng.randint(0, 3) for _ in range(dim))
            want = minimal_generators([tuple(x + y for x, y in zip(g, m)) for g in i.gens],
                                      dim)
            assert multiply_by_monomial(i, m) == want

    def test_zero_ideal(self):
        assert multiply_by_monomial(minimal_generators([], 2), (1, 1)).is_zero


class TestFactorization:
    def test_example(self):
        f, n = principal_part_factorization(ideal((2, 1), (1, 3)))
        assert f == (1, 1)
        assert n.gens == ((0, 2), (1, 0))

    def test_principal(self):
        f, n = principal_part_factorization(ideal((3, 2)))
        assert f == (3, 2) and n.is_unit

    def test_coprime(self):
        i = ideal((2, 1, 0), (0, 0, 1))
        f, n = principal_part_factorization(i)
        assert f == (0, 0, 0) and n == i

    def test_reconstruction_and_residual_gcd(self):
        rng = random.Random(37)
        for _ in range(200):
            i = random_ideal(rng, rng.randint(1, 4))
            f, n = principal_part_factorization(i)
            assert multiply_by_monomial(n, f) == i
            assert oracle_is_gcd(i.gens, f)
            if not n.is_unit:
                assert gcd_generators(n) == (0,) * i.ambient_dim


class TestDecomposition:
    def test_example(self):
        comps = irreducible_decomposition(ideal((2, 0), (1, 1)))
        assert {c.gens for c in comps} == {((1, 0),), ((0, 1), (2, 0))}

    def test_already_irreducible(self):
        comps = irreducible_decomposition(ideal((1, 0), (0, 1)))
        assert len(comps) == 1 and comps[0].gens == ((0, 1), (1, 0))

    def test_squarefree_split(self):
        comps = irreducible_decomposition(ideal((1, 1)))
        assert {c.gens for c in comps} == {((1, 0),), ((0, 1),)}

    def test_soundness_and_irredundancy(self):
        rng = random.Random(41)
        for _ in range(80):
            i = random_ideal(rng, rng.randint(1, 4))
            if i.is_unit:
                continue
            comps = irreducible_decomposition(i)
            inter = comps[0]
            for c in comps[1:]:
                inter = intersect(inter, c)
            assert inter == i
            for k in range(len(comps)):
                others = [c for j, c in enumerate(comps) if j != k]
                if not others:
                    continue
                rest = others[0]
                for c in others[1:]:
                    rest = intersect(rest, c)
                assert rest != i

    def test_matches_reference_decomposition(self):
        # Radicals up to d = 8; general ideals stay at d <= 4, where the
        # reference's intersections of all other components stay cheap.
        rng = random.Random(7007)
        for _ in range(300):
            i = radical(random_ideal(rng, rng.randint(1, 8), max_exp=rng.randint(1, 4)))
            assert irreducible_decomposition(i) == reference_irreducible_decomposition(i)
            i = random_ideal(rng, rng.randint(1, 4), max_exp=3, max_gens=4)
            assert irreducible_decomposition(i) == reference_irreducible_decomposition(i)


class TestRadical:
    def test_support_truncation(self):
        assert radical(ideal((2, 0), (1, 1))).gens == ((1, 0),)

    def test_squarefree_fixed(self):
        i = ideal((1, 0), (0, 1))
        assert radical(i) == i

    def test_principal_power(self):
        assert radical(ideal((0, 3))).gens == ((0, 1),)

    def test_against_oracle(self):
        rng = random.Random(53)
        for _ in range(60):
            dim = rng.randint(1, 4)
            i = random_ideal(rng, dim)
            mons = monomials_up_to(dim, 8)
            got = membership_mask(radical(i).gens, mons)
            want = oracle_radical_mask(i.gens, mons)
            assert (got == want).all()


class TestOrder:
    def test_example(self):
        assert order_at_origin(ideal((2, 1), (0, 3))) == 3

    def test_principal(self):
        assert order_at_origin(ideal((1, 0))) == 1

    def test_unit(self):
        assert order_at_origin(ideal((0, 0))) == 0

    def test_against_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            dim = rng.randint(1, 4)
            i = random_ideal(rng, dim, max_exp=4)
            assert order_at_origin(i) == oracle_order(i.gens, dim, 16)


class TestMaxOrderComponents:
    def test_origin(self):
        assert max_order_components(ideal((1, 0), (0, 2))) == ((0, 1),)

    def test_principal_support(self):
        assert max_order_components(ideal((1, 0))) == ((0,),)

    def test_doubled(self):
        assert max_order_components(ideal((2, 0), (0, 2))) == ((0, 1),)

    def test_three_pure_squares(self):
        i = ideal((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert max_order_components(i) == ((0, 1, 2),)

    def test_no_support_cap(self):
        # <x1...x6, y1...y6, z1...z6, w1...w6>: 24 support variables, one
        # maximum-order component; its 6^4 minimal vertex covers exceed the
        # search bound.
        gens = [tuple(1 if 6 * b <= j < 6 * b + 6 else 0 for j in range(24))
                for b in range(4)]
        i = minimal_generators(gens, 24)
        assert max_order_components(i) == (tuple(range(24)),)
        with pytest.raises(RegimeLimit):
            minimal_transversals(i.gens, 1)


class TestMinimalTransversals:
    def test_nonminimal_find_is_pruned(self):
        # The search reaches {0, 1} before {0}.
        assert minimal_transversals([(1, 1, 0), (1, 0, 1)], 1) == ((0,), (1, 2))

    def test_unreachable_order_has_none(self):
        assert minimal_transversals([(1, 1), (2, 0)], 3) == ()

    def test_max_order_against_scan(self):
        rng = random.Random(6006)
        for _ in range(3000):
            i = random_ideal(rng, rng.randint(1, 8), max_exp=rng.randint(1, 4))
            assert max_order_components(i) == reference_max_order_components(i)

    def test_vertex_covers_against_radical_decomposition(self):
        # d <= 6: at d <= 8 the reference decomposition alone takes ~20 s.
        rng = random.Random(6007)
        for _ in range(3000):
            i = random_ideal(rng, rng.randint(1, 6), max_exp=rng.randint(1, 4))
            assert minimal_transversals(i.gens, 1) == reference_radical_components(i)
