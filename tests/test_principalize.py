import random
from collections import Counter
from fractions import Fraction

import pytest

from toroidal import blowup, lift, monomial, principalize
from toroidal.chart import (
    CenterDescriptor,
    ChartForm,
    classify_form,
    derive_center_form,
    shape_key,
)
from toroidal.lift import (
    CASE1,
    CASE2,
    CASE3,
    lift_after_principalization,
    lift_case,
    lift_skeleton,
)
from toroidal.monomial import max_order_components, minimal_generators
from toroidal.principalize import (
    EXCEEDED,
    PRINCIPAL,
    MaxOrderLexPolicy,
    NoPermissibleCenter,
    nonprincipal_locus,
    principalize_chart_family,
)
from toroidal.units import Stratum, UnitToken, UnitValue
from generators import random_adapted_chart
from oracles import rebuilt_chart, reference_lift_case, reference_locus, rescan_principalize
from test_blowup import adapted

Z22 = CenterDescriptor(2, 2, (0, 1))


class TestNonprincipalLocus:
    def test_origin_center(self):
        cf = adapted([[1, 0], [0, 1]], ell_bar=2, s=0)
        residual = nonprincipal_locus(cf)
        assert reference_locus(cf) == ((0, 0), residual)
        assert residual.gens == ((0, 1), (1, 0))
        assert max_order_components(residual) == ((0, 1),)

    def test_factor_then_decompose(self):
        cf = adapted([[2, 1], [1, 3]], ell_bar=2, s=0)
        residual = nonprincipal_locus(cf)
        assert reference_locus(cf) == ((1, 1), residual)
        assert residual.gens == ((0, 2), (1, 0))
        assert max_order_components(residual) == ((0, 1),)

    def test_principal_pullback(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        assert nonprincipal_locus(cf) is None

    @staticmethod
    def record_created(monkeypatch, created):
        """Append every chart `principalize_chart_family` blows up into to `created`."""
        real_enumerate = principalize.enumerate_blowup_strata

        def recording(cf, center, symbol_prefix):
            out = real_enumerate(cf, center, symbol_prefix)
            created.extend(child for _, child in out)
            return out

        monkeypatch.setattr(principalize, "enumerate_blowup_strata", recording)

    def test_matches_reference_locus(self, monkeypatch):
        created, verdicts = [], Counter()
        self.record_created(monkeypatch, created)
        for family in random_families(350, 25):
            created.extend(cf for _, cf, _ in family)
            principalize_chart_family(family, cap=50)
        for cf in created:
            residual = nonprincipal_locus(cf)
            _, expected = reference_locus(cf)
            assert residual == (None if expected.is_unit else expected), cf
            verdicts[residual is None] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0, verdicts

    def test_factored_once_per_nonprincipal_shape(self, monkeypatch):
        created, factored = [], []
        real_factor = principalize.principal_part_factorization

        def factoring(ideal):
            factored.append(ideal)
            return real_factor(ideal)

        monkeypatch.setattr(principalize, "principal_part_factorization", factoring)
        self.record_created(monkeypatch, created)
        total = 0
        for cap in (2, 50):
            for family in random_families(360 + cap, 15):
                created[:] = [cf for _, cf, _ in family]
                factored.clear()
                principalize_chart_family(family, cap=cap)
                nonprincipal = {shape_key(cf) for cf in created
                                if not reference_locus(cf)[1].is_unit}
                assert len(factored) == len(nonprincipal)
                assert all(len(ideal.gens) > 1 for ideal in factored)
                total += len(factored)
        assert total > 0


class TestSelectCenter:
    def test_max_order_then_codim_then_lex(self):
        policy = MaxOrderLexPolicy()
        cf = adapted([[1, 0], [0, 2]], ell_bar=2, s=0)
        center = policy.select(cf, nonprincipal_locus(cf))
        assert center.divisor_indices == (0, 1) and center.slot_count == 0

    def test_three_squares(self):
        residual = minimal_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3)
        cf = adapted([[2, 0, 0], [0, 2, 0], [0, 0, 2]], ell_bar=3, s=0, m=3)
        center = MaxOrderLexPolicy().select(cf, residual)
        assert center.divisor_indices == (0, 1, 2)


class TestDriver:
    def test_identity_family_one_step(self):
        cf = adapted([[1, 0], [0, 1]], ell_bar=2, s=0)
        trace = principalize_chart_family([("x0", cf, Z22)])
        assert len(trace.steps) == 1
        assert trace.steps[0].center.divisor_indices == (0, 1)
        assert len(trace.final) == 4
        assert all(f.status == PRINCIPAL for f in trace.final)

    def test_already_principal_gives_empty_trace(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        trace = principalize_chart_family([("x0", cf, Z22)])
        assert trace.steps == ()
        assert [f.status for f in trace.final] == [PRINCIPAL]

    def test_worked_example_step_count(self):
        # Pullback <x^2 y, x y^3>: regression-frozen at two blowups.
        cf = adapted([[2, 1], [1, 3]], ell_bar=2, s=0, d=3)
        trace = principalize_chart_family([("x0", cf, Z22)])
        assert len(trace.steps) == 2
        assert all(f.status == PRINCIPAL for f in trace.final)

    def test_cap_reported_not_raised(self):
        cf = adapted([[2, 1], [1, 3]], ell_bar=2, s=0, d=3)
        trace = principalize_chart_family([("x0", cf, Z22)], cap=1)
        assert trace.exceeded
        assert any(f.status == EXCEEDED for f in trace.final)

    def test_negative_cap_rejected(self):
        cf = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        with pytest.raises(ValueError, match="^cap must be >= 0$"):
            principalize_chart_family([("x0", cf, Z22)], cap=-3)

    def test_repeated_id_rejected(self):
        principal = adapted([[1, 0], [1, 1]], ell_bar=2, s=0)
        origin = adapted([[1, 0], [0, 1]], ell_bar=2, s=0)
        with pytest.raises(ValueError, match="^stratum x0: id repeated in the family$"):
            principalize_chart_family([("x0", principal, Z22), ("x0", origin, Z22)])
        # A blowup child may not take a root's id either.
        with pytest.raises(ValueError, match=r"^stratum x0\.e1z \(parent path x0\): id"):
            principalize_chart_family([("x0", origin, Z22), ("x0.e1z", principal, Z22)])

    def test_every_stratum_classifies(self):
        cf = adapted([[2, 1], [1, 3]], ell_bar=2, s=0, d=3)
        trace = principalize_chart_family([("x0", cf, Z22)])
        for f in trace.final:
            tag, diag = classify_form(f.chart)
            assert tag is not None, diag

    def test_nonprincipal_strata_have_zero_betas(self):
        # Only all-zero-strata charts are ever blown.
        cf = adapted([[2, 1], [0, 0]], ell_bar=1, s=1, d=4, m=3)
        z = CenterDescriptor(1, 2, (0,))
        trace = principalize_chart_family([("x0", cf, z)])
        assert all(f.status == PRINCIPAL for f in trace.final)
        for step in trace.steps:
            assert step.residual_order >= 1

    def test_random_families_terminate(self):
        rng = random.Random(211)
        done = 0
        while done < 40:
            pair = random_adapted_chart(rng, max_n=3, max_m=4, max_d=5)
            if pair is None:
                continue
            cf, z = pair
            trace = principalize_chart_family([("x0", cf, z)], cap=50)
            assert not trace.exceeded, (cf.matrix, z)
            done += 1


def random_families(seed, count):
    """Seeded families of 1-3 adapted strata with ids x0, x1, x2."""
    rng = random.Random(seed)
    for _ in range(count):
        family, size = [], rng.randint(1, 3)
        while len(family) < size:
            pair = random_adapted_chart(rng, max_n=3, max_m=4, max_d=5)
            if pair is not None:
                family.append((f"x{len(family)}", *pair))
        yield family


def preorder(family, trace):
    """The step ids and the final ids met walking each root's tree depth
    first, roots in family order and children in enumeration order."""
    steps = {s.stratum_id: s for s in trace.steps}
    step_ids, final_ids = [], []
    stack = [sid for sid, _, _ in reversed(family)]
    while stack:
        sid = stack.pop()
        if sid not in steps:
            final_ids.append(sid)
            continue
        step_ids.append(sid)
        stack.extend(child_id for _, child_id in reversed(steps[sid].children))
    return step_ids, final_ids


class TestIncrementalDriver:
    @pytest.mark.parametrize("cap", [1, 2, 3, 50])
    def test_matches_rescan_reference(self, cap):
        # The reference builds the same tree in heap order.
        exceeded = at_cap = multi = reordered = 0
        for family in random_families(100 + cap, 25):
            trace = principalize_chart_family(family, cap=cap)
            ref = rescan_principalize(family, cap=cap)
            assert {s.stratum_id: s for s in trace.steps} == {
                s.stratum_id: s for s in ref.steps}
            assert {f.stratum_id: f for f in trace.final} == {
                f.stratum_id: f for f in ref.final}
            assert preorder(family, trace) == (
                [s.stratum_id for s in trace.steps],
                [f.stratum_id for f in trace.final])
            reordered += trace != ref
            exceeded += trace.exceeded
            at_cap += any(len(f.parent_path) == cap for f in trace.final)
            multi += len({s.stratum_id.split(".")[0] for s in trace.steps}) > 1
        assert multi > 0
        assert reordered > 0 or cap == 1
        if cap < 50:
            assert exceeded > 0 and at_cap > 0

    def test_locus_computed_once_per_shape(self, monkeypatch):
        calls, created = [], []
        real_locus = principalize.nonprincipal_locus
        real_enumerate = principalize.enumerate_blowup_strata

        def counting(cf):
            calls.append(cf)
            return real_locus(cf)

        def recording(cf, center, symbol_prefix):
            out = real_enumerate(cf, center, symbol_prefix)
            created.extend(child for _, child in out)
            return out

        monkeypatch.setattr(principalize, "nonprincipal_locus", counting)
        monkeypatch.setattr(principalize, "enumerate_blowup_strata", recording)
        total_calls = total_created = 0
        for cap in (2, 50):
            for family in random_families(300 + cap, 15):
                calls.clear()
                created[:] = [cf for _, cf, _ in family]
                trace = principalize_chart_family(family, cap=cap)
                assert len(created) == len(family) + sum(
                    len(s.children) for s in trace.steps)
                assert len(calls) == len({shape_key(cf) for cf in created})
                assert len(calls) <= len(created)
                total_calls += len(calls)
                total_created += len(created)
        assert total_calls < total_created


def vary_constants(cf: ChartForm, rng) -> ChartForm:
    """The same chart shape with other unit constants and other generic
    beta symbols."""
    units = tuple(UnitToken(UnitValue.of(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                            * UnitValue.symbol(f"u{i}"))
                  for i in range(len(cf.matrix)))
    betas = tuple(Stratum.generic(f"other.{b.symbol}")
                  if b is not None and b.kind == "generic" else b
                  for b in cf.betas)
    return rebuilt_chart(cf, units=units, betas=betas)


class TestShapeKernels:
    def test_kernels_ignore_constants(self):
        rng = random.Random(613)
        seen = {"locus": 0, "center": 0, "no center": 0, "skeleton": 0,
                CASE2: 0}
        policy = MaxOrderLexPolicy()
        for family in random_families(600, 40):
            trace = principalize_chart_family(family, cap=2)
            strata = [cf for _, cf, _ in family] + [f.chart for f in trace.final]
            for cf in strata:
                other = vary_constants(cf, rng)
                assert other != cf and shape_key(other) == shape_key(cf)
                residual = nonprincipal_locus(cf)
                assert nonprincipal_locus(other) == residual
                seen["locus"] += 1
                if residual is None:
                    skeleton = lift_skeleton(cf)
                    assert lift_skeleton(other) == skeleton
                    seen["skeleton"] += 1
                    seen[CASE2] += skeleton.case == CASE2
                    continue
                try:
                    center = policy.select(cf, residual)
                except NoPermissibleCenter:
                    with pytest.raises(NoPermissibleCenter):
                        policy.select(other, residual)
                    seen["no center"] += 1
                    continue
                assert policy.select(other, residual) == center
                seen["center"] += 1
        assert all(seen[k] for k in ("locus", "center", "skeleton", CASE2)), seen

    def test_memoized_lifts_equal_fresh_lifts(self):
        lifts = skeletons_built = 0
        for family in random_families(700, 100):
            trace = principalize_chart_family(family, cap=50)
            skeletons: dict = {}
            for final in trace.final:
                if final.status != PRINCIPAL:
                    continue
                memoized = lift_after_principalization(final.chart, skeletons)
                assert memoized == lift_after_principalization(final.chart)
                lifts += 1
            skeletons_built += len(skeletons)
        assert skeletons_built < lifts


def principal_finals(seed, count):
    for family in random_families(seed, count):
        trace = principalize_chart_family(family, cap=50)
        yield trace, [f for f in trace.final if f.status == PRINCIPAL]


def one_chart_two_descriptors():
    """Two roots that adapt to one chart under unequal descriptors: the
    chart ((2,1),(1,2)) centered on its row 0, and its row swap centered
    on its row 1."""
    def root(matrix, z):
        cf = ChartForm(d=3, m=3, n=2, ell=2, s=0, tag="toroidal", matrix=matrix,
                       units=(UnitToken(),) * 2)
        return derive_center_form(cf, z).chart, z

    return [("x0", *root(((2, 1), (1, 2)), CenterDescriptor(1, 2, (0,)))),
            ("x1", *root(((1, 2), (2, 1)), CenterDescriptor(1, 2, (1,))))]


class TestSingleSites:
    """Each chart-level decision is made by one function, once."""

    def test_locus_keyed_by_the_chart_alone(self, monkeypatch):
        calls = []
        real_locus = principalize.nonprincipal_locus

        def locus(cf):
            calls.append(cf)
            return real_locus(cf)

        monkeypatch.setattr(principalize, "nonprincipal_locus", locus)
        (_, first, z0), (_, second, z1) = family = one_chart_two_descriptors()
        assert first == second and z0 != z1
        trace = principalize_chart_family(family)
        assert (len(trace.steps), len(trace.final)) == (6, 20)
        # Each tree blows up 3 strata and ends in 10, all of distinct shapes;
        # the second tree repeats the first, so it factors no shape anew.
        assert len(calls) == 13

    def test_adaptation_checked_per_root_before_any_blowup(self, monkeypatch):
        blowups = []
        real_enumerate = principalize.enumerate_blowup_strata

        def enumerate_strata(cf, center, symbol_prefix):
            blowups.append(symbol_prefix)
            return real_enumerate(cf, center, symbol_prefix)

        monkeypatch.setattr(principalize, "enumerate_blowup_strata", enumerate_strata)
        family = one_chart_two_descriptors()
        family[1] = family[1][:2] + (CenterDescriptor(2, 2, (0, 1)),)
        with pytest.raises(ValueError,
                           match="^stratum x1: chart is not adapted to this descriptor$"):
            principalize_chart_family(family)
        assert blowups == []

    def test_center_checked_once_per_blowup_never_in_select(self, monkeypatch):
        checks, snc, selecting = [], [], []

        def counting(record, real):
            def wrapper(cf, center):
                record.append(bool(selecting))
                return real(cf, center)
            return wrapper

        real_select = MaxOrderLexPolicy.select

        def select(policy, cf, residual):
            selecting.append(True)
            try:
                return real_select(policy, cf, residual)
            finally:
                selecting.pop()

        monkeypatch.setattr(blowup, "_check_center",
                            counting(checks, blowup._check_center))
        monkeypatch.setattr(blowup, "check_center_snc",
                            counting(snc, blowup.check_center_snc))
        monkeypatch.setattr(MaxOrderLexPolicy, "select", select)
        blowups = 0
        for family in random_families(800, 40):
            checks.clear()
            snc.clear()
            trace = principalize_chart_family(family, cap=50)
            assert len(checks) == len(snc) == len(trace.steps)
            assert not any(checks) and not any(snc)
            blowups += len(trace.steps)
        assert blowups > 0

    def test_pullback_once_per_skeleton(self, monkeypatch):
        pullbacks, skeletons = [], []
        real_pullback, real_skeleton = lift.pullback_center_generators, lift.lift_skeleton

        def pullback(cf):
            pullbacks.append(cf)
            return real_pullback(cf)

        def skeleton(cf):
            skeletons.append(cf)
            return real_skeleton(cf)

        monkeypatch.setattr(lift, "pullback_center_generators", pullback)
        monkeypatch.setattr(lift, "lift_skeleton", skeleton)
        for _, finals in principal_finals(810, 40):
            memo: dict = {}
            for final in finals:
                lift_after_principalization(final.chart, memo)
        assert len(pullbacks) == len(skeletons) > 0

    def test_one_transversal_search_per_blowup(self, monkeypatch):
        searches, in_locus = [], []
        real_search, real_locus = monomial.minimal_transversals, principalize.nonprincipal_locus

        def search(gens, k):
            searches.append(bool(in_locus))
            return real_search(gens, k)

        def locus(cf):
            in_locus.append(True)
            try:
                return real_locus(cf)
            finally:
                in_locus.pop()

        monkeypatch.setattr(monomial, "minimal_transversals", search)
        monkeypatch.setattr(principalize, "nonprincipal_locus", locus)
        blowups = 0
        for family in random_families(830, 40):
            searches.clear()
            trace = principalize_chart_family(family, cap=50)
            assert len(searches) == len(trace.steps)
            assert not any(searches)
            blowups += len(trace.steps)
        assert blowups > 0

    def test_leaves_of_one_shape_share_a_skeleton(self):
        shared = 0
        for _, finals in principal_finals(840, 40):
            memo: dict = {}
            first = {}
            for final in finals:
                result = lift_after_principalization(final.chart, memo)
                key = shape_key(final.chart)
                if key in first:
                    assert result.skeleton is first[key].skeleton
                    shared += 1
                else:
                    first[key] = result
        assert shared > 0

    def test_case_and_generator_match_reference(self):
        seen = Counter()
        for _, finals in principal_finals(820, 100):
            for final in finals:
                cf = final.chart
                case, gen_row = reference_lift_case(cf)
                skeleton = lift_skeleton(cf)
                assert lift_case(cf) == skeleton.case == case
                assert skeleton.gen_row == gen_row
                seen[case, cf.ell_bar == 0] += 1
        # Every branch of both skeleton builders occurs.
        assert {(CASE1, False), (CASE2, False), (CASE3, False),
                (CASE3, True)} <= set(seen), seen


class TestResidualShapes:
    def test_nonprincipal_strata_have_zero_betas_and_np_shape(self):
        # Every stratum the driver ever blows up sits on the center with
        # zero strata, and its residual is the reduced rows plus one unit
        # vector per slot variable.
        rng = random.Random(271)
        seen = 0
        while seen < 30:
            pair = random_adapted_chart(rng, max_n=3, max_m=4, max_d=5)
            if pair is None:
                continue
            cf, _ = pair
            from toroidal.blowup import enumerate_blowup_strata
            from generators import permissible_center_for
            center = permissible_center_for(cf)
            if center is None:
                continue
            for choice, out in enumerate_blowup_strata(cf, center, "t"):
                residual = nonprincipal_locus(out)
                if residual is None:
                    continue
                assert all(b is not None and b.is_zero for b in out.betas)
                from toroidal.chart import column_minima
                mins = column_minima(out)
                expected = []
                for i in range(out.ell_bar):
                    expected.append(tuple(x - y for x, y in zip(out.matrix[i], mins))
                                    + (0,) * (out.d - out.n))
                for t in range(out.s):
                    vec = [0] * out.d
                    vec[out.slot_var(t)] = 1
                    expected.append(tuple(vec))
                assert residual == minimal_generators(expected, out.d)
            seen += 1
