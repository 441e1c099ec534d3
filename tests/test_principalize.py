import contextlib
import importlib.util
import inspect
import io
import json
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from toroidal import blowup, lift, monomial, pipeline, principalize
from toroidal.cli import main
from toroidal.documents import canonical_dumps, chart_from_doc, chart_to_doc, descriptor_to_doc
from toroidal.chart import (
    CenterDescriptor,
    ChartForm,
    classify_form,
    derive_center_form,
    pullback_center_generators,
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
from toroidal.errors import InternalCheckError
from toroidal.monomial import max_order_components, minimal_generators
from toroidal.pipeline import parse_document, toroidalize
from toroidal.principalize import (
    EXCEEDED,
    PRINCIPAL,
    MaxOrderLexPolicy,
    nonprincipal_locus,
    principalize_chart_family,
)
from toroidal.units import Stratum, UnitToken, UnitValue
from generators import random_adapted_chart
from oracles import (
    rebuilt_chart,
    reference_lift_case,
    reference_locus,
    rescan_principalize,
    shape_walk_blowups,
)
from test_blowup import adapted

Z22 = CenterDescriptor(2, 2, (0, 1))

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# The benchmark's yardstick "mid", a member of the deep family.
MID = ((3, 1, 2, 3), (0, 3, 1, 4), (2, 2, 3, 1))


def load_workloads():
    """`perfbench/workloads.py`, loaded by path and unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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

    def test_every_max_order_component_is_permissible(self, monkeypatch):
        # `select` checks only the component it picks; on every chart it is
        # handed (seed-1 benchmark workloads, mid, random roots to cap 4),
        # each maximum-order component holds every slot and passes the
        # matrix test, as its docstring proves for charts in their shape.
        workloads = load_workloads()
        seen, real_select = {}, MaxOrderLexPolicy.select

        def recording(policy, cf, residual):
            seen.setdefault(shape_key(cf), (cf, residual))
            return real_select(policy, cf, residual)

        monkeypatch.setattr(MaxOrderLexPolicy, "select", recording)
        docs = [json.loads(text) for name in ("corpus", "deep", "wide")
                for _, text in workloads.build(name, 1)]
        docs.append(workloads.single_chart_doc(random.Random(1), 7, 3, MID, (0, 1, 2), 3))
        for doc in docs:
            toroidalize(*parse_document(doc))
        rng, roots = random.Random(37), 0
        while roots < 400:
            pair = random_adapted_chart(rng)
            if pair is not None:
                roots += 1
                principalize_chart_family([("r", *pair)], cap=4)
        assert len(seen) > 1000
        for cf, residual in seen.values():
            for subset in max_order_components(residual):
                center = blowup.BlowupCenterChart(tuple(j for j in subset if j < cf.n), cf.s)
                assert list(subset) == blowup.center_coordinates(cf, center), cf
                assert blowup.matrix_permissibility(cf, center) == (True, None), cf


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
        seen = {"locus": 0, "center": 0, "skeleton": 0, CASE2: 0}
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
                assert policy.select(other, residual) == policy.select(cf, residual)
                seen["center"] += 1
        assert all(seen[k] for k in ("locus", "center", "skeleton", CASE2)), seen

    def test_leaf_skeleton_lifts_equal_fresh_lifts(self):
        # Each principal leaf names its shape's first leaf, from which the
        # pipeline builds the shape's skeleton; a lift through it equals a
        # lift built afresh.
        lifts = skeletons = 0
        for family in random_families(700, 100):
            trace = principalize_chart_family(family, cap=50)
            built = pipeline._shape_skeletons(trace)
            assert built.keys() == {f.shape for f in trace.final if f.status == PRINCIPAL}
            for final in trace.final:
                if final.status != PRINCIPAL:
                    assert final.shape is None
                    continue
                skeleton = built[final.shape]
                assert skeleton == lift_skeleton(final.chart)
                shared = lift_after_principalization(final.chart, skeleton)
                assert shared.skeleton is skeleton
                assert shared == lift_after_principalization(final.chart)
                lifts += 1
            skeletons += len(built)
        assert 0 < skeletons < lifts

    def test_later_leaf_of_another_shape_is_checked_in_full(self, monkeypatch):
        # Every lift through a shared skeleton runs the full check, so a
        # chart that no longer has the skeleton's shape is rejected on its
        # exponents.
        full, real = [], lift.verify_commutes
        monkeypatch.setattr(lift, "verify_commutes",
                            lambda cf, result: full.append(cf) or real(cf, result))
        seen = 0
        for trace, finals in principal_finals(850, 40):
            skeletons, shapes = pipeline._shape_skeletons(trace), set()
            for final in finals:
                if final.shape not in shapes:
                    shapes.add(final.shape)
                    continue
                full.clear()
                lift_after_principalization(final.chart, skeletons[final.shape])
                last = final.chart.matrix[-1]
                moved = rebuilt_chart(final.chart, matrix=final.chart.matrix[:-1] + (
                    tuple(x + 1 for x in last),))
                with pytest.raises(InternalCheckError,
                                   match="^lift does not commute: exponent: "):
                    lift_after_principalization(moved, skeletons[final.shape])
                assert full == [final.chart, moved]
                seen += 1
        assert seen > 0


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

    def test_skeleton_once_per_principal_shape(self, monkeypatch):
        # The pipeline builds each principal shape's skeleton once, from the
        # shape's first leaf.  The shape's one pullback is the locus's, and the
        # skeleton pulls nothing back.
        pullbacks, lift_pullbacks, skeletons = [], [], []
        real_pullback, real_skeleton = principalize.pullback_center_generators, lift.lift_skeleton

        def recording(calls):
            def pullback(cf):
                calls.append(cf)
                return real_pullback(cf)
            return pullback

        def skeleton(cf):
            skeletons.append(cf)
            return real_skeleton(cf)

        monkeypatch.setattr(principalize, "pullback_center_generators", recording(pullbacks))
        monkeypatch.setattr(lift, "pullback_center_generators", recording(lift_pullbacks))
        monkeypatch.setattr(pipeline, "lift_skeleton", skeleton)
        total = 0
        for trace, finals in principal_finals(810, 40):
            pipeline._shape_skeletons(trace)
            shapes = {shape_key(f.chart) for f in finals}
            assert len(skeletons) == len(shapes) and not lift_pullbacks
            assert [trace.final[k].chart for k in sorted({f.shape for f in finals})] == skeletons
            assert {shape_key(cf) for cf in skeletons} == shapes
            pulled = Counter(shape_key(cf) for cf in pullbacks)
            assert all(pulled[shape] == 1 for shape in shapes)
            total += len(skeletons)
            skeletons.clear()
            pullbacks.clear()
        assert total > 0

    def test_one_transversal_search_per_shape(self, monkeypatch):
        # A nonprincipal shape's center is selected at its first blowup, and
        # every later stratum of the shape is blown up along the same center.
        searches, in_locus, blown = [], [], []
        real_search, real_locus = monomial.minimal_transversals, principalize.nonprincipal_locus
        real_enumerate = principalize.enumerate_blowup_strata

        def search(gens, k):
            searches.append(bool(in_locus))
            return real_search(gens, k)

        def locus(cf):
            in_locus.append(True)
            try:
                return real_locus(cf)
            finally:
                in_locus.pop()

        def enumerate_strata(cf, center, symbol_prefix):
            blown.append(shape_key(cf))
            return real_enumerate(cf, center, symbol_prefix)

        monkeypatch.setattr(monomial, "minimal_transversals", search)
        monkeypatch.setattr(principalize, "nonprincipal_locus", locus)
        monkeypatch.setattr(principalize, "enumerate_blowup_strata", enumerate_strata)
        repeats = 0
        for family in random_families(830, 40):
            searches.clear()
            blown.clear()
            trace = principalize_chart_family(family, cap=50)
            assert len(blown) == len(trace.steps)
            assert len(searches) == len(set(blown))
            assert not any(searches)
            repeats += len(blown) - len(set(blown))
        assert repeats > 0

    def test_leaves_of_one_shape_share_a_skeleton(self):
        # Every leaf of a shape names the shape's first leaf, and the pipeline
        # builds one skeleton for that index.
        shared = 0
        for trace, finals in principal_finals(840, 40):
            first = {}
            for final in finals:
                key = shape_key(final.chart)
                if key in first:
                    assert final.shape == first[key]
                    shared += 1
                else:
                    assert trace.final[final.shape] is final
                    first[key] = final.shape
            assert pipeline._shape_skeletons(trace).keys() == set(first.values())
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


class TestLiftSites:
    """Per chart family of a run: the pipeline builds one skeleton per
    principal shape, the rank bound runs only for a case-1 skeleton with a
    vanished row, and the pipeline lifts each principal leaf once, each
    lift running the full commutation check once."""

    def test_once_per_shape_and_leaf(self, monkeypatch):
        families = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                families[-1][name] += 1
                return real(*args, **kwargs)
            return wrapper

        def family(strata, cap):
            families.append(Counter())
            trace = real_family(strata, cap=cap)
            families[-1]["trace"] = trace
            return trace

        def shape_skeletons(trace):
            families[-1]["skeletons"] = real_skeletons(trace)
            return families[-1]["skeletons"]

        real_family = pipeline.principalize_chart_family
        real_skeletons = pipeline._shape_skeletons
        monkeypatch.setattr(pipeline, "principalize_chart_family", family)
        monkeypatch.setattr(pipeline, "_shape_skeletons", shape_skeletons)
        monkeypatch.setattr(pipeline, "lift_skeleton",
                            counting("skeleton", pipeline.lift_skeleton))
        monkeypatch.setattr(lift, "verify_commutes", counting("full", lift.verify_commutes))
        monkeypatch.setattr(lift, "rank", counting("rank", lift.rank))
        monkeypatch.setattr(pipeline, "lift_after_principalization",
                            counting("lift", pipeline.lift_after_principalization))
        for _, text in load_workloads().build("corpus", 1):
            toroidalize(*parse_document(json.loads(text)))
        totals = Counter()
        for counts in families:
            leaves = [f for f in counts.pop("trace").final if f.status == PRINCIPAL]
            skeletons = counts.pop("skeletons")
            assert skeletons.keys() == {f.shape for f in leaves}
            skeletons = skeletons.values()
            vanished = sum(sk.case == CASE1 and bool(sk.zero) for sk in skeletons)
            assert counts == Counter({"skeleton": len(skeletons), "full": len(leaves),
                                      "rank": vanished, "lift": len(leaves)}) - Counter()
            totals.update(counts)
            totals["case1"] += sum(sk.case == CASE1 for sk in skeletons)
        assert totals["lift"] > totals["skeleton"] > 0
        assert totals["case1"] > totals["rank"] > 0


class TestNoLiftCode:
    """Principalization runs no lift code, so the `principalize` command
    probes the principalization layer alone."""

    def test_runs_with_every_lift_function_raising(self, monkeypatch):
        # Every function of `toroidal.lift`, wherever a module of the package
        # holds it, is replaced by one that raises; random families reaching
        # every lift case principalize to the same traces.
        families = list(random_families(820, 40))
        expected = [principalize_chart_family(family, cap=50) for family in families]
        functions = {id(f) for f in vars(lift).values()
                     if inspect.isfunction(f) and f.__module__ == lift.__name__}

        def raising(*args, **kwargs):
            raise AssertionError("principalization called lift code")

        patched = 0
        for name, module in list(sys.modules.items()):
            if name == "toroidal" or name.startswith("toroidal."):
                for attr, value in list(vars(module).items()):
                    if id(value) in functions:
                        monkeypatch.setattr(module, attr, raising)
                        patched += 1
        assert patched >= len(functions) > 5
        traces = [principalize_chart_family(family, cap=50) for family in families]
        assert traces == expected
        assert any(f.status == PRINCIPAL for trace in traces for f in trace.final)

    # Roots whose pullback is principal but that no lift case fits.  The
    # pipeline never builds one; the command principalizes each, and a lift
    # of it fails as it did when the driver built the skeletons.
    UNLIFTABLE = {
        "generic slot with ell_bar 0": (
            {"d": 4, "m": 3, "n": 1, "ell": 1, "s": 2, "tag": "qtf1", "ell_bar": 0,
             "matrix": [[1], [0], [0]],
             "betas": [{"kind": "generic", "symbol": "u"}, {"kind": "zero"}]},
            {"ell_bar": 0, "c": 2, "divisor_rows": []},
            ValueError, "an ell_bar = 0 stratum lifts only from the qtf2 shape"),
        "c 1 with ell_bar 0": (
            {"d": 3, "m": 2, "n": 1, "ell": 1, "s": 1, "tag": "qtf1", "ell_bar": 0,
             "matrix": [[1], [0]], "betas": [{"kind": "zero"}]},
            {"ell_bar": 0, "c": 1, "divisor_rows": []},
            InternalCheckError, "principal qtf1 chart matches no lift case"),
    }

    @pytest.mark.parametrize("name", sorted(UNLIFTABLE))
    def test_command_principalizes_an_unliftable_root(self, name, tmp_path, capsys):
        chart, descriptor, error, message = self.UNLIFTABLE[name]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {"strata": [{"id": "s0", "chart": chart, "descriptor": descriptor}]}))
        assert main(["principalize", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == [] and [f["status"] for f in out["final"]] == [PRINCIPAL]
        root = chart_from_doc(chart, "chart")
        with pytest.raises(error, match=f"^{message}$"):
            lift_after_principalization(root)

    def test_command_reproduces_the_workload_records(self):
        assert principalize_probe(1) == (323, [])


def first_step_families(seed: int):
    """Every chart family of the first script step of each `corpus`, `deep`
    and `wide` document at `seed`, with the trace's cap and the chart's
    record: (label, cap, record, roots), each root an (id, adapted chart,
    descriptor)."""
    workloads = load_workloads()
    for workload in ("corpus", "deep", "wide"):
        for doc_id, text in workloads.build(workload, seed):
            atlas, script = parse_document(json.loads(text))
            trace = toroidalize(atlas, script)
            strata = {s.stratum_id: s for _, s in atlas.all_strata()}
            views = dict(script.steps[0].views)
            for chart_id, record in trace["steps"][0]["charts"].items():
                roots = []
                for adapted in record["adapted"]:
                    stratum = strata[adapted["stratum"]]
                    z = pipeline._descriptor_for(stratum, views[chart_id])
                    roots.append((stratum.stratum_id,
                                  derive_center_form(stratum.chart, z)[0], z))
                if roots:
                    yield f"{workload} {doc_id} chart {chart_id}", trace["cap"], record, roots


def run_command(args: list[str], doc, path: Path) -> str:
    """What the command line prints for `args` on `doc`, written to `path`."""
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*args, str(path)])
    return out.getvalue()


def principalize_probe(seed: int) -> tuple[int, list[str]]:
    """The `principalize` command as the probe of its layer: for every chart
    family of `first_step_families(seed)`, it runs on the step's adapted
    roots, under their ids, and must print the step's principalization
    record.  Returns the number of families and the ones whose output differs."""
    families, mismatches = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        for label, cap, record, roots in first_step_families(seed):
            doc = {"strata": [{"id": sid, "chart": chart_to_doc(chart),
                               "descriptor": descriptor_to_doc(z)} for sid, chart, z in roots]}
            families += 1
            if run_command(["--cap", str(cap), "principalize"], doc, path) != \
                    canonical_dumps(record["principalization"]) + "\n":
                mismatches.append(label)
    return families, mismatches


def command_probes(seed: int) -> tuple[int, int, list[str]]:
    """The `ideal` and `blowup` commands as the probes of their layers, on
    `first_step_families(seed)`.  For each blown-up root, `ideal` factors the
    root's pullback; `order` on the residual must give the step's residual
    order, and `max-order-components` must include its center.  Each child
    that is a leaf must come back from `blowup` on the root, the step's center
    and the child's choice, with the center permissible.  Returns the
    numbers of root steps and leaves, and the mismatches."""
    root_steps, leaves, mismatches = 0, 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"

        def ideal(op, dim, generators):
            return json.loads(run_command(
                ["ideal"], {"op": op, "dim": dim, "generators": generators}, path))

        for label, _, record, roots in first_step_families(seed):
            steps = {s["stratum"]: s for s in record["principalization"]["steps"]}
            final = {f["id"]: f["chart"] for f in record["principalization"]["final"]}
            for sid, chart, _ in roots:
                step = steps.get(sid)
                if step is None:
                    continue
                root_steps += 1
                center = step["center"]
                dim = chart.n + chart.num_slots
                residual = ideal("factor", dim, pullback_center_generators(chart))["residual"]
                order = ideal("order", dim, residual)["order"]
                components = ideal("max-order-components", dim, residual)["components"]
                coordinates = center["divisor_indices"] + [
                    chart.n + t for t in range(center["slot_count"])]
                if order != step["residual_order"] or coordinates not in components:
                    mismatches.append(f"{label} ideal {sid}")
                for child in step["children"]:
                    if child["id"] not in final:
                        continue
                    leaves += 1
                    out = json.loads(run_command(["blowup"], {
                        "chart": chart_to_doc(chart), "center": center,
                        "choice": child["choice"]}, path))
                    if not out["permissible"] or out["chart"] != final[child["id"]]:
                        mismatches.append(f"{label} blowup {child['id']}")
    return root_steps, leaves, mismatches


def shape_walk_probe(seed: int) -> tuple[int, int, list[str]]:
    """Every chart family `toroidalize` hands the driver, on each `corpus`,
    `deep` and `wide` document at `seed`: the shape walk
    (`oracles.shape_walk_blowups`) must count the trace's blowups.  Returns
    the numbers of families and blowups, and the families whose count differs."""
    workloads, families = load_workloads(), []
    real_driver = pipeline.principalize_chart_family

    def recording(family, cap):
        trace = real_driver(family, cap=cap)
        families.append((family, cap, len(trace.steps)))
        return trace

    pipeline.principalize_chart_family = recording
    try:
        for workload in ("corpus", "deep", "wide"):
            for _, text in workloads.build(workload, seed):
                toroidalize(*parse_document(json.loads(text)))
    finally:
        pipeline.principalize_chart_family = real_driver
    mismatches = [f"family {k} of {family[0][0]}" for k, (family, cap, blowups)
                  in enumerate(families) if shape_walk_blowups(family, cap) != blowups]
    return len(families), sum(blowups for *_, blowups in families), mismatches


class TestLayerProbes:
    def test_shape_walk_counts_every_driver_family(self):
        assert shape_walk_probe(1) == (476, 1615, [])

    def test_shape_walk_counts_the_yardsticks(self):
        mid = load_workloads().single_chart_doc(random.Random(1), 7, 3, MID, (0, 1, 2), 3)
        for doc, cap, blowups in ((mid, 50, 202), (TestTinyCycle.doc(), 12, 84)):
            atlas, script = parse_document(doc)
            (chart_id, stratum), = atlas.all_strata()
            z = pipeline._descriptor_for(stratum, dict(script.steps[0].views)[chart_id])
            family = [(stratum.stratum_id, derive_center_form(stratum.chart, z)[0], z)]
            assert len(principalize_chart_family(family, cap=cap).steps) == blowups
            assert shape_walk_blowups(family, cap) == blowups

    def test_ideal_and_blowup_commands_probe_their_layers(self):
        assert command_probes(1) == (217, 969, [])


# The yardstick tiny-cycle: along its first-child chain the rows less their
# column minima repeat, so no chain ends and the cap stops the run.
TINY_CYCLE = ((0, 0, 0, 1), (0, 0, 2, 0), (1, 2, 0, 0))


class TestTinyCycle:
    @staticmethod
    def doc():
        return load_workloads().single_chart_doc(
            random.Random(0), 7, 3, TINY_CYCLE, (0, 1, 2), 3)

    def test_toroidalize_exceeds_the_cap(self, tmp_path):
        atlas, trace = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas.write_text(json.dumps(self.doc()))
        assert main(["--out", str(trace), "toroidalize", str(atlas)]) == 3
        verdicts = json.loads(trace.read_text())["verdicts"]
        assert (verdicts["cap_exceeded"], verdicts["pass"]) == (True, False)

    def test_first_child_chain(self):
        atlas, script = parse_document(self.doc())
        (chart_id, stratum), = atlas.all_strata()
        z = pipeline._descriptor_for(stratum, dict(script.steps[0].views)[chart_id])
        root = derive_center_form(stratum.chart, z)[0]
        trace = principalize_chart_family([(stratum.stratum_id, root, z)], cap=12)
        assert len(trace.steps) == 84 and trace.exceeded
        steps = {s.stratum_id: s for s in trace.steps}
        sid, chain = stratum.stratum_id, []
        while sid in steps:
            step = steps[sid]
            chain.append((step.center.divisor_indices, step.center.slot_count,
                          step.residual_order))
            sid = step.children[0][1]
        assert sid == "A/p0" + ".e0zz" * 12
        assert chain == [((0, 2, 3), 0, 1)] * 2 + [((0, 1, 3), 0, 1)] * 10


class TestResidualShapes:
    def test_nonprincipal_strata_have_zero_betas_and_np_shape(self):
        # Every stratum the driver ever blows up sits on the center with
        # zero strata, and its residual is the reduced rows plus one unit
        # vector per slot variable, over the divisor and slot variables.
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
                active = out.n + out.num_slots
                expected = []
                for i in range(out.ell_bar):
                    expected.append(tuple(x - y for x, y in zip(out.matrix[i], mins))
                                    + (0,) * out.num_slots)
                for t in range(out.s):
                    vec = [0] * active
                    vec[out.slot_var(t)] = 1
                    expected.append(tuple(vec))
                assert residual == minimal_generators(expected, active)
            seen += 1
