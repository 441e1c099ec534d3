"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
recorded regression data.
"""

import json
import random
import time
from collections import Counter

from toroidal.chart import classify_form, column_minima, verify_toroidal_form
from toroidal.documents import canonical_dumps, principalization_to_doc
from toroidal.lift import lift_after_principalization, verify_commutes
from toroidal.linalg import rank
from toroidal.monomial import (
    colon_by_monomial,
    gcd_generators,
    intersect,
    irreducible_decomposition,
    minimal_generators,
    multiply_by_monomial,
    principal_part_factorization,
    radical,
)
from toroidal.pipeline import parse_document, replay, toroidalize
from toroidal.principalize import PRINCIPAL, principalize_chart_family
from toroidal.toric import normalize_toric_presentation
from generators import (
    blowup_triples,
    random_adapted_chart,
    random_toric_data,
)
from oracles import (
    exceptional_column_data,
    membership_mask,
    monomials_up_to,
    oracle_colon_mask,
    oracle_is_gcd,
    oracle_radical_mask,
)
from test_pipeline import identity_doc, two_chart_doc


def _random_ideal(rng, dim, max_exp):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(dim))
            for _ in range(rng.randint(1, 6))]
    gens = [g for g in gens if any(g)] or [(1,) + (0,) * (dim - 1)]
    return minimal_generators(gens, dim)


def test_monomial_oracle_suite():
    """1000 random ideals vs the brute-force divisibility oracle."""
    started = time.monotonic()
    rng = random.Random(20250808)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        ideal = _random_ideal(rng, dim, max_exp=5)
        mons = monomials_up_to(dim, 12)
        member = membership_mask(ideal.gens, mons)

        f = gcd_generators(ideal)
        assert oracle_is_gcd(ideal.gens, f)

        m = tuple(rng.randint(0, 3) for _ in range(dim))
        got = membership_mask(colon_by_monomial(ideal, m).gens, mons)
        assert (got == oracle_colon_mask(ideal.gens, m, mons)).all()

        part, residual = principal_part_factorization(ideal)
        assert multiply_by_monomial(residual, part) == ideal
        if not residual.is_unit:
            assert gcd_generators(residual) == (0,) * dim

        got = membership_mask(radical(ideal).gens, mons)
        assert (got == oracle_radical_mask(ideal.gens, mons)).all()

        if not ideal.is_unit:
            comps = irreducible_decomposition(ideal)
            inter = comps[0]
            for comp in comps[1:]:
                inter = intersect(inter, comp)
            assert inter == ideal
            combined = membership_mask(comps[0].gens, mons)
            for comp in comps[1:]:
                combined &= membership_mask(comp.gens, mons)
            assert (combined == member).all()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE monomial-oracle-suite: PASS ({elapsed:.1f}s)")


def test_decomposition_soundness():
    """500 random ideals: intersection equality and irredundancy."""
    rng = random.Random(31337)
    for _ in range(500):
        dim = rng.randint(1, 4)
        ideal = _random_ideal(rng, dim, max_exp=5)
        if ideal.is_unit:
            continue
        comps = irreducible_decomposition(ideal)
        inter = comps[0]
        for comp in comps[1:]:
            inter = intersect(inter, comp)
        assert inter == ideal
        for k in range(len(comps)):
            others = [c for j, c in enumerate(comps) if j != k]
            if not others:
                continue
            rest = others[0]
            for comp in others[1:]:
                rest = intersect(rest, comp)
            assert rest != ideal, "redundant component survived"
    print("\nACCEPTANCE decomposition-soundness: PASS")


def test_toric_normalization():
    """300 random valid systems: exact elimination, rank, toroidal output."""
    rng = random.Random(424242)
    for _ in range(300):
        data = random_toric_data(rng, max_m=4, max_d=6)
        pres = normalize_toric_presentation(data)
        perm = [[data.matrix[pres.row_perm[i]][pres.col_perm[j]]
                 for j in range(data.d)] for i in range(data.m)]
        for i in range(pres.r):
            for j in range(data.d - data.n):
                residual = perm[i][data.n + j] - sum(
                    perm[i][k] * pres.elimination[k][j] for k in range(pres.r))
                assert residual == 0
        assert rank(pres.c_block) == data.m - pres.r
        if data.ell:
            assert verify_toroidal_form(pres.chart).ok
    print("\nACCEPTANCE toric-normalization: PASS")


def _transform_corpus(count):
    rng = random.Random(777)
    return list(blowup_triples(rng, count, max_n=3, max_m=4, max_d=6))


CORPUS = _transform_corpus(500)


def test_blowup_transform_invariants():
    """500 transformed charts satisfy their tag invariants and positivity,
    and slot rows receive exactly 1 + (column minima sum) exceptionally."""
    violations = []
    for cf, z, center, choice, out in CORPUS:
        tag, diag = classify_form(out)
        if tag is None:
            violations.append((cf.matrix, center, choice, diag))
            continue
        if out.s > 0 and column_minima(out) != out.matrix[out.ell]:
            violations.append((cf.matrix, center, choice, "min-row"))
        if out.s > 0:
            slot_value, _ = exceptional_column_data(cf, center)
            exc_col = 0 if choice.j0 < cf.n else out.n - 1
            if out.matrix[out.ell][exc_col] != slot_value:
                violations.append((cf.matrix, center, choice, "exceptional value"))
    assert not violations, violations[:3]
    print(f"\nACCEPTANCE blowup-invariants: PASS ({len(CORPUS)} transforms)")


def test_permissibility_implies_progress():
    """The exceptional column drops strictly below every center row."""
    violations = []
    for cf, z, center, choice, _ in CORPUS:
        slot_value, row_sums = exceptional_column_data(cf, center)
        for i, value in enumerate(row_sums):
            if slot_value > value:
                violations.append((cf.matrix, center, i))
    assert not violations, violations[:3]
    print(f"\nACCEPTANCE permissibility-progress: PASS ({len(CORPUS)} checks)")


def _termination_corpus():
    rng = random.Random(60606)
    instances = []
    while len(instances) < 200:
        pair = random_adapted_chart(rng, max_n=3, max_m=4, max_d=5, max_exp=4)
        if pair is None:
            continue
        instances.append(pair)
    return instances


def test_principalization_termination_and_lifts():
    """200 random center-adapted instances terminate within cap 50, and
    every final stratum lifts with a passing commutation check."""
    histogram = Counter()
    lifts = 0
    for k, (cf, z) in enumerate(_termination_corpus()):
        trace = principalize_chart_family([(f"s{k}", cf, z)], cap=50)
        assert not trace.exceeded, (cf.matrix, z)
        assert all(f.status == PRINCIPAL for f in trace.final)
        histogram[len(trace.steps)] += 1
        for final in trace.final:
            result = lift_after_principalization(final.chart)
            assert verify_toroidal_form(result.lifted).ok
            assert verify_commutes(final.chart, result).ok
            lifts += 1
    distribution = dict(sorted(histogram.items()))
    print(f"\nACCEPTANCE principalization-termination: PASS "
          f"(step distribution {distribution})")
    print(f"ACCEPTANCE lift-correctness: PASS ({lifts} lifts verified)")


def test_end_to_end_identity_example():
    """The 2 -> 2 identity chart reproduces the hand-derived trace."""
    atlas, script = parse_document(identity_doc())
    trace = json.loads(canonical_dumps(toroidalize(atlas, script)))
    assert trace["verdicts"]["pass"]
    chart_doc = trace["steps"][0]["charts"]["A"]
    blowups = chart_doc["principalization"]["steps"]
    assert len(blowups) == 1
    assert blowups[0]["center"]["divisor_indices"] == [0, 1]
    lifts = {l["stratum"]: l for l in chart_doc["lifts"]}
    zero = lifts["A/p0.e0z"]
    assert zero["chart"]["matrix"] == [[1, 0], [0, 1]]
    assert zero["record"]["row_sources"] == [["gen", 0], ["strict", 1]]
    assert zero["chart"]["ell"] == 2
    generic = lifts["A/p0.e0g"]
    assert generic["chart"]["ell"] == 1
    assert all(l["commutes"] for l in lifts.values())
    assert trace["verdicts"]["global_failures"] == []
    print("\nACCEPTANCE end-to-end-2x2: PASS")


def test_determinism_and_replay():
    """Byte-identical traces across runs; replay reproduces them; seeded
    random principalization runs serialize identically."""

    for doc_fn in (identity_doc, two_chart_doc):
        atlas1, script1 = parse_document(doc_fn())
        atlas2, script2 = parse_document(doc_fn())
        t1 = toroidalize(atlas1, script1)
        t2 = toroidalize(atlas2, script2)
        assert canonical_dumps(t1) == canonical_dumps(t2)
        atlas3, script3 = parse_document(doc_fn())
        fresh = replay(t1, atlas3, script3)
        assert canonical_dumps(fresh["final_atlas"]) == \
            canonical_dumps(t1["final_atlas"])

    def run_batch():
        rng = random.Random(909)
        docs = []
        for k in range(20):
            pair = random_adapted_chart(rng, max_n=3, max_m=4, max_d=5)
            if pair is None:
                continue
            cf, z = pair
            trace = principalize_chart_family([(f"r{k}", cf, z)], cap=50)
            docs.append(principalization_to_doc(trace))
        return canonical_dumps(docs)

    assert run_batch() == run_batch()
    print("\nACCEPTANCE determinism-replay: PASS")
