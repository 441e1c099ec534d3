"""The whole-row checks agree with their per-element references.

`chart.column_minima`, `chart.shape_failures` and `lift.verify_commutes`
decide each condition once over whole rows and write messages only for
a condition that failed.  Their per-element forms are kept in `oracles`
as references, and each rewritten check must return the reference's
(code, message) list, in the same order, on valid charts and lifts, on
the failing charts and corrupted lifts the other tests pin, and on
random inputs that fail several conditions at once.  The shape check and
the column minima read only charts the structure check passed.
"""

import random

import pytest

from toroidal import lift
from toroidal.chart import (
    QTF1,
    QTF2,
    SMOOTH,
    TOROIDAL,
    ChartForm,
    column_minima,
    shape_failures,
)
from toroidal.errors import InternalCheckError
from toroidal.lift import FreshParam, lift_after_principalization, verify_commutes
from toroidal.pipeline import parse_document, toroidalize
from toroidal.principalize import nonprincipal_locus
from toroidal.units import TRIVIAL_UNIT, UnitToken, UnitValue

from generators import blowup_triples, random_adapted_chart, random_toroidal_chart
from oracles import (
    rebuilt_chart,
    reference_column_minima,
    reference_shape_failures,
    reference_verify_commutes,
)
import test_chart
import test_lift
import test_pipeline

TAGS = (TOROIDAL, QTF1, QTF2, SMOOTH)
SHAPES = test_chart.TestVerifyToroidalForm


def outcome(check, *args):
    """What `check` returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except Exception as exc:  # the two sides must fail alike, too
        return type(exc), str(exc)


def assert_shape_agrees(cf) -> int:
    """Both shape checks agree on `cf` under every tag, and so do both
    column minima; returns the most failures one tag gave."""
    assert outcome(column_minima, cf) == outcome(reference_column_minima, cf), cf
    most = 0
    for tag in TAGS:
        failures = outcome(shape_failures, cf, tag)
        assert failures == outcome(reference_shape_failures, cf, tag), (tag, cf)
        if isinstance(failures, list):
            most = max(most, len(failures))
    return most


def assert_commutes_agrees(cf, result) -> bool:
    """Both commutation checks give `cf` and `result` the same report;
    returns whether it passed."""
    report = outcome(verify_commutes, cf, result)
    assert report == outcome(reference_verify_commutes, cf, result), (cf, result)
    return report.ok


class TestShapeAgreement:
    def test_valid_charts(self):
        rng = random.Random(4101)
        for _ in range(150):
            assert_shape_agrees(random_toroidal_chart(rng))
            pair = random_adapted_chart(rng)
            if pair is not None:
                assert_shape_agrees(pair[0])
        for _, _, _, _, child in blowup_triples(rng, 150):
            assert_shape_agrees(child)

    def test_shape_message_cases(self):
        for cf, _ in SHAPES.TOROIDAL_CASES:
            assert_shape_agrees(cf)
        for tag, fields, _ in SHAPES.ADAPTED_CASES:
            assert_shape_agrees(SHAPES.adapted(tag, *fields))

    def test_charts_failing_several_conditions(self):
        rng = random.Random(4103)
        several = 0
        for _ in range(600):
            tag = rng.choice((QTF1, QTF2, TOROIDAL))
            n, ell = rng.randint(0, 3), rng.randint(0, 3)
            s = 0 if tag == TOROIDAL else rng.randint(1 if tag == QTF2 else 0, 3)
            matrix = tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n))
                           for _ in range(ell + s))
            if tag == TOROIDAL:
                cf = ChartForm(d=n + 1, m=ell, n=n, ell=ell, s=0, tag=TOROIDAL,
                               matrix=matrix, units=(TRIVIAL_UNIT,) * ell)
            else:
                cf = SHAPES.adapted(tag, n + ell + s + 1, ell + s + 1, n, ell, s, matrix,
                                    rng.randint(0, ell))
            several += assert_shape_agrees(cf) >= 2
        assert several > 100


def lifts(rng, count):
    """(chart, lift) for the principal charts among `count` blowup children."""
    for _, _, _, _, child in blowup_triples(rng, count):
        if nonprincipal_locus(child) is None:
            yield child, lift_after_principalization(child)


def corruptions(rng, cf, result):
    """`result` under each of a few random faults, some failing several
    rows at once: an exponent, a constant or a fresh shift changed, a
    fresh parameter dropped, repeated or added, a row relabelled, or the
    generator row moved."""
    sk, lifted = result.skeleton, result.lifted
    rows, two = lifted.matrix, UnitValue(2)
    height = len(cf.matrix)
    if rows and lifted.n:
        i, j = rng.randrange(len(rows)), rng.randrange(lifted.n)
        row = rows[i][:j] + (rows[i][j] + 1,) + rows[i][j + 1:]
        yield result._replace(lifted=rebuilt_chart(
            lifted, matrix=rows[:i] + (row,) + rows[i + 1:]))
    if lifted.units:
        i = rng.randrange(len(lifted.units))
        units = list(lifted.units)
        units[i] = UnitToken(units[i].constant() * two)
        yield result._replace(lifted=rebuilt_chart(lifted, units=tuple(units)))
    if result.fresh:
        k = rng.randrange(len(result.fresh))
        p = result.fresh[k]
        yield result._replace(fresh=result.fresh[:k] + result.fresh[k + 1:])
        yield result._replace(fresh=result.fresh + (p,))
        changed = p._replace(scale=p.scale * two, shift=None if p.shift else p.scale)
        yield result._replace(fresh=result.fresh[:k] + (changed,) + result.fresh[k + 1:])
    if sk.row_sources:
        k = rng.randrange(len(sk.row_sources))
        kind, i = sk.row_sources[k]
        moved = sk.row_sources[:k] + ((kind, (i + 1) % height),) + sk.row_sources[k + 1:]
        yield result._replace(skeleton=sk._replace(row_sources=moved))
    yield result._replace(skeleton=sk._replace(gen_row=(sk.gen_row + 1) % height))
    yield result._replace(fresh=result.fresh + (
        FreshParam(("row", rng.randrange(height)), two, two),))


class TestCommutationAgreement:
    def test_valid_lifts(self):
        count = 0
        for cf, result in lifts(random.Random(4107), 150):
            assert assert_commutes_agrees(cf, result)
            count += 1
        assert count > 50

    @pytest.mark.parametrize("corruption", test_lift.TestVerifyCommutes.CORRUPTIONS)
    def test_corrupted_lifts(self, corruption):
        assert not assert_commutes_agrees(*getattr(test_lift.TestVerifyCommutes, corruption)())

    @pytest.mark.parametrize("fault", test_pipeline.TestExitStatuses.COMMUTATION_FAULTS)
    def test_skeleton_faults(self, monkeypatch, fault):
        # Each fault reaches the commutation check inside a real run,
        # which stops at the first lift that does not commute.
        doc, _, _ = getattr(test_pipeline.TestExitStatuses, fault)(monkeypatch)
        verdicts = []

        def both(cf, result):
            verdicts.append(assert_commutes_agrees(cf, result))
            return verify_commutes(cf, result)

        monkeypatch.setattr(lift, "verify_commutes", both)
        with pytest.raises(InternalCheckError, match="lift does not commute"):
            toroidalize(*parse_document(doc))
        assert verdicts[-1] is False

    def test_random_corruptions(self):
        rng = random.Random(4109)
        failed = several = 0
        for cf, result in lifts(rng, 150):
            for bad in corruptions(rng, cf, result):
                report = verify_commutes(cf, bad)
                assert report == reference_verify_commutes(cf, bad), (cf, bad)
                failed += not report.ok
                several += len(report.failures) >= 2
        assert failed > 300 and several > 100
