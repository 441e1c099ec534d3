"""Plain records and unit values are immutable and carry no instance dict.

The records are `typing.NamedTuple`s and `UnitValue` and `UnitToken` are
slotted classes.  Each instance below is one the engine built.
"""

import copy
import pickle

import pytest

from toroidal.chart import QTF1, ChartForm
from toroidal.documents import chart_from_doc, descriptor_from_doc
from toroidal.lift import lift_after_principalization
from toroidal.pipeline import check_atlas, parse_document
from toroidal.principalize import nonprincipal_locus, principalize_chart_family
from toroidal.units import TRIVIAL_UNIT, UnitToken, UnitValue
from test_pipeline import TWO_BLOWUP_FAMILY, identity_doc

RECORDS = {
    "ValidityReport", "BlowupChartChoice", "NonprincipalLocus",
    "PrincipalizationStep", "FinalStratum", "PrincipalizationTrace",
    "FreshParam", "LiftSkeleton", "LiftResult", "TrackedStratum", "LabelInfo",
    "CenterView", "ScriptStep", "ResolutionScript",
}


def engine_instances():
    atlas, script = parse_document(identity_doc())
    step = script.steps[0]
    entry = TWO_BLOWUP_FAMILY["strata"][0]
    trace = principalize_chart_family([(
        entry["id"], chart_from_doc(entry["chart"], "chart"),
        descriptor_from_doc(entry["descriptor"], "descriptor"))])
    final = trace.final[0]
    # Two rows on the generator's exponents: the second becomes a fresh parameter.
    cf = ChartForm(d=3, m=2, n=2, ell=2, s=0, tag=QTF1, matrix=((1, 2), (1, 2)),
                   units=(TRIVIAL_UNIT, UnitToken(UnitValue.of(3))), ell_bar=2)
    result = lift_after_principalization(cf)
    return [
        check_atlas(atlas), trace.steps[0].children[0][0],
        nonprincipal_locus(final.chart), trace.steps[0], final,
        trace, result.fresh[0], result.skeleton, result,
        atlas.strata["A"][0], atlas.labels["L1"], step.views[0][1], step, script,
        result.lifted.units[0], result.lifted.units[0].constant(),
    ]


INSTANCES = engine_instances()


def test_every_record_is_covered():
    names = {type(x).__name__ for x in INSTANCES}
    assert names == RECORDS | {"UnitValue", "UnitToken"}


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda x: type(x).__name__)
def test_no_instance_dict_and_no_assignment(obj):
    assert not hasattr(obj, "__dict__")
    field = obj._fields[0] if hasattr(obj, "_fields") else type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_unit_values_compare_hash_and_print_as_before():
    value = UnitValue(2, (("a", 1),))
    assert repr(value) == "UnitValue(coeff=2, symbols=(('a', 1),))"
    assert repr(UnitToken(value)) == (
        "UnitToken(base=UnitValue(coeff=2, symbols=(('a', 1),)), factors=())")
    assert hash(value) == hash((2, (("a", 1),)))
    assert value == UnitValue(2, (("a", 1),)) and value != (2, (("a", 1),))
    assert UnitToken(value) != value
    token = UnitToken(value).with_factor(3, value, 2)
    for obj, field in ((value, "coeff"), (token, "base")):
        assert copy.deepcopy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(ValueError):
        UnitValue(0)
