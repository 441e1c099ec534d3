"""Records and unit values are immutable; all but `ChartForm` carry no
instance dict.

The field-only records are `collections.namedtuple`s.  `UnitValue`,
`UnitToken` and the checked records are slotted classes, and `ChartForm`
keeps its fields in its instance dict.  Each instance below is one the
engine built.  The checked records' `repr`, equality, hashing, copies
and constructor messages are pinned as well.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from toroidal.blowup import BlowupCenterChart
from toroidal.chart import QTF1, TOROIDAL, CenterDescriptor, ChartForm, smooth_chart
from toroidal.documents import chart_from_doc, descriptor_from_doc
from toroidal.lift import lift_after_principalization
from toroidal.monomial import MonomialIdeal
from toroidal.pipeline import check_atlas, parse_document
from toroidal.principalize import nonprincipal_locus, principalize_chart_family
from toroidal.toric import LocalModelDims, ToricMorphismData, ToroidalPresentation
from toroidal.units import TRIVIAL_UNIT, Stratum, UnitToken, UnitValue
from test_pipeline import TWO_BLOWUP_FAMILY, identity_doc

RECORDS = {
    "ValidityReport", "BlowupChartChoice",
    "PrincipalizationStep", "FinalStratum", "PrincipalizationTrace",
    "FreshParam", "LiftSkeleton", "LiftResult", "TrackedStratum", "LabelInfo",
    "CenterView", "ScriptStep", "ResolutionScript",
}
CHECKED = {"ChartForm", "Stratum", "CenterDescriptor", "BlowupCenterChart", "MonomialIdeal"}

FIELDS = {
    ChartForm: ("d", "m", "n", "ell", "s", "tag", "matrix", "units", "betas", "ell_bar"),
    Stratum: ("kind", "value", "symbol"),
    CenterDescriptor: ("ell_bar", "c", "divisor_rows"),
    BlowupCenterChart: ("divisor_indices", "slot_count"),
    MonomialIdeal: ("ambient_dim", "gens"),
    LocalModelDims: ("dim", "cone"),
    ToricMorphismData: ("source", "target", "matrix"),
    ToroidalPresentation: ("r", "row_perm", "col_perm", "elimination", "c_block",
                           "constants", "chart"),
}


def first_field(obj) -> str:
    if hasattr(obj, "_fields"):
        return obj._fields[0]
    return FIELDS[type(obj)][0] if type(obj) in FIELDS else type(obj).__slots__[0]


def engine_instances():
    atlas, script = parse_document(identity_doc())
    step = script.steps[0]
    entry = TWO_BLOWUP_FAMILY["strata"][0]
    root = chart_from_doc(entry["chart"], "chart")
    trace = principalize_chart_family([(
        entry["id"], root, descriptor_from_doc(entry["descriptor"], "descriptor"))])
    final = trace.final[0]
    # Two rows on the generator's exponents: the second becomes a fresh parameter.
    cf = ChartForm(d=3, m=2, n=2, ell=2, s=0, tag=QTF1, matrix=((1, 2), (1, 2)),
                   units=(TRIVIAL_UNIT, UnitToken(UnitValue.of(3))), ell_bar=2)
    result = lift_after_principalization(cf)
    choice = trace.steps[0].children[0][0]
    return [
        final.chart, choice.betas[0][1], final.descriptor, trace.steps[0].center,
        nonprincipal_locus(root),
        check_atlas(atlas), choice,
        trace.steps[0], final,
        trace, result.fresh[0], result.skeleton, result,
        atlas.strata["A"][0], atlas.labels["L1"], step.views[0][1], step, script,
        result.lifted.units[0], result.lifted.units[0].constant(),
    ]


INSTANCES = engine_instances()


def test_every_record_is_covered():
    names = {type(x).__name__ for x in INSTANCES}
    assert names == RECORDS | CHECKED | {"UnitValue", "UnitToken"}


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda x: type(x).__name__)
def test_no_instance_dict_and_no_assignment(obj):
    # A chart keeps its fields in its instance dict; every other record is slotted.
    assert hasattr(obj, "__dict__") == (type(obj) is ChartForm)
    field = first_field(obj)
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


CHART = ChartForm(d=3, m=2, n=1, ell=1, s=0, tag=TOROIDAL, matrix=((2,),),
                  units=(UnitToken(UnitValue(3)),))

# (instance, an equal one built apart, an unequal one, its exact repr)
PINNED = [
    (CHART,
     ChartForm(3, 2, 1, 1, 0, TOROIDAL, ((2,),), (UnitToken(UnitValue(3)),)),
     ChartForm(d=3, m=2, n=1, ell=1, s=0, tag=TOROIDAL, matrix=((1,),),
               units=(TRIVIAL_UNIT,)),
     "ChartForm(d=3, m=2, n=1, ell=1, s=0, tag='toroidal', matrix=((2,),), "
     "units=(UnitToken(base=UnitValue(coeff=3, symbols=()), factors=()),), "
     "betas=(), ell_bar=0)"),
    (Stratum.of_value(2), Stratum("value", Fraction(2)), Stratum.generic("b"),
     "Stratum(kind='value', value=Fraction(2, 1), symbol=None)"),
    (CenterDescriptor(1, 2, (0,)), CenterDescriptor(ell_bar=1, c=2, divisor_rows=(0,)),
     CenterDescriptor(1, 2, (1,)), "CenterDescriptor(ell_bar=1, c=2, divisor_rows=(0,))"),
    (BlowupCenterChart((2, 0), 1), BlowupCenterChart((0, 2), 1), BlowupCenterChart((0, 2), 0),
     "BlowupCenterChart(divisor_indices=(0, 2), slot_count=1)"),
    (MonomialIdeal(2, ((0, 3), (1, 2))), MonomialIdeal.trusted(2, [(1, 3), (1, 2), (0, 3)]),
     MonomialIdeal(2, ((0, 0),)), "MonomialIdeal(ambient_dim=2, gens=((0, 3), (1, 2)))"),
    (LocalModelDims(3, 2), LocalModelDims(dim=3, cone=2), LocalModelDims(3, 1),
     "LocalModelDims(dim=3, cone=2)"),
    (ToricMorphismData(LocalModelDims(2, 1), LocalModelDims(1, 1), ((1, 0),)),
     ToricMorphismData(LocalModelDims(2, 1), LocalModelDims(1, 1), ((1, 0),)),
     ToricMorphismData(LocalModelDims(2, 1), LocalModelDims(1, 1), ((2, 0),)),
     "ToricMorphismData(source=LocalModelDims(dim=2, cone=1), "
     "target=LocalModelDims(dim=1, cone=1), matrix=((1, 0),))"),
    (ToroidalPresentation(r=0, row_perm=(0,), col_perm=(0,), elimination=(),
                          c_block=((Fraction(1),),), constants=(UnitValue(2),),
                          chart=smooth_chart(1, 1)),
     ToroidalPresentation(0, (0,), (0,), (), ((Fraction(1),),), (UnitValue(2),),
                          smooth_chart(1, 1)),
     ToroidalPresentation(0, (0,), (0,), (), ((Fraction(1),),), (UnitValue(3),),
                          smooth_chart(1, 1)),
     "ToroidalPresentation(r=0, row_perm=(0,), col_perm=(0,), elimination=(), "
     "c_block=((Fraction(1, 1),),), constants=(UnitValue(coeff=2, symbols=()),), "
     "chart=ChartForm(d=1, m=1, n=0, ell=0, s=0, tag='smooth', matrix=(), "
     "units=(), betas=(), ell_bar=0))"),
]


@pytest.mark.parametrize("obj, equal, unequal, text", PINNED,
                         ids=[type(pinned[0]).__name__ for pinned in PINNED])
def test_checked_records_compare_hash_print_and_copy_as_pinned(obj, equal, unequal, text):
    values = tuple(getattr(obj, name) for name in FIELDS[type(obj)])
    assert repr(obj) == text
    assert obj == equal and not obj != equal and hash(obj) == hash(equal) == hash(values)
    assert obj != unequal and not obj == unequal
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(copied) is type(obj) and copied == obj and repr(copied) == text
    for name in FIELDS[type(obj)]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text  # the refused writes left it as it was


def test_checked_records_normalize_as_pinned():
    assert BlowupCenterChart([3, 1], 0).divisor_indices == (1, 3)
    assert MonomialIdeal._of_antichain(2, ((1,),)).gens == ((1,),)  # unchecked
    assert CHART.with_constant_units((UnitToken(UnitValue(5)),)).units[0].base == UnitValue(5)
    assert CHART.units[0].base == UnitValue(3)


@pytest.mark.parametrize("build, message", [
    (lambda: ChartForm(d=2, m=2, n=0, ell=0, s=0, tag="bogus"),
     "malformed chart: unknown tag 'bogus'"),
    (lambda: ChartForm(d=1, m=2, n=2, ell=1, s=0, tag=TOROIDAL, matrix=((1, -1),)),
     "malformed chart: dimension counts out of range; row 0 has a negative exponent; "
     "one unit token per matrix row required; active variables 3 exceed d = 1"),
    (lambda: ChartForm(d=2, m=1, n=1, ell=1, s=0, tag=TOROIDAL, matrix=((1,),),
                       units=(UnitToken().with_factor(0, UnitValue(2), 1),)),
     "malformed chart: unit of row 0 touches active variable 0"),
    (lambda: Stratum("half"), "bad stratum kind 'half'"),
    (lambda: Stratum("value"), "value strata must be nonzero"),
    (lambda: Stratum("value", Fraction(0)), "value strata must be nonzero"),
    (lambda: Stratum("generic"), "generic strata need a symbol name"),
    (lambda: CenterDescriptor(3, 2, (0, 1, 2)), "need 0 <= ell_bar <= c"),
    (lambda: CenterDescriptor(0, 0), "centers have codimension >= 1"),
    (lambda: CenterDescriptor(1, 2), "divisor_rows must list exactly ell_bar rows"),
    (lambda: CenterDescriptor(2, 2, (1, 1)), "divisor_rows must be distinct"),
    (lambda: BlowupCenterChart((1, 1), 0), "duplicate divisor indices"),
    (lambda: BlowupCenterChart((1,), -1), "negative slot count"),
    (lambda: MonomialIdeal(-1, ()), "ambient dimension must be nonnegative"),
    (lambda: MonomialIdeal(2, ((1,),)), "exponent length 1 != ambient dimension 2"),
    (lambda: MonomialIdeal(2, ((1, -1),)), "negative entry in exponent (1, -1)"),
    (lambda: MonomialIdeal(2, ((1, 2), (0, 3))),
     "generators must be given as their sorted antichain"),
    (lambda: MonomialIdeal(2, ((0, 1), (1, 1))),
     "generators must be given as their sorted antichain"),
    (lambda: LocalModelDims(2, 3), "need 0 <= cone dimension <= ambient dimension"),
])
def test_constructor_messages_are_pinned(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
