"""Every engine postcondition raises InternalCheckError when it fails.

Each case breaks the helper a postcondition relies on and runs the
function that checks it; the failure must surface as an engine bug,
not as bad input or as a verdict.
"""

import pytest

from toroidal import blowup, chart, lift, monomial
from toroidal.chart import (
    QTF1,
    CenterDescriptor,
    ChartForm,
    derive_center_form,
    smooth_chart,
)
from toroidal.errors import InternalCheckError
from toroidal.monomial import (
    irreducible_decomposition,
    minimal_generators,
    principal_part_factorization,
)
from toroidal.pipeline import parse_document, verify_global_toroidal
from toroidal.toric import LocalModelDims, ToricMorphismData, normalize_toric_presentation
from toroidal.units import TRIVIAL_UNIT
from test_blowup import FULL_CENTER, IDENTITY
from test_pipeline import identity_doc


def _blowup_chart():
    blowup.enumerate_blowup_strata(IDENTITY, FULL_CENTER, "b")


def _center_form():
    derive_center_form(smooth_chart(3, 2), CenterDescriptor(ell_bar=0, c=2))


def _global_extension():
    # verify_global_toroidal must let the engine bug through, not report it.
    doc = identity_doc()
    doc["dims"]["d"] = 3
    stratum = doc["charts"][0]["strata"][0]
    stratum["chart"] = {"d": 3, "m": 2, "n": 1, "ell": 1, "s": 0,
                        "tag": "toroidal", "matrix": [[2]]}
    stratum["row_labels"] = ["L1"]
    stratum["extra_global_labels"] = 1
    doc["script"] = []
    verify_global_toroidal(parse_document(doc)[0])


def _lift_skeleton():
    cf = ChartForm(d=2, m=2, n=2, ell=2, s=0, tag=QTF1, matrix=((1, 0), (1, 1)),
                   units=(TRIVIAL_UNIT,) * 2, ell_bar=2)
    lift.lift_skeleton(cf)


def _toric_chart():
    normalize_toric_presentation(ToricMorphismData(
        LocalModelDims(3, 2), LocalModelDims(2, 2), ((1, 1, 1), (2, 2, 1))))


def _factorization():
    principal_part_factorization(minimal_generators([(2, 1), (1, 2)], 2))


def _decomposition():
    irreducible_decomposition(minimal_generators([(1, 1)], 2))


def _forced(cf, tag):
    return [("forced", "failure")]


def _wrong_ideal(*args):
    return minimal_generators([(5, 5)], 2)


CASES = {
    "blowup-chart": (chart, "shape_failures", _forced, _blowup_chart),
    "center-form": (chart, "shape_failures", _forced, _center_form),
    "global-extension": (chart, "shape_failures", _forced, _global_extension),
    "lift-skeleton": (chart, "shape_failures", _forced, _lift_skeleton),
    "toric-chart": (chart, "shape_failures", _forced, _toric_chart),
    "factorization": (monomial, "multiply_by_monomial", _wrong_ideal, _factorization),
    "decomposition": (monomial, "intersect", _wrong_ideal, _decomposition),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_postcondition_raises_internal_check_error(name, monkeypatch):
    module, attr, broken, run = CASES[name]
    run()  # the unbroken engine passes
    monkeypatch.setattr(module, attr, broken)
    with pytest.raises(InternalCheckError):
        run()
