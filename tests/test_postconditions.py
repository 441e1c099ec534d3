"""Every engine postcondition raises InternalCheckError when it fails.

Each case breaks the helper a postcondition relies on and runs the
function that checks it; the failure must surface as an engine bug,
not as bad input or as a verdict.
"""

import pytest

from toroidal import blowup, chart, monomial
from toroidal.chart import (
    CenterDescriptor,
    ValidityReport,
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
from test_blowup import FULL_CENTER, IDENTITY
from test_pipeline import identity_doc


def _blowup_chart():
    blowup.enumerate_blowup_strata(IDENTITY, FULL_CENTER)


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


def _factorization():
    principal_part_factorization(minimal_generators([(2, 1), (1, 2)], 2))


def _decomposition():
    irreducible_decomposition(minimal_generators([(1, 1)], 2))


def _not_toroidal(*args):
    return None, "forced failure"


def _wrong_ideal(*args):
    return minimal_generators([(5, 5)], 2)


CASES = {
    "blowup-chart": (blowup, "classify_form", _not_toroidal, _blowup_chart),
    "center-form": (chart, "classify_form", _not_toroidal, _center_form),
    "global-extension": (chart, "verify_toroidal_form",
                         lambda cf: ValidityReport((("forced", "failure"),)),
                         _global_extension),
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
