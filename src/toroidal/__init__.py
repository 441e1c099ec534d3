"""Combinatorial engine for toroidalization of locally toroidal morphisms.

The package operates on symbolic chart records: morphism germs given by
nonnegative integer exponent matrices together with exact unit constants.
It adapts charts to blowup centers, principalizes the pulled-back center
ideals by permissible blowups, lifts the morphism through each target
blowup, and certifies that the final charts are toroidal.
"""

__version__ = "0.3.0"

from .blowup import (
    BlowupCenterChart,
    BlowupChartChoice,
    blowup_transform,
    check_center_snc,
    check_permissible_center,
    enumerate_blowup_strata,
)
from .chart import (
    CenterDescriptor,
    ChartForm,
    ValidityReport,
    classify_form,
    derive_center_form,
    extend_to_global_form,
    pullback_center_ideal,
    smooth_chart,
    verify_toroidal_form,
)
from .lift import (
    LiftResult,
    lift_after_principalization,
    lift_case,
    verify_commutes,
)
from .monomial import (
    MonomialIdeal,
    colon_by_monomial,
    contains_monomial,
    gcd_generators,
    intersect,
    irreducible_decomposition,
    max_order_components,
    minimal_generators,
    order_at_origin,
    principal_part_factorization,
    radical,
)
from .pipeline import (
    MorphismAtlas,
    ResolutionScript,
    check_atlas,
    parse_document,
    replay,
    toroidalize,
    verify_global_toroidal,
    verify_resolution_script,
)
from .principalize import (
    nonprincipal_locus,
    principalize_chart_family,
)
from .units import Stratum, UnitToken, UnitValue

__all__ = [
    "BlowupCenterChart", "BlowupChartChoice", "CenterDescriptor", "ChartForm",
    "LiftResult", "LocalModelDims", "MonomialIdeal", "MorphismAtlas",
    "ResolutionScript", "Stratum", "ToricMorphismData", "UnitToken",
    "UnitValue", "ValidityReport", "blowup_transform", "check_atlas",
    "check_center_snc", "check_permissible_center", "classify_form",
    "colon_by_monomial", "contains_monomial", "derive_center_form",
    "enumerate_blowup_strata", "extend_to_global_form", "gcd_generators",
    "intersect", "irreducible_decomposition", "lift_after_principalization",
    "lift_case", "max_order_components", "minimal_generators",
    "nonprincipal_locus", "normalize_toric_presentation", "order_at_origin",
    "parse_document", "principal_part_factorization",
    "principalize_chart_family", "pullback_center_ideal", "radical", "replay",
    "smooth_chart", "toroidalize", "validate_toric_morphism",
    "verify_commutes", "verify_global_toroidal", "verify_resolution_script",
    "verify_toroidal_form",
]

# The toric reduction is not on the toroidalize path, so its module loads
# on first use of one of its names.
_TORIC = ("LocalModelDims", "ToricMorphismData", "normalize_toric_presentation",
          "validate_toric_morphism")


def __getattr__(name):
    if name in _TORIC:
        from . import toric
        return getattr(toric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
