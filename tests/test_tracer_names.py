"""Every function the benchmark tracer wraps still exists.

`perfbench/tracer.py` wraps the layers' functions by module and name
(`WRAPPED`); a simplification that deletes or renames one of them breaks
the traced benchmark runs.  The tracer is loaded by path, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.WRAPPED


PACKAGE, WRAPPED = _wrapped()


@pytest.mark.parametrize("module_name, attr, span", WRAPPED,
                         ids=[f"{m}.{a}" for m, a, _ in WRAPPED])
def test_wrapped_name_resolves(module_name, attr, span):
    target = importlib.import_module(f"{PACKAGE}.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
