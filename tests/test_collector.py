"""The engine makes no reference cycles and runs with the cyclic garbage
collector paused.

`toroidalize` (so also `replay`) and the command line's `main` pause the
collector for their call (`pipeline.collector_paused`).  That is safe
because reference counting frees everything the engine drops: after runs
with collection off, a collection finds nothing unreachable.  CI also runs
`unreachable_after` on the benchmark's documents.
"""

import copy
import gc

import pytest

from toroidal import cli, pipeline
from toroidal.cli import main
from toroidal.pipeline import (
    ReplayMismatch,
    ToroidalizeError,
    parse_document,
    replay,
    toroidalize,
)

from test_fuzz_boundary import _write
from test_pipeline import identity_doc, outside_divisor_doc, second_center_doc, two_chart_doc


def small_deep_doc():
    """A deep-family member (3x4 matrix, d = 7, m = 3, a codimension-3
    center through all three rows) that takes 19 blowups."""
    labels = ["L0", "L1", "L2"]
    return {
        "schema": "toroidal-atlas/1",
        "dims": {"d": 7, "m": 3},
        "labels": [{"name": name, "charts": ["A"]} for name in labels],
        "charts": [{"id": "A", "strata": [{
            "id": "p0",
            "chart": {"d": 7, "m": 3, "n": 4, "ell": 3, "s": 0, "tag": "toroidal",
                      "matrix": [[4, 3, 3, 2], [3, 2, 0, 4], [4, 4, 4, 2]]},
            "row_labels": labels,
        }]}],
        "script": [{"id": "z1", "views": {"A": {"c": 3, "contained": labels}},
                    "incidence": {name: "in" for name in labels}}],
    }


def unreachable_after(runs) -> int:
    """Run `toroidalize` and `replay` on each (document, cap) of `runs`
    with collection off, and return the number of unreachable objects a
    collection then finds.  The caller's collector state is restored."""
    runs = list(runs)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for doc, cap in runs:
            atlas, script = parse_document(doc)
            trace = toroidalize(atlas, script, cap=cap)
            replay(trace, atlas, script)
            del trace, atlas, script
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_engine_makes_no_reference_cycles():
    runs = [(identity_doc(), 50), (two_chart_doc(), 50), (second_center_doc(), 1),
            (second_center_doc(), 50), (outside_divisor_doc(), 50), (small_deep_doc(), 50)]
    assert unreachable_after(runs) == 0


def spy_on(monkeypatch, module, name):
    """Replace `module.name` by a wrapper; returns the list of the
    collector states it was called in."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def test_engine_runs_with_collection_paused(monkeypatch):
    assert gc.isenabled()
    seen = spy_on(monkeypatch, pipeline, "principalize_chart_family")
    atlas, script = parse_document(identity_doc())
    replay(toroidalize(atlas, script), atlas, script)
    assert seen == [False, False]
    assert gc.isenabled()


def test_command_line_runs_with_collection_paused(monkeypatch, tmp_path):
    # `report` runs no engine call, so only `main` pauses it.
    atlas, script = parse_document(identity_doc())
    trace = _write(tmp_path, "trace.json", toroidalize(atlas, script))
    read = spy_on(monkeypatch, cli, "_read_json")
    emitted = spy_on(monkeypatch, cli, "_emit")
    assert main(["--out", str(tmp_path / "report.txt"), "report", trace]) == 0
    assert read == emitted == [False]
    assert gc.isenabled()


def _tampered_trace(doc):
    atlas, script = parse_document(doc)
    trace = copy.deepcopy(toroidalize(atlas, script))
    trace["steps"][0]["exceptional_label"] = "exc.other"
    return trace


def _raise_toroidalize_error():
    doc = identity_doc()
    doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[1, 0], [2, 0]]
    toroidalize(*parse_document(doc))


def _raise_replay_mismatch():
    replay(_tampered_trace(identity_doc()), *parse_document(identity_doc()))


@pytest.mark.parametrize("enabled", [True, False])
def test_collection_state_restored(enabled):
    """Collection is on again after a run, also one that raised; a caller
    who had turned it off finds it still off."""
    if not enabled:
        gc.disable()
    try:
        toroidalize(*parse_document(identity_doc()))
        assert gc.isenabled() is enabled
        with pytest.raises(ToroidalizeError):
            _raise_toroidalize_error()
        assert gc.isenabled() is enabled
        with pytest.raises(ReplayMismatch, match="^step 0 differs"):
            _raise_replay_mismatch()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_command_line_restores_collection_state(enabled, tmp_path):
    atlas = _write(tmp_path, "atlas.json", identity_doc())
    tampered = _write(tmp_path, "tampered.json", _tampered_trace(identity_doc()))
    out = str(tmp_path / "out.json")
    if not enabled:
        gc.disable()
    try:
        for argv, status in ((["toroidalize", atlas], 0),
                             (["verify-trace", atlas, tampered], 1),
                             (["toroidalize", tampered], 2)):
            assert main(["--out", out, *argv]) == status
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
