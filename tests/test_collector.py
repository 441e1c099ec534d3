"""The engine makes no reference cycles and runs with the cyclic garbage
collector paused.

`toroidalize` (so also `replay`) and the command line's `main` pause the
collector for their call (`pipeline.collector_paused`).  That is safe
because reference counting frees everything the engine drops: after runs
with collection off, a collection finds nothing unreachable.  CI also runs
`unreachable_after` on the benchmark's documents.

When the caller had the collector on and nothing is frozen, the call hands
every object it made to the oldest generation on the way out, so no
collector pass starts inside it and the returned trace is in generation 2.
A reference cycle of the caller's waits for the next full collection.
When objects are frozen (by the caller, or by CPython 3.12.1 at startup)
the call only turns the collector back on: the freeze count is unchanged.
CI runs `collector_faults` on the benchmark's documents.
"""

import copy
import gc
import weakref

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


def passes_inside(call):
    """Collect, then run `call()` with a `gc.callbacks` hook.  Returns the
    generations of the collector passes that started inside the call, and
    the call's result.  Collecting first keeps a pass the caller's own
    objects were due for from starting as the call begins."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = call()
    finally:
        gc.callbacks.remove(hook)
    return started, result


def _checked_call(where, call, faults):
    frozen = gc.get_freeze_count()
    passes, result = passes_inside(call)
    if frozen == 0 and passes:
        faults.append(f"{where}: passes of generations {passes} started inside")
    if gc.get_freeze_count() != frozen:
        faults.append(f"{where}: freeze count {frozen} became {gc.get_freeze_count()}")
    if not gc.isenabled():
        faults.append(f"{where}: the collector was left off")
    return result


def collector_faults(runs) -> list[str]:
    """Run `toroidalize` and `replay` on each (document, cap) of `runs`;
    the caller has the collector on.  Returns a line for each call inside
    which a collector pass started although nothing was frozen before it,
    after which the freeze count differs from before it, or after which
    the collector is off."""
    faults = []
    for k, (doc, cap) in enumerate(runs):
        atlas, script = parse_document(doc)
        trace = _checked_call(f"document {k} toroidalize",
                              lambda: toroidalize(atlas, script, cap=cap), faults)
        _checked_call(f"document {k} replay", lambda: replay(trace, atlas, script), faults)
    return faults


def test_engine_makes_no_reference_cycles():
    runs = [(identity_doc(), 50), (two_chart_doc(), 50), (second_center_doc(), 1),
            (second_center_doc(), 50), (outside_divisor_doc(), 50), (small_deep_doc(), 50)]
    assert unreachable_after(runs) == 0


ENGINE_CALLS = ["toroidalize", "replay", "main toroidalize", "main verify-trace"]


def engine_call(name, tmp_path):
    """The engine call `name` of ENGINE_CALLS on `small_deep_doc`, ready
    to run; its inputs are parsed and written beforehand."""
    atlas, script = parse_document(small_deep_doc())
    if name == "toroidalize":
        return lambda: toroidalize(atlas, script)
    trace = toroidalize(atlas, script)
    if name == "replay":
        return lambda: replay(trace, atlas, script)
    command = name.split()[1]
    inputs = [_write(tmp_path, "atlas.json", small_deep_doc())]
    if command == "verify-trace":
        inputs.append(_write(tmp_path, "trace.json", trace))
    argv = ["--out", str(tmp_path / "out.json"), command, *inputs]
    return lambda: main(argv)


needs_nothing_frozen = pytest.mark.skipif(
    gc.get_freeze_count() > 0,
    reason="objects frozen at startup (CPython 3.12.1) keep the plain path")


@needs_nothing_frozen
@pytest.mark.parametrize("name", ENGINE_CALLS)
def test_no_collector_pass_inside_an_engine_call(name, tmp_path):
    call = engine_call(name, tmp_path)
    passes, _ = passes_inside(call)
    assert passes == []
    assert gc.isenabled() and gc.get_freeze_count() == 0


@needs_nothing_frozen
def test_trace_is_handed_to_the_oldest_generation():
    atlas, script = parse_document(small_deep_doc())
    trace = toroidalize(atlas, script)
    assert any(obj is trace for obj in gc.get_objects(generation=2))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", ENGINE_CALLS)
def test_frozen_objects_stay_frozen(name, enabled, tmp_path):
    """With objects frozen by the caller, a call only restores the
    collector state: it thaws nothing and freezes nothing."""
    call = engine_call(name, tmp_path)
    sentinel = []
    gc.freeze()
    if not enabled:
        gc.disable()
    try:
        frozen = gc.get_freeze_count()
        call()
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() is enabled
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.enable()
        # Also thaws what CPython 3.12.1 froze at startup: better than
        # leaving every later test to run with the whole process frozen.
        gc.unfreeze()


@pytest.mark.parametrize("name", ENGINE_CALLS)
def test_caller_cycle_is_still_reclaimed(name, tmp_path):
    """A cycle made just before a call, which the call may hand to the
    oldest generation with its own objects, is still freed by a full
    collection."""
    call = engine_call(name, tmp_path)

    class Node:
        pass

    gc.collect()
    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    call()
    gc.collect()
    assert ref() is None


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
