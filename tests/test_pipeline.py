import copy
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import toroidal
from toroidal import blowup, chart, cli, documents, lift, pipeline, principalize, units
from toroidal.chart import TOROIDAL, shape_key
from toroidal.cli import main
from toroidal.documents import canonical_dumps, stdlib_dumps
from toroidal.pipeline import (
    ReplayMismatch,
    ToroidalizeError,
    check_atlas,
    parse_document,
    replay,
    toroidalize,
    verify_global_toroidal,
    verify_resolution_script,
)

from oracles import rebuilt_chart, trace1_of, trace2_of


def identity_doc():
    """One 2 -> 2 chart, identity matrix, blow up the two-component origin."""
    return {
        "schema": "toroidal-atlas/1",
        "dims": {"d": 2, "m": 2},
        "labels": [{"name": "L1", "charts": ["A"]},
                   {"name": "L2", "charts": ["A"]}],
        "charts": [{
            "id": "A",
            "strata": [{
                "id": "p0",
                "chart": {"d": 2, "m": 2, "n": 2, "ell": 2, "s": 0,
                          "tag": "toroidal", "matrix": [[1, 0], [0, 1]]},
                "row_labels": ["L1", "L2"],
            }],
        }],
        "script": [{
            "id": "z1",
            "views": {"A": {"c": 2, "contained": ["L1", "L2"]}},
            "incidence": {"L1": "in", "L2": "in"},
        }],
    }


def second_center_doc(d=4, m=3):
    """`identity_doc` on matrix [[2, 1], [1, 3]] with a second center
    inside L2 alone.  Under `--cap` 0 or 1 the first step leaves strata
    the cap stopped, some carrying L2; with d = 3 and m = 2 the first
    lifted stratum has no spare target coordinate for the second center."""
    doc = identity_doc()
    doc["dims"] = {"d": d, "m": m}
    doc["charts"][0]["strata"][0]["chart"].update(d=d, m=m, matrix=[[2, 1], [1, 3]])
    doc["script"].append({"id": "z2", "views": {"A": {"c": 2, "contained": ["L2"]}},
                          "incidence": {"L2": "in"}})
    return doc


def rank_deficient_doc():
    """`identity_doc` with a third component L3 outside the center and
    matrix [[1, 0], [0, 1], [1, 1]] of rank 2, so a vanished center row
    stays within the rank bound."""
    doc = identity_doc()
    doc["dims"] = {"d": 3, "m": 3}
    doc["labels"].append({"name": "L3", "charts": ["A"]})
    stratum = doc["charts"][0]["strata"][0]
    stratum["chart"].update(d=3, m=3, ell=3, matrix=[[1, 0], [0, 1], [1, 1]])
    stratum["row_labels"].append("L3")
    doc["script"][0]["incidence"]["L3"] = "out"
    return doc


def outside_divisor_doc():
    """One 3 -> 3 chart with one divisor component L1 and a codimension-2
    center outside it: its lifts drop the exceptional column."""
    return {
        "schema": "toroidal-atlas/1",
        "dims": {"d": 3, "m": 3},
        "labels": [{"name": "L1", "charts": ["A"]}],
        "charts": [{"id": "A", "strata": [{
            "id": "p0",
            "chart": {"d": 3, "m": 3, "n": 1, "ell": 1, "s": 0,
                      "tag": "toroidal", "matrix": [[1]]},
            "row_labels": ["L1"],
        }]}],
        "script": [{"id": "z1",
                    "views": {"A": {"c": 2, "contained": [], "strata": ["p0"]}},
                    "incidence": {"L1": "out"}}],
    }


def two_chart_doc():
    """Chart A sees the center inside both its components; chart B is a
    smooth chart through the same center."""
    return {
        "schema": "toroidal-atlas/1",
        "dims": {"d": 3, "m": 2},
        "labels": [{"name": "L1", "charts": ["A"]},
                   {"name": "L2", "charts": ["A"]}],
        "charts": [
            {"id": "A",
             "strata": [{
                 "id": "p0",
                 "chart": {"d": 3, "m": 2, "n": 2, "ell": 2, "s": 0,
                           "tag": "toroidal", "matrix": [[1, 0], [0, 1]]},
                 "row_labels": ["L1", "L2"],
             }]},
            {"id": "B",
             "strata": [{
                 "id": "q0",
                 "chart": {"d": 3, "m": 2, "n": 0, "ell": 0, "s": 0,
                           "tag": "smooth", "matrix": []},
                 "row_labels": [],
             }]},
        ],
        "script": [{
            "id": "z1",
            "views": {"A": {"c": 2, "contained": ["L1", "L2"]},
                      "B": {"c": 2, "contained": [], "strata": ["q0"]}},
            "incidence": {"L1": "in", "L2": "in"},
        }],
    }


class TestParsingAndChecks:
    def test_identity_atlas_valid(self):
        atlas, script = parse_document(identity_doc())
        assert check_atlas(atlas).ok
        assert verify_resolution_script(atlas, script).ok

    def test_script_dichotomy_failure(self):
        doc = identity_doc()
        doc["script"][0]["incidence"]["L2"] = "meets"
        doc["script"][0]["views"]["A"]["contained"] = ["L1"]
        atlas, script = parse_document(doc)
        report = verify_resolution_script(atlas, script)
        assert any(code == "dichotomy" for code, _ in report.failures)

    def test_script_codimension_failure(self):
        doc = identity_doc()
        doc["script"][0]["views"]["A"]["c"] = 1
        doc["script"][0]["views"]["A"]["contained"] = ["L1"]
        atlas, script = parse_document(doc)
        report = verify_resolution_script(atlas, script)
        assert any(code == "codim" for code, _ in report.failures)

    def test_transform_containment_failure(self):
        # A center inside a divisor component declared outside the initial
        # union divisor: the new exceptional joins the local divisor while
        # escaping the total transform of the union.
        doc = identity_doc()
        doc["labels"].append(
            {"name": "X1", "charts": ["A"], "under_e0": False})
        doc["script"] = [{
            "id": "z1",
            "views": {"A": {"c": 2, "contained": ["X1"],
                            "strata": []}},
            "incidence": {"X1": "in"},
        }]
        atlas, script = parse_document(doc)
        report = verify_resolution_script(atlas, script)
        assert any(code == "transform" for code, _ in report.failures)


class TestEndToEnd:
    def test_identity_example_trace(self):
        atlas, script = parse_document(identity_doc())
        # The document a reader of the trace file sees: arrays as lists.
        trace = json.loads(canonical_dumps(toroidalize(atlas, script)))
        assert trace["verdicts"]["pass"]

        step = trace["steps"][0]
        chart_doc = step["charts"]["A"]
        blowups = chart_doc["principalization"]["steps"]
        assert len(blowups) == 1
        assert blowups[0]["center"] == {"divisor_indices": [0, 1],
                                        "slot_count": 0}
        lifts = {lift["stratum"]: lift for lift in chart_doc["lifts"]}
        assert len(lifts) == 4

        # beta = 0 stratum of the j0 = 0 chart lifts to the identity.
        zero = lifts["A/p0.e0z"]
        assert zero["record"]["case"] == "case1"
        assert zero["chart"]["matrix"] == [[1, 0], [0, 1]]
        assert zero["record"]["row_sources"] == [["gen", 0], ["strict", 1]]
        assert zero["chart"]["ell"] == 2
        assert zero["row_labels"] == ["exc.z1", "L2"]
        assert zero["commutes"]

        # generic stratum lifts through the one-point branch.
        generic = lifts["A/p0.e0g"]
        assert generic["chart"]["matrix"] == [[1]]
        assert generic["chart"]["ell"] == 1
        assert generic["row_labels"] == ["exc.z1"]
        assert generic["commutes"]

        final = trace["final_atlas"]["charts"][0]["strata"]
        assert len(final) == 4
        assert trace["verdicts"]["global_failures"] == []

    def test_empty_script(self):
        doc = identity_doc()
        doc["script"] = []
        atlas, script = parse_document(doc)
        trace = json.loads(canonical_dumps(toroidalize(atlas, script)))
        assert trace["steps"] == []
        assert trace["verdicts"]["pass"]
        assert trace["final_atlas"]["charts"][0]["strata"][0]["chart"]["matrix"] \
            == [[1, 0], [0, 1]]

    def test_two_chart_example(self):
        atlas, script = parse_document(two_chart_doc())
        trace = toroidalize(atlas, script)
        assert trace["verdicts"]["pass"]
        a_lifts = trace["steps"][0]["charts"]["A"]["lifts"]
        b_lifts = trace["steps"][0]["charts"]["B"]["lifts"]
        assert len(a_lifts) == 4 and all(l["commutes"] for l in a_lifts)
        assert len(b_lifts) == 4 and all(l["commutes"] for l in b_lifts)
        for lift in b_lifts:
            assert lift["record"]["drop_col"] is not None
            assert lift["chart"]["ell"] == 0
        assert trace["verdicts"]["global_failures"] == []

    def test_shape_key_once_per_stratum(self, monkeypatch):
        # Principalization keys each stratum once, and a lift keys nothing.
        calls = []

        def counting(cf):
            calls.append(1)
            return shape_key(cf)

        monkeypatch.setattr(principalize, "shape_key", counting)
        for doc in (two_chart_doc(), TestMultiStepScript().doc()):
            calls.clear()
            trace = toroidalize(*parse_document(doc))
            charts = [chart for step in trace["steps"] for chart in step["charts"].values()
                      if chart["adapted"]]
            strata = sum(len(chart["adapted"]) + sum(len(b["children"]) for b in
                                                     chart["principalization"]["steps"])
                         for chart in charts)
            lifts = sum(len(chart["lifts"]) for chart in charts)
            assert 0 < lifts < strata and len(calls) == strata

    def test_toroidal_shape_checked_once_per_input_stratum(self, monkeypatch):
        # check_atlas checks each input toroidal chart; a final stratum is
        # one of those or a chart the engine built and checked, so the
        # final verdict checks no shape again.
        checked = []
        real = chart.verify_toroidal_form
        for module in (chart, pipeline):
            monkeypatch.setattr(module, "verify_toroidal_form",
                                lambda cf: checked.append(cf) or real(cf))
        for doc in (two_chart_doc(), TestMultiStepScript().doc(), rank_deficient_doc()):
            checked.clear()
            atlas, script = parse_document(doc)
            trace = toroidalize(atlas, script)
            inputs = [s.chart for _, s in atlas.all_strata() if s.chart.tag == TOROIDAL]
            assert trace["verdicts"]["pass"] and trace["steps"]
            assert list(map(id, checked)) == list(map(id, inputs))

    def test_low_cap_reports_exceeded(self):
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[2, 1], [1, 3]]
        doc["charts"][0]["strata"][0]["chart"]["d"] = 3
        doc["dims"]["d"] = 3
        atlas, script = parse_document(doc)
        trace = toroidalize(atlas, script, cap=1)
        assert trace["verdicts"]["cap_exceeded"]
        assert not trace["verdicts"]["pass"]

    def test_negative_cap_rejected(self):
        # A script with no steps never reaches the driver's own check.
        for steps in (identity_doc()["script"], []):
            atlas, script = parse_document({**identity_doc(), "script": steps})
            with pytest.raises(ValueError, match="^cap must be >= 0$"):
                toroidalize(atlas, script, cap=-3)


def ambient(doc, d):
    """`doc` with every `d` field set to `d`."""
    if isinstance(doc, dict):
        return {k: d if k == "d" else ambient(v, d) for k, v in doc.items()}
    if isinstance(doc, list):
        return [ambient(v, d) for v in doc]
    return doc


def shifted_factors(doc, by):
    """`doc` with every unit factor's variable moved down by `by`."""
    if isinstance(doc, dict):
        if "var" in doc and "shift" in doc:
            return {**doc, "var": doc["var"] - by}
        return {k: shifted_factors(v, by) for k, v in doc.items()}
    if isinstance(doc, list):
        return [shifted_factors(v, by) for v in doc]
    return doc


class TestAmbientDimension:
    def test_cost_does_not_grow_with_d(self, tmp_path, capsys):
        # No chart data is d long: at d = 10^6 the run and its replay
        # allocate what they do at d = 2, and the trace differs only in its
        # d fields and in the variables of the factors blowups created
        # (the identity document has none of its own), each the last
        # variable, d - 1.
        d = 10 ** 6
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(ambient(identity_doc(), d)))
        tracemalloc.start()
        try:
            assert main(["--out", str(trace_path), "toroidalize", str(atlas_path)]) == 0
            assert main(["verify-trace", str(atlas_path), str(trace_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2 * 10 ** 6, peak
        trace = json.loads(trace_path.read_text())
        small = json.loads(canonical_dumps(toroidalize(*parse_document(identity_doc()))))
        assert "factors" in canonical_dumps(small)
        assert shifted_factors(ambient(trace, 2), d - 2) == small


class TestGlobalVerification:
    @staticmethod
    def smooth_doc(extra):
        """`identity_doc` with no script and a smooth stratum meeting
        `extra` global components (m = 2)."""
        doc = identity_doc()
        doc["script"] = []
        doc["charts"][0]["strata"][0].update(
            chart={"d": 2, "m": 2, "n": 0, "ell": 0, "s": 0, "tag": "smooth",
                   "matrix": []},
            row_labels=[], extra_global_labels=extra)
        return doc

    @staticmethod
    def toroidal_doc(extra):
        doc = identity_doc()
        doc["dims"]["d"] = 3
        stratum = doc["charts"][0]["strata"][0]
        stratum["chart"] = {"d": 3, "m": 2, "n": 1, "ell": 1, "s": 0,
                            "tag": "toroidal", "matrix": [[2]]}
        stratum["row_labels"] = ["L1"]
        stratum["extra_global_labels"] = extra
        doc["script"] = []
        return doc

    def test_extra_global_labels_extend(self):
        # A smooth stratum extends to the identity up to m components.
        for doc in (self.toroidal_doc(1), *map(self.smooth_doc, range(3))):
            atlas, _ = parse_document(doc)
            assert verify_global_toroidal(atlas).ok

    def test_extension_failure_detected(self):
        for doc in (self.toroidal_doc(3), self.smooth_doc(3)):
            atlas, _ = parse_document(doc)
            assert verify_global_toroidal(atlas).failures == (
                ("extend", "A/p0: not enough identity rows to extend"),)

    def test_mutated_stratum_reported_with_witness(self):
        # check_atlas owns the shape check of an input stratum.
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[1, 0], [2, 0]]
        atlas, script = parse_document(doc)
        report = check_atlas(atlas)
        assert ("column", "A/p0: column 1 has zero sum") in report.failures
        with pytest.raises(ToroidalizeError, match="column 1 has zero sum"):
            toroidalize(atlas, script)


class TestDeterminismAndReplay:
    def test_traces_byte_identical(self):
        for doc_fn in (identity_doc, two_chart_doc):
            atlas1, script1 = parse_document(doc_fn())
            atlas2, script2 = parse_document(doc_fn())
            t1 = toroidalize(atlas1, script1)
            t2 = toroidalize(atlas2, script2)
            assert canonical_dumps(t1) == canonical_dumps(t2)

    def test_replay_identical(self):
        atlas, script = parse_document(identity_doc())
        trace = toroidalize(atlas, script)
        atlas2, script2 = parse_document(identity_doc())
        fresh = replay(trace, atlas2, script2)
        assert canonical_dumps(fresh) == canonical_dumps(trace)

    def test_tampered_trace_rejected(self):
        atlas, script = parse_document(identity_doc())
        trace = toroidalize(atlas, script)
        tampered = copy.deepcopy(trace)
        tampered["steps"][0]["charts"]["A"]["lifts"][0]["chart"]["matrix"] = [[9, 9]]
        atlas2, script2 = parse_document(identity_doc())
        with pytest.raises(ReplayMismatch,
                           match="^step 0 differs from the recorded trace$"):
            replay(tampered, atlas2, script2)

    def replay_tampered(self, tamper):
        atlas, script = parse_document(identity_doc())
        tampered = copy.deepcopy(toroidalize(atlas, script))
        tamper(tampered)
        atlas2, script2 = parse_document(identity_doc())
        return replay(tampered, atlas2, script2)

    def test_replay_names_step_count(self):
        with pytest.raises(ReplayMismatch, match="^step count differs$"):
            self.replay_tampered(lambda t: t["steps"].append(t["steps"][0]))

    def test_replay_names_mismatch_outside_steps(self):
        def tamper(t):
            t["verdicts"]["commutes"] = not t["verdicts"]["commutes"]
        with pytest.raises(ReplayMismatch,
                           match="^trace differs outside the step records$"):
            self.replay_tampered(tamper)

    def test_replay_rejects_other_policy(self, tmp_path, capsys):
        def tamper(t):
            t["policy"] = "lex-only"
        with pytest.raises(ReplayMismatch,
                           match="^trace differs outside the step records$"):
            self.replay_tampered(tamper)
        atlas, script = parse_document(identity_doc())
        trace = toroidalize(atlas, script)
        assert trace["policy"] == "max-order-lex"
        tamper(trace)
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        trace_path.write_text(json.dumps(trace))
        assert main(["verify-trace", str(atlas_path), str(trace_path)]) == 1
        assert "replay mismatch" in capsys.readouterr().err

    def test_replay_rejects_trace1(self, tmp_path, capsys):
        # A trace/2 document and the trace/1 one rebuilt from it.
        atlas, script = parse_document(identity_doc())
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        trace2 = trace2_of(toroidalize(atlas, script), identity_doc())
        for old in (trace2, trace1_of(trace2)):
            trace_path.write_text(json.dumps(old))
            assert main(["verify-trace", str(atlas_path), str(trace_path)]) == 2
            assert capsys.readouterr().err == (
                "error: expected schema 'toroidal-trace/3'\n")

    def test_invalid_atlas_rejected(self):
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[1, 0], [2, 0]]
        atlas, script = parse_document(doc)
        with pytest.raises(ToroidalizeError):
            toroidalize(atlas, script)


def reversed_keys(doc):
    """`doc` with every object's keys in reverse order."""
    if isinstance(doc, dict):
        return {k: reversed_keys(doc[k]) for k in reversed(doc)}
    if isinstance(doc, list):
        return [reversed_keys(x) for x in doc]
    return doc


class TestStrictReplay:
    """A recorded trace read from its canonical text is identical by its
    strict bytes alone; anything else is decided by the stdlib encoder's
    canonical dumps, so 1, 1.0 and true still differ."""

    @pytest.fixture
    def dumps_calls(self, monkeypatch):
        calls = []

        def spy(doc):
            calls.append(doc)
            return stdlib_dumps(doc)
        monkeypatch.setattr(pipeline, "stdlib_dumps", spy)
        return calls

    def recorded(self):
        atlas, script = parse_document(identity_doc())
        return json.loads(canonical_dumps(toroidalize(atlas, script)))

    def replay_recorded(self, recorded):
        atlas, script = parse_document(identity_doc())
        return replay(recorded, atlas, script)

    def test_canonical_trace_needs_no_dumps(self, dumps_calls):
        recorded = self.recorded()
        fresh = self.replay_recorded(recorded)
        assert dumps_calls == []
        assert canonical_dumps(fresh) == canonical_dumps(recorded)

    def test_reordered_keys_replay_through_the_dumps(self, dumps_calls):
        recorded = reversed_keys(self.recorded())
        assert list(recorded) != sorted(recorded)
        self.replay_recorded(recorded)
        assert len(dumps_calls) == 2

    def lifted_matrix(self, trace):
        return trace["steps"][0]["charts"]["A"]["lifts"][0]["chart"]["matrix"]

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_equal_number_of_another_type_differs(self, value):
        recorded = self.recorded()
        row = self.lifted_matrix(recorded)[0]
        row[row.index(1)] = value
        with pytest.raises(ReplayMismatch,
                           match="^step 0 differs from the recorded trace$"):
            self.replay_recorded(recorded)

    def test_integer_for_a_verdict_differs(self):
        recorded = self.recorded()
        assert recorded["verdicts"]["pass"] is True
        recorded["verdicts"]["pass"] = 1
        with pytest.raises(ReplayMismatch,
                           match="^trace differs outside the step records$"):
            self.replay_recorded(recorded)

    @pytest.mark.parametrize("name", ["NaN", "Infinity"])
    def test_nan_for_a_null_differs(self, tmp_path, capsys, name):
        # orjson writes NaN and Infinity as null, so only the stdlib
        # encoder's dumps tell them from the null they replace.
        import orjson

        assert orjson.dumps(json.loads(name)) == b"null"
        text = canonical_dumps(toroidalize(*parse_document(identity_doc())))
        assert '"drop_col":null' in text
        text = text.replace('"drop_col":null', f'"drop_col":{name}', 1)
        with pytest.raises(ReplayMismatch,
                           match="^step 0 differs from the recorded trace$"):
            self.replay_recorded(json.loads(text))
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        trace_path.write_text(text)
        assert main(["verify-trace", str(atlas_path), str(trace_path)]) == 1
        assert capsys.readouterr().err == \
            "replay mismatch: step 0 differs from the recorded trace\n"

    @pytest.mark.parametrize("where", ["verdicts", "steps"])
    def test_self_containing_trace_raises(self, where):
        recorded = self.recorded()
        holder = recorded["verdicts"] if where == "verdicts" else recorded["steps"][0]
        holder["self"] = holder
        with pytest.raises(RecursionError):
            self.replay_recorded(recorded)


class TestCli:
    def run_cli(self, *argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "toroidal.cli", *argv],
            input=stdin, capture_output=True, text=True)

    def test_toroidalize_and_verify_roundtrip(self, tmp_path):
        atlas_path = tmp_path / "atlas.json"
        trace_path = tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        run = self.run_cli("--out", str(trace_path), "toroidalize",
                           str(atlas_path))
        assert run.returncode == 0, run.stderr
        run = self.run_cli("verify-trace", str(atlas_path), str(trace_path))
        assert run.returncode == 0, run.stderr
        run = self.run_cli("report", str(trace_path))
        assert run.returncode == 0
        assert "A/p0.e0z -> A/p0.e0z^ [case1] ell1=2 commutes=True" in run.stdout
        assert run.stdout.endswith(
            "global_failures: 0\ncommutes: True\ncap_exceeded: False\npass: True\n")

    @pytest.mark.parametrize("variant, status", [
        ("indented", 0), ("reversed", 0), ("bumped", 1), ("float", 1)])
    def test_verify_trace_reads_the_trace_not_its_bytes(self, tmp_path, variant, status):
        # Replay compares what the trace file says, so layout and key order
        # do not matter; a changed exponent or an integer written as a
        # float is a mismatch.
        trace = json.loads(canonical_dumps(toroidalize(*parse_document(identity_doc()))))
        row = trace["steps"][0]["charts"]["A"]["lifts"][0]["chart"]["matrix"][0]
        if variant == "bumped":
            row[0] += 1
        elif variant == "float":
            row[0] = float(row[0])
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        trace_path.write_text(json.dumps(trace, indent=2) if variant == "indented"
                              else json.dumps(reversed_keys(trace)) if variant == "reversed"
                              else json.dumps(trace))
        run = self.run_cli("verify-trace", str(atlas_path), str(trace_path))
        assert run.returncode == status, run.stderr
        if status == 0:
            assert json.loads(run.stdout)["replay"] == "identical"
        else:
            assert run.stderr == "replay mismatch: step 0 differs from the recorded trace\n"

    @pytest.mark.parametrize("how", ["stdout", "out"])
    def test_report_writes_utf8_whatever_the_locale(self, tmp_path, how):
        doc = json.loads(json.dumps(identity_doc()).replace('"A"', '"\\u00c4"'))
        trace_path, report_path = tmp_path / "trace.json", tmp_path / "report.txt"
        trace_path.write_text(canonical_dumps(toroidalize(*parse_document(doc))))
        env = dict(os.environ)
        if how == "stdout":
            env["PYTHONIOENCODING"] = "ascii"
            argv = ["report", str(trace_path)]
        else:
            env.update(LC_ALL="C", PYTHONUTF8="0")
            argv = ["--out", str(report_path), "report", str(trace_path)]
        run = subprocess.run([sys.executable, "-m", "toroidal.cli", *argv],
                             capture_output=True, env=env)
        assert run.returncode == 0, run.stderr
        text = run.stdout if how == "stdout" else report_path.read_bytes()
        assert "    chart Ä: 1 strata adapted".encode() in text

    def test_check_atlas(self, tmp_path):
        atlas_path = tmp_path / "atlas.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        assert self.run_cli("check-atlas", str(atlas_path)).returncode == 0

    def test_ideal_subcommand(self):
        run = self.run_cli("ideal", stdin=json.dumps(
            {"op": "factor", "generators": [[2, 1], [1, 3]]}))
        assert run.returncode == 0
        out = json.loads(run.stdout)
        assert out == {"monomial": [1, 1], "residual": [[0, 2], [1, 0]]}

    def test_normalize_toric_subcommand(self):
        run = self.run_cli("normalize-toric", stdin=json.dumps(
            {"source": [3, 2], "target": [2, 2],
             "matrix": [[1, 1, 1], [2, 2, 1]]}))
        assert run.returncode == 0
        out = json.loads(run.stdout)
        assert out["r"] == 1 and out["toroidal"]

    def test_invalid_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert self.run_cli("toroidalize", str(bad)).returncode == 2

    def test_extension_failure_exit_code(self, tmp_path):
        # A verdict failure exits 1 from toroidalize, verify-trace and report.
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["extra_global_labels"] = 1
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(doc))
        run = self.run_cli("--out", str(trace_path), "toroidalize", str(atlas_path))
        assert run.returncode == 1, run.stderr
        failures = json.loads(trace_path.read_text())["verdicts"]["global_failures"]
        assert ["extend", "A/p0.e0z^: not enough identity rows to extend"] in failures
        run = self.run_cli("verify-trace", str(atlas_path), str(trace_path))
        assert run.returncode == 1, run.stderr
        assert '"replay":"identical"' in run.stdout
        run = self.run_cli("report", str(trace_path))
        assert run.returncode == 1, run.stderr
        assert run.stdout.endswith("pass: False\n")

    def test_cap_exit_code(self, tmp_path):
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[2, 1], [1, 3]]
        doc["charts"][0]["strata"][0]["chart"]["d"] = 3
        doc["dims"]["d"] = 3
        atlas_path = tmp_path / "atlas.json"
        atlas_path.write_text(json.dumps(doc))
        run = self.run_cli("--cap", "1", "toroidalize", str(atlas_path))
        assert run.returncode == 3


class TestCliMore:
    run_cli = TestCli.run_cli

    def test_ideal_colon_and_decompose(self):
        run = self.run_cli("ideal", stdin=json.dumps(
            {"op": "colon", "generators": [[2, 1], [0, 3]], "arg": [1, 1]}))
        assert json.loads(run.stdout) == {"generators": [[0, 2], [1, 0]]}
        run = self.run_cli("ideal", stdin=json.dumps(
            {"op": "decompose", "generators": [[2, 0], [1, 1]]}))
        assert json.loads(run.stdout) == {
            "components": [[[0, 1], [2, 0]], [[1, 0]]]}

    def test_ideal_unknown_op(self):
        run = self.run_cli("ideal", stdin=json.dumps(
            {"op": "nope", "generators": [[1]]}))
        assert run.returncode == 2

    def test_blowup_subcommand(self):
        doc = {
            "chart": {"d": 2, "m": 2, "n": 2, "ell": 2, "s": 0, "tag": "qtf1",
                      "matrix": [[1, 0], [0, 1]], "ell_bar": 2},
            "center": {"divisor_indices": [0, 1], "slot_count": 0},
            "choice": {"j0": 0, "betas": [[1, {"kind": "zero"}]]},
        }
        run = self.run_cli("blowup", stdin=json.dumps(doc))
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["permissible"] is True
        assert out["chart"]["matrix"] == [[1, 0], [1, 1]]
        assert (out["var_map"], out["row_order"]) == ([0, 1], [0, 1])

    def test_principalize_subcommand(self):
        doc = {"strata": [{
            "id": "x0",
            "chart": {"d": 3, "m": 2, "n": 2, "ell": 2, "s": 0, "tag": "qtf1",
                      "matrix": [[2, 1], [1, 3]], "ell_bar": 2},
            "descriptor": {"ell_bar": 2, "c": 2, "divisor_rows": [0, 1]},
        }]}
        run = self.run_cli("principalize", stdin=json.dumps(doc))
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert len(out["steps"]) == 2
        assert all(f["status"] == "principal" for f in out["final"])


class TestDocumentRoundtrip:
    def test_chart_with_units_and_strata(self):
        from fractions import Fraction

        from toroidal.chart import ChartForm
        from toroidal.documents import chart_from_doc, chart_to_doc
        from toroidal.units import Stratum, UnitToken, UnitValue

        unit = UnitToken(UnitValue(Fraction(3, 2))).with_factor(
            [(4, UnitValue.symbol("g", Fraction(1, 2)), 2)])
        cf = ChartForm(
            d=5, m=3, n=2, ell=1, s=1, tag="qtf1",
            matrix=((2, 1), (1, 0)),
            units=(unit, UnitToken()),
            betas=(Stratum.of_value(Fraction(-7, 3)),),
            ell_bar=1)
        assert chart_from_doc(chart_to_doc(cf), "chart") == cf

    def test_generic_stratum_roundtrip(self):
        from toroidal.documents import stratum_from_doc, stratum_to_doc
        from toroidal.units import Stratum

        for s in (Stratum.zero(), Stratum.generic("q.1.2"),
                  Stratum.of_value(5), None):
            assert stratum_from_doc(stratum_to_doc(s), "stratum") == s


class TestMultiStepScript:
    def doc(self):
        doc = identity_doc()
        doc["dims"]["d"] = 3
        doc["charts"][0]["strata"][0]["chart"]["d"] = 3
        doc["script"] = [
            {"id": "z1",
             "views": {"A": {"c": 2, "contained": ["L1", "L2"]}},
             "incidence": {"L1": "in", "L2": "in"}},
            # Second center: inside the first exceptional and the strict
            # transform of L2; only the stratum carrying both is above it.
            {"id": "z2",
             "views": {"A": {"c": 2, "contained": ["exc.z1", "L2"]}},
             "incidence": {"exc.z1": "in", "L2": "in"}},
        ]
        return doc

    def test_two_step_run(self):
        atlas, script = parse_document(self.doc())
        assert verify_resolution_script(atlas, script).ok
        trace = toroidalize(atlas, script)
        assert trace["verdicts"]["pass"]
        step2 = trace["steps"][1]["charts"]["A"]
        adapted_ids = [a["stratum"] for a in step2["adapted"]]
        assert adapted_ids == ["A/p0.e0z^"]
        labels_seen = {tuple(l["row_labels"]) for l in step2["lifts"]}
        assert ("exc.z2", "L2") in labels_seen or ("exc.z2",) in labels_seen
        final = trace["final_atlas"]["charts"][0]["strata"]
        assert len(final) == 3 + 4  # three untouched strata + four new ones

    def test_two_step_determinism(self):
        atlas1, script1 = parse_document(self.doc())
        atlas2, script2 = parse_document(self.doc())
        assert canonical_dumps(toroidalize(atlas1, script1)) == \
            canonical_dumps(toroidalize(atlas2, script2))

    def test_unknown_chart_in_view_rejected(self):
        doc = self.doc()
        doc["script"][1]["views"]["ZZ"] = {"c": 2, "contained": ["L1"]}
        atlas, script = parse_document(doc)
        report = verify_resolution_script(atlas, script)
        assert any("unknown chart" in msg for _, msg in report.failures)

    def test_duplicate_stratum_id_rejected(self):
        doc = self.doc()
        doc["charts"][0]["strata"].append(dict(doc["charts"][0]["strata"][0]))
        with pytest.raises(Exception):
            parse_document(doc)


def _view(doc):
    return doc["script"][0]["views"]["A"]


def _stratum(doc):
    return doc["charts"][0]["strata"][0]


def _row(doc):
    return _stratum(doc)["chart"]["matrix"][0]


# name -> (field the error must name, mutation of identity_doc()).
BOUNDARY_MUTATIONS = {
    "view without c": ("'c'", lambda doc: _view(doc).pop("c")),
    "chart not an object": ("'chart'", lambda doc: _stratum(doc).update(chart=5)),
    "labels not a list": ("'labels'", lambda doc: doc.update(labels=3)),
    "script entry a string": ("'script'", lambda doc: doc.update(script=["z1"])),
    "incidence a list": ("'incidence'",
                         lambda doc: doc["script"][0].update(incidence=[["L1", "in"]])),
    "row_labels not a list": ("'row_labels'",
                              lambda doc: _stratum(doc).update(row_labels=7)),
    "negative extra labels": ("'extra_global_labels'",
                              lambda doc: _stratum(doc).update(extra_global_labels=-1)),
    "view names unknown stratum": ("'strata'",
                                   lambda doc: _view(doc).update(strata=["p9"])),
    "under_e0 a string": ("'under_e0'",
                          lambda doc: doc["labels"][0].update(under_e0="no")),
    "c above m": ("'c'", lambda doc: _view(doc).update(c=9)),
    # An integer field takes a JSON integer only, never a truncated float,
    # a bool or a numeric string.
    "matrix entry a float": ("'matrix'", lambda doc: _row(doc).__setitem__(0, 1.7)),
    "matrix entry a bool": ("'matrix'", lambda doc: _row(doc).__setitem__(0, True)),
    "c a float": ("'c'", lambda doc: _view(doc).update(c=2.9)),
    "c a string": ("'c'", lambda doc: _view(doc).update(c="2")),
    "d a float": ("'d'", lambda doc: doc["dims"].update(d=2.5)),
}


class TestInputBoundary:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_MUTATIONS))
    def test_main_exits_invalid_naming_the_field(self, name, tmp_path, capsys):
        field, mutate = BOUNDARY_MUTATIONS[name]
        doc = identity_doc()
        mutate(doc)
        path = tmp_path / "atlas.json"
        path.write_text(json.dumps(doc))
        assert main(["toroidalize", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


# The two-blowup family of `TestCliMore.test_principalize_subcommand`.
TWO_BLOWUP_FAMILY = {"strata": [{
    "id": "x0",
    "chart": {"d": 3, "m": 2, "n": 2, "ell": 2, "s": 0, "tag": "qtf1",
              "matrix": [[2, 1], [1, 3]], "ell_bar": 2},
    "descriptor": {"ell_bar": 2, "c": 2, "divisor_rows": [0, 1]},
}]}


# An exhausted resource and the reason its error line gives.
EXHAUSTED = [(MemoryError(), "out of memory"),
             (RecursionError("maximum recursion depth exceeded"),
              "maximum recursion depth exceeded")]


class TestExitStatuses:
    """Valid input outside the engine's regime exits 4, an engine
    postcondition failure exits 5; each prints one error line."""

    def run_main(self, tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status = main([command, str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return status, err

    def test_check_atlas_reports_c_above_m(self, tmp_path, capsys):
        doc = identity_doc()
        _view(doc)["c"] = 9
        status, _ = self.run_main(tmp_path, capsys, "check-atlas", doc)
        assert status == 1
        atlas, script = parse_document(doc)
        report = verify_resolution_script(atlas, script)
        assert [code for code, _ in report.failures] == ["codim"]
        assert "step z1" in report.failures[0][1]

    def test_no_permissible_center(self, tmp_path, capsys, monkeypatch):
        # Every maximum-order component of a chart in its tag's shape is a
        # permissible center, so a rejected one is an engine bug.
        monkeypatch.setattr(principalize, "matrix_permissibility",
                            lambda cf, center: (False, ("row", 0)))
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert (status, err) == (5, "error: stratum A/p0: max-order component (0, 1) "
                                    "is not a permissible center: ('row', 0)\n")

    def test_child_without_permissible_center_names_its_path(
            self, tmp_path, capsys, monkeypatch):
        # The root's center passes; every later center is rejected.
        real, tested = principalize.matrix_permissibility, []

        def first_only(cf, center):
            tested.append(center)
            return real(cf, center) if len(tested) == 1 else (False, ("row", 0))

        monkeypatch.setattr(principalize, "matrix_permissibility", first_only)
        status, err = self.run_main(tmp_path, capsys, "principalize",
                                    TWO_BLOWUP_FAMILY)
        assert status == 5
        assert err.startswith("error: stratum x0.e1z (parent path x0): max-order "
                              "component (0, 1) is not a permissible center"), err

    def test_runaway_guard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(principalize, "RUNAWAY_GUARD", 1)
        status, err = self.run_main(tmp_path, capsys, "principalize",
                                    TWO_BLOWUP_FAMILY)
        assert status == 4
        assert err.startswith("error: stratum x0.e1z (parent path x0): "
                              "runaway principalization"), err

    def test_deep_parent_path_grows_by_suffixes(self, tmp_path, capsys, monkeypatch):
        # Below the root each ancestor is written as the suffix its id adds
        # to its parent's; before, as `x0 > x0.e1z > x0.e1z.e1z`.
        monkeypatch.setattr(principalize, "RUNAWAY_GUARD", 3)
        doc = json.loads(json.dumps(TWO_BLOWUP_FAMILY))
        doc["strata"][0]["chart"]["matrix"] = [[4, 1], [1, 5]]
        status, err = self.run_main(tmp_path, capsys, "principalize", doc)
        assert status == 4
        assert err.startswith("error: stratum x0.e1z.e1z.e0z (parent path x0 > .e1z > "
                              ".e1z): runaway principalization"), err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="integers of any length convert to text")
    def test_constant_too_long_to_write(self, tmp_path, capsys):
        # check-atlas accepts the units (x2 + 3)^7000 on row 0 and
        # (x3 + 3)^-7000 on row 1: each token's constant has 14,000 bits,
        # under the bound a token is read with.  But the lift carries the
        # constant 3^14000 of their quotient, which `str` will not write:
        # neither could a trace, nor `Fraction` read one back.
        doc = identity_doc()
        doc["dims"]["d"] = 4
        stratum = doc["charts"][0]["strata"][0]
        stratum["chart"]["d"] = 4
        stratum["chart"]["units"] = [
            {"factors": [{"var": var, "shift": {"coeff": "3"}, "exp": exp}]}
            for var, exp in ((2, 7000), (3, -7000))]
        status, _ = self.run_main(tmp_path, capsys, "check-atlas", doc)
        assert status == 0
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps({"schema": pipeline.TRACE_SCHEMA,
                                          "engine": toroidal.__version__}))
        expected = (f"error: stratum A/p0.e0z (parent path A/p0): a constant has more "
                    f"than {sys.get_int_max_str_digits()} digits, too long to write\n")
        for argv in (["toroidalize", str(tmp_path / "doc.json")],
                     ["verify-trace", str(tmp_path / "doc.json"), str(trace_path)]):
            assert main(argv) == 4
            assert capsys.readouterr().err == expected

    def refused_on_read(self, tmp_path, capsys, factors, at):
        """`factors` as the row-0 unit of `identity_doc()` at d = 3 exit 4
        from `check-atlas` and `toroidalize` within a second, naming factor `at`."""
        doc = identity_doc()
        doc["dims"]["d"] = 3
        stratum = doc["charts"][0]["strata"][0]
        stratum["chart"]["d"] = 3
        stratum["chart"]["units"] = [{"factors": factors}, None]
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        bound = (10 ** digits).bit_length()
        for command in ("check-atlas", "toroidalize"):
            start = time.perf_counter()
            status, err = self.run_main(tmp_path, capsys, command, doc)
            assert time.perf_counter() - start < 1
            assert status == 4
            assert err == (f"error: stratum A/p0 chart unit 0 factor {at}: its constant "
                           f"would have more than {bound} bits, too long to compute\n")

    def test_factor_too_large_to_compute(self, tmp_path, capsys):
        # (x2 + 3)^(10^10) is refused where it is read, not computed for
        # minutes inside the engine.
        self.refused_on_read(tmp_path, capsys, [
            {"var": 2, "shift": {"coeff": "3"}, "exp": 10 ** 10}], 0)

    def test_factors_too_large_together(self, tmp_path, capsys):
        # 100 copies of (x2 + 3)^7000, 14,000 bits each and under the bound
        # alone, are refused at the second: the bound is on their sum.
        self.refused_on_read(tmp_path, capsys, [
            {"var": 2, "shift": {"coeff": "3"}, "exp": 7000}] * 100, 1)

    def test_factor_of_a_unit_coefficient_is_not_bounded(self, tmp_path, capsys):
        # (x2 + a)^20000 and (x2 - 1)^20001: a symbol power and a sign, cheap
        # at any exponent, so the bound lets them through.
        doc = identity_doc()
        doc["dims"]["d"] = 3
        stratum = doc["charts"][0]["strata"][0]
        stratum["chart"]["d"] = 3
        stratum["chart"]["units"] = [{"factors": [
            {"var": 2, "shift": {"coeff": "1", "symbols": [["a", "1"]]}, "exp": 20000},
            {"var": 2, "shift": {"coeff": "-1"}, "exp": 20001}]}, None]
        for command in ("check-atlas", "toroidalize"):
            assert self.run_main(tmp_path, capsys, command, doc) == (0, "")

    @pytest.mark.parametrize("error, line", EXHAUSTED)
    def test_memory_or_recursion_exhausted(self, tmp_path, capsys, monkeypatch,
                                           error, line):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "toroidalize", exhausted)
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert (status, err) == (4, f"error: {line}\n")

    @pytest.mark.parametrize("error, line", EXHAUSTED)
    @pytest.mark.parametrize("command, what", [("toroidalize", "trace"),
                                               ("check-atlas", "atlas check")])
    def test_exhaustion_while_writing_names_the_output(
            self, tmp_path, capsys, monkeypatch, error, line, command, what):
        def exhausted(doc):
            raise error

        monkeypatch.setattr(cli, "canonical_dumps", exhausted)
        status, err = self.run_main(tmp_path, capsys, command, identity_doc())
        assert (status, err) == (4, f"error: writing the {what}: {line}\n")

    @pytest.mark.parametrize("where", ["missing/trace.json", "."])
    def test_unwritable_output_is_invalid(self, tmp_path, capsys, where):
        # A missing directory and a directory exit 2 like an unreadable input,
        # not 1 (a verdict failure) with a traceback.
        doc_path, out = tmp_path / "doc.json", tmp_path / where
        doc_path.write_text(json.dumps(identity_doc()))
        status = main(["--out", str(out), "toroidalize", str(doc_path)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    @pytest.mark.parametrize("error, line", EXHAUSTED)
    def test_exhaustion_names_its_stratum(self, tmp_path, capsys, monkeypatch,
                                          error, line):
        real, calls = principalize.enumerate_blowup_strata, []

        def second_exhausts(*args):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return real(*args)

        monkeypatch.setattr(principalize, "enumerate_blowup_strata", second_exhausts)
        status, err = self.run_main(tmp_path, capsys, "principalize", TWO_BLOWUP_FAMILY)
        assert (status, err) == (4, f"error: stratum x0.e1z (parent path x0): {line}\n")

    def test_internal_check_error(self, tmp_path, capsys, monkeypatch):
        # The adapted root keeps the identity matrix; every blowup child fails.
        monkeypatch.setattr(chart, "shape_failures", lambda cf, tag: (
            [] if cf.matrix == ((1, 0), (0, 1)) else [("forced", "failure")]))
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert status == 5
        assert err.startswith("error: stratum A/p0: built chart is not qtf1: "
                              "forced: failure"), err

    def test_internal_check_error_in_a_lift(self, tmp_path, capsys, monkeypatch):
        # Every chart the lift builds fails its shape check; the input's
        # check (`check_atlas`) runs the real one.
        def failing_shape(**fields):
            with monkeypatch.context() as patch:
                patch.setattr(chart, "shape_failures",
                              lambda cf, tag: [("forced", "failure")])
                return chart.built_chart(**fields)

        monkeypatch.setattr(lift, "built_chart", failing_shape)
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert status == 5
        assert err.startswith("error: stratum A/p0.e0z (parent path A/p0): "
                              "built chart is not toroidal: forced: failure"), err

    def test_lift_that_does_not_commute_is_internal(self, tmp_path, capsys, monkeypatch):
        # Double the first lifted unit constant: the structure stays sound,
        # so only the commutation check can catch it.
        real = lift._lift_constants

        def corrupted(cf, sk):
            result = real(cf, sk)
            units_ = list(result.lifted.units)
            units_[0] = units.UnitToken(units_[0].constant() * units.UnitValue(2))
            return result._replace(lifted=rebuilt_chart(result.lifted, units=tuple(units_)))

        monkeypatch.setattr(lift, "_lift_constants", corrupted)
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert status == 5
        assert err.startswith("error: stratum A/p0.e0z (parent path A/p0): "
                              "lift does not commute: "), err

    def test_later_leaf_constant_fault_is_internal(self, tmp_path, capsys, monkeypatch):
        # A/p0.e1g is the fourth leaf and the second of A/p0.e0g's shape: its
        # lift through the shared skeleton is checked in full, like each of
        # the three before it, and the check catches the bad constant.
        real, seen, full = lift._lift_constants, set(), []

        def corrupted(cf, sk):
            result = real(cf, sk)
            if id(sk) not in seen:
                seen.add(id(sk))
                return result
            units_ = list(result.lifted.units)
            units_[0] = units.UnitToken(units_[0].constant() * units.UnitValue(2))
            return result._replace(lifted=rebuilt_chart(result.lifted, units=tuple(units_)))

        real_verify = lift.verify_commutes
        monkeypatch.setattr(lift, "_lift_constants", corrupted)
        monkeypatch.setattr(lift, "verify_commutes",
                            lambda cf, result: full.append(cf) or real_verify(cf, result))
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert status == 5
        assert err.startswith("error: stratum A/p0.e1g (parent path A/p0): lift does not "
                              "commute: constant: row 0 constant does not recompose"), err
        assert len(full) == 4 and len(seen) == 3

    @staticmethod
    def strict_row_relabelled_kept(monkeypatch):
        # The skeleton passes its first strict row off as kept, unreduced:
        # the check takes the center rows from the chart, not from the skeleton.
        # The pipeline builds every principal shape's skeleton, so one with no
        # strict row is left as it is.
        real = lift._skeleton_inside_divisor

        def relabelled(cf, case, gen_row):
            drop_col, zero, sources, matrix = real(cf, case, gen_row)
            k = next((k for k, (kind, _) in enumerate(sources) if kind == "strict"), None)
            if k is None:
                return drop_col, zero, sources, matrix
            i = sources[k][1]
            return (drop_col, zero, sources[:k] + (("kept", i),) + sources[k + 1:],
                    matrix[:k] + (cf.matrix[i],) + matrix[k + 1:])

        monkeypatch.setattr(lift, "_skeleton_inside_divisor", relabelled)
        return identity_doc(), "A/p0.e0z", "row 1"

    @staticmethod
    def generator_off_the_minimum(monkeypatch):
        real = lift._case_and_generator

        def off_by_one(cf):
            case, gen_row = real(cf)
            return case, (gen_row + 1) % cf.ell_bar if case == lift.CASE1 else gen_row

        monkeypatch.setattr(lift, "_case_and_generator", off_by_one)
        return rank_deficient_doc(), "A/p0.e0z", "row 1"

    @staticmethod
    def final_rows_replaced(monkeypatch, rows):
        real = pipeline.principalize_chart_family

        def corrupted(family, cap):
            trace = real(family, cap=cap)
            return trace._replace(final=tuple(
                f._replace(chart=rebuilt_chart(f.chart, matrix=tuple(
                    rows.get(i, row) for i, row in enumerate(f.chart.matrix))))
                for f in trace.final))

        monkeypatch.setattr(pipeline, "principalize_chart_family", corrupted)

    @classmethod
    def outside_generator_off_the_exceptional(cls, monkeypatch):
        cls.final_rows_replaced(monkeypatch, {1: (1, 1), 2: (1, 1)})
        return outside_divisor_doc(), "A/p0.e1z", "row 1"

    @classmethod
    def divisor_row_meets_the_exceptional(cls, monkeypatch):
        cls.final_rows_replaced(monkeypatch, {0: (1, 1)})
        return outside_divisor_doc(), "A/p0.e1z", "row 0"

    @staticmethod
    def case3_generator_on_the_zero_slot(monkeypatch):
        # y'_ell = y_ell / y_(ell+1) carries 1/x_s, the slot variable of the
        # zero-stratum slot row: seen only over the slot columns.
        real = lift._case_and_generator

        def moved(cf):
            case, gen_row = real(cf)
            t = gen_row + 1 - cf.ell
            if case == lift.CASE3 and t < cf.s and cf.betas[t].is_zero:
                return case, gen_row + 1
            return case, gen_row

        monkeypatch.setattr(lift, "_case_and_generator", moved)
        return outside_divisor_doc(), "A/p0.e1z", "row 1"

    # The skeleton faults only the commutation check catches.
    COMMUTATION_FAULTS = (
        "strict_row_relabelled_kept",
        "generator_off_the_minimum",
        "outside_generator_off_the_exceptional",
        "divisor_row_meets_the_exceptional",
        "case3_generator_on_the_zero_slot",
    )

    @pytest.mark.parametrize("fault", COMMUTATION_FAULTS)
    def test_skeleton_fault_does_not_commute(
            self, tmp_path, capsys, monkeypatch, fault):
        # A relabelled row and a generator on the zero slot passed every
        # check; each other fault failed a skeleton check of its own.  The
        # commutation check catches all.
        doc, stratum, row = getattr(self, fault)(monkeypatch)
        status, err = self.run_main(tmp_path, capsys, "toroidalize", doc)
        assert status == 5
        assert err.startswith(f"error: stratum {stratum} (parent path A/p0): "
                              f"lift does not commute: exponent: {row} "), err

    @pytest.mark.parametrize("cap", [0, 1])
    def test_capped_strata_are_above_no_later_center(self, tmp_path, capsys, cap):
        # The cap stops strata carrying L2 in step z1; step z2 leaves them
        # as they are, and the run exits 3 with a trace that replays and
        # verifies to 3 as well, and reports 3.
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(second_center_doc()))
        status = main(["--cap", str(cap), "--out", str(trace_path), "toroidalize",
                       str(atlas_path)])
        assert (status, capsys.readouterr().err) == (3, "")
        trace = json.loads(trace_path.read_text())
        capped = [s for c in trace["final_atlas"]["charts"] for s in c["strata"]
                  if s["chart"]["tag"] != TOROIDAL]
        assert capped and all("L2" in s["row_labels"] for s in capped)
        adapted = [a["stratum"] for a in trace["steps"][1]["charts"]["A"]["adapted"]]
        assert not {s["id"] for s in capped} & set(adapted)
        status = main(["verify-trace", str(atlas_path), str(trace_path)])
        out = json.loads(capsys.readouterr().out)
        assert (status, out["replay"], out["verdicts"]["pass"]) == (3, "identical", False)
        assert main(["report", str(trace_path)]) == 3
        assert capsys.readouterr().out.endswith("cap_exceeded: True\npass: False\n")

    def test_capped_stratum_listed_in_a_view_is_left_alone(self, tmp_path, capsys):
        doc = second_center_doc()
        doc["script"][1]["views"]["A"]["strata"] = ["p0"]
        atlas, script = parse_document(doc)
        trace = toroidalize(atlas, script, cap=0)
        assert trace["steps"][1]["charts"]["A"] == {"adapted": [], "lifts": []}
        assert [s["id"] for s in trace["final_atlas"]["charts"][0]["strata"]] == ["A/p0"]
        assert trace["verdicts"]["cap_exceeded"]

    def test_lifted_id_taken_by_a_kept_stratum(self, tmp_path, capsys):
        # p0 is principal at the root, so its lift is A/p0^: the id of a
        # stratum the step keeps.
        doc = identity_doc()
        strata = doc["charts"][0]["strata"]
        strata[0]["chart"]["matrix"] = [[1, 0], [1, 1]]
        strata.append({"id": "p0^", "chart": {"d": 2, "m": 2, "n": 0, "ell": 0, "s": 0,
                                              "tag": "smooth", "matrix": []}})
        status, err = self.run_main(tmp_path, capsys, "toroidalize", doc)
        assert (status, err) == (
            2, "error: step z1 chart A: stratum id 'A/p0^' is already taken\n")

    def test_uncapped_second_center_passes(self, tmp_path, capsys):
        status, err = self.run_main(tmp_path, capsys, "toroidalize", second_center_doc())
        assert (status, err) == (0, "")

    def test_malformed_engine_chart_is_internal(self, tmp_path, capsys, monkeypatch):
        # A unit factor on an active variable breaks the chart's structure;
        # the engine built it, so it is a bug (5), not bad input (2).
        real = units.UnitToken.with_factor
        monkeypatch.setattr(units.UnitToken, "with_factor",
                            lambda self, factors: real(self, [(0, value, k)
                                                              for _, value, k in factors]))
        status, err = self.run_main(tmp_path, capsys, "toroidalize", identity_doc())
        assert status == 5
        assert err.startswith("error: stratum A/p0: built chart: malformed chart: "
                              "unit of row 1 touches active variable 0"), err

    def test_unit_on_a_variable_beyond_d(self, tmp_path, capsys):
        # Before, the factor was accepted and written into the trace.
        doc = identity_doc()
        doc["dims"]["d"] = 3
        chart_doc = doc["charts"][0]["strata"][0]["chart"]
        chart_doc["d"] = 3
        chart_doc["units"] = [{"base": {"coeff": "2"}, "factors": [
            {"var": 100, "shift": {"coeff": "1"}, "exp": 1}]}, {}]
        status, err = self.run_main(tmp_path, capsys, "toroidalize", doc)
        assert (status, err) == (2, "error: stratum A/p0 chart: malformed chart: "
                                    "unit of row 0 touches variable 100 >= d = 3\n")

    @pytest.mark.parametrize("steps", [5, None])
    def test_verify_trace_needs_a_steps_list(self, tmp_path, capsys, steps):
        trace = toroidalize(*parse_document(identity_doc()))
        trace["steps"] = steps
        atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
        atlas_path.write_text(json.dumps(identity_doc()))
        trace_path.write_text(json.dumps(trace))
        status = main(["verify-trace", str(atlas_path), str(trace_path)])
        assert status == 2
        assert capsys.readouterr().err == "error: trace: field 'steps' must be a list\n"

    def test_blowup_checks_its_center_once(self, tmp_path, capsys, monkeypatch):
        checks = []
        real = blowup._check_center
        monkeypatch.setattr(blowup, "_check_center",
                            lambda cf, center: checks.append(1) or real(cf, center))
        doc = {
            "chart": {"d": 2, "m": 2, "n": 2, "ell": 2, "s": 0, "tag": "qtf1",
                      "matrix": [[1, 0], [0, 1]], "ell_bar": 2},
            "center": {"divisor_indices": [0, 1], "slot_count": 0},
            "choice": {"j0": 0, "betas": [[1, {"kind": "zero"}]]},
        }
        status, _ = self.run_main(tmp_path, capsys, "blowup", doc)
        assert status == 0
        assert len(checks) == 1

    # qtf1 charts off their tag's shape: a slot row off the column minima
    # (3 != 1) and a divisor column of zeros.
    OFF_MINIMA = {"d": 3, "m": 2, "n": 2, "ell": 1, "s": 1, "tag": "qtf1",
                  "matrix": [[3, 1], [1, 3]], "betas": [{"kind": "zero"}], "ell_bar": 1}
    ZERO_COLUMN = {"d": 3, "m": 2, "n": 2, "ell": 2, "s": 0, "tag": "qtf1",
                   "matrix": [[1, 0], [2, 0]], "ell_bar": 2}
    OFF_MINIMA_LINE = "chart is not qtf1: min-row: slot row 0 column 1: 3 != min 1"
    ZERO_COLUMN_LINE = "chart is not qtf1: column: column 1 has zero sum over rows [2]"

    @pytest.mark.parametrize("chart_doc, line", [
        (OFF_MINIMA, OFF_MINIMA_LINE), (ZERO_COLUMN, ZERO_COLUMN_LINE)],
        ids=["off_minima", "zero_column"])
    def test_principalize_checks_each_root_shape(self, tmp_path, capsys, chart_doc, line):
        ell_bar = chart_doc["ell_bar"]
        doc = {"strata": [{"id": "x0", "chart": chart_doc, "descriptor": {
            "ell_bar": ell_bar, "c": 2, "divisor_rows": list(range(ell_bar))}}]}
        status, err = self.run_main(tmp_path, capsys, "principalize", doc)
        assert (status, err) == (2, f"error: stratum x0: {line}\n")

    @pytest.mark.parametrize("chart_doc, choice, line", [
        (OFF_MINIMA, {"j0": 2, "betas": [[0, {"kind": "zero"}], [1, {"kind": "zero"}]]},
         OFF_MINIMA_LINE),
        (ZERO_COLUMN, {"j0": 1, "betas": [[0, {"kind": "zero"}]]}, ZERO_COLUMN_LINE)],
        ids=["off_minima", "zero_column"])
    def test_blowup_checks_its_chart_shape(self, tmp_path, capsys, chart_doc, choice, line):
        doc = {"chart": chart_doc, "choice": choice, "center": {
            "divisor_indices": [0, 1], "slot_count": chart_doc["s"]}}
        status, err = self.run_main(tmp_path, capsys, "blowup", doc)
        assert (status, err) == (2, f"error: {line}\n")


def sharing_faults(trace) -> list[str]:
    """Where `trace` breaks its sharing rule: it reaches every dict and list
    once, but a lifted chart's document, which is its lift record's `chart`
    and, while the stratum survives (no later step adapts it), its
    `final_atlas` entry's.  Empty when the rule holds."""
    reached: dict[int, int] = {}

    def walk(obj):
        if isinstance(obj, (dict, list)):
            reached[id(obj)] = reached.get(id(obj), 0) + 1
            if reached[id(obj)] == 1:
                for child in obj.values() if isinstance(obj, dict) else obj:
                    walk(child)

    walk(trace)
    final = {(chart["id"], s["id"]): s["chart"]
             for chart in trace["final_atlas"]["charts"] for s in chart["strata"]}
    faults, expected = [], {}
    for k, step in enumerate(trace["steps"]):
        for chart_id, record in step["charts"].items():
            for lift_doc in record["lifts"]:
                sid, doc = lift_doc["lifted_id"], lift_doc["chart"]
                survives = not any(
                    a["stratum"] == sid for later in trace["steps"][k + 1:]
                    for a in later["charts"].get(chart_id, {}).get("adapted", ()))
                if survives and final.get((chart_id, sid)) is not doc:
                    faults.append(f"{sid}: final_atlas does not share its lift's chart")
                expected[id(doc)] = 1 + survives
    faults += [f"a document reached {count} times, not {expected.get(key, 1)}"
               for key, count in reached.items() if count != expected.get(key, 1)]
    return faults


class TestTraceSharing:
    """A trace shares no document but a lifted chart's (`sharing_faults`),
    encoded once; nothing is shared between two calls."""

    def parsed(self):
        doc = identity_doc()
        doc["charts"][0]["strata"][0]["chart"]["units"] = [{"base": {"coeff": "3/2"}}, {}]
        return parse_document(doc)

    def test_mutating_a_trace_leaves_the_next_run_alone(self):
        atlas, script = self.parsed()
        first = toroidalize(atlas, script)
        before = canonical_dumps(first)
        lifted = first["steps"][0]["charts"]["A"]["lifts"][0]["chart"]
        assert lifted["units"][0]["base"] == {"coeff": "3/2"}  # the input's constant
        lifted["matrix"][0][0] += 7  # a copy of the engine's row
        assert canonical_dumps(first) != before
        assert canonical_dumps(toroidalize(atlas, script)) == before
        lifted["units"][0]["base"]["coeff"] = "999"
        assert canonical_dumps(toroidalize(atlas, script)) == before

    @pytest.mark.parametrize("cap", [1, 50])
    def test_only_a_lifted_chart_is_shared(self, cap, monkeypatch):
        # At cap 1 some strata the cap stopped sit in the final atlas, and
        # step z2 replaces lifted strata of step z1.
        lifted, encoded = [], []

        def lifting(*args):
            result = lift.lift_after_principalization(*args)
            lifted.append(result.lifted)
            return result

        def encoding(cf):
            encoded.append(cf)
            return documents.chart_to_doc(cf)

        monkeypatch.setattr(pipeline, "lift_after_principalization", lifting)
        monkeypatch.setattr(pipeline, "chart_to_doc", encoding)
        trace = toroidalize(*parse_document(second_center_doc()), cap=cap)
        assert sharing_faults(trace) == []
        lifts = [lift_doc for step in trace["steps"]
                 for record in step["charts"].values() for lift_doc in record["lifts"]]
        assert len(lifts) == len(lifted) > 0
        assert trace["verdicts"]["cap_exceeded"] == (cap == 1)
        assert [sum(x is cf for x in encoded) for cf in lifted] == [1] * len(lifted)
