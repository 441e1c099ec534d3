"""Benchmark for `toroidalize` and `replay` on seeded atlas documents.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  One process, no threads.  Each run:

1. sets up several times (re-import the package, build the workload's
   documents from the seed) and keeps the median as `setup_s`;
2. runs the checker self-test (selftest.py);
3. measures whole rounds: the workload's fixed count of them
   (workloads.ROUNDS), then more until `--seconds` have passed, which are
   checked but not counted in the times.  A round takes every document
   through parse -> toroidalize -> canonical dump (what `toroidal
   toroidalize FILE` does, without process start) and then parse ->
   replay (what `toroidal verify-trace` does).  Every timed call is
   also scaled to the reference machine speed (speed.py), and the time
   metrics are each document's median scaled time over the counted
   rounds, summed;
4. checks the first round's traces with the independent checker
   (check.py), and every later round's traces byte for byte against the
   first;
5. with `--trace 0`, runs one document through the command line in a
   subprocess and requires the same bytes; with `--trace 1`, alternates
   untraced and traced rounds in step 3 (TRACE_PAIRS pairs counted) and
   reports the per-layer metrics of the first traced round and the
   tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one document in
one round; it fails when the engine raises, the checker flags its trace,
its replay differs, or its trace differs from the first round's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import selftest
import speed
from tracer import Tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
TRACE_PAIRS = 2
CLI_TIMEOUT_S = 120
NULL_SPAN = nullcontext()


def no_span(*args):
    return NULL_SPAN


@dataclass
class DocRun:
    doc_id: str
    toroidalize_s: float = 0.0  # scaled to the reference speed (speed.py)
    replay_s: float = 0.0
    toroidalize_wall_s: float = 0.0
    replay_wall_s: float = 0.0
    trace_text: str = ""
    replay_identical: bool = False
    matches_first: bool = True
    error: str | None = None


def setup(workload: str, seed: int):
    """Import the package afresh and build the documents."""
    for key in [k for k in sys.modules if k == "toroidal" or k.startswith("toroidal.")]:
        del sys.modules[key]
    importlib.import_module("toroidal")
    docs = workloads.build(workload, seed)
    return sys.modules["toroidal.pipeline"], sys.modules["toroidal.documents"], docs


def run_round(docs, pipeline, documents, span, meter) -> list[DocRun]:
    """Module attributes are looked up per call, so an installed tracer's
    wrappers are the functions this round runs.  The meter times each
    call at the wall clock and scaled to the reference speed."""
    runs = []
    for k, (doc_id, text) in enumerate(docs):
        run = DocRun(doc_id)
        try:
            with meter.timed() as made, span("bench.toroidalize", k):
                with span("documents.parse"):
                    atlas, script = pipeline.parse_document(json.loads(text))
                trace = pipeline.toroidalize(atlas, script)
                run.trace_text = documents.canonical_dumps(trace)
            run.toroidalize_wall_s, run.toroidalize_s = made.wall_s, made.reference_s
            del trace, atlas, script
            with meter.timed() as replayed, span("bench.replay", k):
                with span("documents.parse"):
                    atlas, script = pipeline.parse_document(json.loads(text))
                    recorded = json.loads(run.trace_text)
                fresh = pipeline.replay(recorded, atlas, script)
            run.replay_wall_s, run.replay_s = replayed.wall_s, replayed.reference_s
            run.replay_identical = check.check_replay(run.trace_text, fresh)
            del fresh, recorded, atlas, script
        except Exception as exc:  # a failing document is a failed operation
            run.error = f"{type(exc).__name__}: {exc}"
        runs.append(run)
    return runs


def compare_to_first(runs, first) -> None:
    """Keep only whether a later round's trace repeats the first round's
    bytes, so memory does not grow with the number of rounds."""
    for run, ref in zip(runs, first):
        run.matches_first = run.trace_text == ref.trace_text
        run.trace_text = ""


def check_rounds(docs, rounds):
    """Independent check of the first round; later rounds must repeat its
    bytes.  Returns (failed operations, failure notes, per-doc results)."""
    first = rounds[0]
    results = {}
    notes = []
    for (doc_id, text), run in zip(docs, first):
        if run.error is None:
            results[doc_id] = check.check_document(json.loads(text),
                                                   json.loads(run.trace_text))
    failed = 0
    for runs in rounds:
        for run in runs:
            problem = run.error or (None if run.replay_identical else "replay differs")
            res = results.get(run.doc_id)
            if problem is None and res is None:
                problem = "not checked: failed in the first round"
            elif problem is None and res.failures:
                problem = f"checker: {res.failures[:2]}"
            elif problem is None and not run.matches_first:
                problem = "trace differs from the first round"
            if problem:
                failed += 1
                notes.append(f"{run.doc_id}: {problem}")
    return failed, notes, results


def cli_parity(doc_id, text, trace_text) -> str | None:
    """`toroidal toroidalize` then `verify-trace` in a subprocess; None
    when both exit 0 and the trace bytes equal the in-process ones."""
    workdir = OUT / f"cli-{doc_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        atlas_path = workdir / "atlas.json"
        atlas_path.write_text(text)
        made = subprocess.run(
            [sys.executable, "-m", "toroidal.cli", "toroidalize", str(atlas_path)],
            capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
        if made.returncode != 0:
            return f"toroidalize exited {made.returncode}: {made.stderr[-300:]}"
        if made.stdout != trace_text + "\n":
            return "command-line trace differs from the in-process trace"
        trace_path = workdir / "trace.json"
        trace_path.write_text(made.stdout)
        verified = subprocess.run(
            [sys.executable, "-m", "toroidal.cli", "verify-trace",
             str(atlas_path), str(trace_path)],
            capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
        if verified.returncode != 0:
            return f"verify-trace exited {verified.returncode}: {verified.stderr[-300:]}"
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_document(docs, results):
    """The document with the fewest blowups, at least one, that passed
    the checker."""
    candidates = [(results[doc_id].blowups, doc_id, text)
                  for doc_id, text in docs
                  if doc_id in results and results[doc_id].blowups > 0
                  and not results[doc_id].failures]
    return min(candidates, default=None)


def measure(seconds, counted, run_one):
    """Whole rounds `run_one(i)`: the `counted` ones, then more until
    `seconds` have passed."""
    rounds = []
    started = perf_counter()
    while len(rounds) < counted or perf_counter() - started < seconds:
        gc.collect()
        rounds.append(run_one(len(rounds)))
        if len(rounds) > 1:
            compare_to_first(rounds[-1], rounds[0])
    return rounds


def total_median(rounds, attr):
    """Each document's median time over `rounds`, summed over documents,
    so that one call caught by a change of machine speed between its
    probe readings does not move the total."""
    return sum(statistics.median(getattr(runs[k], attr) for runs in rounds)
               for k in range(len(rounds[0])))


def end_to_end_metrics(counted, setup_times, peak_rss_mb):
    per_doc = [statistics.median(runs[k].toroidalize_s for runs in counted)
               for k in range(len(counted[0]))]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "toroidalize_s": (sum(per_doc), "s"),
        "doc_p50_ms": (1000 * statistics.median(per_doc), "ms"),
        "replay_s": (total_median(counted, "replay_s"), "s"),
        "trace_bytes": (sum(len(r.trace_text) for r in counted[0]), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tr: Tracer, results, untraced_s, traced_s):
    """Per-layer self times and counts over one traced round (toroidalize
    and replay passes); work counters over the toroidalize pass only.
    The overhead compares the untraced and traced times."""
    names = tr.names
    self_ns = tr.self_times()
    phase = tr.phases({"bench.toroidalize", "bench.replay"})
    span_self: dict[str, int] = {}
    span_calls: dict[str, int] = {}
    tor_calls: dict[str, int] = {}
    rep_calls: dict[str, int] = {}
    tor_children = 0
    for i in range(len(tr.name)):
        name = names[tr.name[i]]
        span_self[name] = span_self.get(name, 0) + self_ns[i]
        span_calls[name] = span_calls.get(name, 0) + 1
        counts = tor_calls if phase[i] == "bench.toroidalize" else rep_calls
        counts[name] = counts.get(name, 0) + 1
        if name == "blowup.enumerate" and phase[i] == "bench.toroidalize":
            tor_children += tr.value[i]

    def self_s(*prefixes):
        return sum(ns for name, ns in span_self.items()
                   if name.startswith(prefixes)) / 1e9

    def leaf_s(layer):
        return sum(tr.leaf_ns[layer]) / 1e9

    def leaf_calls(prefix):
        return sum(n for name, n in tr.leaf_calls.items() if name.startswith(prefix))

    blowups = tor_calls.get("blowup.enumerate", 0)
    created = tor_calls.get("chart.adapt", 0) + tor_children
    locus = tor_calls.get("principalize.locus", 0)
    metrics = {
        "principalize.locus.calls": (span_calls.get("principalize.locus", 0), "count"),
        "principalize.locus.self_s": (self_s("principalize.locus"), "s"),
        "principalize.locus_per_stratum": (locus / created if created else 0.0, "ratio"),
        "principalize.select.calls": (span_calls.get("principalize.select", 0), "count"),
        "principalize.select.self_s": (self_s("principalize.select"), "s"),
        "principalize.driver.self_s": (self_s("principalize.driver"), "s"),
        "monomial.calls": (leaf_calls("monomial."), "count"),
        "monomial.self_s": (leaf_s("monomial"), "s"),
        "chart.pullback.calls": (span_calls.get("chart.pullback", 0), "count"),
        "chart.adapt.calls": (span_calls.get("chart.adapt", 0), "count"),
        "chart.self_s": (self_s("chart."), "s"),
        "blowup.permissible.calls": (span_calls.get("blowup.permissible", 0), "count"),
        "blowup.self_s": (self_s("blowup."), "s"),
        "lift.lift.calls": (span_calls.get("lift.lift", 0), "count"),
        "lift.lift.self_s": (self_s("lift.lift"), "s"),
        "lift.commutes.calls": (span_calls.get("lift.commutes", 0), "count"),
        "lift.commutes.self_s": (self_s("lift.commutes"), "s"),
        "units.calls": (leaf_calls("units."), "count"),
        "units.self_s": (leaf_s("units"), "s"),
        "linalg.rank.calls": (tr.leaf_calls.get("linalg.rank", 0), "count"),
        "linalg.self_s": (leaf_s("linalg"), "s"),
        "pipeline.checks.self_s": (self_s("pipeline.checks"), "s"),
        "pipeline.global.self_s": (self_s("pipeline.global"), "s"),
        "pipeline.self_s": (self_s("pipeline.toroidalize", "pipeline.replay"), "s"),
        "documents.parse.self_s": (self_s("documents.parse"), "s"),
        "documents.dumps.self_s": (self_s("documents.dumps"), "s"),
        "documents.encode.self_s": (self_s("documents.encode"), "s"),
        "work.blowups": (blowups, "count"),
        "work.strata_created": (created, "count"),
        "work.final_strata": (created - blowups, "count"),
        "work.lifts": (tor_calls.get("lift.lift", 0), "count"),
        "work.max_depth": (max((r.max_depth for r in results.values()), default=0),
                           "count"),
        "trace.spans": (len(tr.name), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    # The span counts must agree with the trace records, and the replay
    # pass must repeat the construction's work.
    disagreements = []
    records = {"work.blowups": sum(r.blowups for r in results.values()),
               "work.final_strata": sum(r.final_records for r in results.values()),
               "work.lifts": sum(r.lifts for r in results.values())}
    for key, expected in records.items():
        if metrics[key][0] != expected:
            disagreements.append(f"{key} = {metrics[key][0]} but the traces "
                                 f"hold {expected} records")
    for name in ("blowup.enumerate", "principalize.locus", "lift.lift"):
        if tor_calls.get(name, 0) != rep_calls.get(name, 0):
            disagreements.append(f"{name}: {tor_calls.get(name, 0)} calls in "
                                 f"toroidalize, {rep_calls.get(name, 0)} in replay")
    return metrics, disagreements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toroidal" / "__init__.py").is_file():
        print(f"error: no toroidal package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meter = speed.Meter(None if args.trace else speed.SAMPLE_S)
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        with meter.timed() as set_up:
            pipeline, documents, docs = setup(args.workload, args.seed)
        setup_times.append(set_up.reference_s)
    if not pipeline.__file__.startswith(str(SRC)):
        print(f"error: imported {pipeline.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    problems = [f"checker self-test: {p}"
                for p in selftest.run_selftest(pipeline, documents)]

    if args.trace:
        tracers = []

        def untraced_or_traced(i):
            if i % 2 == 0:
                return run_round(docs, pipeline, documents, no_span, meter)
            tr = Tracer()
            tr.install()
            try:
                with tr.span("bench.round"):
                    return run_round(docs, pipeline, documents, tr.span, meter)
            finally:
                tr.uninstall()
                if not tracers:
                    tracers.append(tr)

        counted = 2 * TRACE_PAIRS
        rounds = measure(args.seconds, counted, untraced_or_traced)
        untraced_s, traced_s = (
            total_median(rounds[side:counted:2], "toroidalize_s")
            + total_median(rounds[side:counted:2], "replay_s") for side in (0, 1))
    else:
        rounds = measure(args.seconds, workloads.ROUNDS[args.workload],
                         lambda i: run_round(docs, pipeline, documents, no_span, meter))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, notes, results = check_rounds(docs, rounds)

    if args.trace:
        metrics, disagreements = layer_metrics(tracers[0], results,
                                               untraced_s, traced_s)
        problems += disagreements
        tracers[0].write(OUT / f"spans-{args.workload}.jsonl",
                         [d for d, _ in docs])
    else:
        counted = rounds[:workloads.ROUNDS[args.workload]]
        metrics = end_to_end_metrics(counted, setup_times, peak_rss_mb)
        print("unscaled wall time: toroidalize_s %.4f, replay_s %.4f" % (
            total_median(counted, "toroidalize_wall_s"),
            total_median(counted, "replay_wall_s")))
        chosen = cli_document(docs, results)
        if chosen is None:
            print("CLI parity skipped: no document with a blowup passed the checker")
        else:
            _, doc_id, text = chosen
            trace_text = next(r.trace_text for r in rounds[0] if r.doc_id == doc_id)
            mismatch = cli_parity(doc_id, text, trace_text)
            if mismatch:
                problems.append(f"CLI parity on {doc_id}: {mismatch}")

    for note in notes[:10]:
        print(f"failed: {note}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload}: {len(docs)} documents x {len(rounds)} rounds; "
          f"speed probe median {statistics.median(meter.readings):.5f} s, "
          f"reference {speed.REFERENCE_PROBE_S} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(docs) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
