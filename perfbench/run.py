"""Benchmark of the mealymoore library and CLI.

    python3 perfbench/run.py --workload law-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 2

Run from the root of a checkout.  Each workload runs in its own
single-threaded process as a closed loop with one caller: a fixed
number of whole passes over the workload's ops, as many as take
``--seconds`` on the reference host (see PASS_S).  The seed generates
the inputs (see workloads.py); after timing, every verdict is checked
against an oracle that does not use the code under test (oracles.py),
and requests that hit documented defects run as untimed probes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around every public
function of the library (tracing.py), then runs the scaling sweeps
(sweeps.py), and reports the per-layer metrics, per traced pass, and the
tracing overhead.  Report lines go first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--workload all`` runs the three workloads one after another, each in a
child process, and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("law-sweep", "cascade-semantics", "cli-files")
SETUP_REPEATS = 5
SETUP_CPUS = 4
CHILD_TIMEOUT_S = 600
# A run makes round(--seconds / PASS_S) passes, so every build of the
# library takes its minimum over the same number of passes, and a faster
# build finishes sooner.  PASS_S is about the wall time of one untraced
# pass on the reference host (2-core Intel Xeon VM), except on cli-files:
# its passes take about 4.6 s there, and 3.0 gives it ten passes in 30 s.
PASS_S = {"law-sweep": 0.34, "cascade-semantics": 3.2, "cli-files": 3.0}
# A traced pass costs about TRACE_COST untraced ones; --trace 1 makes
# equally many untraced and traced passes, so that it takes about as long
# as the untraced run.
TRACE_COST = 1.15


class Raised(NamedTuple):
    error: str


class Loop(NamedTuple):
    per_op: list  # op index -> seconds of each of its executions
    first: dict  # op index -> verdict of its first execution
    later_errors: int  # repeated executions that raised
    later_changed: int  # repeated executions whose verdict differs from the first


def closed_loop(ops, passes, tracer=None):
    """One caller runs ``passes`` whole passes over ``ops``."""
    clock = time.perf_counter
    per_op, first = [[] for _ in ops], {}
    later_errors = later_changed = executed = 0
    for _ in range(passes):
        # Collect, then exempt what survives (the inputs and the verdicts
        # kept so far) from later collections: otherwise full collections,
        # slowed by the benchmark's own growing state, land on the same
        # ops in every pass and no pass shows their real latency.
        gc.collect()
        gc.freeze()
        for i, op in enumerate(ops):
            start = clock()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    result = tracer.root("op." + op.kind, executed, op.run)
            except Exception as exc:  # a failing op is counted, not fatal
                result = Raised("%s: %s" % (type(exc).__name__, exc))
            elapsed = clock() - start
            per_op[i].append(elapsed)
            executed += 1
            if op.reduce is not None and not isinstance(result, Raised):
                result = op.reduce(result)
            if i not in first:
                first[i] = result
            elif isinstance(result, Raised):
                later_errors += 1
            elif result != first[i]:
                later_changed += 1
    return Loop(per_op, first, later_errors, later_changed)


def merged(loops):
    """One Loop holding the executions of several passes over the same ops."""
    per_op = [[x for xs in runs for x in xs] for runs in zip(*(loop.per_op for loop in loops))]
    return Loop(per_op, loops[0].first,
                sum(loop.later_errors for loop in loops),
                sum(loop.later_changed for loop in loops))


def verify(ops, loops):
    """(raised, wrong exit codes, wrong verdicts, notes) over every
    execution in ``loops``.  A wrong exit code is also a wrong verdict."""
    expected = {}
    raised = wrong_exit = wrong = 0
    notes = Counter()
    for loop in loops:
        raised += loop.later_errors
        wrong += loop.later_changed
        for i, verdict in loop.first.items():
            n = len(loop.per_op[i])
            if isinstance(verdict, Raised):
                raised += n
                notes["%s raised %s" % (ops[i].kind, verdict.error)] += n
                continue
            if i not in expected:
                expected[i] = ops[i].expect()
            if verdict != expected[i]:
                wrong += n
                notes["%s: wrong verdict" % ops[i].kind] += n
                codes = ops[i].exit_codes
                if codes and verdict[:codes] != expected[i][:codes]:
                    wrong_exit += n
                    notes["%s: wrong exit code" % ops[i].kind] += n
    return raised, wrong_exit, wrong, notes


def run_probes(probes):
    """{defect: (probes run, probes failed)} for the untimed probes."""
    tally = {}
    for probe in probes:
        try:
            result = probe.run()
        except Exception as exc:  # the defect may be an uncaught exception
            result = Raised("%s: %s" % (type(exc).__name__, exc))
        ran, failed = tally.get(probe.defect, (0, 0))
        tally[probe.defect] = (ran + 1, failed + (result != probe.expect()))
    return tally


def latency_metrics(loop):
    """End-to-end op metrics from one closed loop, and notes on them.

    An op's latency is the fastest of its executions across the (fixed
    number of) passes, as timeit reports the best of its repeats, and
    ``ops_per_s`` is the ops of one pass over the sum of their latencies.
    The host is shared: other tenants slow every core by up to 50% for
    tens of seconds at a time, and CPU time shows the same slowdown, so
    measuring CPU instead of wall time would not exclude it.  Executions
    per second over the whole timed phase keep every such slowdown: over
    ten seeds on the reference host their quartile spread reached 0.26 of
    the median on law-sweep, against 0.08 for the latencies.  The spread between ops,
    which the percentiles describe, is kept.
    """
    latencies = sorted(min(xs) for xs in loop.per_op)
    p99 = statistics.quantiles(latencies, n=100)[98] if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for x in latencies if x > p99)
    executions = sum(len(xs) for xs in loop.per_op)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
    }
    n = "n=%d ops, each the fastest of %d passes" % (len(latencies), executions // len(latencies))
    notes = {
        "ops_per_s": "(%s)" % n,
        "op_p50_ms": "(%s)" % n,
        "op_p99_ms": "(%s; %d ops beyond)" % (n, beyond),
    }
    return metrics, notes


def print_metric(name, value, unit, note=""):
    print("  %-52s %16.6g %-6s %s" % (name, value, unit, note))


def set_up(build, seed, target):
    """Build a workload's inputs from scratch into ``target``,
    SETUP_REPEATS times back to back on each of up to SETUP_CPUS of the
    CPUs the process may use, pinned to that CPU.  Return the last
    build's inputs and the median build time on each CPU.

    The shared host's CPUs are not equally loaded by other tenants, and
    the load changes from minute to minute: on one of two CPUs builds ran
    1.5-2 times slower than on the other for a minute at a time.  The
    reported set-up time is the lowest median over the CPUs and over two
    windows, before and after the timed passes, the same filter that
    taking each op's fastest execution applies to the op latencies.
    Only one build's inputs are live at a time."""
    allowed = os.sched_getaffinity(0)
    medians, inputs = [], None
    try:
        for cpu in sorted(allowed)[:SETUP_CPUS]:
            os.sched_setaffinity(0, {cpu})
            seconds = []
            for _ in range(SETUP_REPEATS):
                inputs = None
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir(parents=True)
                gc.collect()
                start = time.perf_counter()
                inputs = build(seed, str(target))
                seconds.append(time.perf_counter() - start)
            medians.append(statistics.median(seconds))
    finally:
        os.sched_setaffinity(0, allowed)
    return inputs, medians


def run_workload(args):
    import tracing
    import sweeps
    import mealymoore
    from workloads import DEFECTS, WORKLOADS as BUILDERS

    workdir = WORKDIR / ("%s-%d" % (args.workload, os.getpid()))
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    if args.trace:
        passes = max(1, round(passes / (1 + TRACE_COST)))
    try:
        inputs, setup_medians = set_up(BUILDERS[args.workload], args.seed, workdir / "inputs")
        ops = inputs.ops
        print("workload %s, seed %d: %d ops per pass, %d %spasses"
              % (args.workload, args.seed, len(ops), passes,
                 "untraced and %d traced " % passes if args.trace else ""))
        print("  inputs: %s" % json.dumps(inputs.stats, sort_keys=True))
        if args.trace:
            # Untraced and traced passes alternate, so both see the same
            # warm-up and the same load from other tenants.
            tracer = tracing.Tracer(mealymoore)
            untraced, traced = [], []
            for _ in range(passes):
                untraced.append(closed_loop(ops, 1))
                tracer.install()
                try:
                    traced.append(closed_loop(ops, 1, tracer))
                finally:
                    tracer.uninstall()
            loops = untraced + traced
        else:
            loops = [closed_loop(ops, passes)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raised, wrong_exit, wrong, notes = verify(ops, loops)
        errors = raised + wrong_exit
        probes = run_probes(inputs.probes)
        attempted = sum(len(xs) for loop in loops for xs in loop.per_op)
        if args.trace:
            scale, scale_wrong = sweeps.run(args.seed)
            wrong += scale_wrong
            metrics = tracing.layer_metrics(tracer, passes)
            metrics.update({name: (value, "s") for name, value in scale.items()})
            untraced_rate = latency_metrics(merged(untraced))[0]["ops_per_s"][0]
            traced_rate = latency_metrics(merged(traced))[0]["ops_per_s"][0]
            metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
            metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
            metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
            metrics["trace.spans"] = (len(tracer) / passes, "count")
            spans_path = WORKDIR / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
            tracer.dump(spans_path)
            print("  per-layer metrics, counts and self times per traced pass (spans in %s)"
                  % spans_path.relative_to(ROOT))
            for name, (value, unit) in metrics.items():
                print_metric(name, value, unit)
        else:
            setup_medians += set_up(BUILDERS[args.workload], args.seed, workdir / "again")[1]
            op_metrics, notes_for = latency_metrics(loops[0])
            metrics = {"setup_s": (min(setup_medians), "s"), **op_metrics,
                       "peak_rss_mb": (peak_rss_mb, "MB")}
            notes_for["setup_s"] = "(lowest of %d medians of %d set-ups, per CPU and window)" % (
                len(setup_medians), SETUP_REPEATS)
            for name, (value, unit) in metrics.items():
                print_metric(name, value, unit, notes_for.get(name, ""))
        print_metric("error_rate", errors / attempted, "ratio",
                     "(%d of %d op executions raised or exited wrongly)" % (errors, attempted))
        print_metric("wrong_verdicts", wrong, "count", "(of %d op executions)" % attempted)
        for note, count in sorted(notes.items()):
            print("    %d x %s" % (count, note))
        for defect, (ran, failed) in sorted(probes.items()):
            print("  known defect %s: %d of %d untimed probes fail -- %s"
                  % (defect, failed, ran, DEFECTS[defect]))
        if probes:
            probe_failures = sum(failed for _, failed in probes.values())
            probe_count = sum(ran for ran, _ in probes.values())
            print_metric("error_rate_with_known_defects",
                         (errors + probe_failures) / (attempted + probe_count), "ratio",
                         "(%d of %d requests)" % (errors + probe_failures, attempted + probe_count))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = raised + wrong
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own child process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            return None
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mealymoore" / "__init__.py").is_file():
        print("error: %s has no mealymoore package; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.dont_write_bytecode = True
        sys.path[:0] = [str(SRC), str(HERE)]
        result = run_workload(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
