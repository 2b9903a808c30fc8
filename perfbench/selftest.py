"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
  * every workload generates identical inputs from the same seed and
    different inputs from different seeds;
  * the input statistics recorded in WORKLOADS.json are the ones the
    workloads generate, for every seed;
  * one short run of all workloads, untraced and traced, prints every
    metric BENCHMARK.json names, with its unit, and no wrong verdict;
  * the traced run counts, per pass, as many hom candidates as
    WORKLOADS.json records for the workload.
It prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.WORKDIR / ("selftest-%d" % os.getpid())


def fingerprint(workload, seed):
    """A digest of the ops, probes and files a seed generates."""
    target = SCRATCH / "inputs"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    inputs = workloads.WORKLOADS[workload](seed, str(target))
    digest = hashlib.sha256()
    for op in inputs.ops + inputs.probes:
        digest.update(repr((op.kind, op.run.args)).encode())
    for path in sorted(target.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest(), inputs.stats


def short_run(trace):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if child.returncode != 0:
        raise SystemExit("short run failed:\n" + child.stderr)
    return child.stdout.splitlines()


def main():
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    documented = json.loads((HERE / "WORKLOADS.json").read_text())["workloads"]
    try:
        for name in run.WORKLOADS:
            a, stats_a = fingerprint(name, 1)
            b, _ = fingerprint(name, 1)
            c, stats_c = fingerprint(name, 2)
            check(a == b, "%s: seed 1 twice gives identical inputs" % name)
            check(a != c, "%s: seeds 1 and 2 give different inputs" % name)
            check(stats_a == stats_c == documented[name]["inputs"],
                  "%s: input statistics match WORKLOADS.json" % name)

        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines = short_run(trace)
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0,
                  "--trace %d: every verdict correct, no failed op" % trace)
            printed, current = {}, None  # workload -> set of (name, unit) on its report lines
            for line in lines[:-1]:
                fields = line.split()
                if line.startswith("workload "):
                    current = fields[1].rstrip(",")
                    printed[current] = set()
                elif current and len(fields) >= 3:
                    printed[current].add((fields[0], fields[2]))
                    if fields[0] == "wrong_verdicts":
                        printed[current].add(("wrong_verdicts=", fields[1]))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            for name in run.WORKLOADS:
                got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
                       if k.startswith(name + ".")}
                check(got == want, "--trace %d: %s reports every %s metric with its unit"
                      % (trace, name, kind))
                check(set(want.items()) <= printed.get(name, set()),
                      "--trace %d: %s prints every metric by name with its unit" % (trace, name))
                check(("wrong_verdicts=", "0") in printed.get(name, set()),
                      "--trace %d: %s prints wrong_verdicts 0" % (trace, name))
                if trace:
                    counted = result["metrics"][name + ".lab.enumerate_homs.candidates"]["value"]
                    check(counted == documented[name]["inputs"]["hom_candidates_per_pass"],
                          "--trace 1: %s counts the documented hom candidates per pass" % name)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
