"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public function of every ``mealymoore``
module with a recording wrapper, at every import site inside the
package (``universal.moorify`` and ``lab.moorify`` are the same
function, so both names get the same wrapper), and wraps the
``__init__`` of ``MealyMachine`` and ``MooreMachine``.  ``uninstall``
puts the originals back.  No file of the library is touched.

A span is (id, name, start, end, parent id, op id).  Spans are kept in
memory and written out by ``dump``; self time is a span's duration minus
the time covered by its child spans, which, in one thread, is the sum of
the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import statistics
import time
from array import array
from collections import defaultdict

MACHINE_CLASSES = ("MealyMachine", "MooreMachine")
DURATIONS = {"semantics.bisimilar"}  # functions whose per-call latency is reported


def _enumerate_homs_counts(args, result):
    m1, m2 = args[0], args[1]
    return {"candidates": len(m2.states) ** len(m1.states), "homs_found": len(result.homs)}


def _text_bytes(args, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _result_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _composite_states(args, result):
    return {"composite_states": len(result.states)}


def _letters(args, result):
    return {"letters": len(tuple(args[1]))}


# Per-function counters, computed from the call's arguments and result
# after the span has ended.
COUNTERS = {
    "lab.enumerate_homs": _enumerate_homs_counts,
    "machinefile.parse_machine_text": _text_bytes,
    "machinefile.serialize_machine": _result_bytes,
    "compose.compose_cells": _composite_states,
    "semantics.trace": _letters,
}


class Tracer:
    """Records spans and per-function counters for one package.

    Span i is (i, names[name_ids[i]], starts[i], ends[i], parents[i],
    ops[i]), with -1 for no parent or no op; flat arrays keep a million
    spans in tens of megabytes.
    """

    def __init__(self, package):
        self.package = package
        self.names, self._ids = [], {}
        self.name_ids, self.parents, self.ops = array("l"), array("l"), array("l")
        self.starts, self.ends = array("d"), array("d")
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    def _call(self, name_id, fn, args, kwargs):
        stack = self._stack
        span_id = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.starts[span_id], self.ends[span_id] = start, end
        counter = COUNTERS.get(self.names[name_id])
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counts[self.names[name_id]][key] += value
        return result

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name_id, fn, args, kwargs)

        return traced

    def root(self, name, op_id, fn):
        """Run ``fn`` as the root span of one benchmark op."""
        self.op = op_id
        return self._call(self._name_id(name), fn, (), {})

    def _modules(self):
        pkg = self.package
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            yield importlib.import_module(pkg.__name__ + "." + info.name)

    def install(self):
        modules = list(self._modules())
        wrappers = {}  # id(original) -> wrapper
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__):
                    wrappers[id(value)] = self._wrap("%s.%s" % (short, attr), value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        core = importlib.import_module(self.package.__name__ + ".core")
        for cls_name in MACHINE_CLASSES:
            cls = getattr(core, cls_name)
            self._saved.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("core." + cls_name, cls.__init__)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self):
        return len(self.starts)

    def dump(self, path):
        """Write the spans as gzipped JSON lines [id, name, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.starts)):
                parent, op = self.parents[i], self.ops[i]
                handle.write(json.dumps(
                    [i, self.names[self.name_ids[i]], self.starts[i], self.ends[i],
                     None if parent < 0 else parent, None if op < 0 else op],
                    separators=(",", ":")) + "\n")

    def function_stats(self):
        """name -> {calls, self_s, durations} over all spans; durations are
        kept only for the functions in DURATIONS."""
        child_time = array("d", bytes(8 * len(self.starts)))
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for i, (name_id, start, end) in enumerate(zip(self.name_ids, self.starts, self.ends)):
            name = self.names[name_id]
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += end - start - child_time[i]
            if name in DURATIONS:
                s["durations"].append(end - start)
        return stats


LAYERS = ("core", "compose", "semantics", "universal", "lab", "unitize", "machinefile", "cli")
_EMPTY = {"calls": 0, "self_s": 0.0, "durations": []}


def _p99_ms(durations):
    if len(durations) < 2:
        return 1e3 * sum(durations)
    return 1e3 * statistics.quantiles(durations, n=100)[98]


def layer_metrics(tracer, passes):
    """The per-layer metrics of ``passes`` traced passes, {name: (value, unit)}.

    Counts and self times are per pass, so they do not grow with the
    number of passes; rates, ratios and percentiles are over all passes.
    A layer that the workload never calls reads 0.  ``cli.main.self_s``
    counts argparse construction (``build_parser``) and dispatch, with
    calls into the other layers excluded.
    """
    stats = tracer.function_stats()
    counts = tracer.counts

    def st(name):
        return stats.get(name, _EMPTY)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    homs = counts.get("lab.enumerate_homs", {})
    candidates, found = homs.get("candidates", 0), homs.get("homs_found", 0)
    m["lab.enumerate_homs.calls"] = (st("lab.enumerate_homs")["calls"] / passes, "count")
    m["lab.enumerate_homs.self_s"] = (st("lab.enumerate_homs")["self_s"] / passes, "s")
    m["lab.enumerate_homs.candidates"] = (candidates / passes, "count")
    m["lab.enumerate_homs.homs_found"] = (found / passes, "count")
    m["lab.enumerate_homs.useful_ratio"] = (ratio(found, candidates), "ratio")
    built = [st("core." + cls) for cls in MACHINE_CLASSES]
    m["core.machines_built"] = (sum(s["calls"] for s in built) / passes, "count")
    m["core.construct_self_s"] = (sum(s["self_s"] for s in built) / passes, "s")
    for fn in ("core.validate_mealy", "core.validate_moore",
               "universal.moorify", "universal.decapitate", "universal.apply_D1",
               "universal.is_n_soft", "compose.compose_cells", "compose.associator",
               "compose.check_pentagon", "semantics.bisimilar",
               "semantics.check_extension_square", "unitize.check_upentagon"):
        m[fn + ".self_s"] = (st(fn)["self_s"] / passes, "s")
    m["compose.composite_states"] = (
        counts.get("compose.compose_cells", {}).get("composite_states", 0) / passes, "count")
    m["semantics.bisimilar.p99_ms"] = (_p99_ms(st("semantics.bisimilar")["durations"]), "ms")
    m["semantics.trace.letters_per_s"] = (
        ratio(counts.get("semantics.trace", {}).get("letters", 0), st("semantics.trace")["self_s"]),
        "1/s")
    for fn in ("machinefile.parse_machine_text", "machinefile.serialize_machine"):
        m[fn + ".self_s"] = (st(fn)["self_s"] / passes, "s")
        m[fn + ".bytes_per_s"] = (ratio(counts.get(fn, {}).get("bytes", 0), st(fn)["self_s"]), "B/s")
    m["cli.main.self_s"] = (
        (st("cli.main")["self_s"] + st("cli.build_parser")["self_s"]) / passes, "s")
    for layer in LAYERS:
        m[layer + ".self_s"] = (
            sum(s["self_s"] for name, s in stats.items() if name.startswith(layer + ".")) / passes,
            "s")
    return m
