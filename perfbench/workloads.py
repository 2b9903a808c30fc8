"""The three benchmark workloads, generated from a seed.

Each builder returns the list of ops one pass of the closed loop runs,
the untimed probes that hit documented defects, and the input
statistics.  Input sizes (configurations, state counts, alphabets,
kinds, word lengths) are fixed by the design below; the seed draws the
tables, state names, words and start states.  So two seeds give
different inputs with the same cost profile, which keeps the medians
and tail percentiles comparable from run to run.

Ops call the library through module attributes looked up at call time
(``mm.enumerate_homs``, ``cli.main``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple, Optional

import mealymoore as mm
from mealymoore import cli
from mealymoore import generate as gen

import oracles as O

LETTERS = ("0", "1", "2")


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]  # the timed call into the library
    expect: Callable[[], object]  # the oracle; evaluated once, after timing
    reduce: Optional[Callable[[object], object]] = None  # applied outside the timed window
    defect: Optional[str] = None  # the documented defect a probe exercises
    exit_codes: int = 0  # how many CLI exit codes lead the verdict


class Inputs(NamedTuple):
    ops: list
    probes: list
    stats: dict


class _Collector:
    """Collects ops and the input statistics that describe them."""

    def __init__(self):
        self.ops, self.probes = [], []
        self.sizes = Counter()
        self.candidates = 0

    def add(self, kind, run, expect, reduce=None, machines=(), candidates=0, exit_codes=0):
        self.ops.append(Op(kind, run, expect, reduce, exit_codes=exit_codes))
        self.sizes.update(len(m.states) for m in machines)
        self.candidates += candidates

    def inputs(self):
        stats = {
            "ops_per_pass": len(self.ops),
            "op_mix": dict(sorted(Counter(op.kind for op in self.ops).items())),
            "machines": sum(self.sizes.values()),
            "state_histogram": {str(k): v for k, v in sorted(self.sizes.items())},
            "hom_candidates_per_pass": self.candidates,
        }
        return Inputs(self.ops, self.probes, stats)


def alphabet(size, name="X"):
    return mm.Alphabet(name, LETTERS[:size])


def _factor(rng, moore, a, b, k):
    return (gen.random_moore if moore else gen.random_mealy)(rng, a, b, k)


def _named(m, names):
    """m with its states renamed, in order, to ``names``."""
    rename = dict(zip(m.states, names))
    delta = {(rename[e], a): rename[t] for (e, a), t in m.delta.items()}
    if isinstance(m, mm.MealyMachine):
        out = {(rename[e], a): b for (e, a), b in m.out.items()}
    else:
        out = {rename[e]: b for e, b in m.out.items()}
    return type(m)(m.input, m.output, tuple(names), delta, out)


def _soft_moore(rng, a, b, k):
    """A random soft Moore machine: one output letter per weakly
    connected component of the transition graph."""
    base = gen.random_moore(rng, a, b, k)
    root = {e: e for e in base.states}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for (e, _), t in base.delta.items():
        root[find(e)] = find(t)
    colour = {r: rng.choice(b.symbols) for r in sorted({find(e) for e in base.states})}
    out = {e: colour[find(e)] for e in base.states}
    return mm.MooreMachine(a, b, base.states, dict(base.delta), out)


# --------------------------------------------------------------- law-sweep

LAW_CONFIGS = [(1, 1), (1, 2), (2, 1), (2, 2)]  # the acceptance configurations
EXT_MAXLEN_COUNTS = {6: 20, 7: 20, 8: 20, 9: 20, 10: 36}


def _adjunction(n, m):
    r = mm.check_adjunction_D1(n, m)
    return r.success, len(r.left.homs), len(r.right.homs)


def _expect_adjunction(n, m):
    tn, tm = O.tab(n), O.tab(m)
    return True, len(O.homs(O.d1_tab(tn), tm)), len(O.homs(tn, O.moorify_tab(tm)))


def _correspondence(n, m):
    r = mm.check_hom_correspondence(n, m)
    return r.success, len(r.left.homs), len(r.right.homs)


def _expect_correspondence(n, m):
    tn, tm = O.tab(n), O.tab(m)
    left, right = O.homs(O.embed_j_tab(tn), tm), O.homs(tn, O.decapitate_tab(tm))
    return O.transposition_holds(tn, left, right), len(left), len(right)


def _homs_functorial(m1, m2):
    homset = mm.enumerate_homs(m1, m2)
    maps = tuple(tuple(phi.map[e] for e in m1.states) for phi in homset.homs)
    return maps, all(mm.check_moorify_functorial(phi) for phi in homset.homs)


def _expect_homs(m1, m2):
    return tuple(O.homs(O.tab(m1), O.tab(m2))), True


def _decapitate_soft(m):
    return mm.is_n_soft(mm.decapitate(m), 1)


def _const(value):
    return value


def _call(name, *args):
    """Call ``mm.<name>`` looked up now, so a traced run sees the call."""
    return getattr(mm, name)(*args)


def law_sweep(seed, workdir=None):
    """Adjunction, correspondence, counit, hom-set/functoriality,
    extension-square and n-softness checks on machines of at most three
    states from the acceptance configurations."""
    rng = random.Random(seed)
    c = _Collector()

    def config(i):
        a, b = LAW_CONFIGS[i % 4]
        return alphabet(a, "A"), alphabet(b, "B")

    for i in range(400):
        a, b = config(i)
        n = gen.random_moore(rng, a, b, 1 + i // 4 % 3)
        m = gen.random_mealy(rng, a, b, 1 + i // 12 % 3)
        k = len(n.states)
        c.add("adjunction", partial(_adjunction, n, m), partial(_expect_adjunction, n, m),
              machines=(n, m), candidates=len(m.states) ** k + (len(b) * len(m.states)) ** k)
    for i in range(200):
        a, b = config(i)
        n = _soft_moore(rng, a, b, 1 + i // 4 % 3)
        m = gen.random_mealy(rng, a, b, 1 + i // 12 % 3)
        k = len(n.states)
        c.add("correspondence", partial(_correspondence, n, m),
              partial(_expect_correspondence, n, m), machines=(n, m),
              candidates=len(m.states) ** k + (len(b) * len(m.states)) ** k)
    for i in range(200):
        a, b = config(i)
        m = gen.random_mealy(rng, a, b, 1 + i // 4 % 3)
        c.add("counit", partial(_call, "check_counit", m), partial(_const, True), machines=(m,))
    for i in range(300):
        a, b = config(i)
        m1 = gen.random_mealy(rng, a, b, 1 + i // 4 % 3)
        shape = i // 12 % 3  # the same machine, an isomorphic copy, an unrelated machine
        if shape == 0:
            m2 = m1
        elif shape == 1:
            m2 = _named(m1, ["t%d" % j for j in range(len(m1.states))])
        else:
            m2 = gen.random_mealy(rng, a, b, 1 + i // 36 % 3)
        c.add("homs-functorial", partial(_homs_functorial, m1, m2), partial(_expect_homs, m1, m2),
              machines=(m1, m2), candidates=len(m2.states) ** len(m1.states))
    i = 0
    for maxlen, count in EXT_MAXLEN_COUNTS.items():
        for _ in range(count):
            n = gen.random_moore(rng, alphabet(2, "A"), alphabet(1 + i % 2, "B"), 3)
            c.add("extension-square", partial(_call, "check_extension_square", n, maxlen),
                  partial(_const, True), machines=(n,))
            i += 1
    for i in range(400):
        a, b = config(i)
        k = 1 + i % 4
        if i % 16 < 4:  # decapitate-is-soft, at level 1 where the law speaks
            m = gen.random_mealy(rng, a, b, 1 + i // 16 % 3)
            c.add("decapitate-soft", partial(_decapitate_soft, m), partial(_const, True),
                  machines=(m,))
        else:
            n = gen.random_moore(rng, a, b, 1 + i // 4 % 3)
            c.add("n-soft", partial(_call, "is_n_soft", n, k),
                  partial(O.n_soft, O.tab(n), k), machines=(n,))
    return c.inputs()


# ------------------------------------------------------- cascade-semantics

# state count -> (bisimilar pairs, non-bisimilar pairs) per pass.  Even
# sizes are reset chains, odd sizes counters.  Partition refinement
# needs about n rounds on both, and its signatures grow geometrically
# with the rounds; a non-bisimilar 12-state pair costs about twice a
# bisimilar one.  The counts put the 99th percentile inside the
# non-bisimilar 10-state group, whose pairs all cost about the same, so
# it does not jump between groups.
BISIM_FAMILY = {8: (5, 5), 9: (5, 5), 10: (10, 10), 11: (1, 1), 12: (1, 0), 13: (1, 0)}


def _family_machine(shape, n, advance, mark, names):
    """A reset chain or a counter over {0,1} whose output is 1 at
    position ``mark`` only; position 0 is the start."""
    a = alphabet(2, "B")
    other = "1" if advance == "0" else "0"
    delta = {}
    for i, e in enumerate(names):
        if shape == "chain":
            delta[(e, advance)] = names[min(i + 1, n - 1)]
            delta[(e, other)] = names[0]
        else:
            delta[(e, advance)] = names[(i + 1) % n]
            delta[(e, other)] = e
    out = {e: "1" if i == mark else "0" for i, e in enumerate(names)}
    return mm.MooreMachine(a, a, tuple(names), delta, out)


def bisim_pair(rng, shape, n, same):
    """Two family machines started at position 0; bisimilar iff ``same``."""
    advance = rng.choice(("0", "1"))
    left = ["l%d" % i for i in range(n)]
    right = ["r%d" % i for i in range(n)]
    mark = n - 1 if shape == "chain" else 0
    other_mark = mark if same else (n - 2 if shape == "chain" else 1)
    m = _family_machine(shape, n, advance, mark, left)
    k = _family_machine(shape, n, advance, other_mark, right)
    # Declare the states in a seeded order; position 0 stays the start.
    order = rng.sample(range(n), n)
    k = type(k)(k.input, k.output, tuple(right[i] for i in order), dict(k.delta), dict(k.out))
    return m, left[0], k, right[0]


def _bisimilar(m, s, k, t):
    return mm.bisimilar(mm.PointedMachine(m, s), mm.PointedMachine(k, t))


def _associator_maps(iso):
    return dict(iso.forward.map), dict(iso.backward.map)


def _expect_associator(h, g, f):
    """The re-bracketing ((a, b), c) -> (a, (b, c)) and its inverse."""
    fwd = {((a, b), c): (a, (b, c)) for a in h.states for b in g.states for c in f.states}
    return fwd, {v: k for k, v in fwd.items()}


def _upentagon(k, h, g, f):
    composite = mm.ucompose(k, mm.ucompose(h, mm.ucompose(g, f)))
    size = "formal" if isinstance(composite, mm.FormalId) else len(composite.states)
    return size, mm.check_upentagon(k, h, g, f)


def _cascade_trace(g, f, start, word):
    return mm.trace(mm.PointedMachine(mm.compose_cells(g, f), start), word)


def _bracket_bisim(h, g, f, start):
    a, b, c = start
    left = mm.compose_cells(mm.compose_cells(h, g), f)
    right = mm.compose_cells(h, mm.compose_cells(g, f))
    return mm.bisimilar(mm.PointedMachine(left, ((a, b), c)), mm.PointedMachine(right, (a, (b, c))))


def cascade_semantics(seed, workdir=None):
    """Associator, pentagon, unitized pentagon, cascade traces and
    bisimilarity on mixed-kind factors of 2-12 states over 2- and
    3-letter alphabets, plus bisimilarity on chain and counter pairs."""
    rng = random.Random(seed)
    c = _Collector()

    def chain(i, sizes):
        """Factors first-to-last with design-fixed alphabets and kinds."""
        alphs = [alphabet(2 + (i >> j & 1), "X%d" % j) for j in range(len(sizes) + 1)]
        return [_factor(rng, (i * 5 + 3) >> j & 1, alphs[j], alphs[j + 1], k)
                for j, k in enumerate(sizes)]

    for i in range(100):
        sizes = (2 + 5 * i % 11, 2 + (7 * i + 3) % 11, 2 + (3 * i + 5) % 11)
        f, g, h = chain(i, sizes)
        c.add("associator", partial(_call, "associator", h, g, f),
              partial(_expect_associator, h, g, f), reduce=_associator_maps, machines=(f, g, h))
    for i in range(200):
        sizes = (2 + i % 5, 2 + i // 5 % 5, 2 + (3 * i + 1) % 5, 2 + (2 * i + 3) % 5)
        f, g, h, k = chain(i, sizes)
        c.add("pentagon", partial(_call, "check_pentagon", k, h, g, f), partial(_const, True),
              machines=(f, g, h, k))
    for i in range(200):
        x = alphabet(2 + i % 2, "U")
        cells = []
        for j in range(4):
            if i % 16 >> j & 1:
                cells.append(mm.FormalId(x))
            else:
                cells.append(gen.random_moore(rng, x, x, 2 + (i + j) % 3))
        machines = [cell for cell in cells if not isinstance(cell, mm.FormalId)]
        size = math.prod(len(m.states) for m in machines) if machines else "formal"
        f, g, h, k = cells
        c.add("upentagon", partial(_upentagon, k, h, g, f), partial(_const, (size, True)),
              machines=machines)
    for i in range(210):
        f, g = chain(i, (2 + 5 * i % 11, 2 + (7 * i + 2) % 11))
        word = tuple(rng.choice(f.input.symbols) for _ in range(2000 + 100 * (i % 5)))
        start = (rng.choice(g.states), rng.choice(f.states))
        c.add("trace", partial(_cascade_trace, g, f, start, word),
              partial(O.cascade_trace, O.tab(g), O.tab(f), start, word), machines=(f, g))
    for i in range(260):
        f, g, h = chain(i, (2 + i % 2, 2 + i // 2 % 2, 2 + i // 4 % 2))
        start = (rng.choice(h.states), rng.choice(g.states), rng.choice(f.states))
        c.add("bracket-bisim", partial(_bracket_bisim, h, g, f, start), partial(_const, True),
              machines=(f, g, h))
    for n, (bisimilar, distinct) in BISIM_FAMILY.items():
        for same in (True,) * bisimilar + (False,) * distinct:
            m, s, k, t = bisim_pair(rng, "chain" if n % 2 == 0 else "counter", n, same)
            c.add("family-bisim", partial(_bisimilar, m, s, k, t), partial(_const, same),
                  machines=(m, k))
    return c.inputs()


# --------------------------------------------------------------- cli-files

CLI_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40)
# State names: mostly plain, some containing ",", which the file format
# allows and composite-state rendering does not escape.
PLAIN_NAMES = tuple("s%d" % i for i in range(48))
COMMA_NAMES = tuple("s%d,s%d" % (i, j) for i in range(6) for j in range(6) if i != j)


def _names(rng, k):
    names = set()
    while len(names) < k:
        names.add(rng.choice(COMMA_NAMES) if rng.random() < 0.15 else rng.choice(PLAIN_NAMES))
    return rng.sample(sorted(names), k)


def _doc(m):
    """The machine-file document for m, written by the benchmark itself."""
    mealy = isinstance(m, mm.MealyMachine)
    delta = {e: {a: m.delta[(e, a)] for a in m.input.symbols} for e in m.states}
    if mealy:
        out = {e: {a: m.out[(e, a)] for a in m.input.symbols} for e in m.states}
    else:
        out = dict(m.out)
    return {"version": 1, "kind": "mealy" if mealy else "moore",
            "input": list(m.input.symbols), "output": list(m.output.symbols),
            "states": list(m.states), "delta": delta, "out": out}


def _run_cli(argv):
    """cli.main(argv) in process, with captured output: (exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue()


def _compose_then_validate(second, first, out_path):
    code, _ = _run_cli(["compose", second, first, "-o", out_path])
    return (code,) + _run_cli(["validate", out_path])


def _kind(m):
    return "mealy" if isinstance(m, mm.MealyMachine) else "moore"


def _normal_doc(doc):
    doc = dict(doc)
    doc["states"] = sorted(doc["states"])
    return doc


def _reduce_transform(result):
    code, text = result
    return code, _normal_doc(json.loads(text)) if code == 0 else text


def _expect_transform(op, m):
    t = O.tab(m)
    derived = {"embed-j": O.embed_j_tab, "d1": O.d1_tab,
               "moorify": O.moorify_tab, "decapitate": O.decapitate_tab}[op](t)
    name = {e: O.render(e) for e in derived.states}
    delta = {name[e]: {a: name[derived.delta[(e, a)]] for a in t.letters} for e in derived.states}
    if derived.mealy:
        out = {name[e]: {a: derived.out[(e, a)] for a in t.letters} for e in derived.states}
    else:
        out = {name[e]: derived.out[e] for e in derived.states}
    return 0, _normal_doc({
        "version": 1, "kind": "mealy" if derived.mealy else "moore",
        "input": list(t.letters), "output": list(t.outputs),
        "states": [name[e] for e in derived.states], "delta": delta, "out": out})


def _expect_run(m, start, word):
    emitted = O.trace(O.tab(m), start, word)
    return 0, "final: %s\ntrace: %s\n" % (emitted[-1], " ".join(emitted))


def _expect_homs_text(m1, m2):
    found = O.homs(O.tab(m1), O.tab(m2))
    lines = ["homs: %d\n" % len(found)]
    for images in found:
        lines.append("  {%s}\n" % ", ".join("%s↦%s" % (e, x) for e, x in zip(m1.states, images)))
    return 0, "".join(lines)


def _expect_adjunction_text(n, m):
    _, left, right = _expect_adjunction(n, m)
    return 0, "adjunction: SUCCESS\n  left homs: %d, right homs: %d\n" % (left, right)


def _verdict(label, holds):
    return (0 if holds else 1), "%s: %s\n" % (label, "true" if holds else "false")


def _random(rng, moore, in_size, out_size, k):
    return _factor(rng, moore, alphabet(in_size, "I"), alphabet(out_size, "O"), k)


class _Corpus:
    """Machine files, with seeded state names, in the work directory.

    Requests share files: ``file`` writes each (kind, alphabets, size,
    variant) once, on first use, so the corpus stays a few hundred files
    however many requests read it.
    """

    def __init__(self, workdir, rng):
        self.dir, self.rng = workdir, rng
        self.files = {}
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.dir, "%04d-%s" % (self.count, stem))

    def write(self, m, names=None, edit=None, text=None):
        """Write m, renamed to ``names`` or to seeded pool names, as a new
        file (edited by ``edit`` or replaced by ``text``); return
        (path, renamed machine)."""
        m = _named(m, names or _names(self.rng, len(m.states)))
        path = self.path(_kind(m) + ".machine")
        doc = _doc(m) if edit is None else edit(_doc(m))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text is not None else json.dumps(doc, ensure_ascii=False))
        return path, m

    def file(self, moore, in_size, out_size, k, variant=0, soft=False):
        """(path, machine) of the corpus file with these properties."""
        key = (moore, in_size, out_size, k, variant, soft)
        if key not in self.files:
            a, b = alphabet(in_size, "I"), alphabet(out_size, "O")
            m = _soft_moore(self.rng, a, b, k) if soft else _factor(self.rng, moore, a, b, k)
            self.files[key] = self.write(m)
        return self.files[key]


def _drop_delta_entry(doc):
    row = doc["delta"][doc["states"][0]]
    row.pop(sorted(row)[0])
    return doc


def _expect_composite(second, first):
    kind = "mealy" if _kind(second) == _kind(first) == "mealy" else "moore"
    return 0, 0, "valid: %s, %d states\n" % (kind, len(second.states) * len(first.states))


BAD_INPUT = (2, "")


def cli_files(seed, workdir):
    """CLI requests in process against a seeded corpus of machine files
    with 1-40 states, including malformed requests that must exit 2."""
    rng = random.Random(seed)
    c = _Collector()
    corpus = _Corpus(workdir, rng)
    S = len(CLI_SIZES)

    def cli_op(kind, argv, expect, machines, reduce=None, candidates=0):
        c.add(kind, partial(_run_cli, argv), expect, reduce, machines, candidates, exit_codes=1)

    def sized(i):
        """Corpus file i of the 2-40-state range; kind and alphabets vary with i."""
        return corpus.file(i % 2, 2 + i % 2, 2 + i // 2 % 2, CLI_SIZES[i % S])

    for i in range(200):
        path, m = sized(i)
        cli_op("validate", ["validate", path],
               partial(_const, (0, "valid: %s, %d states\n" % (_kind(m), len(m.states)))), (m,))
    for i in range(200):
        path, m = sized(i)
        start = rng.choice(m.states)
        word = tuple(rng.choice(m.input.symbols) for _ in range(100))
        cli_op("run", ["run", path, "--start", start, "--word", "".join(word)],
               partial(_expect_run, m, start, word), (m,))
    for i in range(130):
        mid = 2 + i % 2
        first_path, first = corpus.file(i % 2, 2 + i // 2 % 2, mid, CLI_SIZES[i % 8])
        for variant in itertools.count():
            second_path, second = corpus.file(i // 4 % 2, mid, 2, 2 + (7 * i + 3) % 5, variant)
            run = partial(_compose_then_validate, second_path, first_path,
                          corpus.path("composite-%d.machine" % i))
            expect = partial(_const, _expect_composite(second, first))
            if not O.rendering_collides(second.states, first.states):
                break
            # Composite state names collide (defect 3d): the request runs
            # as an untimed probe, and the next variant is tried.
            c.probes.append(Op("compose-collision", run, expect, defect="3d"))
        c.add("compose", run, expect, machines=(second, first), exit_codes=2)
    for i in range(128):
        op = ("embed-j", "d1", "moorify", "decapitate")[i % 4]
        path, m = corpus.file(op in ("embed-j", "d1"), 2 + i // 4 % 2, 2 + i // 8 % 2,
                              CLI_SIZES[i % S])
        cli_op("transform", ["transform", op, path], partial(_expect_transform, op, m), (m,),
               reduce=_reduce_transform)
    for i in range(48):
        # Every other machine is soft, so both verdicts occur.
        path, m = corpus.file(1, 2 + i // 2 % 2, 2, CLI_SIZES[i % S], soft=bool(i % 2))
        cli_op("check-soft", ["check", "soft", path],
               partial(_verdict, "soft", O.soft(O.tab(m))), (m,))
    for i in range(48):
        k = 1 + i % 4
        path, m = sized(2 * i + 1)
        cli_op("check-n-soft", ["check", "n-soft", str(k), path],
               partial(_verdict, "%d-soft" % k, O.n_soft(O.tab(m), k)), (m,))
    for i in range(48):
        maxlen = 4 + i % 3
        path, m = corpus.file(1, 2 + i // 3 % 2, 2, CLI_SIZES[i % 6])
        cli_op("check-extension-square", ["check", "extension-square", str(maxlen), path],
               partial(_const, (0, "extension-square(≤%d): true\n" % maxlen)), (m,))
    for i in range(48):
        path, m = sized(2 * (i % 8) + 16 * (i // 8 % 2))
        cli_op("check-counit", ["check", "counit", path], partial(_const, (0, "counit: true\n")),
               (m,))
    for i in range(48):
        # (downstream, upstream) kinds, 1 for Moore; no J-compatibility
        # relates two Mealy machines.
        down, up = ((0, 1), (1, 0), (1, 1))[i % 3]
        mid = 2 + i // 3 % 2
        up_path, n = corpus.file(up, 2, mid, CLI_SIZES[i % 8])
        down_path, m = corpus.file(down, mid, 2, CLI_SIZES[(5 * i) % 8])
        cli_op("check-j-compat", ["check", "j-compat", down_path, up_path],
               partial(_const, (0, "j-compat: true\n")), (m, n))
    for i in range(48):
        moore, a = i % 2, 2 + i // 2 % 2
        p1, m1 = corpus.file(moore, a, 2, 1 + i // 4 % 4)
        # Half the targets are renamed copies of the source, so homs exist.
        if i // 16 % 2:
            p2, m2 = corpus.write(m1)
        else:
            p2, m2 = corpus.file(moore, a, 2, 1 + (i // 4 + 1) % 4)
        cli_op("homs", ["homs", p1, p2], partial(_expect_homs_text, m1, m2), (m1, m2),
               candidates=len(m2.states) ** len(m1.states))
    for i in range(48):
        # At most 3 source states: the hom search stops early on some
        # tables, so larger sources would make the tail depend on the seed.
        a = 2 + i % 2
        pn, n = corpus.file(1, a, 2, 1 + i // 2 % 3)
        pm, m = corpus.file(0, a, 2, 1 + i // 6 % 4)
        k = len(n.states)
        cli_op("adjunction", ["adjunction", pn, pm], partial(_expect_adjunction_text, n, m),
               (n, m), candidates=len(m.states) ** k + (2 * len(m.states)) ** k)
    malformed = [_malformed(case, corpus) for case in range(13)]
    for i in range(52):
        argv, machines = malformed[i % 13]
        cli_op("malformed", argv, partial(_const, BAD_INPUT), machines)
    _defect_probes(c, corpus)
    return c.inputs()


def _malformed(case, corpus):
    """A request the CLI must refuse with exit 2 and nothing on stdout,
    and the machines it reads."""
    mealy_path, mealy = corpus.file(0, 2, 2, 4)
    moore_path, moore = corpus.file(1, 2, 2, 4)
    if case == 0:
        path, m = corpus.write(mealy, text='{"version": 1, "kind": "mealy", "states": [')
        return ["validate", path], (m,)
    if case == 1:
        path, m = corpus.write(mealy, edit=_drop_delta_entry)
        return ["validate", path], (m,)
    if case == 2:
        path, m = corpus.write(moore, edit=lambda d: dict(d, comment="unknown field"))
        return ["validate", path], (m,)
    if case == 3:
        path, m = corpus.write(moore, edit=lambda d: dict(d, version=2))
        return ["validate", path], (m,)
    if case == 4:
        return ["check", "soft", mealy_path], (mealy,)
    if case == 5:
        return ["run", moore_path, "--start", "no-such-state", "--word", "01"], (moore,)
    if case == 6:
        return ["run", moore_path, "--start", moore.states[0], "--word", "0919"], (moore,)
    if case == 7:
        return ["adjunction", mealy_path, moore_path], (mealy, moore)
    if case == 8:
        return ["validate", corpus.path("missing.machine")], ()
    if case == 9:
        return ["homs", mealy_path, moore_path], (mealy, moore)
    if case == 10:
        other_path, other = corpus.file(0, 2, 2, 2)
        return ["check", "j-compat", mealy_path, other_path], (mealy, other)
    if case == 11:
        other_path, other = corpus.file(0, 3, 3, 2)
        return ["compose", other_path, mealy_path], (other, mealy)
    return ["check", "n-soft", "two", moore_path], (moore,)


def _defect_probes(c, corpus):
    """Requests that hit documented defects; they run untimed."""
    path, _ = corpus.file(1, 2, 2, 3)
    for argv in (["check", "n-soft", "0", path],
                 ["check", "extension-square", "0", path],
                 ["search-identity", "--alphabet", "0,1", "--max-states", "0"],
                 ["check", "pentagon", "--samples", "-3"]):
        c.probes.append(Op("zero-or-negative-bound", partial(_run_cli, argv),
                           partial(_const, BAD_INPUT), defect="3e"))
    # Composites whose state names collide by construction:
    # ("s0", "s1,s2") and ("s0,s1", "s2") both render as ⟨s0,s1,s2⟩.
    for _ in range(2):
        second_path, second = corpus.write(_random(corpus.rng, 0, 2, 2, 2), names=("s0", "s0,s1"))
        first_path, first = corpus.write(_random(corpus.rng, 0, 2, 2, 2), names=("s1,s2", "s2"))
        c.probes.append(Op("compose-collision",
                           partial(_compose_then_validate, second_path, first_path,
                                   corpus.path("composite.machine")),
                           partial(_const, _expect_composite(second, first)), defect="3d"))


WORKLOADS = {
    "law-sweep": law_sweep,
    "cascade-semantics": cascade_semantics,
    "cli-files": cli_files,
}

# Documented defects the probes exercise, keyed by their item in ROADMAP.md.
DEFECTS = {
    "3d": "render_state collides on names containing ',': compose -o writes a file that "
          "fails to reload",
    "3e": "zero or negative bounds escape as a traceback or report vacuous success "
          "instead of exit 2",
}
