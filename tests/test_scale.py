"""Checks at a scale that only a near-linear kernel finishes in time:
each must give its verdicts within 60 s, building its machines included."""

import itertools
import random
import time
import tracemalloc

from mealymoore import (
    Alphabet,
    MealyMachine,
    MooreMachine,
    PointedMachine,
    bisimilar,
    compose_cells,
    render_state,
    serialize_machine,
    trace,
)
from mealymoore.generate import random_mealy, random_moore

LIMIT_S = 60


def _reset_chain(bits, names):
    # 1 moves to the next position and stays at the last, 0 goes back to
    # the first; the output is 1 at the last position only.
    n, delta = len(names), {}
    for i, e in enumerate(names):
        delta[(e, "1")], delta[(e, "0")] = names[min(i + 1, n - 1)], names[0]
    out = {e: "1" if i == n - 1 else "0" for i, e in enumerate(names)}
    return MooreMachine(bits, bits, tuple(names), delta, out)


def test_bisimilar_on_20000_state_reset_chains():
    # The second chain is declared in reverse order.  Positions 1 and 2
    # first differ after about 20,000 letters, so a refinement of the
    # whole partition runs about 20,000 rounds (minutes); the union-find
    # check relates at most 40,000 pairs.
    start = time.perf_counter()
    bits, n = Alphabet("bits", ("0", "1")), 20000
    m = _reset_chain(bits, ["l%d" % i for i in range(n)])
    k = _reset_chain(bits, ["r%d" % i for i in range(n)])
    k = MooreMachine(bits, bits, k.states[::-1], k.delta, k.out)
    assert bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r1"))
    assert not bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r2"))
    assert time.perf_counter() - start < LIMIT_S


def _j_trace(m, e, word):
    # A Moore machine emits the output of the state it leaves, then that
    # of the last state it reaches.
    out = []
    for x in word:
        out.append(m.out[(e, x)] if isinstance(m, MealyMachine) else m.out[e])
        e = m.delta[(e, x)]
    return out if isinstance(m, MealyMachine) else out + [m.out[e]]


def test_cascade_walk_on_a_200000_letter_word():
    # trace on 400-state composites (20 × 20 states over 3 letters, every
    # pair of kinds), whose tables the walk builds on its first read, on
    # a 200,000-letter word given as a one-shot iterator, against the
    # downstream machine's trace over the upstream machine's J-trace,
    # both read from the named tables.  State and cell indices pass
    # CPython's cache of small integers.
    start = time.perf_counter()
    rng = random.Random(29)
    a, b, c = (Alphabet(name, tuple(name.lower() + str(i) for i in range(3))) for name in "ABC")
    word = rng.choices(a.symbols, k=200000)
    for second_kind, first_kind in itertools.product((random_mealy, random_moore), repeat=2):
        first, second = first_kind(rng, a, b, 20), second_kind(rng, b, c, 20)
        m = compose_cells(second, first)
        assert len(m.states) == 400
        f0, e0 = rng.choice(second.states), rng.choice(first.states)
        upstream = _j_trace(first, e0, word)
        if first_kind is random_moore and second_kind is random_moore:
            upstream = upstream[:-1]  # a Moore downstream machine reads only the J-trace
        assert trace(PointedMachine(m, (f0, e0)), iter(word)) == tuple(_j_trace(second, f0, upstream))
    assert time.perf_counter() - start < LIMIT_S


def test_a_20000_level_nesting_prints_in_linear_time_and_memory():
    # A left-nested chain of a one-state cell: its one state's name is
    # 400 KB of text.  repr builds no table; serialize_machine renders
    # each factor's names once, so its traced peak is about 10 MB, where
    # keeping every inner level's names peaked at over 1,500 MB.
    start = time.perf_counter()
    bits, k = Alphabet("bits", ("0", "1")), 20000
    cell = MooreMachine(bits, bits, ("s",), {("s", "0"): "s", ("s", "1"): "s"}, {"s": "1"})
    m = cell
    for _ in range(k):
        m = compose_cells(m, cell)
    assert repr(m).startswith("MooreMachine(input=Alphabet(")
    assert not {"states", "_d", "delta", "out"} & set(m.__dict__)
    tracemalloc.start()
    try:
        text = serialize_machine(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    name = "⟨" * k + "s" + ",s⟩" * k
    assert peak < 16 * 2**20 and '"%s"' % name in text
    assert render_state(m.states[0]) == name
    assert time.perf_counter() - start < LIMIT_S
