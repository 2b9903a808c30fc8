"""Checks at a scale that only a near-linear kernel finishes in time:
each must give its verdicts within 60 s, building its machines included,
and each file command of the CLI must answer on 20,000 states within 5 s."""

import itertools
import random
import time
import tracemalloc

import pytest

from mealymoore import (
    Alphabet,
    MooreMachine,
    PointedMachine,
    bisimilar,
    compose_cells,
    render_state,
    save_machine,
    serialize_machine,
    trace,
    universal_u,
)
from mealymoore.cli import main
from mealymoore.generate import random_mealy, random_moore

from conftest import BITS
from oracles import fold_trace
from test_semantics import family_machine

LIMIT_S = 60
REQUEST_LIMIT_S = 5  # the slowest request, check n-soft 3, took 0.33-0.49 s on 2 CPUs


def test_bisimilar_on_20000_state_reset_chains():
    # The second chain is declared in reverse order.  Positions 1 and 2
    # first differ after about 20,000 letters, so a refinement of the
    # whole partition runs about 20,000 rounds (minutes); the union-find
    # check relates at most 40,000 pairs.
    start = time.perf_counter()
    n = 20000
    m = family_machine("chain", n, n - 1, ["l%d" % i for i in range(n)])
    k = family_machine("chain", n, n - 1, ["r%d" % i for i in range(n)])
    k = MooreMachine(BITS, BITS, k.states[::-1], k.delta, k.out)
    assert bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r1"))
    assert not bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r2"))
    assert time.perf_counter() - start < LIMIT_S


def test_cascade_walk_on_a_200000_letter_word():
    # trace on 400-state composites (20 × 20 states over 3 letters, every
    # pair of kinds), whose tables the walk builds on its first read, on
    # a 200,000-letter word given as a one-shot iterator, against the
    # downstream machine's trace over the upstream machine's, both folded
    # over the named tables.  State and cell indices pass CPython's cache
    # of small integers.
    start = time.perf_counter()
    rng = random.Random(29)
    a, b, c = (Alphabet(name, tuple(name.lower() + str(i) for i in range(3))) for name in "ABC")
    word = rng.choices(a.symbols, k=200000)
    for second_kind, first_kind in itertools.product((random_mealy, random_moore), repeat=2):
        first, second = first_kind(rng, a, b, 20), second_kind(rng, b, c, 20)
        m = compose_cells(second, first)
        assert len(m.states) == 400
        f0, e0 = rng.choice(second.states), rng.choice(first.states)
        upstream = fold_trace(first, e0, word)
        if first_kind is random_moore and second_kind is random_moore:
            upstream = upstream[:-1]  # a Moore downstream machine reads only the J-trace
        assert trace(PointedMachine(m, (f0, e0)), iter(word)) == fold_trace(second, f0, upstream)
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


# Every command that reads a machine file, on seeded 2-letter files of
# 20,000 states: the argv, with {mealy}, {moore} and {u2} for the paths,
# and the exit code.  Left out until they scale (ROADMAP.md items 3 and
# 4): `homs m m` exits 2 at ENUMERATION_GUARD after about 5 s on a
# 20,000-state file, though the answer is one homomorphism, and `check
# n-soft 1000000000` ran past 120 s on a 5,000-state one-output file.
SCALE_REQUESTS = {
    "validate-mealy": ("validate {mealy}", 0),
    "validate-moore": ("validate {moore}", 0),
    "run": ("run {mealy} --start s0 --word {word}", 0),
    "moorify": ("transform moorify {mealy} -o /dev/null", 0),
    "decapitate": ("transform decapitate {mealy} -o /dev/null", 0),
    "soft": ("check soft {moore}", 1),
    "n-soft": ("check n-soft 3 {moore}", 1),
    "counit": ("check counit {mealy}", 0),
    "adjunction": ("adjunction {u2} {mealy}", 0),
    "compose": ("compose {u2} {mealy} -o /dev/null", 0),
    "search-identity": ("search-identity --alphabet 0,1 --max-states 1 --probe {mealy}", 0),
}


@pytest.fixture(scope="module")
def scale_files(tmp_path_factory):
    rng, folder = random.Random(20000), tmp_path_factory.mktemp("scale")
    files = {"word": "".join(rng.choices("01", k=100000))}
    for name, m in (("mealy", random_mealy(rng, BITS, BITS, 20000)),
                    ("moore", random_moore(rng, BITS, BITS, 20000)), ("u2", universal_u(BITS))):
        files[name] = str(folder / ("%s.machine" % name))
        save_machine(m, files[name])
    return files


@pytest.mark.parametrize("request_id", list(SCALE_REQUESTS))
def test_file_commands_at_20000_states(request_id, scale_files, capsys):
    argv, code = SCALE_REQUESTS[request_id]
    start = time.perf_counter()
    assert main(argv.format(**scale_files).split()) == code, capsys.readouterr().err
    assert time.perf_counter() - start < REQUEST_LIMIT_S
