"""Randomized invariants over machine space, driven by hypothesis, and
the one hypothesis comparison of each index-form kernel with its oracle
in ``oracles.py``."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mealymoore import (
    Alphabet,
    EmptyWordOnMealy,
    LetterOutOfAlphabet,
    MealyMachine,
    MooreMachine,
    PointedMachine,
    StateMap,
    apply_D1,
    bisimilar,
    check_pentagon,
    compose_cells,
    compose_maps,
    d_iter,
    embed_j,
    enumerate_homs,
    is_homomorphism,
    is_n_soft,
    is_soft,
    machine_from_raw,
    parse_machine_text,
    render_state,
    run,
    serialize_machine,
    trace,
)
from oracles import (
    bisimilar_words,
    cascade,
    cascade_machine,
    fold_run,
    fold_state,
    fold_trace,
    homs,
    n_soft,
    table_hom,
    tables,
    words_up_to,
)

# The kernels read the index form; the oracles in ``oracles.py`` read the
# named tables.  Machines are drawn with string, tuple and composite state
# names, tables listed in another order than the states and letters, and
# alphabets whose symbols are not in sorted order, so a kernel that mixed
# up names and indices would disagree.

ORACLE = settings(max_examples=50, deadline=None)


@st.composite
def unsorted_alphabets(draw, max_size=3):
    k = draw(st.integers(1, max_size))
    return Alphabet("U%d" % k, tuple(draw(st.permutations("zbmq"))[:k]))


def _names(style, n):
    if style == "str":
        return tuple("e%d" % i for i in range(n))
    return tuple(("t", i, ("n", i % 2)) for i in range(n))


@st.composite
def plain_cells(draw, inp, outp, moore, max_states, styles=("str", "tuple")):
    n = draw(st.integers(1, max_states))
    states = _names(draw(st.sampled_from(styles)), n)
    keys = [(e, a) for e in states for a in inp.symbols]
    delta = dict(zip(keys, draw(st.lists(
        st.sampled_from(states), min_size=len(keys), max_size=len(keys)))))
    cells = states if moore else keys
    out = dict(zip(cells, draw(st.lists(
        st.sampled_from(outp.symbols), min_size=len(cells), max_size=len(cells)))))
    # Tables listed in another order than the states and letters.
    delta = {x: delta[x] for x in draw(st.permutations(keys))}
    out = {x: out[x] for x in draw(st.permutations(cells))}
    return (MooreMachine if moore else MealyMachine)(inp, outp, states, delta, out)


@st.composite
def cells(draw, inp, outp, moore=None, max_states=3):
    """A machine of the given kind (any kind if None): a plain one, or a
    composite of two plain factors of at most two states each."""
    if moore is None:
        moore = draw(st.booleans())
    if not draw(st.booleans()):
        return draw(plain_cells(inp, outp, moore, max_states))
    mid = draw(unsorted_alphabets())
    kinds = draw(st.sampled_from([(True, True), (True, False), (False, True)])
                 if moore else st.just((False, False)))
    first = draw(plain_cells(inp, mid, kinds[0], 2))
    second = draw(plain_cells(mid, outp, kinds[1], 2))
    return compose_cells(second, first)


@st.composite
def endpoints(draw, max_size=3):
    return draw(unsorted_alphabets(max_size)), draw(unsorted_alphabets(max_size))


@settings(max_examples=40)
@given(st.data())
def test_pentagon_random_quadruples(data):
    a = [data.draw(unsorted_alphabets(2)) for _ in range(5)]
    f, g, h, k = (data.draw(plain_cells(a[i], a[i + 1], data.draw(st.booleans()), 2))
                  for i in range(4))
    assert check_pentagon(k, h, g, f)


@given(st.data(), st.integers(1, 4))
def test_soft_implies_n_soft(data, n):
    m = data.draw(plain_cells(*data.draw(endpoints()), True, 3))
    if is_soft(m):
        assert is_n_soft(m, n)


@given(st.data(), st.integers(1, 3), st.integers(1, 2))
def test_n_soft_implies_multiples(data, n, k):
    m = data.draw(plain_cells(*data.draw(endpoints()), True, 3))
    if is_n_soft(m, n):
        assert is_n_soft(m, n * k)


def test_n_soft_hierarchy_is_not_monotone():
    # A period-2 oscillator: out returns to itself after an even number
    # of steps only, so the machine is 2-soft yet not 1- or 3-soft.
    one = Alphabet("one", ("a",))
    two = Alphabet("two", ("x", "y"))
    osc = MooreMachine(
        one, two, ("e0", "e1"),
        {("e0", "a"): "e1", ("e1", "a"): "e0"},
        {"e0": "x", "e1": "y"},
    )
    assert is_n_soft(osc, 2)
    assert not is_n_soft(osc, 1)
    assert not is_n_soft(osc, 3)


@given(st.data())
def test_hom_composition_closure(data):
    a, b = data.draw(endpoints(2))
    m1, m2, m3 = (data.draw(plain_cells(a, b, False, 2)) for _ in range(3))
    for phi in enumerate_homs(m1, m2).homs:
        for psi in enumerate_homs(m2, m3).homs:
            assert is_homomorphism(compose_maps(psi, phi))


# ------------------------------------------------ index kernels vs oracles


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_cells_matches_cascade(data):
    # tables() holds the kind and the states, so this also checks the
    # kind of each of the four kinds of composite and its carrier.
    a, b = data.draw(endpoints())
    mid = data.draw(unsorted_alphabets())
    first, second = data.draw(cells(a, mid)), data.draw(cells(mid, b))
    assert tables(compose_cells(second, first)) == cascade(second, first)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumerate_homs_matches_brute_force(data):
    a, b = data.draw(endpoints(2))
    moore = data.draw(st.booleans())
    m1 = data.draw(cells(a, b, moore, max_states=4))
    m2 = data.draw(st.one_of(st.just(m1), cells(a, b, moore, max_states=4)))
    assert enumerate_homs(m1, m2).maps() == homs(m1, m2)


@ORACLE
@given(st.data())
def test_is_homomorphism_matches_table_check(data):
    a, b = data.draw(endpoints(2))
    moore = data.draw(st.booleans())
    m1, m2 = data.draw(cells(a, b, moore)), data.draw(cells(a, b, moore))
    images = data.draw(st.lists(st.sampled_from(m2.states),
                                min_size=len(m1.states), max_size=len(m1.states)))
    maps = [dict(zip(m1.states, images))] + homs(m1, m2)
    for mapping in maps:
        assert is_homomorphism(StateMap(m1, m2, mapping)) == table_hom(m1, m2, mapping)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_and_run_match_folds(data):
    # Every word of at most 3 letters and each longer prefix of one drawn
    # word of at most 9, so trace keeps the folds' length and prefix laws.
    a, b = data.draw(endpoints())
    m = data.draw(cells(a, b))
    drawn = tuple(data.draw(st.lists(st.sampled_from(a.symbols), max_size=9)))
    words = words_up_to(a, 3) + [drawn[:k] for k in range(4, len(drawn) + 1)]
    for start in m.states:
        p = PointedMachine(m, start)
        for word in words:
            assert trace(p, word) == fold_trace(m, start, word)
            if word or isinstance(m, MooreMachine):
                assert run(p, word) == fold_run(m, start, word)


@st.composite
def word_alphabets(draw):
    """Alphabets of multi-character letters, not in sorted order."""
    k = draw(st.integers(1, 3))
    return Alphabet("W%d" % k, tuple(draw(st.permutations(("zz", "b1", "mq", "a")))[:k]))


@st.composite
def long_words(draw, alphabet):
    """A word of 1,000-3,000 letters, drawn from a seeded generator: one
    drawn list of that length would overrun hypothesis's buffer."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return tuple(rng.choices(alphabet.symbols, k=draw(st.integers(1000, 3000))))


@pytest.mark.parametrize("second_moore, first_moore",
                         list(itertools.product((False, True), repeat=2)))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_long_words_match_folds(second_moore, first_moore, data):
    # The oracle is the composite built from ``cascade`` by the public
    # constructor, so neither its tables nor the walk share code with
    # compose_cells, run, trace or d_iter.
    a, mid, b = (data.draw(word_alphabets()) for _ in range(3))
    first = data.draw(plain_cells(a, mid, first_moore, 4))
    second = data.draw(plain_cells(mid, b, second_moore, 4))
    m, oracle = compose_cells(second, first), cascade_machine(second, first)
    start, word = data.draw(st.sampled_from(m.states)), data.draw(long_words(a))
    p = PointedMachine(m, start)
    assert trace(p, word) == fold_trace(oracle, start, word)
    assert run(p, word) == fold_run(oracle, start, word)
    assert d_iter(m, start, word) == fold_state(oracle, start, word)
    for bad in ("a?", ["zz"]):  # an undeclared letter, an unhashable one
        for walk in (run, trace):
            with pytest.raises(LetterOutOfAlphabet):
                walk(p, word[:-1] + (bad,))
        with pytest.raises(LetterOutOfAlphabet):
            d_iter(m, start, word[:-1] + (bad,))
    if isinstance(m, MealyMachine):
        with pytest.raises(EmptyWordOnMealy):
            run(p, ())
    else:
        assert run(p, ()) == fold_run(oracle, start, ())
    assert trace(p, ()) == fold_trace(oracle, start, ())
    assert d_iter(m, start, ()) == start


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bisimilar_matches_word_exhaustion(data):
    a, b = data.draw(endpoints(2))
    moore = data.draw(st.booleans())
    m = data.draw(cells(a, b, moore, max_states=4))
    n = data.draw(st.one_of(st.just(m), cells(a, b, moore, max_states=4)))
    s, t = data.draw(st.sampled_from(m.states)), data.draw(st.sampled_from(n.states))
    assert bisimilar(PointedMachine(m, s), PointedMachine(n, t)) == bisimilar_words(m, s, n, t)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_is_n_soft_matches_word_exhaustion(data, n):
    m = data.draw(cells(*data.draw(endpoints()), moore=True))
    assert is_soft(m) == is_n_soft(m, 1) == n_soft(m, 1)
    assert is_n_soft(m, n) == n_soft(m, n)


@ORACLE
@given(st.data())
def test_named_view_is_what_the_constructor_builds(data):
    a, b = data.draw(endpoints())
    mid = data.draw(unsorted_alphabets())
    first, second = data.draw(cells(a, mid)), data.draw(cells(mid, b))
    moore = data.draw(cells(a, b, moore=True))
    for m in (compose_cells(second, first), embed_j(moore), apply_D1(moore)):
        checked = type(m)(m.input, m.output, m.states, m.delta, m.out)
        assert checked == m
        assert (checked.states, checked.delta, checked.out) == (m.states, m.delta, m.out)


@ORACLE
@given(st.data())
def test_composite_file_round_trip(data):
    a, b = data.draw(endpoints())
    mid = data.draw(unsorted_alphabets())
    first = data.draw(plain_cells(a, mid, data.draw(st.booleans()), 3, ["str"]))
    second = data.draw(plain_cells(mid, b, data.draw(st.booleans()), 3, ["str"]))
    m = compose_cells(second, first)
    text = serialize_machine(m)
    loaded = machine_from_raw(parse_machine_text(text))
    name = {e: render_state(e) for e in m.states}
    renamed = type(m)(
        m.input, m.output, tuple(name.values()),
        {(name[e], a): name[t] for (e, a), t in m.delta.items()},
        {(name[x[0]], x[1]) if isinstance(m, MealyMachine) else name[x]: y
         for x, y in m.out.items()},
    )
    assert loaded == renamed
    assert serialize_machine(loaded) == text
