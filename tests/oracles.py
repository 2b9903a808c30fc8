"""Independent oracles used to cross-check the library.

Everything here recomputes results from first principles (explicit
recursion, bounded word exhaustion, brute-force counts, pairwise table
checks) rather than calling the code paths under test.  The one
exception is ``pentagon_maps``, which composes the maps ``associator``
returns, because those maps are what the pentagon is about.
"""

import itertools

from mealymoore import MealyMachine, MooreMachine, associator, compose_cells
from mealymoore.semantics import words_up_to


def fold_state(m, e, word):
    """Recursive fold of the dynamics, written independently of d_iter."""
    if not word:
        return e
    return fold_state(m, m.delta[(e, word[0])], word[1:])


def fold_run(m, start, word):
    """Recursive word evaluation: last output letter."""
    if isinstance(m, MooreMachine):
        return m.out[fold_state(m, start, word)]
    assert word, "Mealy machines need a nonempty word"
    return m.out[(fold_state(m, start, word[:-1]), word[-1])]


def fold_trace(m, start, word):
    """Trace rebuilt from per-prefix evaluation, not from a single pass."""
    if isinstance(m, MooreMachine):
        prefixes = [word[:i] for i in range(len(word) + 1)]
    else:
        prefixes = [word[: i + 1] for i in range(len(word))]
    return tuple(fold_run(m, start, p) for p in prefixes)


def n_soft(m, n):
    """Word exhaustion: does every word of length exactly n lead each
    state of a Moore machine to a state with the same output?"""
    words = list(itertools.product(m.input.symbols, repeat=n))
    return all(m.out[fold_state(m, e, w)] == m.out[e] for e in m.states for w in words)


def words_agree(p_machine, p_start, q_machine, q_start, maxlen):
    """Bounded word exhaustion: do the two pointed machines emit the
    same trace on every word of length ≤ maxlen?"""
    empty_ok = isinstance(p_machine, MooreMachine)
    for w in words_up_to(p_machine.input, maxlen, include_empty=empty_ok):
        if not w and not empty_ok:
            continue
        if fold_trace(p_machine, p_start, w) != fold_trace(q_machine, q_start, w):
            return False
    return True


def bisimilar_words(p_machine, p_start, q_machine, q_start):
    """Exact bisimilarity by word exhaustion: two states of a disjoint
    union with N states that agree on every word of length ≤ N agree on
    every word, since each round of refinement that still splits a block
    needs one more letter and there are fewer than N such rounds."""
    bound = len(p_machine.states) + len(q_machine.states)
    return words_agree(p_machine, p_start, q_machine, q_start, bound)


def extension_square_words(m, maxlen):
    """Word exhaustion for the extension square of a Moore machine: from
    every state, does its run on every nonempty word of length ≤ maxlen
    equal the run of the one-step Mealy conversion, whose table
    out'(e, a) = out(delta(e, a)) is written here from the raw tables?"""
    d1_out = {(e, a): m.out[m.delta[(e, a)]] for e in m.states for a in m.input.symbols}
    d1 = MealyMachine(m.input, m.output, m.states, m.delta, d1_out)
    return all(
        fold_run(m, e, w) == fold_run(d1, e, w)
        for e in m.states
        for w in words_up_to(m.input, maxlen, include_empty=False)
    )


def table_hom(source, target, mapping):
    """Pairwise homomorphism check written against the raw tables."""
    mealy = isinstance(source, MealyMachine)
    for e in source.states:
        for a in source.input.symbols:
            if mapping[source.delta[(e, a)]] != target.delta[(mapping[e], a)]:
                return False
            if mealy and target.out[(mapping[e], a)] != source.out[(e, a)]:
                return False
        if not mealy and target.out[mapping[e]] != source.out[e]:
            return False
    return True


def homs(source, target):
    """Every homomorphism source → target by brute force: all
    |target|^|source| state maps in lexicographic order of the target
    indices, each tested with ``table_hom``."""
    found = []
    for images in itertools.product(target.states, repeat=len(source.states)):
        mapping = dict(zip(source.states, images))
        if table_hom(source, target, mapping):
            found.append(mapping)
    return found


def letter_independent(mealy):
    """Does a Mealy output table ignore the current letter?"""
    for e in mealy.states:
        row = {mealy.out[(e, a)] for a in mealy.input.symbols}
        if len(row) > 1:
            return False
    return True


def cascade(second, first):
    """The composite second⋄first from the four per-kind formulas,
    written against the raw tables and never through mealymoore.compose.

    Returns (kind, states, delta, out), kind being MealyMachine only when
    both factors are Mealy; states are the pairs (f, e) in table order.
    """
    states = tuple((f, e) for f in second.states for e in first.states)
    letters = first.input.symbols
    second_mealy = isinstance(second, MealyMachine)
    first_mealy = isinstance(first, MealyMachine)
    delta, out = {}, {}
    if second_mealy and first_mealy:
        for f, e in states:
            for a in letters:
                b = first.out[(e, a)]
                delta[((f, e), a)] = (second.delta[(f, b)], first.delta[(e, a)])
                out[((f, e), a)] = second.out[(f, b)]
        return MealyMachine, states, delta, out
    if not second_mealy and not first_mealy:
        for f, e in states:
            for a in letters:
                delta[((f, e), a)] = (second.delta[(f, first.out[e])], first.delta[(e, a)])
            out[(f, e)] = second.out[f]
    elif first_mealy:
        for f, e in states:
            for a in letters:
                delta[((f, e), a)] = (second.delta[(f, first.out[(e, a)])], first.delta[(e, a)])
            out[(f, e)] = second.out[f]
    else:
        for f, e in states:
            for a in letters:
                delta[((f, e), a)] = (second.delta[(f, first.out[e])], first.delta[(e, a)])
            out[(f, e)] = second.out[(f, first.out[e])]
    return MooreMachine, states, delta, out


def tables(m):
    """(kind, states, delta, out) of a machine, comparable with cascade()."""
    return type(m), m.states, m.delta, m.out


def pinfty_carrier(x, depth):
    """Brute-force count of the functions from words of length ≤ depth to
    x that agree with the head letter on every nonempty word: all
    |x|^(number of words) functions are tried."""
    words = words_up_to(x, depth)  # the empty word comes first
    heads = tuple(w[0] for w in words[1:])
    return sum(
        1 for values in itertools.product(x.symbols, repeat=len(words))
        if values[1:] == heads
    )


def _whisker_right(phi, first):
    """φ⋄first as a dict on pair states (x, e), x a state of φ's source."""
    return {(x, e): (y, e) for x, y in phi.items() for e in first.states}


def _whisker_left(second, phi):
    """second⋄φ as a dict on pair states (s, x), x a state of φ's source."""
    return {(s, x): (s, y) for s in second.states for x, y in phi.items()}


def pentagon_maps(k, h, g, f):
    """The pentagon for the associator, read from the forward maps that
    ``associator`` returns: do the two paths ((k⋄h)⋄g)⋄f → k⋄(h⋄(g⋄f))

        α(k, h, g⋄f) · α(k⋄h, g, f)
        (k⋄α(h, g, f)) · α(k, h⋄g, f) · (α(k, h, g)⋄f)

    agree on every state?  The whiskerings are built here as dicts; a
    state one map sends outside the next map's domain raises KeyError."""
    top = associator(compose_cells(k, h), g, f)
    top_next = associator(k, h, compose_cells(g, f))
    low = associator(k, h, g)
    low_mid = associator(k, compose_cells(h, g), f)
    low_last = associator(h, g, f)
    path_one = {s: top_next.forward.map[top.forward.map[s]] for s in top.source.states}
    first = _whisker_right(low.forward.map, f)
    last = _whisker_left(k, low_last.forward.map)
    path_two = {s: last[low_mid.forward.map[first[s]]] for s in top.source.states}
    return path_one == path_two
