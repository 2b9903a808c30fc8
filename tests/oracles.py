"""Independent oracles used to cross-check the library.

Everything here recomputes results from first principles (folds over
the named tables, bounded word exhaustion, a breadth-first search for a
shortest distinguishing word, brute-force counts and δ-maps, pairwise
table checks, a named-first random draw, the machine-file writer, its
state names included, and reader as they were written first, on the
named tables, and the text-mode file reader) rather than calling the
code paths under test.  The exceptions are ``pentagon_maps`` and
``rebracketed``, which read the bijections ``associator`` returns, and
``triangle_holds``, which reads the composites ``ucompose`` returns,
because those are what they are about.
"""

import functools
import itertools
import json
from collections import abc

from mealymoore import (
    Alphabet,
    DuplicateName,
    FormalId,
    MachineFileSyntaxError,
    MealyMachine,
    MissingEntry,
    MooreMachine,
    PointedMachine,
    StateMap,
    associator,
    compose_cells,
    is_homomorphism,
    machine_from_raw,
    parse_machine_text,
    serialize_machine,
    trace,
    ucompose,
)


def words_up_to(alphabet, maxlen, include_empty=True):
    """All words over the alphabet of length ≤ maxlen, shortest first,
    letters in declaration order."""
    out = [()] if include_empty else []
    layer = [()]
    for _ in range(maxlen):
        layer = [w + (a,) for w in layer for a in alphabet.symbols]
        out.extend(layer)
    return out


def fold_state(m, e, word):
    """Fold of the dynamics over the named table, written independently
    of d_iter and of the index form."""
    return functools.reduce(lambda s, a: m.delta[(s, a)], word, e)


def fold_run(m, start, word):
    """Word evaluation from the named tables: last output letter."""
    if isinstance(m, MooreMachine):
        return m.out[fold_state(m, start, word)]
    assert word, "Mealy machines need a nonempty word"
    return m.out[(fold_state(m, start, word[:-1]), word[-1])]


def fold_trace(m, start, word):
    """Trace read from the named tables at the state each prefix reaches
    (a Moore machine's start first), not from the index form."""
    reached = list(itertools.accumulate(word, lambda s, a: m.delta[(s, a)], initial=start))
    if isinstance(m, MooreMachine):
        return tuple(m.out[s] for s in reached)
    return tuple(m.out[(s, a)] for s, a in zip(reached, word))


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


def distinguishing_word(p_machine, p_start, q_machine, q_start):
    """The shortest word on which the two pointed machines' traces
    differ, or None if they agree on every word: breadth-first search
    over the pairs of named states reached from the two starts by one
    word, read from ``delta`` and ``out``, not from the index form.  A
    pair is expanded once, so it is exact in O(|Q1|·|Q2|·|A|) steps."""
    moore = isinstance(p_machine, MooreMachine)
    letters = p_machine.input.symbols
    seen, layer = {(p_start, q_start)}, [((p_start, q_start), ())]
    while layer:
        reached = []
        for (x, y), word in layer:
            if moore and p_machine.out[x] != q_machine.out[y]:
                return word
            for a in letters:
                if not moore and p_machine.out[(x, a)] != q_machine.out[(y, a)]:
                    return word + (a,)
                pair = (p_machine.delta[(x, a)], q_machine.delta[(y, a)])
                if pair not in seen:
                    seen.add(pair)
                    reached.append((pair, word + (a,)))
        layer = reached
    return None


def d1_named(m):
    """The one-step Mealy conversion D₁ of a Moore machine, written from
    the named tables: out'(e, a) = out(delta(e, a))."""
    d1_out = {(e, a): m.out[m.delta[(e, a)]] for e in m.states for a in m.input.symbols}
    return MealyMachine(m.input, m.output, m.states, m.delta, d1_out)


def extension_square_words(m, maxlen):
    """Word exhaustion for the extension square of a Moore machine: from
    every state, does its run on every nonempty word of length ≤ maxlen
    equal the run of the one-step Mealy conversion ``d1_named``?"""
    d1 = d1_named(m)
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


def delay_register(x):
    """The one-step delay register over x, written from its definition:
    the state is the last letter read, and the output is the state."""
    return MooreMachine(x, x, x.symbols, {(b, c): c for b in x.symbols for c in x.symbols},
                        {b: b for b in x.symbols})


def counit_holds(m, project=lambda state: state[1]):
    """Is ``project``, by default the counit (b, e) ↦ e, a homomorphism
    D₁(𝔲⋄m) → m?  𝔲⋄m is built by ``cascade_machine`` from
    ``delay_register``, D₁ by ``d1_named``, and the map is checked by
    ``table_hom``."""
    d1 = d1_named(cascade_machine(delay_register(m.output), m))
    return table_hom(d1, m, {s: project(s) for s in d1.states})


def lifted_by_tables(phi):
    """Is (b, e) ↦ (b, φ(e)) a homomorphism between the moorifications of
    φ's endpoints, each built afresh by the cascade oracle and checked
    against the raw tables?"""
    u = delay_register(phi.source.output)
    mapping = {(b, e): (b, phi.map[e]) for b in u.states for e in phi.source.states}
    return table_hom(cascade_machine(u, phi.source), cascade_machine(u, phi.target), mapping)


def j_named(m):
    """The embedding J from the named tables: a Moore machine read as a
    Mealy machine that emits out(e) at every (e, a); a Mealy machine as
    it is."""
    if isinstance(m, MealyMachine):
        return m
    out = {(e, a): m.out[e] for e in m.states for a in m.input.symbols}
    return MealyMachine(m.input, m.output, m.states, m.delta, out)


def j_compatible(m, n):
    """The J-compatibilities of m⋄n (m downstream, n upstream, not both
    Mealy) on the named tables: J(m⋄n) = Jm⋄Jn, which is J(m⋄n) = m⋄Jn or
    J(m⋄n) = Jm⋄n when one factor is Mealy, and, when both are Moore,
    m⋄Jn = Jm⋄n too.  Composites come from ``cascade``."""
    if tables(j_named(cascade_machine(m, n))) != cascade(j_named(m), j_named(n)):
        return False
    return isinstance(m, MealyMachine) or isinstance(n, MealyMachine) or (
        cascade(m, j_named(n)) == cascade(j_named(m), n))


def triangle_holds(c2, c1):
    """The triangle X⋄(⊥⋄Y) → (X⋄⊥)⋄Y → X⋄Y for X = c2 and Y = c1, ⊥
    the formal identity between them, read from tables: its legs are
    identities when X⋄(⊥⋄Y), (X⋄⊥)⋄Y and X⋄Y have the tables of X⋄Y,
    which are ``cascade``'s for two machines, the machine's own for one,
    and the formal identity's alphabet for none."""
    def tabs(c):
        return c.at.symbols if isinstance(c, FormalId) else tables(c)

    machines = [c for c in (c2, c1) if not isinstance(c, FormalId)]
    want = cascade(c2, c1) if len(machines) == 2 else tabs((machines or [c1])[0])
    gap = FormalId(Alphabet("mid", c2.at.symbols if isinstance(c2, FormalId) else c2.input.symbols))
    corners = (ucompose(c2, ucompose(gap, c1)), ucompose(ucompose(c2, gap), c1), ucompose(c2, c1))
    return all(tabs(c) == want for c in corners)


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


def delta_maps(n, m):
    """Every state map φ : n → m with φ(δ_n(e, a)) = δ_m(φ(e), a), by
    brute force over the named tables: all |m|^|n| maps in lexicographic
    order of the target indices, outputs ignored."""
    found = []
    for images in itertools.product(m.states, repeat=len(n.states)):
        phi = dict(zip(n.states, images))
        if all(phi[n.delta[(e, a)]] == m.delta[(phi[e], a)]
               for e in n.states for a in n.input.symbols):
            found.append(phi)
    return found


def transposition(n, left_maps, right_maps):
    """The transposition φ ↦ (e ↦ (out_n(e), φ(e))) between named hom-sets
    (dicts, as ``homs`` returns them), checked literally: every transpose
    is a right map, then every right map's projection e ↦ ψ(e)[1] is a
    left map whose transpose is that right map again, then the sizes.
    Returns (success, first counterexample, pairs of named maps)."""
    def transpose(phi):
        return {e: (n.out[e], phi[e]) for e in n.states}

    pairs = []
    for phi in left_maps:
        if transpose(phi) not in right_maps:
            return False, "transpose of %r is not in the right hom-set" % (phi,), []
        pairs.append((phi, transpose(phi)))
    for psi in right_maps:
        projected = {e: psi[e][1] for e in n.states}
        if projected not in left_maps:
            return False, "projection of %r is not in the left hom-set" % (psi,), []
        if transpose(projected) != psi:
            return False, "round trip fails at %r" % (psi,), []
    if len(left_maps) != len(right_maps):
        return False, "hom-set sizes differ", []
    return True, None, pairs


def pointwise_identity(candidate, probe):
    """The first direction in which the Moore machine ``candidate`` U is
    no pointwise identity for the Mealy machine ``probe`` m, or None.

    U⋄m ("post-composition") and then m⋄U ("pre-composition") are built
    by ``cascade``, and the Moore composite is read as a Mealy machine
    whose output ignores the letter.  Each must have, for every probe
    state e, a state (u, e) or (e, u) bisimilar to e by word exhaustion."""
    for direction, second, first, pair in (
            ("post-composition", candidate, probe, lambda u, e: (u, e)),
            ("pre-composition", probe, candidate, lambda u, e: (e, u))):
        _, states, delta, out = cascade(second, first)
        letters = first.input.symbols
        j = MealyMachine(first.input, second.output, states, delta,
                         {(s, a): out[s] for s in states for a in letters})
        if not all(any(bisimilar_words(j, pair(u, e), probe, e) for u in candidate.states)
                   for e in probe.states):
            return direction
    return None


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


def cascade_machine(second, first):
    """The composite second⋄first built from the tables of ``cascade``
    by the public, validating constructor."""
    kind, states, delta, out = cascade(second, first)
    return kind(first.input, second.output, states, delta, out)


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


def random_named(rng, kind, inp, outp, n_states):
    """The seeded draw of ``generate.random_mealy``/``random_moore``,
    written named-first: (states, delta, out), the delta dict from
    ``rng.choice`` over the state names, then the outputs from
    ``rng.choice`` over the output symbols, both in table order."""
    states = tuple("s%d" % i for i in range(n_states))
    delta = {(e, a): rng.choice(states) for e in states for a in inp.symbols}
    if kind is MealyMachine:
        out = {(e, a): rng.choice(outp.symbols) for e in states for a in inp.symbols}
    else:
        out = {e: rng.choice(outp.symbols) for e in states}
    return states, delta, out


def random_cell_named(rng, inp, outp, max_states):
    """The seeded draw of ``generate.random_cell``: (kind, states, delta, out)."""
    n = rng.randint(1, max_states)
    kind = MooreMachine if rng.random() < 0.5 else MealyMachine
    return (kind,) + random_named(rng, kind, inp, outp, n)


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


def rebracketed(bij, h, g, f):
    """Is the target of ``associator(h, g, f)`` the composite h⋄(g⋄f)?

    Its kind, states and named tables must equal ``cascade`` of h and the
    machine built from ``cascade(g, f)``.  Against h⋄(g⋄f) composed
    afresh, the forward map, through the public ``StateMap``, must be a
    homomorphism, and the target must serialize to the same text and
    trace alike from every state.  The maps are the identity on the
    index form, so this, and not ``is_homomorphism(bij.forward)`` alone,
    tests that both bracketings number the states alike."""
    target = bij.target
    if tables(target) != cascade(h, cascade_machine(g, f)):
        return False
    fresh = compose_cells(h, compose_cells(g, f))
    if not is_homomorphism(StateMap(bij.source, fresh, bij.forward.map)):
        return False
    word = target.input.symbols * 2
    return serialize_machine(target) == serialize_machine(fresh) and all(
        trace(PointedMachine(target, s), word) == trace(PointedMachine(fresh, s), word)
        for s in fresh.states
    )


def state_name(s):
    """The file name of a state, as ``render_state`` was first written:
    a tuple is its parts' names, recursively, in ⟨⟩ with commas."""
    if isinstance(s, tuple):
        return "⟨%s⟩" % ",".join(state_name(part) for part in s)
    return str(s)


def machine_text(m):
    """The machine file of m as json.dumps prints its document: built
    from the named tables m.states, m.delta and m.out, state names by
    ``state_name``, then json.dumps(..., ensure_ascii=False, indent=2)."""
    name, owner = {}, {}
    for e in m.states:
        text = name[e] = state_name(e)
        if owner.setdefault(text, e) != e:
            raise DuplicateName("states %r and %r both render as %r" % (owner[text], e, text))
    letters = m.input.symbols
    delta = {name[e]: {a: name[m.delta[(e, a)]] for a in letters} for e in m.states}
    if isinstance(m, MealyMachine):
        kind, out = "mealy", {name[e]: {a: m.out[(e, a)] for a in letters} for e in m.states}
    else:
        kind, out = "moore", {name[e]: m.out[e] for e in m.states}
    doc = {"version": 1, "kind": kind, "input": list(letters), "output": list(m.output.symbols),
           "states": list(name.values()), "delta": delta, "out": out}
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _flat(table, what, nested):
    """A raw table keyed by state, checked for shape and flattened to
    (state, letter) keys if nested, with the reader's error messages."""
    if not isinstance(table, abc.Mapping):
        raise MissingEntry("%s must be a table keyed by state" % what)
    flat = {}
    for e, row in table.items():
        if not nested:
            if isinstance(row, abc.Mapping):
                raise MissingEntry("%s[%r]: a Moore output table maps states to letters" % (what, e))
            flat[e] = row
        elif not isinstance(row, abc.Mapping):
            raise MissingEntry("%s[%r] must be a per-letter table" % (what, e))
        else:
            flat.update(((e, a), v) for a, v in row.items())
    return flat


def validate_flat(raw, kind):
    """A raw description read as the first reader did: the alphabets and
    the state list checked, then the nested rows flattened to (state,
    letter) tables and handed to the public constructor of ``kind``."""
    alphabets = []
    for field in ("input", "output"):
        symbols = raw.get(field)
        if not isinstance(symbols, (list, tuple)):
            raise MissingEntry("%s alphabet must be a list of symbols" % field)
        alphabets.append(Alphabet(field, tuple(str(s) for s in symbols)))
    states = raw.get("states")
    if not isinstance(states, (list, tuple)):
        raise MissingEntry("states must be a list")
    delta = _flat(raw.get("delta", {}), "delta", True)
    out = _flat(raw.get("out", {}), "out", kind is MealyMachine)
    return kind(*alphabets, tuple(states), delta, out)


def load_text_mode(path):
    """The machine-file reader as it was first written: the file opened
    in text mode as UTF-8 with universal newlines, then parsed."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise MachineFileSyntaxError("not UTF-8 text: %s" % err) from err
    return machine_from_raw(parse_machine_text(text))
