"""Expected answers computed without the code under test.

Every function here reads machine tables directly (``states``,
``input.symbols``, ``delta``, ``out``) and recomputes the answer from
first principles: total-map brute force for hom-sets, word exhaustion
for n-softness, explicit folds for traces.  Derived machines (moorify,
decapitate, D1, J) are rebuilt from their defining formulas as plain
``Tab`` records, never through the library's constructors.

The only laws taken on trust are the paper's: the adjunction bijection,
the counit, functoriality of moorify, the extension square,
decapitate-is-soft and bisimilarity of the two bracketings.  Nothing
here assumes that n-soft implies (n+1)-soft.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple


class Tab(NamedTuple):
    states: tuple
    letters: tuple
    outputs: tuple
    delta: dict  # (state, letter) -> state
    out: dict  # (state, letter) -> letter when mealy, state -> letter otherwise
    mealy: bool


def tab(m) -> Tab:
    """Snapshot a library machine's tables."""
    return Tab(
        tuple(m.states), tuple(m.input.symbols), tuple(m.output.symbols),
        dict(m.delta), dict(m.out), type(m).__name__ == "MealyMachine",
    )


def moorify_tab(m: Tab) -> Tab:
    """Post-composition with the one-step register: state (b, e) stores
    the last emitted letter b and outputs it."""
    states = tuple((b, e) for b in m.outputs for e in m.states)
    delta = {((b, e), a): (m.out[(e, a)], m.delta[(e, a)]) for b, e in states for a in m.letters}
    return Tab(states, m.letters, m.outputs, delta, {(b, e): b for b, e in states}, False)


def decapitate_tab(m: Tab) -> Tab:
    """Post-composition with the frozen register: b never changes."""
    states = tuple((b, e) for b in m.outputs for e in m.states)
    delta = {((b, e), a): (b, m.delta[(e, a)]) for b, e in states for a in m.letters}
    return Tab(states, m.letters, m.outputs, delta, {(b, e): b for b, e in states}, False)


def d1_tab(n: Tab) -> Tab:
    out = {(e, a): n.out[n.delta[(e, a)]] for e in n.states for a in n.letters}
    return n._replace(out=out, mealy=True)


def embed_j_tab(n: Tab) -> Tab:
    out = {(e, a): n.out[e] for e in n.states for a in n.letters}
    return n._replace(out=out, mealy=True)


def is_hom(src: Tab, tgt: Tab, phi: dict) -> bool:
    for e in src.states:
        for a in src.letters:
            if phi[src.delta[(e, a)]] != tgt.delta[(phi[e], a)]:
                return False
            if src.mealy and tgt.out[(phi[e], a)] != src.out[(e, a)]:
                return False
        if not src.mealy and tgt.out[phi[e]] != src.out[e]:
            return False
    return True


def homs(src: Tab, tgt: Tab) -> list:
    """Every total map src -> tgt that is a homomorphism, as a tuple of
    images in source-state order, listed in lexicographic order of
    target-state indices."""
    found = []

    def assign(prefix):
        if len(prefix) == len(src.states):
            phi = dict(zip(src.states, prefix))
            if is_hom(src, tgt, phi):
                found.append(tuple(prefix))
            return
        for image in tgt.states:
            assign(prefix + [image])

    assign([])
    return found


def transposition_holds(n: Tab, left: list, right: list) -> bool:
    """Does phi -> (e -> (out_n(e), phi(e))) biject the left hom-set
    onto the right one?"""
    lifted = {tuple((n.out[e], img) for e, img in zip(n.states, phi)) for phi in left}
    return len(left) == len(right) == len(lifted) and lifted == set(right)


def soft(n: Tab) -> bool:
    return all(n.out[n.delta[(e, a)]] == n.out[e] for e in n.states for a in n.letters)


def fold(m: Tab, e, word):
    for a in word:
        e = m.delta[(e, a)]
    return e


def n_soft(n: Tab, k: int) -> bool:
    """Word exhaustion: every word of length exactly k keeps the output."""
    words = list(itertools.product(n.letters, repeat=k))
    return all(n.out[fold(n, e, w)] == n.out[e] for e in n.states for w in words)


def trace(m: Tab, start, word) -> tuple:
    """Outputs emitted on ``word``: |w| letters (Mealy) or |w|+1 (Moore)."""
    e = start
    emitted = [] if m.mealy else [m.out[e]]
    for a in word:
        if m.mealy:
            emitted.append(m.out[(e, a)])
        e = m.delta[(e, a)]
        if not m.mealy:
            emitted.append(m.out[e])
    return tuple(emitted)


def cascade_trace(second: Tab, first: Tab, start, word) -> tuple:
    """The composite's trace as the downstream trace over the upstream
    trace.  A Moore upstream machine also emits its final state's
    output, which a Moore downstream machine never consumes."""
    f0, e0 = start
    upstream = trace(first, e0, word)
    if not first.mealy and not second.mealy:
        upstream = upstream[:-1]
    return trace(second, f0, upstream)


def render(s) -> str:
    """The file format's rendering of a composite state, ⟨f,e⟩."""
    if isinstance(s, tuple):
        return "⟨%s⟩" % ",".join(render(part) for part in s)
    return str(s)


def rendering_collides(second_states, first_states) -> bool:
    """Do two distinct composite states render to the same name?"""
    names = [render((f, e)) for f in second_states for e in first_states]
    return len(set(names)) != len(names)
