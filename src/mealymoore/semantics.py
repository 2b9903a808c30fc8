"""Word semantics and behavioral equivalence.

Machines are unpointed 1-cells; running a word requires choosing a start
state, supplied per call through ``PointedMachine``.  Words are consumed
left to right.  Mealy machines are evaluated on nonempty words only;
Moore machines also answer on the empty word.

Behavioral equivalence is decided exactly by partition refinement on the
disjoint union of the state sets; bounded word exhaustion is kept to the
test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    EmptyWordOnMealy,
    EndpointMismatch,
    KindMismatch,
    Letter,
    LetterOutOfAlphabet,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    State,
    UnknownSymbol,
)


@dataclass(frozen=True)
class PointedMachine:
    """A machine together with a chosen start state."""

    machine: Machine
    start: State

    def __post_init__(self):
        if self.start not in self.machine.states:
            raise UnknownSymbol("start state %r is not declared" % (self.start,))

    __hash__ = None


def _check_word(machine, word):
    word = tuple(word)
    for a in word:
        if a not in machine.input:
            raise LetterOutOfAlphabet("letter %r is not in the input alphabet" % (a,))
    return word


def run(p: PointedMachine, word: Iterable[Letter]) -> Letter:
    """The output of the machine after consuming ``word`` from the start
    state: the last emitted letter (Mealy) or the output of the state
    reached (Moore, which also answers on the empty word)."""
    m = p.machine
    word = _check_word(m, word)
    if isinstance(m, MealyMachine):
        if not word:
            raise EmptyWordOnMealy("a Mealy machine has no output on the empty word")
        e = p.start
        for a in word[:-1]:
            e = m.delta[(e, a)]
        return m.out[(e, word[-1])]
    e = p.start
    for a in word:
        e = m.delta[(e, a)]
    return m.out[e]


def trace(p: PointedMachine, word: Iterable[Letter]) -> tuple[Letter, ...]:
    """The word of outputs emitted while consuming ``word``: length |w|
    for a Mealy machine, length |w|+1 for a Moore machine (the output of
    every visited state, starting with the start state)."""
    m = p.machine
    word = _check_word(m, word)
    e = p.start
    if isinstance(m, MealyMachine):
        emitted = []
        for a in word:
            emitted.append(m.out[(e, a)])
            e = m.delta[(e, a)]
        return tuple(emitted)
    emitted = [m.out[e]]
    for a in word:
        e = m.delta[(e, a)]
        emitted.append(m.out[e])
    return tuple(emitted)


def _observation(machine, e):
    if isinstance(machine, MealyMachine):
        return tuple(machine.out[(e, a)] for a in machine.input.symbols)
    return machine.out[e]


def bisimilar(p: PointedMachine, q: PointedMachine) -> bool:
    """Exact behavioral equivalence of two pointed machines of the same
    kind, by partition refinement on the disjoint union of their states."""
    m, n = p.machine, q.machine
    if type(m) is not type(n):
        raise KindMismatch("bisimilarity compares machines of the same kind")
    if m.input.symbols != n.input.symbols or m.output.symbols != n.output.symbols:
        raise EndpointMismatch("bisimilarity requires common alphabets")

    # Disjoint union, tagging each state with its side.
    nodes = [(0, e) for e in m.states] + [(1, e) for e in n.states]

    def step(node, a):
        side, e = node
        return (side, (m if side == 0 else n).delta[(e, a)])

    block = {node: _observation(m if node[0] == 0 else n, node[1]) for node in nodes}
    letters = m.input.symbols
    while True:
        refined = {
            node: (block[node],) + tuple(block[step(node, a)] for a in letters)
            for node in nodes
        }
        if len(set(refined.values())) == len(set(block.values())):
            block = refined
            break
        block = refined
    return block[(0, p.start)] == block[(1, q.start)]


def check_extension_square(m: MooreMachine, maxlen: int) -> bool:
    """True iff evaluating the Moore machine on every nonempty word of
    length ≤ maxlen agrees with evaluating its one-step conversion
    ``apply_D1(m)`` as a Mealy machine on the same word, from every state.

    Word prefixes are shared across the comparison, so the check is
    linear in the word tree rather than quadratic.
    """
    from .universal import apply_D1

    if maxlen < 1:
        raise MachineError("maxlen must be ≥ 1")
    d1 = apply_D1(m)
    letters = m.input.symbols
    for start in m.states:
        # Both machines share the state set and dynamics; walk the word
        # tree once, comparing the two run values at every node.
        stack = [(start, 0)]
        while stack:
            e, depth = stack.pop()
            if depth == maxlen:
                continue
            for a in letters:
                nxt = m.delta[(e, a)]
                if m.out[nxt] != d1.out[(e, a)]:
                    return False
                stack.append((nxt, depth + 1))
    return True


def words_up_to(alphabet, maxlen: int, include_empty: bool = True):
    """All words over the alphabet of length ≤ maxlen, shortest first,
    letters in declaration order (deterministic enumeration)."""
    out = [()] if include_empty else []
    layer = [()]
    for _ in range(maxlen):
        layer = [w + (a,) for w in layer for a in alphabet.symbols]
        out.extend(layer)
    return out
