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


def _renumber(signatures):
    """Number the distinct signatures 0, 1, … in order of first appearance;
    returns the numbers and how many there are."""
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in signatures], len(ids)


def bisimilar(p: PointedMachine, q: PointedMachine) -> bool:
    """Exact behavioral equivalence of two pointed machines of the same
    kind, by Moore's partition refinement on the disjoint union of their
    states.

    Blocks are small integers.  The first partition groups states by
    observation (output, or output row for Mealy machines); each round
    renumbers the signatures (block, block of each successor) and the
    refinement stops when the block count stops growing.  With
    N = |Q₁|+|Q₂| there are at most N rounds of O(N·|A|) work each.
    """
    m, n = p.machine, q.machine
    if type(m) is not type(n):
        raise KindMismatch("bisimilarity compares machines of the same kind")
    if m.input.symbols != n.input.symbols or m.output.symbols != n.output.symbols:
        raise EndpointMismatch("bisimilarity requires common alphabets")

    # Number the nodes of the disjoint union once, m's states first.
    nodes = [(side, machine, e) for side, machine in ((0, m), (1, n)) for e in machine.states]
    number = {(side, e): i for i, (side, _, e) in enumerate(nodes)}
    letters = m.input.symbols
    successors = [
        tuple(number[(side, machine.delta[(e, a)])] for a in letters)
        for side, machine, e in nodes
    ]
    block, count = _renumber(_observation(machine, e) for _, machine, e in nodes)
    while True:
        refined, refined_count = _renumber(
            (block[i],) + tuple(map(block.__getitem__, succ))
            for i, succ in enumerate(successors)
        )
        if refined_count == count:
            break
        block, count = refined, refined_count
    return block[number[(0, p.start)]] == block[number[(1, q.start)]]


def check_extension_square(m: MooreMachine, maxlen: int) -> bool:
    """True iff evaluating the Moore machine on every nonempty word of
    length ≤ maxlen agrees with evaluating its one-step conversion
    ``apply_D1(m)`` as a Mealy machine on the same word, from every state.

    At a word ending in letter a, the two runs compare out(δ(e, a)) with
    the D₁ output at (e, a), where e is the state reached before a.  Every
    state is a start, so every pair (e, a) occurs at length 1 and longer
    words repeat pairs already compared: the verdict is one pass over the
    table and does not depend on maxlen ≥ 1.  Given ``apply_D1``, which
    defines its output as out(δ(e, a)), the square holds by construction;
    the test suite checks it against a word-exhaustion oracle.
    """
    from .universal import apply_D1

    if maxlen < 1:
        raise MachineError("maxlen must be ≥ 1")
    d1 = apply_D1(m)
    return all(
        m.out[m.delta[(e, a)]] == d1.out[(e, a)] for e in m.states for a in m.input.symbols
    )


def words_up_to(alphabet, maxlen: int, include_empty: bool = True):
    """All words over the alphabet of length ≤ maxlen, shortest first,
    letters in declaration order (deterministic enumeration)."""
    out = [()] if include_empty else []
    layer = [()]
    for _ in range(maxlen):
        layer = [w + (a,) for w in layer for a in alphabet.symbols]
        out.extend(layer)
    return out
