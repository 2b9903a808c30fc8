"""Word semantics and behavioral equivalence.

Machines are unpointed 1-cells; running a word requires choosing a start
state, supplied per call through ``PointedMachine``.  Words are consumed
left to right.  Mealy machines are evaluated on nonempty words only;
Moore machines also answer on the empty word.

Behavioral equivalence is decided exactly by partition refinement on the
disjoint union of the state sets, in one helper that ``bisimilar`` and the
identity search of ``lab`` share; bounded word exhaustion is kept to the
test suite as an independent oracle.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    EmptyWordOnMealy,
    Letter,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    State,
    UnknownSymbol,
    _require_kind,
    _require_parallel,
    _Value,
    _letter_indices,
    _walk,
)


class PointedMachine(_Value):
    """A machine together with a chosen start state."""

    _fields = ("machine", "start")

    def __init__(self, machine: Machine, start: State):
        i = machine._index(start)
        if i is None:
            raise UnknownSymbol("start state %r is not declared" % (start,))
        object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "_i", i)  # the start's index


def run(p: PointedMachine, word: Iterable[Letter]) -> Letter:
    """The output after ``word`` from the start state: that of the state
    reached (Moore, which also answers on the empty word) or of the last
    (state, letter) cell (Mealy).  Only it is read: O(|w|) at any size."""
    m = p.machine
    letters = _letter_indices(m, word)
    if isinstance(m, MooreMachine):
        return m.output.symbols[m._o[_walk(m, p._i, letters)]]
    if not letters:
        raise EmptyWordOnMealy("a Mealy machine has no output on the empty word")
    x = _walk(m, p._i, letters[:-1]) * len(m.input.symbols) + letters[-1]
    return m.output.symbols[m._o[x]]


def trace(p: PointedMachine, word: Iterable[Letter]) -> tuple[Letter, ...]:
    """The outputs emitted on ``word``, in one pass through a per-call
    symbol table: |w| of them for a Mealy machine, |w|+1 for a Moore
    machine (the output of every visited state, the start first)."""
    m, i = p.machine, p._i
    k, d, emit = len(m.input.symbols), m._d, tuple(map(m.output.symbols.__getitem__, m._o))
    if isinstance(m, MealyMachine):
        out = []
        for a in _letter_indices(m, word):
            x = i * k + a
            out.append(emit[x])
            i = d[x]
        return tuple(out)
    out = [emit[i]]
    for a in _letter_indices(m, word):
        i = d[i * k + a]
        out.append(emit[i])
    return tuple(out)


def _renumber(signatures):
    """Number the distinct signatures 0, 1, … in order of first appearance;
    returns the numbers and how many there are."""
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in signatures], len(ids)


def _blocks(m: Machine, n: Machine) -> list[int]:
    """Moore's partition refinement on the disjoint union of two machines
    of one kind over common alphabets: the block, a small integer, of
    every state index, n's states numbered after m's.  The first
    partition groups states by observation (output, or output row for
    Mealy machines); each round renumbers the signatures (block, block of
    each successor) and stops when the block count stops growing.  With
    N = |Q₁|+|Q₂| there are at most N rounds of O(N·|A|) work each."""
    k, shift = len(m.input.symbols), m._n
    succ = m._d + tuple(t + shift for t in n._d)  # the successor of node i at i*k + a
    out = m._o + n._o
    if isinstance(m, MealyMachine):
        out = [out[x:x + k] for x in range(0, len(out), k)]
    block, count = _renumber(out)
    while True:
        moved = list(map(block.__getitem__, succ))
        refined, refined_count = _renumber(zip(block, *(moved[a::k] for a in range(k))))
        if refined_count == count:
            return block
        block, count = refined, refined_count


def bisimilar(p: PointedMachine, q: PointedMachine) -> bool:
    """Exact behavioral equivalence of two pointed machines of the same
    kind: their starts share a block of ``_blocks`` on the disjoint union
    of their states."""
    m, n = p.machine, q.machine
    _require_parallel(m, n, "bisimilar")
    block = _blocks(m, n)
    return block[p._i] == block[m._n + q._i]


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
    the test suite checks it against a word-exhaustion oracle.  Raises
    KindMismatch on a Mealy machine.
    """
    from .universal import apply_D1

    _require_kind(m, MooreMachine, "check_extension_square")
    if maxlen < 1:
        raise MachineError("maxlen must be ≥ 1")
    o = m._o
    return all(o[t] == b for t, b in zip(m._d, apply_D1(m)._o))


def words_up_to(alphabet, maxlen: int, include_empty: bool = True):
    """All words over the alphabet of length ≤ maxlen, shortest first,
    letters in declaration order (deterministic enumeration)."""
    out = [()] if include_empty else []
    layer = [()]
    for _ in range(maxlen):
        layer = [w + (a,) for w in layer for a in alphabet.symbols]
        out.extend(layer)
    return out
