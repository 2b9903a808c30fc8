"""Word semantics and behavioral equivalence.

Machines are unpointed 1-cells; running a word requires choosing a start
state, supplied per call through ``PointedMachine``.  Words are consumed
left to right, once, so any iterable of letters will do, a generator
included: ``run``, ``trace`` and ``universal.d_iter`` share one walker,
``core._walk``, which reads each letter as it comes and raises
LetterOutOfAlphabet at the first bad one.  Mealy machines are evaluated
on nonempty words only; Moore machines also answer on the empty word.

Behavioral equivalence of two given states is decided exactly by
Hopcroft and Karp's union-find check, which relates only the pairs of
states reachable from the two starts.  It is the library's one
equivalence kernel, ``_related``: ``bisimilar`` runs it on two pointed
machines, and the identity search of ``lab`` runs it once per pair of
states it asks about.  Word exhaustion and a search for a shortest
distinguishing word are kept to the test suite as independent oracles.
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
    (state, letter) cell (Mealy): the last output of ``trace``, in one
    walk over the word, O(|Q|·|A| + |w|) in all."""
    emitted = trace(p, word)
    if not emitted:  # only a Mealy trace is empty
        raise EmptyWordOnMealy("a Mealy machine has no output on the empty word")
    return emitted[-1]


def trace(p: PointedMachine, word: Iterable[Letter]) -> tuple[Letter, ...]:
    """The outputs emitted on ``word``, in one walk over it (``_walk``):
    |w| of them for a Mealy machine, |w|+1 for a Moore machine (the
    output of every visited state, the start first)."""
    m = p.machine
    if isinstance(m, MealyMachine):
        return tuple(_walk(m, p._i, word))
    names = m.output.symbols
    return tuple(_walk(m, p._i, word, [names[b] for b in m._o]))


def bisimilar(p: PointedMachine, q: PointedMachine) -> bool:
    """Exact behavioral equivalence of two pointed machines of the same
    kind, by Hopcroft and Karp's union-find check.

    The states of the two machines are the nodes 0..N−1 of their disjoint
    union, q's numbered after p's.  Starting from the pair of starts,
    each pair (x, y) taken from the worklist is skipped if x and y are
    already in one class; otherwise their observations (output, or output
    row for Mealy machines) must agree, their classes are merged, and the
    pair of successors under each letter joins the worklist.  Every pair
    is reached from the starts by one word, so a clash shows a word on
    which the traces differ; an empty worklist leaves an equivalence that
    is a bisimulation up to equivalence, which proves the starts
    equivalent.  Each merge joins two classes, so at most N−1 pairs are
    expanded, all of states reachable from the starts: O(N·|A|) finds in
    all.  The finds halve their paths; linking by size as well would
    bound them better but measured slower at every size tried."""
    m, n = p.machine, q.machine
    _require_parallel(m, n, "bisimilar")
    return _related(m, p._i, n, q._i)


def _related(m: Machine, i: int, n: Machine, j: int) -> bool:
    """The union-find check of ``bisimilar`` on state indices: is state i
    of m equivalent to state j of n?  The machines are of one kind over
    common alphabets; the caller checks that.  Every call starts from a
    fresh union-find, so no merge carries over from an earlier pair."""
    k, shift = len(m.input.symbols), m._n
    d1, d2, o1, o2 = m._d, n._d, m._o, n._o
    mealy = isinstance(m, MealyMachine)
    parent = list(range(shift + n._n))
    todo = [(i, j)]
    pop, extend = todo.pop, todo.extend
    while todo:
        x, y = pop()
        rx, ry = x, y + shift
        while parent[rx] != rx:  # path halving: link to the grandparent, step there
            parent[rx] = rx = parent[parent[rx]]
        while parent[ry] != ry:
            parent[ry] = ry = parent[parent[ry]]
        if rx == ry:
            continue
        xk, yk = x * k, y * k
        if o1[xk:xk + k] != o2[yk:yk + k] if mealy else o1[x] != o2[y]:
            return False
        parent[rx] = ry
        extend(zip(d1[xk:xk + k], d2[yk:yk + k]))
    return True


def check_extension_square(m: MooreMachine, maxlen: int) -> bool:
    """Does evaluating the Moore machine on every nonempty word of length
    ≤ maxlen agree with evaluating ``apply_D1(m)`` as a Mealy machine on
    the same word, from every state?  Always, so only the kind
    (KindMismatch on a Mealy machine) and maxlen ≥ 1 are checked.

    Proof: on a word ending in a, with e the state reached before a, the
    Moore run emits out(δ(e, a)), and ``apply_D1`` defines the D₁ output
    at (e, a) as out(δ(e, a)).  Oracle: ``extension_square_words``.
    """
    _require_kind(m, MooreMachine, "check_extension_square")
    if maxlen < 1:
        raise MachineError("maxlen must be ≥ 1")
    return True
