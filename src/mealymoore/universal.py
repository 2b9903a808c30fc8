"""Universal cells and conversion functors between Moore and Mealy machines.

``universal_u`` is the one-step register (output the state, store the
last input); post-composing with it moorifies a Mealy machine.
``universal_p`` is the frozen register (constant dynamics, output the
initial value); post-composing with it decapitates a Mealy machine onto
the soft Moore machines.  ``embed_j`` and ``apply_D1`` are the two
concrete conversion functors from Moore to Mealy machines.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .compose import compose_cells
from .core import (
    Alphabet,
    Letter,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    State,
    UnknownSymbol,
    _require_kind,
    _Value,
    _walk,
)


def universal_u(x: Alphabet) -> MooreMachine:
    """The one-step delay register over x: the state becomes the last
    input letter, and the output is the current state.

    Built once per symbol tuple and then shared (see ``_register``)."""
    return _register(x.symbols, False)


def universal_p(x: Alphabet) -> MooreMachine:
    """The frozen register over x: the dynamics fixes the state and the
    output is the state, so every trace is constant.

    The carrier is the symbol set itself, identifying each state with
    the function that answers it on the empty word and agrees with
    ``head`` everywhere else; ``pinfty_carrier_check`` gives the count
    of those functions, |x|.  Like ``universal_u``, it is built once per
    symbol tuple and then shared.
    """
    return _register(x.symbols, True)


@functools.lru_cache(maxsize=256)
def _register(symbols: tuple, frozen: bool) -> MooreMachine:
    """The register over the alphabet of these symbols: frozen (the state
    stays) or one-step (the state becomes the letter read); either way
    the output is the state.  Cached on the symbol tuple, not on an
    ``Alphabet``, whose Python-level hash and equality would run on every
    ``moorify`` and ``decapitate``; the names of the callers' alphabets
    are labels, so the register's alphabet is named ``X``."""
    x = Alphabet("X", symbols)
    delta = {(e, a): e if frozen else a for e in symbols for a in symbols}
    return MooreMachine(x, x, symbols, delta, {e: e for e in symbols})


def pinfty_carrier_check(x: Alphabet) -> int:
    """Count the functions from words over x, up to any depth, to x that
    agree with ``head`` on every nonempty word.

    The count is |x| by definition, so no word is enumerated.  The
    constraints are one per word and independent: the empty word allows
    all of x and a nonempty word only its head, so the only freedom is
    the value on the empty word, whatever the depth."""
    return len(x)


def embed_j(m: MooreMachine) -> MealyMachine:
    """D₀: view a Moore machine as a Mealy machine whose output ignores
    the current letter.  Raises KindMismatch on a Mealy machine."""
    _require_kind(m, MooreMachine, "embed_j")
    o = tuple([b for b in m._o for _ in m.input.symbols])
    return MealyMachine._trusted({"input": m.input, "output": m.output, "_d": m._d, "_o": o,
                                  **m._names()})


def apply_D1(m: MooreMachine) -> MealyMachine:
    """D₁: same states and dynamics, but the output anticipates one step,
    out'(e, a) = out(delta(e, a)).  Raises KindMismatch on a Mealy machine."""
    _require_kind(m, MooreMachine, "apply_D1")
    o = m._o
    return MealyMachine._trusted({"input": m.input, "output": m.output, "_d": m._d,
                                  "_o": tuple([o[t] for t in m._d]), **m._names()})


def d_iter(m: Machine, e: State, word: Iterable[Letter]) -> State:
    """The left-to-right fold of the dynamics over a word; the empty
    word is the identity on states.  A bad letter is reported before
    an undeclared state."""
    i = m._index(e)
    if i is None:
        _walk(m, 0, word, m.states)  # raises on the first bad letter
        raise UnknownSymbol("state %r is not declared" % (e,))
    return _walk(m, i, word, m.states)[-1]


def moorify(m: MealyMachine) -> MooreMachine:
    """Buffer a Mealy machine's output by one step: post-composition
    with the universal one-step register over the output alphabet.
    Raises KindMismatch on a Moore machine."""
    _require_kind(m, MealyMachine, "moorify")
    return compose_cells(universal_u(m.output), m)


def decapitate(m: MealyMachine) -> MooreMachine:
    """Freeze a Mealy machine's output at its initial value:
    post-composition with the frozen register over the output alphabet.
    The result is always soft.  Raises KindMismatch on a Moore machine."""
    _require_kind(m, MealyMachine, "decapitate")
    return compose_cells(universal_p(m.output), m)


def is_soft(m: MooreMachine) -> bool:
    """True iff the output map is invariant under one transition step:
    out(delta(e, a)) = out(e) for all e, a.  Raises KindMismatch on a
    Mealy machine, which has no state output."""
    _require_kind(m, MooreMachine, "is_soft")
    k, d, o = len(m.input.symbols), m._d, m._o
    return all(o[t] == o[x // k] for x, t in enumerate(d))


def _then(first, second) -> list:
    """The relation ``first`` followed by ``second``, both given as one
    bitset row per state: bit x of row e says that e relates to x."""
    rows = []
    for row in first:
        reach = 0
        while row:
            low = row & -row
            reach |= second[low.bit_length() - 1]
            row ^= low
        rows.append(reach)
    return rows


def is_n_soft(m: MooreMachine, n: int) -> bool:
    """True iff the output map is invariant under n transition steps,
    for every word of length exactly n.

    The levels are closed under multiples (n-soft implies kn-soft, and
    soft, i.e. 1-soft, implies n-soft for every n) but not under
    successors: the two-state period-2 oscillator over one letter, whose
    states emit different outputs, is 2-soft but neither 1- nor 3-soft.
    Raises KindMismatch on a Mealy machine.

    Decided on the n-th power of the one-step relation, each state's
    successors as a bitset row: the power is taken by repeated squaring,
    so for N states it costs O(N²·log n) ORs of N-bit rows, and the
    machine is n-soft iff no row reaches a state whose output differs
    from its own.
    """
    _require_kind(m, MooreMachine, "is_n_soft")
    if n < 1:
        raise MachineError("n must be ≥ 1")
    k, d, o = len(m.input.symbols), m._d, m._o
    step = [0] * m._n  # the one-step relation
    for x, t in enumerate(d):
        step[x // k] |= 1 << t
    power = None
    while True:
        if n & 1:
            power = step if power is None else _then(power, step)
        n >>= 1
        if not n:
            break
        step = _then(step, step)
    emitting = {}  # output index -> the bitset of the states that emit it
    for e, b in enumerate(o):
        emitting[b] = emitting.get(b, 0) | 1 << e
    return not any(row & ~emitting[b] for row, b in zip(power, o))


class SoftnessReport(_Value):
    """The least n ≥ 1 at which the machine is n-soft, if any within the
    checked bound.

    ``level`` says nothing about the levels above it that are not its
    multiples: a machine of level 2 is 4-soft but may not be 3-soft.
    """

    _fields = ("machine", "level", "bound")


def softness_level(m: MooreMachine, bound: int) -> SoftnessReport:
    """Scan n = 1..bound for the least level at which m is n-soft.

    The machine is then n-soft for every multiple n of that level, but
    the levels are not nested, so it need not be n-soft for the n in
    between (see ``is_n_soft``).  Raises KindMismatch on a Mealy
    machine, through ``is_n_soft``.
    """
    if bound < 1:
        raise MachineError("bound must be ≥ 1")
    for n in range(1, bound + 1):
        if is_n_soft(m, n):
            return SoftnessReport(m, n, bound)
    return SoftnessReport(m, None, bound)
