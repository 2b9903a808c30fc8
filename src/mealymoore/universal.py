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
from typing import Iterable, Optional

from .compose import ltimes
from .core import (
    Alphabet,
    Letter,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    State,
    UnknownSymbol,
    _Value,
    _letter_indices,
    _walk,
)


@functools.lru_cache(maxsize=256)
def universal_u(x: Alphabet) -> MooreMachine:
    """The one-step delay register over x: the state becomes the last
    input letter, and the output is the current state.

    Built once per symbol tuple and then shared, since ``Alphabet``
    equality and hash ignore the name."""
    states = x.symbols
    delta = {(e, a): a for e in states for a in states}
    out = {e: e for e in states}
    return MooreMachine(x, x, states, delta, out)


@functools.lru_cache(maxsize=256)
def universal_p(x: Alphabet) -> MooreMachine:
    """The frozen register over x: the dynamics fixes the state and the
    output is the state, so every trace is constant.

    The carrier is the symbol set itself, identifying each state with
    the function that answers it on the empty word and agrees with
    ``head`` everywhere else; ``pinfty_carrier_check`` gives the count
    of those functions, |x|.  Like ``universal_u``, it is built once per
    symbol tuple and then shared.
    """
    states = x.symbols
    delta = {(e, a): e for e in states for a in states}
    out = {e: e for e in states}
    return MooreMachine(x, x, states, delta, out)


def pinfty_carrier_check(x: Alphabet, depth: int) -> int:
    """Count the functions from words of length ≤ depth to x that agree
    with ``head`` on every nonempty word.

    The count is |x| by definition, so no word is enumerated.  The
    constraints are one per word and independent: the empty word allows
    all of x and a nonempty word only its head, so the only freedom is
    the value on the empty word, whatever the depth."""
    if depth < 1:
        raise MachineError("depth must be ≥ 1")
    return len(x)


def embed_j(m: MooreMachine) -> MealyMachine:
    """D₀: view a Moore machine as a Mealy machine whose output ignores
    the current letter."""
    o = tuple([b for b in m._o for _ in m.input.symbols])
    return MealyMachine._trusted(m.input, m.output, _d=m._d, _o=o, **m._names())


def apply_D1(m: MooreMachine) -> MealyMachine:
    """D₁: same states and dynamics, but the output anticipates one step,
    out'(e, a) = out(delta(e, a))."""
    o = tuple(map(m._o.__getitem__, m._d))
    return MealyMachine._trusted(m.input, m.output, _d=m._d, _o=o, **m._names())


def d_iter(m: Machine, e: State, word: Iterable[Letter]) -> State:
    """The left-to-right fold of the dynamics over a word; the empty
    word is the identity on states."""
    letters = _letter_indices(m, word)
    i = m._index(e)
    if i is None:
        raise UnknownSymbol("state %r is not declared" % (e,))
    return m.states[_walk(m, i, letters)] if letters else e


def moorify(m: MealyMachine) -> MooreMachine:
    """Buffer a Mealy machine's output by one step: post-composition
    with the universal one-step register over the output alphabet."""
    return ltimes(universal_u(m.output), m)


def decapitate(m: MealyMachine) -> MooreMachine:
    """Freeze a Mealy machine's output at its initial value:
    post-composition with the frozen register over the output alphabet.
    The result is always soft."""
    return ltimes(universal_p(m.output), m)


def is_soft(m: MooreMachine) -> bool:
    """True iff the output map is invariant under one transition step:
    out(delta(e, a)) = out(e) for all e, a."""
    k, d, o = len(m.input.symbols), m._d, m._o
    return all(o[t] == o[x // k] for x, t in enumerate(d))


def is_n_soft(m: MooreMachine, n: int) -> bool:
    """True iff the output map is invariant under n transition steps,
    for every word of length exactly n.

    The levels are closed under multiples (n-soft implies kn-soft, and
    soft, i.e. 1-soft, implies n-soft for every n) but not under
    successors: the two-state period-2 oscillator over one letter, whose
    states emit different outputs, is 2-soft but neither 1- nor 3-soft.
    """
    if n < 1:
        raise MachineError("n must be ≥ 1")
    k, d, o = len(m.input.symbols), m._d, m._o
    letters = range(k)
    for e, want in enumerate(o):
        layer = {e}
        for _ in range(n):
            layer = {d[x * k + a] for x in layer for a in letters}
        if {o[x] for x in layer} != {want}:
            return False
    return True


class SoftnessReport(_Value):
    """The least n ≥ 1 at which the machine is n-soft, if any within the
    checked bound.

    ``level`` says nothing about the levels above it that are not its
    multiples: a machine of level 2 is 4-soft but may not be 3-soft.
    """

    _fields = ("machine", "level", "bound")

    def __init__(self, machine: MooreMachine, level: Optional[int], bound: int):
        object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "bound", bound)


def softness_level(m: MooreMachine, bound: int) -> SoftnessReport:
    """Scan n = 1..bound for the least level at which m is n-soft.

    The machine is then n-soft for every multiple n of that level, but
    the levels are not nested, so it need not be n-soft for the n in
    between (see ``is_n_soft``).
    """
    if bound < 1:
        raise MachineError("bound must be ≥ 1")
    for n in range(1, bound + 1):
        if is_n_soft(m, n):
            return SoftnessReport(m, n, bound)
    return SoftnessReport(m, None, bound)
