"""Deterministic enumeration and seeded random generation of machines.

Enumeration order is lexicographic over the table entries with states
and letters in declaration order, so sweeps and reports are diffable.
The tables built here are total by construction, so the machines skip
the table check.  Enumerated machines are built in index form (see
``core``) and share their index tuples.  Random machines are the one
kind built named-first, with read-only named tables and the index form
on the first kernel call: callers that set up from their named tables
(the benchmark does) would otherwise pay for the named view on top.
"""

from __future__ import annotations

import itertools
import random
from types import MappingProxyType
from typing import Iterator

from .core import (
    ENUMERATION_GUARD,
    Alphabet,
    EnumerationTooLarge,
    MachineError,
    MealyMachine,
    MooreMachine,
)


def _state_names(n):
    if n < 1:
        raise MachineError("a machine needs at least one state")
    return tuple("s%d" % i for i in range(n))


def count_mealy(inp: Alphabet, outp: Alphabet, n_states: int) -> int:
    cells = n_states * len(inp)
    return (n_states ** cells) * (len(outp) ** cells)


def count_moore(inp: Alphabet, outp: Alphabet, n_states: int) -> int:
    cells = n_states * len(inp)
    return (n_states ** cells) * (len(outp) ** n_states)


def all_mealy(inp: Alphabet, outp: Alphabet, n_states: int) -> Iterator[MealyMachine]:
    """Every Mealy machine with exactly n_states states, in table order."""
    states = _state_names(n_states)
    cells = n_states * len(inp)
    for targets in itertools.product(range(n_states), repeat=cells):
        for letters in itertools.product(range(len(outp)), repeat=cells):
            yield MealyMachine._trusted(inp, outp, _d=targets, _o=letters, _n=n_states,
                                        states=states)


def all_moore(inp: Alphabet, outp: Alphabet, n_states: int) -> Iterator[MooreMachine]:
    """Every Moore machine with exactly n_states states, in table order."""
    states = _state_names(n_states)
    cells = n_states * len(inp)
    for targets in itertools.product(range(n_states), repeat=cells):
        for letters in itertools.product(range(len(outp)), repeat=n_states):
            yield MooreMachine._trusted(inp, outp, _d=targets, _o=letters, _n=n_states,
                                        states=states)


def _all_up_to(count, enumerate_exactly, inp, outp, max_states):
    total = sum(count(inp, outp, k) for k in range(1, max_states + 1))
    if total > ENUMERATION_GUARD:
        raise EnumerationTooLarge("%d machines exceed the guard" % total)
    for k in range(1, max_states + 1):
        yield from enumerate_exactly(inp, outp, k)


def all_mealy_up_to(inp, outp, max_states):
    return _all_up_to(count_mealy, all_mealy, inp, outp, max_states)


def all_moore_up_to(inp, outp, max_states):
    return _all_up_to(count_moore, all_moore, inp, outp, max_states)


def random_mealy(rng: random.Random, inp: Alphabet, outp: Alphabet, n_states: int) -> MealyMachine:
    states = _state_names(n_states)
    delta = {(e, a): rng.choice(states) for e in states for a in inp.symbols}
    out = {(e, a): rng.choice(outp.symbols) for e in states for a in inp.symbols}
    return MealyMachine._trusted(inp, outp, states=states, delta=MappingProxyType(delta),
                                 out=MappingProxyType(out))


def random_moore(rng: random.Random, inp: Alphabet, outp: Alphabet, n_states: int) -> MooreMachine:
    states = _state_names(n_states)
    delta = {(e, a): rng.choice(states) for e in states for a in inp.symbols}
    out = {e: rng.choice(outp.symbols) for e in states}
    return MooreMachine._trusted(inp, outp, states=states, delta=MappingProxyType(delta),
                                 out=MappingProxyType(out))


def random_cell(rng: random.Random, inp: Alphabet, outp: Alphabet, max_states: int):
    """A random machine of either kind with 1..max_states states."""
    n = rng.randint(1, max_states)
    if rng.random() < 0.5:
        return random_moore(rng, inp, outp, n)
    return random_mealy(rng, inp, outp, n)
