"""Deterministic enumeration and seeded random generation of machines.

Enumeration order is lexicographic over the table entries with states
and letters in declaration order, so sweeps and reports are diffable.
The tables built here are total by construction, so every machine here
is ``_trusted`` from a dict of its fields in index form, with no table
check (see ``core``), its named tables built on first access; enumerated
machines share their index tuples.  A random machine draws its targets,
then its outputs, in table order with ``rng.choice`` over tuples of
indices, which draws the same indices as a choice over the names would.
"""

from __future__ import annotations

import itertools
import random
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


def _count(kind, inp, outp, n_states):
    cells = n_states * len(inp)
    return n_states ** cells * len(outp) ** (cells if kind._out_by_letter else n_states)


def _all(kind, inp, outp, n_states):
    states, cells = _state_names(n_states), n_states * len(inp)
    outs = cells if kind._out_by_letter else n_states  # entries in the output table
    for targets in itertools.product(range(n_states), repeat=cells):
        for letters in itertools.product(range(len(outp)), repeat=outs):
            yield kind._trusted({"input": inp, "output": outp, "_d": targets, "_o": letters,
                                 "_n": n_states, "states": states})


def all_mealy(inp: Alphabet, outp: Alphabet, n_states: int) -> Iterator[MealyMachine]:
    """Every Mealy machine with exactly n_states states, in table order."""
    return _all(MealyMachine, inp, outp, n_states)


def all_moore(inp: Alphabet, outp: Alphabet, n_states: int) -> Iterator[MooreMachine]:
    """Every Moore machine with exactly n_states states, in table order."""
    return _all(MooreMachine, inp, outp, n_states)


def _all_up_to(kind, inp, outp, max_states):
    # Stop at the first size past the guard: the counts grow like
    # n^(n·|A|), so the total for a large max_states is slow to sum and
    # has more digits than Python will format.
    total = 0
    for k in range(1, max_states + 1):
        total += _count(kind, inp, outp, k)
        if total > ENUMERATION_GUARD:
            raise EnumerationTooLarge("more than %d machines of up to %d states"
                                      % (ENUMERATION_GUARD, max_states))
    for k in range(1, max_states + 1):
        yield from _all(kind, inp, outp, k)


def all_mealy_up_to(inp, outp, max_states):
    return _all_up_to(MealyMachine, inp, outp, max_states)


def all_moore_up_to(inp, outp, max_states):
    return _all_up_to(MooreMachine, inp, outp, max_states)


def _random(kind, rng, inp, outp, n_states):
    states = _state_names(n_states)
    # Index tuples, not ranges: rng.choice draws the same index from
    # either (or from the names), and indexes a tuple faster.
    cells, targets, letters = n_states * len(inp), tuple(range(n_states)), tuple(range(len(outp)))
    d = tuple([rng.choice(targets) for _ in range(cells)])
    o = tuple([rng.choice(letters) for _ in range(cells if kind._out_by_letter else n_states)])
    return kind._trusted({"input": inp, "output": outp, "_d": d, "_o": o, "_n": n_states,
                          "states": states})


def random_mealy(rng: random.Random, inp: Alphabet, outp: Alphabet, n_states: int) -> MealyMachine:
    return _random(MealyMachine, rng, inp, outp, n_states)


def random_moore(rng: random.Random, inp: Alphabet, outp: Alphabet, n_states: int) -> MooreMachine:
    return _random(MooreMachine, rng, inp, outp, n_states)


def random_cell(rng: random.Random, inp: Alphabet, outp: Alphabet, max_states: int):
    """A random machine of either kind with 1..max_states states.  A bound
    below 1 raises MachineError before anything is drawn."""
    if max_states < 1:
        raise MachineError("a machine needs at least one state")
    n = rng.randint(1, max_states)
    if rng.random() < 0.5:
        return random_moore(rng, inp, outp, n)
    return random_mealy(rng, inp, outp, n)
