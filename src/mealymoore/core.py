"""Finite Mealy and Moore machines over named alphabets.

A machine is a total transition table ``delta`` over (state, letter)
together with an output table ``out``: letter-dependent for Mealy
machines, letter-independent for Moore machines.  State maps between
machines with common endpoints are candidate 2-cells; the homomorphism
predicate checks equivariance and output preservation.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import reprlib
from collections import abc
from dataclasses import dataclass, field
from typing import Mapping, Union

State = Union[str, tuple]
Letter = str


class MachineError(ValueError):
    """Base class for all machine construction and law-check errors."""


class DuplicateName(MachineError):
    """A state or symbol name is declared more than once."""


class MissingEntry(MachineError):
    """A table lacks an entry for some (state, letter) pair, or has the wrong shape."""


class UnknownSymbol(MachineError):
    """A table entry references an undeclared state or letter."""


class EndpointMismatch(MachineError):
    """Two machines or maps do not share the required alphabets."""


class KindMismatch(MachineError):
    """A Mealy machine appears where a Moore machine is required, or vice versa."""


class EmptyWordOnMealy(MachineError):
    """Mealy machines have no output on the empty word."""


class LetterOutOfAlphabet(MachineError):
    """A word contains a letter not in the machine's input alphabet."""


class EnumerationTooLarge(MachineError):
    """An exhaustive enumeration went, or would go, past ENUMERATION_GUARD."""


class NotSoft(MachineError):
    """The operation requires a soft Moore machine."""


class NotAHomomorphism(MachineError):
    """The operation requires a state map that is a homomorphism."""


@dataclass(frozen=True)
class Alphabet:
    """A named finite set of symbols; the name is a label and does not
    participate in equality.  Symbol order is fixed at construction and
    used for all iteration."""

    name: str = field(compare=False)
    symbols: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise MachineError("alphabet %r must have at least one symbol" % self.name)
        if len(set(self.symbols)) != len(self.symbols):
            raise DuplicateName("alphabet %r has repeated symbols" % self.name)

    def __contains__(self, letter):
        return letter in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


# Most machines an enumeration may build, or search nodes a hom-set
# search may visit: past it the enumeration raises, never truncates.
ENUMERATION_GUARD = 10**7


def _check_table(what, table, expected, allowed, bad_value):
    """A table must have exactly the expected keys, and every value must
    lie in ``allowed``.  A bad value is rendered by ``reprlib``, so a
    huge or deeply nested one still gives a short message."""
    if table.keys() != expected:
        extra = table.keys() - expected
        if extra:
            raise UnknownSymbol("%s entry for undeclared %r" % (what, next(iter(extra))))
        raise MissingEntry("%s lacks entry for %r" % (what, next(iter(expected - table.keys()))))
    try:
        for value in table.values():
            if value not in allowed:
                raise UnknownSymbol(bad_value % reprlib.repr(value))
    except TypeError:  # an unhashable value, such as a JSON list in a machine file
        raise UnknownSymbol(bad_value % reprlib.repr(value)) from None


@dataclass(frozen=True)
class _Machine:
    """The fields and table check of both kinds.  The tables are copied,
    so mutating the caller's dicts cannot break a validated machine."""

    input: Alphabet
    output: Alphabet
    states: tuple[State, ...]
    delta: Mapping[tuple[State, Letter], State]
    out: Mapping

    def __post_init__(self):
        states = tuple(self.states)
        try:
            stateset = set(states)
        except TypeError as err:  # such as a JSON list in a machine file
            raise UnknownSymbol("state names must be hashable (%s)" % err) from None
        if not states:
            raise MachineError("a machine needs at least one state")
        if len(stateset) != len(states):
            raise DuplicateName("repeated state names")
        delta, out = dict(self.delta), dict(self.out)
        cells = {(e, a) for e in states for a in self.input.symbols}
        _check_table("delta", delta, cells, stateset, "delta target %s is not a declared state")
        _check_table("out", out, cells if self._out_by_letter else stateset,
                     self.output.symbols, "output letter %s is not in the output alphabet")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "out", out)

    @classmethod
    def _trusted(cls, input, output, states, delta, out):
        """A machine from tables the library built total and well-typed
        itself: no check, no copy.  The machine shares the given tables,
        so they must not be changed afterwards; ``states`` must be a
        tuple."""
        m = object.__new__(cls)
        m.__dict__.update(input=input, output=output, states=states, delta=delta, out=out)
        return m

    __hash__ = None


class MealyMachine(_Machine):
    """A 1-cell A↝B with letter-dependent output out(e, a)."""

    _out_by_letter = True


class MooreMachine(_Machine):
    """A 1-cell A↝B with letter-independent output out(e)."""

    _out_by_letter = False


Machine = Union[MealyMachine, MooreMachine]


def _raw_alphabet(name, symbols):
    if not isinstance(symbols, (list, tuple)):
        raise MissingEntry("%s alphabet must be a list of symbols" % name)
    return Alphabet(name, tuple(str(s) for s in symbols))


def _flatten_table(table, what, nested=True):
    """Check a raw table keyed by state.  Nested {state: {letter: value}}
    tables are flattened to (state, letter) keys; flat ones (a Moore
    output table) must map each state to a bare value."""
    if not isinstance(table, abc.Mapping):
        raise MissingEntry("%s must be a table keyed by state" % what)
    if not nested:
        for e, v in table.items():
            if isinstance(v, abc.Mapping):
                raise MissingEntry("%s[%r]: a Moore output table maps states to letters" % (what, e))
        return table
    flat = {}
    for e, row in table.items():
        if not isinstance(row, abc.Mapping):
            raise MissingEntry("%s[%r] must be a per-letter table" % (what, e))
        for a, v in row.items():
            flat[(e, a)] = v
    return flat


def _validate_raw(raw, cls):
    inp = _raw_alphabet("input", raw.get("input"))
    outp = _raw_alphabet("output", raw.get("output"))
    states = raw.get("states")
    if not isinstance(states, (list, tuple)):
        raise MissingEntry("states must be a list")
    delta = _flatten_table(raw.get("delta", {}), "delta")
    out = _flatten_table(raw.get("out", {}), "out", nested=cls is MealyMachine)
    return cls(inp, outp, tuple(states), delta, out)


def validate_mealy(raw: Mapping) -> MealyMachine:
    """Build a MealyMachine from a raw description (parsed machine file)."""
    return _validate_raw(raw, MealyMachine)


def validate_moore(raw: Mapping) -> MooreMachine:
    """Build a MooreMachine from a raw description (parsed machine file)."""
    return _validate_raw(raw, MooreMachine)


def _j_out(m: Machine) -> Mapping:
    """m's output as a Mealy table out(e, a): for a Moore machine, that of
    its image under the embedding J, which ignores the letter."""
    if isinstance(m, MealyMachine):
        return m.out
    return {(e, a): m.out[e] for e in m.states for a in m.input.symbols}


def identity_cell(a: Alphabet) -> MealyMachine:
    """The one-state echo machine over input = output = a: the only
    identity 1-cell for sequential composition, and not of Moore type."""
    delta = {("*", x): "*" for x in a.symbols}
    out = {("*", x): x for x in a.symbols}
    return MealyMachine(a, a, ("*",), delta, out)


@dataclass(frozen=True)
class StateMap:
    """A candidate 2-cell: a total function between the state sets of
    two machines of the same kind with common endpoints."""

    source: Machine
    target: Machine
    map: Mapping[State, State]

    def __post_init__(self):
        if type(self.source) is not type(self.target):
            raise KindMismatch("state maps relate machines of the same kind")
        if (self.source.input.symbols != self.target.input.symbols
                or self.source.output.symbols != self.target.output.symbols):
            raise EndpointMismatch("state maps require common input and output alphabets")
        missing = set(self.source.states) - set(self.map)
        if missing:
            raise MissingEntry("map lacks entry for state %r" % (next(iter(missing)),))
        extra = set(self.map) - set(self.source.states)
        if extra:
            raise UnknownSymbol("map entry for undeclared state %r" % (next(iter(extra)),))
        targets = set(self.target.states)
        for image in self.map.values():
            if image not in targets:
                raise UnknownSymbol("map image %r is not a target state" % (image,))

    @classmethod
    def _trusted(cls, source, target, map):
        """A state map the library built total between machines of one
        kind with common endpoints: no check, no copy.  It shares
        ``map``, which must not be changed afterwards."""
        phi = object.__new__(cls)
        phi.__dict__.update(source=source, target=target, map=map)
        return phi

    __hash__ = None


def is_homomorphism(phi: StateMap) -> bool:
    """True iff phi commutes with the dynamics and preserves outputs."""
    source, target, mapping = phi.source, phi.target, phi.map
    mealy = isinstance(source, MealyMachine)
    for e in source.states:
        fe = mapping[e]
        if not mealy and target.out[fe] != source.out[e]:
            return False
        for a in source.input.symbols:
            if mapping[source.delta[(e, a)]] != target.delta[(fe, a)]:
                return False
            if mealy and target.out[(fe, a)] != source.out[(e, a)]:
                return False
    return True


def identity_map(m: Machine) -> StateMap:
    return StateMap(m, m, {e: e for e in m.states})


def compose_maps(psi: StateMap, phi: StateMap) -> StateMap:
    """Vertical composition psi∘phi of state maps."""
    if phi.target is not psi.source and phi.target != psi.source:
        raise EndpointMismatch("maps are not composable")
    return StateMap(phi.source, psi.target, {e: psi.map[phi.map[e]] for e in phi.source.states})
