"""Finite Mealy and Moore machines over named alphabets.

A machine is a total transition table ``delta`` over (state, letter)
together with an output table ``out``: letter-dependent for Mealy
machines, letter-independent for Moore machines.  State maps between
machines with common endpoints are candidate 2-cells; the homomorphism
predicate checks equivariance and output preservation.

Every machine also has an index form, which is what the kernels read:
states 0..n−1 and input letters 0..k−1 in declaration order, ``_d`` the
flat tuple of target indices at ``i*k + a``, and ``_o`` the flat tuple of
output-symbol indices, at ``i*k + a`` (Mealy) or at ``i`` (Moore).  The
public constructor, and so every machine file, checks the named tables
in the walk that builds the index form.  The library builds its own
machines (composites, enumerated machines, D₀ and D₁ images) in index
form, and their named tables on first access; only random machines are
built named-first, with the index form on the first kernel call (see
``generate``).  Either form is built once and kept.  The named ``delta``
and ``out`` are read-only mappings, so the two forms cannot drift apart.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import reprlib
from collections import abc
from dataclasses import dataclass, field
from types import MappingProxyType
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


def _index_table(what, table, keys, code, bad_value):
    """The tuple of code[table[k]] for k in keys, in one lookup walk that
    checks that the table has exactly these keys and that every value is
    a key of ``code``.  Only a failing table is walked again, to name the
    bad key or value; ``reprlib`` keeps a huge or nested value short."""
    if len(table) == len(keys):
        try:
            return tuple(map(code.__getitem__, map(table.__getitem__, keys)))
        except (KeyError, TypeError):  # TypeError: an unhashable value
            pass
    expected = set(keys)
    if table.keys() != expected:
        extra = [k for k in table if k not in expected]
        if extra:
            raise UnknownSymbol("%s entry for undeclared %r" % (what, extra[0]))
        missing = next(k for k in keys if k not in table)
        raise MissingEntry("%s lacks entry for %r" % (what, missing))
    for value in table.values():
        try:
            code[value]
        except (KeyError, TypeError):  # TypeError: such as a JSON list in a machine file
            raise UnknownSymbol(bad_value % reprlib.repr(value)) from None


@dataclass(frozen=True)
class _Machine:
    """The fields and table check of both kinds.

    The public constructor checks the named tables in the walk that
    builds the index form, so a machine leaves it with both, and keeps
    read-only copies of them: neither the caller's dicts nor writes
    through ``delta`` or ``out`` can change a validated machine.  The
    named tables of machines the library builds are read-only too, so on
    every machine the two forms agree, and no machine sharing a table
    with another can be changed through it."""

    input: Alphabet
    output: Alphabet
    states: tuple[State, ...]
    delta: Mapping[tuple[State, Letter], State]
    out: Mapping

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise MachineError("a machine needs at least one state")
        try:
            pos = {e: i for i, e in enumerate(states)}
        except TypeError as err:  # such as a JSON list in a machine file
            raise UnknownSymbol("state names must be hashable (%s)" % err) from None
        if len(pos) != len(states):
            raise DuplicateName("repeated state names")
        delta, out = dict(self.delta), dict(self.out)
        self.__dict__.update(states=states, _pos=pos, delta=MappingProxyType(delta),
                             out=MappingProxyType(out))
        self._index_tables(delta, out)

    def _index_tables(self, delta, out):
        """Check delta and out against the states and alphabets; keep the index form."""
        states = self.states
        keys = list(itertools.product(states, self.input.symbols))
        code = {b: j for j, b in enumerate(self.output.symbols)}
        self.__dict__.update(
            _d=_index_table("delta", delta, keys, self._pos,
                            "delta target %s is not a declared state"),
            _o=_index_table("out", out, keys if self._out_by_letter else states, code,
                            "output letter %s is not in the output alphabet"),
            _n=len(states),
        )

    @classmethod
    def _trusted(cls, input, output, **tables):
        """A machine from tables the library built total and well-typed
        itself: no check, no copy.  ``tables`` are the index form ``_d``,
        ``_o`` and ``_n`` (the state count) with the state names:
        ``states``, a tuple, or ``_factors``, the pair (second, first) of
        a composite, whose state (f, e) has index f·|first| + e.  Only the
        random generators pass the named ``states``, ``delta`` and
        ``out``, read-only, instead (see ``generate``)."""
        m = object.__new__(cls)
        m.__dict__.update(tables, input=input, output=output)
        return m

    def __getattr__(self, name):
        """Build, on first use, what the machine was not made with, and
        keep it: the index form of a random machine, the named view of
        one built in index form."""
        have = self.__dict__
        if name in ("_d", "_o", "_n"):
            self._index_tables(self.delta, self.out)
        elif name in ("delta", "out"):
            states = self.states
            keys = list(itertools.product(states, self.input.symbols))
            symbols = self.output.symbols
            have["delta"] = MappingProxyType(dict(zip(keys, map(states.__getitem__, self._d))))
            have["out"] = MappingProxyType(dict(zip(keys if self._out_by_letter else states,
                                                    map(symbols.__getitem__, self._o))))
        elif name == "states":
            second, first = have["_factors"]
            have["states"] = tuple(itertools.product(second.states, first.states))
        elif name == "_pos":
            have["_pos"] = {e: i for i, e in enumerate(self.states)}
        else:
            raise AttributeError(name)
        return have[name]

    def _index(self, s):
        """The index of state s, or None if s is not a state."""
        factors = self.__dict__.get("_factors")
        if factors is None:
            try:
                return self._pos[s]
            except (KeyError, TypeError):  # TypeError: an unhashable name
                return None
        if not isinstance(s, tuple) or len(s) != 2:
            return None
        f, e = factors[0]._index(s[0]), factors[1]._index(s[1])
        return None if f is None or e is None else f * factors[1]._n + e

    def _names(self):
        """The state fields, for a machine on the same states."""
        factors = self.__dict__.get("_factors")
        return {"_n": self._n, **({"_factors": factors} if factors else {"states": self.states})}

    def __eq__(self, other):
        # Equal states and alphabets make the named and index tables
        # determine each other, so the index form decides.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.input == other.input and self.output == other.output
                and self.states == other.states and self._d == other._d and self._o == other._o)

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


def _letter_indices(m: Machine, word) -> list:
    """The input-letter indices of ``word``, mapped once per call."""
    word = tuple(word)
    code = {a: i for i, a in enumerate(m.input.symbols)}
    try:
        return list(map(code.__getitem__, word))
    except (KeyError, TypeError):  # TypeError: an unhashable letter
        bad = next(a for a in word if a not in m.input.symbols)
        raise LetterOutOfAlphabet("letter %r is not in the input alphabet" % (bad,)) from None


def _walk(m: Machine, i: int, letters) -> int:
    """The index of the state reached from state index i on ``letters``."""
    k, d = len(m.input.symbols), m._d
    for a in letters:
        i = d[i * k + a]
    return i


def identity_cell(a: Alphabet) -> MealyMachine:
    """The one-state echo machine over input = output = a: the only
    identity 1-cell for sequential composition, and not of Moore type."""
    delta = {("*", x): "*" for x in a.symbols}
    out = {("*", x): x for x in a.symbols}
    return MealyMachine(a, a, ("*",), delta, out)


@dataclass(frozen=True)
class StateMap:
    """A candidate 2-cell: a total function between the state sets of
    two machines of the same kind with common endpoints.  ``map`` is a
    read-only copy of the mapping given; the check that it is total and
    lands in the target's states builds, in the same pass, ``_img``: the
    tuple of target-state indices, one per source-state index, which is
    what the kernels read."""

    source: Machine
    target: Machine
    map: Mapping[State, State]

    def __post_init__(self):
        if type(self.source) is not type(self.target):
            raise KindMismatch("state maps relate machines of the same kind")
        if (self.source.input.symbols != self.target.input.symbols
                or self.source.output.symbols != self.target.output.symbols):
            raise EndpointMismatch("state maps require common input and output alphabets")
        table, states, index = dict(self.map), self.source.states, self.target._index
        try:  # index() swallows its own lookup errors, so a KeyError is a missing entry
            img = tuple([index(table[e]) for e in states])
        except KeyError as err:
            raise MissingEntry("map lacks entry for state %r" % (err.args[0],)) from None
        if len(table) != len(states):
            extra = next(e for e in table if self.source._index(e) is None)
            raise UnknownSymbol("map entry for undeclared state %r" % (extra,))
        if None in img:
            image = table[states[img.index(None)]]
            raise UnknownSymbol("map image %r is not a target state" % (image,))
        self.__dict__.update(map=MappingProxyType(table), _img=img)

    @classmethod
    def _trusted(cls, source, target, img):
        """A state map the library built total between machines of one
        kind with common endpoints, as the tuple ``img`` of target-state
        indices, one per source-state index: no check, no copy.  The
        named ``map`` is built on first access."""
        phi = object.__new__(cls)
        phi.__dict__.update(source=source, target=target, _img=img)
        return phi

    def __getattr__(self, name):
        """Build, on first use, the named map of a map built in index form."""
        if name != "map":
            raise AttributeError(name)
        images = map(self.target.states.__getitem__, self._img)
        value = self.__dict__["map"] = MappingProxyType(dict(zip(self.source.states, images)))
        return value

    __hash__ = None


def is_homomorphism(phi: StateMap) -> bool:
    """True iff phi commutes with the dynamics and preserves outputs."""
    source, target, img = phi.source, phi.target, phi._img
    k = len(source.input.symbols)
    d1, d2, o1, o2 = source._d, target._d, source._o, target._o
    mealy = isinstance(source, MealyMachine)
    for i, t in enumerate(img):
        x, y = i * k, t * k
        if tuple(map(img.__getitem__, d1[x:x + k])) != d2[y:y + k]:
            return False
        if o1[x:x + k] != o2[y:y + k] if mealy else o1[i] != o2[t]:
            return False
    return True


def identity_map(m: Machine) -> StateMap:
    return StateMap._trusted(m, m, tuple(range(m._n)))


def compose_maps(psi: StateMap, phi: StateMap) -> StateMap:
    """Vertical composition psi∘phi of state maps."""
    if phi.target is not psi.source and phi.target != psi.source:
        raise EndpointMismatch("maps are not composable")
    return StateMap._trusted(phi.source, psi.target, tuple(map(psi._img.__getitem__, phi._img)))
