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
public constructor checks the named tables in the walk that builds the
index form; a machine file's nested rows are checked in one walk of
their own into the index form.  The library builds its own machines
(composites, enumerated and random machines, D₀ and D₁ images, machine
files) in index form, so every machine starts with it; their named
tables are built on first access and kept.  The named ``delta`` and
``out`` are read-only mappings, so the two forms cannot drift apart.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import reprlib
from collections import abc
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


class _Value:
    """Base of the library's immutable values: ``__init__`` sets each field once with
    ``object.__setattr__`` (call by call where it runs hot, not through ``_set``), which
    keeps the instance dict compact; later writes raise.  Equality and repr go by ``_fields``."""

    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self):
        fields = ("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))


class _lazy:
    """A field built on first read by the decorated method and kept in
    the instance dict, where every later read finds it first."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


class Alphabet(_Value):
    """A named finite set of symbols; the name is a label and does not
    participate in equality.  Symbol order is fixed at construction and
    used for all iteration."""

    _fields = ("name", "symbols")

    def __init__(self, name: str, symbols: tuple[Letter, ...] = ()):
        symbols = tuple(symbols)
        if len(symbols) < 1:
            raise MachineError("alphabet %r must have at least one symbol" % name)
        if len(set(symbols)) != len(symbols):
            raise DuplicateName("alphabet %r has repeated symbols" % name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symbols", symbols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash((self.symbols,))

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


class _Machine(_Value):
    """The fields and table check of both kinds.

    The public constructor checks the named tables in the walk that
    builds the index form, so a machine leaves it with both, and keeps
    read-only copies of them: neither the caller's dicts nor writes
    through ``delta`` or ``out`` can change a validated machine.  Every
    machine the library builds starts in index form (``_trusted``), and
    its named view, built on first access, is read-only too, so on every
    machine the two forms agree, and no machine sharing a table with
    another can be changed through it."""

    _fields = ("input", "output", "states", "delta", "out")

    def __init__(self, input: Alphabet, output: Alphabet, states: tuple[State, ...],
                 delta: Mapping[tuple[State, Letter], State], out: Mapping):
        states = tuple(states)
        if not states:
            raise MachineError("a machine needs at least one state")
        try:
            pos = dict(zip(states, range(len(states))))
        except TypeError as err:  # such as a JSON list in a machine file
            raise UnknownSymbol("state names must be hashable (%s)" % err) from None
        if len(pos) != len(states):
            raise DuplicateName("repeated state names")
        delta, out = dict(delta), dict(out)
        keys = list(itertools.product(states, input.symbols))
        code = dict(zip(output.symbols, range(len(output.symbols))))
        d = _index_table("delta", delta, keys, pos, "delta target %s is not a declared state")
        o = _index_table("out", out, keys if self._out_by_letter else states, code,
                         "output letter %s is not in the output alphabet")
        self._set(input, output, states, MappingProxyType(delta), MappingProxyType(out))
        for name, value in (("_pos", pos), ("_d", d), ("_o", o), ("_n", len(states))):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, input, output, **tables):
        """A machine from tables the library built total and well-typed
        itself: no check, no copy.  ``tables`` are the index form ``_d``,
        ``_o`` and ``_n`` (the state count) with the state names:
        ``states``, a tuple, or ``_factors``, the pair (second, first) of
        a composite, whose state (f, e) has index f·|first| + e."""
        m = object.__new__(cls)
        m.__dict__.update(tables, input=input, output=output)
        return m

    @_lazy
    def delta(self):
        keys = itertools.product(self.states, self.input.symbols)
        return MappingProxyType(dict(zip(keys, map(self.states.__getitem__, self._d))))

    @_lazy
    def out(self):
        keys = (itertools.product(self.states, self.input.symbols) if self._out_by_letter
                else self.states)
        return MappingProxyType(dict(zip(keys, map(self.output.symbols.__getitem__, self._o))))

    @_lazy
    def states(self):
        second, first = self._factors
        return tuple(itertools.product(second.states, first.states))

    @_lazy
    def _pos(self):
        return dict(zip(self.states, range(self._n)))

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
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.input == other.input and self.output == other.output
                and self.states == other.states and self._d == other._d and self._o == other._o)


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
    return Alphabet(name, tuple(map(str, symbols)))


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


def _walk_rows(table, states, letters, code):
    """The tuple of code[table[e][a]] (code[table[e]] if letters is None)
    in index order; None, KeyError or TypeError unless table is a dict
    of exactly these rows, each a dict of exactly these letters."""
    if type(table) is not dict or len(table) != len(states):
        return None
    if letters is None:  # a Moore output table: one bare value per state
        return tuple(map(code.__getitem__, map(table.__getitem__, states)))
    rows, k = list(map(table.__getitem__, states)), len(letters)
    for row in rows:
        if type(row) is not dict or len(row) != k:
            return None
    return tuple([code[row[a]] for row in rows for a in letters])


def _validate_raw(raw, cls):
    """Walk the nested rows into the index form; if any check fails, the
    public constructor, on the flattened tables, names the fault."""
    inp = _raw_alphabet("input", raw.get("input"))
    outp = _raw_alphabet("output", raw.get("output"))
    states = raw.get("states")
    if not isinstance(states, (list, tuple)):
        raise MissingEntry("states must be a list")
    states, n = tuple(states), len(states)
    code = dict(zip(outp.symbols, range(len(outp.symbols))))
    try:
        pos = dict(zip(states, range(n)))
        d = _walk_rows(raw.get("delta"), states, inp.symbols, pos)
        o = _walk_rows(raw.get("out"), states, inp.symbols if cls._out_by_letter else None, code)
        if n and len(pos) == n and d is not None and o is not None:
            return cls._trusted(inp, outp, states=states, _pos=pos, _d=d, _o=o, _n=n)
    except (KeyError, TypeError):  # TypeError: an unhashable name or value
        pass
    delta = _flatten_table(raw.get("delta", {}), "delta")
    out = _flatten_table(raw.get("out", {}), "out", nested=cls._out_by_letter)
    return cls(inp, outp, states, delta, out)


def validate_mealy(raw: Mapping) -> MealyMachine:
    """Build a MealyMachine from a raw description (parsed machine file)."""
    return _validate_raw(raw, MealyMachine)


def validate_moore(raw: Mapping) -> MooreMachine:
    """Build a MooreMachine from a raw description (parsed machine file)."""
    return _validate_raw(raw, MooreMachine)


def _letter_indices(m: Machine, word) -> list:
    """The input-letter indices of ``word``, mapped once per call."""
    word = tuple(word)
    code = dict(zip(m.input.symbols, range(len(m.input.symbols))))
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


class StateMap(_Value):
    """A candidate 2-cell: a total function between the state sets of
    two machines of the same kind with common endpoints.  ``map`` is a
    read-only copy of the mapping given; the check that it is total and
    lands in the target's states builds, in the same pass, ``_img``: the
    tuple of target-state indices, one per source-state index, which is
    what the kernels read."""

    _fields = ("source", "target", "map")

    def __init__(self, source: Machine, target: Machine, map: Mapping[State, State]):
        if type(source) is not type(target):
            raise KindMismatch("state maps relate machines of the same kind")
        if (source.input.symbols != target.input.symbols
                or source.output.symbols != target.output.symbols):
            raise EndpointMismatch("state maps require common input and output alphabets")
        table, states, index = dict(map), source.states, target._index
        try:  # index() swallows its own lookup errors, so a KeyError is a missing entry
            img = tuple([index(table[e]) for e in states])
        except KeyError as err:
            raise MissingEntry("map lacks entry for state %r" % (err.args[0],)) from None
        if len(table) != len(states):
            extra = next(e for e in table if source._index(e) is None)
            raise UnknownSymbol("map entry for undeclared state %r" % (extra,))
        if None in img:
            image = table[states[img.index(None)]]
            raise UnknownSymbol("map image %r is not a target state" % (image,))
        self._set(source, target, MappingProxyType(table))
        object.__setattr__(self, "_img", img)

    @classmethod
    def _trusted(cls, source, target, img):
        """A state map the library built total between machines of one
        kind with common endpoints, as the tuple ``img`` of target-state
        indices, one per source-state index: no check, no copy.  The
        named ``map`` is built on first access."""
        phi = object.__new__(cls)
        phi.__dict__.update(source=source, target=target, _img=img)
        return phi

    @_lazy
    def map(self):
        images = map(self.target.states.__getitem__, self._img)
        return MappingProxyType(dict(zip(self.source.states, images)))


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
    if phi.target != psi.source:
        raise EndpointMismatch("maps are not composable")
    return StateMap._trusted(phi.source, psi.target, tuple(map(psi._img.__getitem__, phi._img)))
