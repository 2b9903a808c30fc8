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
(enumerated and random machines, D₀ and D₁ images, machine files) in
index form, and their named tables are built on first access and kept.
A composite holds only its factors: its index tables, like its state
names, are built from theirs on first read, a nesting's innermost
first, in a loop (see ``_Machine``).  The
named ``delta`` and ``out`` are read-only mappings, so the two forms
cannot drift apart.

All values are immutable after construction and all operations are pure.
A value is built in one of two ways (see ``_Value``): a public
constructor checks its arguments and sets the fields, and a value the
library built itself is ``_trusted`` from a dict of its fields, unchecked.
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
    """Base of the library's immutable values, built one of two ways.

    ``_Value.__init__(*values)`` sets the ``_fields`` in order, one
    ``object.__setattr__`` per field, so the values of a class share the
    keys of one compact instance dict: a validating constructor calls it
    once its checks pass, and a record with nothing to check has it as
    its constructor.  ``_trusted(fields)`` makes the new dict ``fields``
    the instance dict, with no check and no copy: the path of the values
    the library builds itself, faster than the loop, though a dict of its
    own takes more bytes than one with shared keys.  ``Alphabet`` and
    ``PointedMachine``, built per operation, unroll the loop into one
    call per field.  Later writes raise.  Equality and repr go by
    ``_fields``."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d arguments (%d given)"
                            % (type(self).__qualname__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, fields):
        value = object.__new__(cls)
        object.__setattr__(value, "__dict__", fields)
        return value

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
    through ``delta`` or ``out`` can change a validated machine.  A
    machine the library builds is ``_trusted`` from a new dict of
    ``input``, ``output``, ``_n`` (the state count) and either the state
    names ``states``, a tuple, with the index form ``_d`` and ``_o`` it
    built total and well-typed itself, or ``_factors``, the pair
    (second, first) of a composite, whose state (f, e) has index
    f·|first| + e.  A composite's ``_d`` and ``_o`` are built together
    by ``_cascade`` on the first read of either, from its factors'
    tables; composing builds none.  Before that read builds them,
    ``_build_below`` builds the tables of every composite below that has
    none yet, innermost first, each once, so no table build recurses,
    however deep or shared the nesting; a composite's ``states`` are
    built the same way, ``_index`` reads a nested pair in a loop, and
    ``==`` compares two composites' states by their factors, in a loop
    (``_same_states``).  The named view, built on first access, is
    read-only too, so on every machine the two forms agree, and no
    machine sharing a table with another can be changed through it."""

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
        _Value.__init__(self, input, output, states, MappingProxyType(delta), MappingProxyType(out))
        for name, value in (("_pos", pos), ("_d", d), ("_o", o), ("_n", len(states))):
            object.__setattr__(self, name, value)

    @_lazy
    def delta(self):
        states = self.states
        keys = itertools.product(states, self.input.symbols)
        return MappingProxyType(dict(zip(keys, [states[t] for t in self._d])))

    @_lazy
    def out(self):
        keys = (itertools.product(self.states, self.input.symbols) if self._out_by_letter
                else self.states)
        names = self.output.symbols
        return MappingProxyType(dict(zip(keys, [names[b] for b in self._o])))

    @_lazy
    def _d(self):
        _build_below(self, "_d")
        d, o = _cascade(*self._factors)
        object.__setattr__(self, "_o", o)
        return d

    @_lazy
    def _o(self):
        self._d  # builds both tables, _o among them
        return self.__dict__["_o"]

    @_lazy
    def states(self):
        _build_below(self, "states")
        second, first = self._factors
        return tuple(itertools.product(second.states, first.states))

    @_lazy
    def _pos(self):
        return dict(zip(self.states, range(self._n)))

    _factors = None  # a composite's (second, first), in the dict it was built from

    def _index(self, s):
        """The index of state s, or None if s is not a state: on a
        composite, a pair (f, e) of states of its factors."""
        factors = self._factors
        if factors is None:
            try:
                return self._pos[s]
            except (KeyError, TypeError):  # TypeError: an unhashable name
                return None
        # The index of (f, e) is f·|first| + e, so a state's index is the
        # sum of its plain parts' indices, each scaled by the product of
        # the sizes of the factors to its right: a loop over the nesting.
        index, todo = 0, [(factors, s, 1)]
        while todo:
            (second, first), s, scale = todo.pop()
            if not isinstance(s, tuple) or len(s) != 2:  # a namedtuple pair names a state too
                return None
            for m, part, at in ((second, s[0], scale * first._n), (first, s[1], scale)):
                if m._factors is None:
                    try:
                        index += m._pos[part] * at
                    except (KeyError, TypeError):  # TypeError: an unhashable name
                        return None
                else:
                    todo.append((m._factors, part, at))
        return index

    def _names(self):
        """The state fields, for a machine on the same states."""
        factors = self._factors
        return {"_n": self._n, **({"_factors": factors} if factors else {"states": self.states})}

    def __eq__(self, other):
        # Equal states and alphabets make the named and index tables
        # determine each other, so the index form decides.
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.input == other.input and self.output == other.output
                and _same_states(self, other) and self._d == other._d and self._o == other._o)


class MealyMachine(_Machine):
    """A 1-cell A↝B with letter-dependent output out(e, a)."""

    _out_by_letter = True


class MooreMachine(_Machine):
    """A 1-cell A↝B with letter-independent output out(e)."""

    _out_by_letter = False


Machine = Union[MealyMachine, MooreMachine]


def _nesting(m: Machine, built=None) -> list:
    """m and the machines in its nesting, each once, every factor before
    the composites it is a factor of, so m comes last.  A factor whose
    instance dict holds the field ``built`` is left out, with all below
    it.  A loop, not a recursion, and a factor shared by several
    composites is visited once, so a nesting costs time linear in its
    distinct machines, however deep or shared it is."""
    order, seen, todo = [], {id(m)}, [(m, iter(m._factors or ()))]
    while todo:
        node, factors = todo[-1]
        for x in factors:
            if id(x) not in seen and built not in x.__dict__:
                seen.add(id(x))
                todo.append((x, iter(x._factors or ())))
                break
        else:
            todo.pop()
            order.append(node)
    return order


def _same_states(m: Machine, n: Machine) -> bool:
    """m.states == n.states, with no nested state tuple built or compared
    where both are composites: the product of two duplicate-free,
    non-empty state tuples is equal to another exactly when their
    factors' tuples are, so a pair of composites is decided by its pairs
    of factors, in a loop over both nestings, each pair once.  Where one
    side of a pair is a plain machine, the state tuples are compared."""
    todo, seen = [(m, n)], set()
    while todo:
        m, n = todo.pop()
        if m is n or (id(m), id(n)) in seen:
            continue
        seen.add((id(m), id(n)))
        if m._factors is None or n._factors is None:
            if m.states != n.states:
                return False
        else:
            todo += zip(m._factors, n._factors)
    return True


def _build_below(m: Machine, field: str) -> None:
    """Build the lazy ``field`` of every composite below the composite m
    that lacks it, innermost first, so that building m's own reads only
    fields already built and no build recurses.  When both factors hold
    it already, as they do for a composite of plain machines, this is
    two dict lookups."""
    second, first = m._factors
    if field in second.__dict__ and field in first.__dict__:
        return
    for node in _nesting(m, field)[:-1]:
        getattr(node, field)


def _cascade(second: Machine, first: Machine) -> tuple:
    """The index tables (_d, _o) of the cascade second⋄first, read through J.

    With b = out_J(first)(e, a): delta((f,e), a) = (delta₂(f, b), delta₁(e, a))
    and out((f,e), a) = out_J(second)(f, b), which ignores a when either
    factor is Moore.  The state (f, e) is f·|first| + e, and b, an index
    into first's output symbols, is a letter index of second.  Second's
    targets are scaled by |first| once and cut into rows, one per state
    f, and first's (target, emitted letter) cells are paired once, so
    each composite cell is ``row[b] + t``: one lookup and one addition,
    with no index arithmetic."""
    k2, n1 = len(second.input.symbols), first._n
    o1, o2 = first._o, second._o
    emit = o1 if first._out_by_letter else [b for b in o1 for _ in first.input.symbols]  # b at e·k + a
    cells = list(zip(first._d, emit))
    rows = zip(*[iter([t * n1 for t in second._d])] * k2)  # (δ₂(f, b)·|first| for each b), per f
    d = tuple([row[b] + t for row in rows for t, b in cells])
    if second._out_by_letter:  # out₂(f, b) with b = out₁(e, a), or out₁(e) when first is Moore
        o = tuple([row[b] for row in zip(*[iter(o2)] * k2) for b in o1])
    else:
        o = tuple([o for o in o2 for _ in range(n1)])
    return d, o


def _raw_alphabet(name, symbols):
    """The alphabet of a raw symbol list: strings as they are, integers
    as their decimal text (a table's keys are strings in a file).  Any
    other symbol, such as null, true or a list, is refused: its Python
    repr is not what the file says."""
    if not isinstance(symbols, (list, tuple)):
        raise MissingEntry("%s alphabet must be a list of symbols" % name)
    if {*map(type, symbols)} <= {str}:
        return Alphabet(name, tuple(symbols))
    for x in symbols:
        if type(x) is not str and type(x) is not int:  # bool is an int subclass: refused
            raise MissingEntry("%s symbol %s is neither a string nor an integer"
                               % (name, reprlib.repr(x)))
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
            return cls._trusted({"input": inp, "output": outp, "states": states, "_pos": pos,
                                 "_d": d, "_o": o, "_n": n})
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


_NO_LETTER = object()


def _walk(m: Machine, i: int, word, emit=None) -> list:
    """What ``word`` emits from state index i, read in one pass over it:
    with ``emit``, a sequence over state indices, emit[e] of every state e
    visited, the start first; without it, the Mealy output symbol of
    every (state, letter) cell read.

    Per call, ``_d`` is cut into one column per input letter, d[j::k],
    keyed by the letter symbol (a Mealy machine's output symbols are cut
    the same way), so each step is ``i = column[a][i]``, with no decode
    pass and no index arithmetic.  The first undeclared or unhashable
    letter raises LetterOutOfAlphabet when the walk reaches it."""
    symbols, d = m.input.symbols, m._d
    k = len(symbols)
    a = _NO_LETTER
    try:
        if emit is not None:
            columns = dict(zip(symbols, [d[j::k] for j in range(k)]))
            out = [emit[i]]
            for a in word:
                i = columns[a][i]
                out.append(emit[i])
        else:
            names = m.output.symbols
            emitted = [names[b] for b in m._o]  # not map(names.__getitem__): a slow slot wrapper
            columns = dict(zip(symbols, [(d[j::k], emitted[j::k]) for j in range(k)]))
            out = []
            for a in word:
                column, emits = columns[a]
                out.append(emits[i])
                i = column[i]
    except (KeyError, TypeError):  # TypeError: an unhashable letter
        try:
            declared = a is _NO_LETTER or a in columns
        except TypeError:
            declared = False
        if declared:
            raise  # raised by the word's own iterator, not by a lookup
        raise LetterOutOfAlphabet("letter %r is not in the input alphabet" % (a,)) from None
    return out


def _require_kind(m, kind, what: str) -> None:
    """Raise KindMismatch unless m is a ``kind`` machine; ``what`` names
    the operation (and the argument) that takes it."""
    if not isinstance(m, kind):
        raise KindMismatch("%s: expected a %s, got a %s" % (what, kind.__name__, type(m).__name__))


def _require_parallel(m: Machine, n: Machine, what: str) -> None:
    """Raise KindMismatch unless m and n are machines of one kind, and
    EndpointMismatch unless they share input and output alphabets: the
    two ends of a state map, a hom-set or a bisimilarity check."""
    if type(m) is not type(n):
        raise KindMismatch("%s: expected machines of one kind, got a %s and a %s"
                           % (what, type(m).__name__, type(n).__name__))
    if m.input.symbols != n.input.symbols or m.output.symbols != n.output.symbols:
        raise EndpointMismatch("%s: expected common input and output alphabets" % what)


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
    what the kernels read.  A map the library built total between
    machines of one kind with common endpoints is ``_trusted`` from
    ``source``, ``target`` and ``_img``, its ``map`` built on first
    access.  Equality goes by ``source``, ``target`` and ``_img``, so
    comparing maps builds no ``map``."""

    _fields = ("source", "target", "map")

    def __init__(self, source: Machine, target: Machine, map: Mapping[State, State]):
        _require_parallel(source, target, "StateMap")
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
        _Value.__init__(self, source, target, MappingProxyType(table))
        object.__setattr__(self, "_img", img)

    def __eq__(self, other):
        # Equal endpoints have equal state tuples, on which the named map
        # and _img determine each other, so _img decides.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.source == other.source and self.target == other.target and self._img == other._img

    @_lazy
    def map(self):
        states = self.target.states
        return MappingProxyType(dict(zip(self.source.states, [states[t] for t in self._img])))


def is_homomorphism(phi: StateMap) -> bool:
    """True iff phi commutes with the dynamics and preserves outputs."""
    source, target, img = phi.source, phi.target, phi._img
    k = len(source.input.symbols)
    d1, d2, o1, o2 = source._d, target._d, source._o, target._o
    mealy = isinstance(source, MealyMachine)
    for i, t in enumerate(img):
        x, y = i * k, t * k
        if tuple([img[z] for z in d1[x:x + k]]) != d2[y:y + k]:
            return False
        if o1[x:x + k] != o2[y:y + k] if mealy else o1[i] != o2[t]:
            return False
    return True


def identity_map(m: Machine) -> StateMap:
    return StateMap._trusted({"source": m, "target": m, "_img": tuple(range(m._n))})


def compose_maps(psi: StateMap, phi: StateMap) -> StateMap:
    """Vertical composition psi∘phi of state maps."""
    if phi.target != psi.source:
        raise EndpointMismatch("maps are not composable")
    img = psi._img
    return StateMap._trusted({"source": phi.source, "target": psi.target,
                              "_img": tuple([img[t] for t in phi._img])})
