"""Sequential composition of machines.

The composite of ``first : A↝B`` followed by ``second : B↝C`` has
carrier the ordered pairs ``(f, e)`` with ``f`` a state of the second
machine and ``e`` a state of the first.  All four kinds of composite
are one cascade, ``compose_cells``, read through the embedding J of
Moore into Mealy machines: at each step the downstream machine consumes
the letter that J(first) emits.  Whenever one factor is Moore, the
composite output table is letter-independent and the result is returned
as a MooreMachine.  ``compose_mealy``, ``compose_moore``, ``ltimes`` and
``rtimes`` are the same cascade restricted to one pair of kinds.

Composition is associative only up to the re-bracketing bijection
returned by ``associator``; ``check_pentagon`` verifies the coherence of
that bijection as a literal function equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EndpointMismatch,
    KindMismatch,
    Machine,
    MealyMachine,
    MooreMachine,
    StateMap,
    _j_out,
    is_homomorphism,
)


def _require_chain(second, first):
    if first.output.symbols != second.input.symbols:
        raise EndpointMismatch(
            "output alphabet %r does not match input alphabet %r"
            % (first.output.symbols, second.input.symbols)
        )


def compose_cells(second: Machine, first: Machine) -> Machine:
    """The cascade second⋄first of cells of any kinds, read through J.

    With b = out_J(first)(e, a): delta((f,e), a) = (delta₂(f, b), delta₁(e, a))
    and out((f,e), a) = out_J(second)(f, b).  When either factor is Moore
    this output ignores a, and the composite is a MooreMachine."""
    _require_chain(second, first)
    emit, read = _j_out(first), _j_out(second)
    letters = first.input.symbols
    states = tuple((f, e) for f in second.states for e in first.states)
    delta = {
        ((f, e), a): (second.delta[(f, emit[(e, a)])], first.delta[(e, a)])
        for f, e in states for a in letters
    }
    if isinstance(second, MealyMachine) and isinstance(first, MealyMachine):
        out = {((f, e), a): read[(f, emit[(e, a)])] for f, e in states for a in letters}
        return MealyMachine._trusted(first.input, second.output, states, delta, out)
    a = letters[0]  # the output ignores the letter, so read it at any one
    out = {(f, e): read[(f, emit[(e, a)])] for f, e in states}
    return MooreMachine._trusted(first.input, second.output, states, delta, out)


def _require_kinds(name, second, first, second_kind, first_kind):
    if not isinstance(second, second_kind) or not isinstance(first, first_kind):
        raise KindMismatch("%s takes a %s after a %s"
                           % (name, second_kind.__name__, first_kind.__name__))


def compose_mealy(second: MealyMachine, first: MealyMachine) -> MealyMachine:
    """Cascade of two Mealy machines: out((f,e),a) = out₂(f, out₁(e,a))."""
    _require_kinds("compose_mealy", second, first, MealyMachine, MealyMachine)
    return compose_cells(second, first)


def compose_moore(second: MooreMachine, first: MooreMachine) -> MooreMachine:
    """Cascade of two Moore machines: the downstream machine reads the
    upstream machine's current output, and the composite emits out₂(f)."""
    _require_kinds("compose_moore", second, first, MooreMachine, MooreMachine)
    return compose_cells(second, first)


def ltimes(n: MooreMachine, m: MealyMachine) -> MooreMachine:
    """Moore-after-Mealy composite n⋄m; Moore overrides Mealy, so the
    result is a Moore machine outputting out_n(f)."""
    _require_kinds("ltimes", n, m, MooreMachine, MealyMachine)
    return compose_cells(n, m)


def rtimes(m: MealyMachine, n: MooreMachine) -> MooreMachine:
    """Mealy-after-Moore composite m⋄n; the output out_m(e, out_n(f)) is
    letter-independent, so the result is again a Moore machine."""
    _require_kinds("rtimes", m, n, MealyMachine, MooreMachine)
    return compose_cells(m, n)


@dataclass(frozen=True)
class StateBijection:
    """A machine isomorphism: a homomorphism with a homomorphic inverse."""

    source: Machine
    target: Machine
    forward: StateMap
    backward: StateMap

    def __post_init__(self):
        for e in self.source.states:
            if self.backward.map[self.forward.map[e]] != e:
                raise NotAnIso("backward∘forward is not the identity at %r" % (e,))
        for f in self.target.states:
            if self.forward.map[self.backward.map[f]] != f:
                raise NotAnIso("forward∘backward is not the identity at %r" % (f,))
        if not is_homomorphism(self.forward) or not is_homomorphism(self.backward):
            raise NotAnIso("both directions must be homomorphisms")

    __hash__ = None


class NotAnIso(KindMismatch):
    """The candidate bijection fails to be a two-sided machine isomorphism."""


def associator(h: Machine, g: Machine, f: Machine) -> StateBijection:
    """The re-bracketing bijection (h⋄g)⋄f ≅ h⋄(g⋄f).

    Forward direction: ((eh,eg),ef) ↦ (eh,(eg,ef)).
    """
    left = compose_cells(compose_cells(h, g), f)
    right = compose_cells(h, compose_cells(g, f))
    fwd = {((eh, eg), ef): (eh, (eg, ef)) for eh in h.states for eg in g.states for ef in f.states}
    bwd = {v: k for k, v in fwd.items()}
    return StateBijection(
        left, right, StateMap._trusted(left, right, fwd), StateMap._trusted(right, left, bwd)
    )


def check_pentagon(k: Machine, h: Machine, g: Machine, f: Machine) -> bool:
    """Compare the two re-bracketing paths k⋄(h⋄(g⋄f)) → ((k⋄h)⋄g)⋄f
    as functions on the 4-fold product carrier."""
    # The composites the paths re-bracket exist only if the endpoints chain.
    _require_chain(k, h)
    _require_chain(h, g)
    _require_chain(g, f)

    def beta(s):  # x⋄(y⋄z) → (x⋄y)⋄z
        x, (y, z) = s
        return ((x, y), z)

    def path_one(s):
        return beta(beta(s))

    def path_two(s):
        ek, rest = s
        s = (ek, beta(rest))
        s = beta(s)
        y, ef = s
        return (beta(y), ef)

    for ek in k.states:
        for eh in h.states:
            for eg in g.states:
                for ef in f.states:
                    s = (ek, (eh, (eg, ef)))
                    if path_one(s) != path_two(s):
                        return False
    return True


def check_j_compatibilities(m: Machine, n: Machine) -> bool:
    """Strict table equalities relating the Moore→Mealy embedding J with
    composition, in the composite m⋄n (m downstream, n upstream):

    - m Mealy, n Moore:  J(m⋄n) = m⋄Jn
    - m Moore, n Mealy:  J(m⋄n) = Jm⋄n
    - m, n both Moore:   m⋄Jn = Jm⋄n  and  J(m⋄n) = Jm⋄Jn

    These hold by definition: ``compose_cells`` cascades the J-images of
    the factors and ``embed_j`` reads outputs through the same helper, so
    the per-kind formulas are tested against an independent oracle.
    """
    from .universal import embed_j

    if isinstance(m, MealyMachine) and isinstance(n, MooreMachine):
        return embed_j(rtimes(m, n)) == compose_mealy(m, embed_j(n))
    if isinstance(m, MooreMachine) and isinstance(n, MealyMachine):
        return embed_j(ltimes(m, n)) == compose_mealy(embed_j(m), n)
    if isinstance(m, MooreMachine) and isinstance(n, MooreMachine):
        return (
            ltimes(m, embed_j(n)) == rtimes(embed_j(m), n)
            and embed_j(compose_moore(m, n)) == compose_mealy(embed_j(m), embed_j(n))
        )
    raise KindMismatch("no J-compatibility applies to two Mealy machines")
