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
returned by ``associator``.  Its pentagon holds by definition, since
both paths re-bracket the same nested pairs, so ``check_pentagon`` only
checks that its four cells chain.
"""

from __future__ import annotations

from .core import (
    EndpointMismatch,
    KindMismatch,
    Machine,
    MealyMachine,
    MooreMachine,
    StateMap,
    _Value,
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
    this output ignores a, and the composite is a MooreMachine.

    Built on the index form: the state (f, e) is f·|first| + e, and b,
    an index into first's output symbols, is a letter index of second."""
    _require_chain(second, first)
    k, k2, n1 = len(first.input.symbols), len(second.input.symbols), first._n
    d1, o1, d2, o2 = first._d, first._o, second._d, second._o
    rows = range(0, len(d2), k2)  # f·k₂ for each state f of second
    first_mealy = isinstance(first, MealyMachine)
    emit = o1 if first_mealy else [b for b in o1 for _ in range(k)]  # b at e·k + a
    d = tuple([d2[y + b] * n1 + t for y in rows for t, b in zip(d1, emit)])
    if isinstance(second, MooreMachine):
        o = tuple([o for o in o2 for _ in range(n1)])
    else:  # out₂(f, b) with b = out₁(e, a), or out₁(e) when first is Moore
        o = tuple([o2[y + b] for y in rows for b in o1])
    kind = MealyMachine if first_mealy and isinstance(second, MealyMachine) else MooreMachine
    return kind._trusted(first.input, second.output, _d=d, _o=o, _n=second._n * n1,
                         _factors=(second, first))


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


class StateBijection(_Value):
    """A machine isomorphism: a homomorphism with a homomorphic inverse."""

    _fields = ("source", "target", "forward", "backward")

    def __init__(self, source: Machine, target: Machine, forward: StateMap, backward: StateMap):
        if (forward.source, forward.target, backward.source, backward.target) != (
                source, target, target, source):
            raise EndpointMismatch("forward must map source to target, and backward back")
        for there, back, way in ((forward, backward, "backward∘forward"),
                                 (backward, forward, "forward∘backward")):
            for i, j in enumerate(there._img):
                if back._img[j] != i:
                    raise NotAnIso("%s is not the identity at %r" % (way, there.source.states[i]))
        # The inverse of a homomorphism is one, so only forward is checked: with
        # t = forward(s), backward(δ(t, a)) = backward(forward(δ(s, a))) = δ(s, a)
        # = δ(backward(t), a), and out(t, a) = out(s, a) = out(backward(t), a).
        if not is_homomorphism(forward):
            raise NotAnIso("both directions must be homomorphisms")
        self._set(source, target, forward, backward)

    @classmethod
    def _trusted(cls, source, target, forward, backward):
        """An isomorphism the library built by a fixed re-bracketing, so
        inverse homomorphisms by construction: no check."""
        iso = object.__new__(cls)
        iso.__dict__.update(source=source, target=target, forward=forward, backward=backward)
        return iso


class NotAnIso(KindMismatch):
    """The candidate bijection fails to be a two-sided machine isomorphism."""


def associator(h: Machine, g: Machine, f: Machine) -> StateBijection:
    """The re-bracketing bijection (h⋄g)⋄f ≅ h⋄(g⋄f).

    Forward direction: ((eh,eg),ef) ↦ (eh,(eg,ef)).  ``compose_cells`` is
    associative on the index form, (eh·|g| + eg)·|f| + ef = eh·|g⋄f| +
    (eg·|f| + ef), so h⋄(g⋄f) shares the tables of (h⋄g)⋄f with states named
    by (h, g⋄f): both maps are the identity, inverse homomorphisms by definition.
    """
    left = compose_cells(compose_cells(h, g), f)
    right = type(left)._trusted(f.input, h.output, _d=left._d, _o=left._o, _n=left._n,
                                _factors=(h, compose_cells(g, f)))
    same = tuple(range(left._n))
    return StateBijection._trusted(
        left, right, StateMap._trusted(left, right, same), StateMap._trusted(right, left, same)
    )


def check_pentagon(k: Machine, h: Machine, g: Machine, f: Machine) -> bool:
    """The pentagon for the associator at k, h, g, f: the two composites
    of associator components ((k⋄h)⋄g)⋄f → k⋄(h⋄(g⋄f)) agree.

    This holds by definition once the cells chain, so only the chain is
    checked (EndpointMismatch where a link breaks).  Both paths are fixed
    re-bracketings of nested pairs, (((ek,eh),eg),ef) ↦ (ek,(eh,(eg,ef))),
    so they agree on every state whatever the tables are.  The tables
    enter only through ``associator``, whose components are the identity
    on the index form.
    """
    _require_chain(k, h)
    _require_chain(h, g)
    _require_chain(g, f)
    return True


def check_j_compatibilities(m: Machine, n: Machine) -> bool:
    """Strict table equalities relating the Moore→Mealy embedding J with
    composition, in the composite m⋄n (m downstream, n upstream):

    - m Mealy, n Moore:  J(m⋄n) = m⋄Jn
    - m Moore, n Mealy:  J(m⋄n) = Jm⋄n
    - m, n both Moore:   m⋄Jn = Jm⋄n  and  J(m⋄n) = Jm⋄Jn

    These hold by definition: ``compose_cells`` cascades the J-images of
    the factors and ``embed_j`` builds the same J-image table, so
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
