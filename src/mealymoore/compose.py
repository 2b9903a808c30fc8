"""Sequential composition of machines.

The composite of ``first : A↝B`` followed by ``second : B↝C`` has
carrier the ordered pairs ``(f, e)`` with ``f`` a state of the second
machine and ``e`` a state of the first.  All four kinds of composite
are one cascade, ``compose_cells``, read through the embedding J of
Moore into Mealy machines: at each step the downstream machine consumes
the letter that J(first) emits.  Whenever one factor is Moore, the
composite output table is letter-independent and the result is returned
as a MooreMachine.  ``compose_mealy``, ``compose_moore``, ``ltimes`` and
``rtimes`` are the same cascade restricted to one pair of kinds.  A
composite is built from its factors alone, and composing builds no
table: a composite's index tables, like its state names, are built on
first read (the kernel is ``core._cascade``), after those of every
composite below it that has none yet, innermost first.

Composition is associative only up to the re-bracketing bijection
returned by ``associator``.  Both law checks here are definitional (see
``lab``): ``check_pentagon`` holds as both paths re-bracket the same
nested pairs (oracle ``pentagon_maps``), and ``check_j_compatibilities``
as the cascade reads every factor through J (oracle ``j_compatible``).
"""

from __future__ import annotations

from .core import (
    EndpointMismatch,
    KindMismatch,
    Machine,
    MealyMachine,
    MooreMachine,
    StateMap,
    _require_kind,
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

    The composite holds only its alphabets, its size and its factors,
    and no table is built here, neither the composite's nor a factor's:
    the first read of its index tables builds them (``core._cascade``),
    and first those of every composite below it that has none yet, in a
    loop over the nesting that never recurses.  Its state names are
    built on first read the same way."""
    _require_chain(second, first)
    kind = MealyMachine if first._out_by_letter and second._out_by_letter else MooreMachine
    return kind._trusted({"input": first.input, "output": second.output,
                          "_n": second._n * first._n, "_factors": (second, first)})


def _require_kinds(name, second, first, second_kind, first_kind):
    _require_kind(second, second_kind, name + " (downstream)")
    _require_kind(first, first_kind, name + " (upstream)")


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
        _Value.__init__(self, source, target, forward, backward)


class NotAnIso(KindMismatch):
    """The candidate bijection fails to be a two-sided machine isomorphism."""


def associator(h: Machine, g: Machine, f: Machine) -> StateBijection:
    """The re-bracketing bijection (h⋄g)⋄f ≅ h⋄(g⋄f).

    Forward direction: ((eh,eg),ef) ↦ (eh,(eg,ef)).  Both bracketings are
    built by ``compose_cells``, each with its own tables, built only when
    something reads them.  The cascade is associative on the index form:
    both give ((eh,eg),ef) the index (eh·|g| + eg)·|f| + ef = eh·|g⋄f| +
    (eg·|f| + ef), and the same tables.  So both maps are the identity on
    the index form, inverse homomorphisms by definition, and unchecked;
    the tests compare the two table sets, built apart, and the oracle.
    """
    left = compose_cells(compose_cells(h, g), f)
    right = compose_cells(h, compose_cells(g, f))
    same = tuple(range(left._n))
    return StateBijection._trusted({
        "source": left, "target": right,
        "forward": StateMap._trusted({"source": left, "target": right, "_img": same}),
        "backward": StateMap._trusted({"source": right, "target": left, "_img": same}),
    })


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

    These hold by definition, so only the kinds (KindMismatch unless a
    factor is Moore) and the chain (EndpointMismatch) are checked.
    Proof: ``compose_cells`` reads a Moore factor exactly as its J-image:
    upstream, through the letter it emits at each cell, and downstream,
    through an output that ignores the letter it reads.  So the two sides
    of each equality have the same transitions and per-cell outputs, and
    both are Mealy or both Moore.  Oracle: ``j_compatible``.
    """
    if {type(m), type(n)} not in ({MooreMachine}, {MealyMachine, MooreMachine}):
        raise KindMismatch("no J-compatibility applies to two Mealy machines")
    _require_chain(m, n)
    return True
