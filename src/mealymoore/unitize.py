"""Free unitization of the Moore composition structure.

The Moore machines compose associatively but admit no identity 1-cell;
here a formal identity ``FormalId(at)`` is freely adjoined at every
alphabet.  A ``UCell`` is either such a formal identity or an ordinary
Moore machine, composition collapses formal identities strictly, and
there are no 2-cells between a formal identity and a machine.
"""

from __future__ import annotations

from typing import Optional, Union

from .compose import compose_moore
from .core import (
    Alphabet,
    EndpointMismatch,
    KindMismatch,
    MooreMachine,
    StateMap,
    _Value,
)


class FormalId(_Value):
    """The formal identity cell at an alphabet; it carries no states."""

    _fields = ("at",)

    def __init__(self, at: Alphabet):
        object.__setattr__(self, "at", at)

    def __hash__(self):
        return hash((self.at,))


UCell = Union[FormalId, MooreMachine]


def _endpoints(c: UCell):
    if isinstance(c, FormalId):
        return c.at.symbols, c.at.symbols
    if not isinstance(c, MooreMachine):
        raise KindMismatch("a unitized cell is a formal identity or a Moore machine")
    return c.input.symbols, c.output.symbols


def _require_uchain(*cells: UCell):
    """Each cell must read what the cell after it emits; cells are listed
    outermost first, as in ``ucompose``."""
    for second, first in zip(cells, cells[1:]):
        if _endpoints(first)[1] != _endpoints(second)[0]:
            raise EndpointMismatch("cells are not composable")


def ucompose(c2: UCell, c1: UCell) -> UCell:
    """Sequential composition in the unitized structure; formal
    identities are strict two-sided units."""
    _require_uchain(c2, c1)
    if isinstance(c2, FormalId):
        return c1 if isinstance(c1, MooreMachine) else c2
    if isinstance(c1, FormalId):
        return c2
    return compose_moore(c2, c1)


class UMap(_Value):
    """A 2-cell of the unitized structure: a StateMap between two
    machine cells, or the unique identity on a formal identity cell.
    No 2-cell relates a formal identity to a machine."""

    _fields = ("source", "target", "statemap")

    def __init__(self, source: UCell, target: UCell, statemap: Optional[StateMap]):
        formal_src = isinstance(source, FormalId)
        if formal_src != isinstance(target, FormalId):
            raise KindMismatch("no 2-cell exists between a formal identity and a machine")
        if formal_src:
            if source != target:
                raise EndpointMismatch("formal identities only carry their own identity 2-cell")
            if statemap is not None:
                raise KindMismatch("the 2-cell on a formal identity carries no state map")
        else:
            if statemap is None:
                raise KindMismatch("a 2-cell between machines needs a state map")
            if statemap.source != source or statemap.target != target:
                raise EndpointMismatch("state map endpoints disagree with the cells")
        self._set(source, target, statemap)

    @property
    def is_formal(self):
        return self.statemap is None


def formal_identity_map(at: Alphabet) -> UMap:
    return UMap(FormalId(at), FormalId(at), None)


def ucompose2(psi: UMap, phi: UMap) -> UMap:
    """Horizontal composition of 2-cells; identity tokens on formal
    identities act as strict units."""
    source = ucompose(psi.source, phi.source)
    target = ucompose(psi.target, phi.target)
    if psi.is_formal and phi.is_formal:
        return UMap(source, target, None)
    if phi.is_formal:
        return UMap(source, target, psi.statemap)
    if psi.is_formal:
        return UMap(source, target, phi.statemap)
    width = phi.target._n  # the target state (f, e) has index f·width + e
    img = tuple(f * width + e for f in psi.statemap._img for e in phi.statemap._img)
    return UMap(source, target, StateMap._trusted(source, target, img))


def check_triangle(c2: UCell, c1: UCell) -> bool:
    """The triangle X⋄(⊥⋄Y) → (X⋄⊥)⋄Y → X⋄Y, with ⊥ the formal identity
    between Y and X.

    With strict units both legs are identities on the carrier of X⋄Y, so
    the law comes down to the strict unit equations ⊥⋄Y = Y and X⋄⊥ = X,
    which are checked once the endpoints chain (EndpointMismatch where
    they do not).
    """
    _require_uchain(c2, c1)
    gap = FormalId(Alphabet("mid", _endpoints(c1)[1]))
    return ucompose(gap, c1) == c1 and ucompose(c2, gap) == c2


def check_upentagon(k: UCell, h: UCell, g: UCell, f: UCell) -> bool:
    """The pentagon for four unitized cells.

    This holds by definition once the cells chain, so only the chain
    f → g → h → k is checked (EndpointMismatch where a link breaks).  An
    associator component with a formal identity among its arguments is
    the identity, and one on three machines is the fixed re-bracketing of
    ``associator``; either way both paths re-bracket the same nested
    pairs, whatever the tables are.
    """
    _require_uchain(k, h, g, f)
    return True
