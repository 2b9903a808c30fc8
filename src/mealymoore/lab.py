"""Hom-set search and desk-scale law checking.

Every claim checked here is decided by complete enumeration.  A hom-set
is found by a propagating search: the dynamics are deterministic, so
fixing the image of one state forces the images of all its successors,
and a branch dies at the first clash of outputs or dynamics.  The
adjunction / coreflection transposition formulas are verified as
literal bijections between the resulting hom-sets.  A hard guard on the
search nodes visited keeps enumerations honest: either the result is
complete or the search raises, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .compose import ltimes, rtimes
from .core import (
    ENUMERATION_GUARD,
    Alphabet,
    EndpointMismatch,
    EnumerationTooLarge,
    KindMismatch,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    NotAHomomorphism,
    NotSoft,
    StateMap,
    is_homomorphism,
)
from .generate import all_moore_up_to
from .semantics import PointedMachine, bisimilar
from .universal import apply_D1, decapitate, embed_j, is_soft, moorify


@dataclass(frozen=True)
class HomSet:
    """The complete, duplicate-free, lexicographically ordered set of
    homomorphisms between two machines."""

    source: Machine
    target: Machine
    homs: tuple[StateMap, ...]

    __hash__ = None

    def maps(self):
        return [phi.map for phi in self.homs]


def enumerate_homs(m1: Machine, m2: Machine) -> HomSet:
    """Every homomorphism m1 → m2, in lexicographic order of the
    target-state indices of the images of m1's states.

    Depth-first search: the first source state without an image is sent
    to each target state in declaration order, and each choice is
    propagated along the dynamics, phi(delta1(e, a)) = delta2(phi(e), a),
    until it clashes on an output or an image, or forces nothing more.
    Each choice is one search node; more than ENUMERATION_GUARD nodes
    raise EnumerationTooLarge.
    """
    if type(m1) is not type(m2):
        raise KindMismatch("hom-sets relate machines of the same kind")
    if m1.input.symbols != m2.input.symbols or m1.output.symbols != m2.output.symbols:
        raise EndpointMismatch("hom-sets require common alphabets")
    letters = m1.input.symbols
    sources, targets = m1.states, m2.states
    d1, d2, o1, o2 = m1.delta, m2.delta, m1.out, m2.out
    mealy = isinstance(m1, MealyMachine)
    phi = {}  # the image of each source state found so far
    trail = []  # source states in the order they got their image

    def propagate(e, t):
        phi[e] = t
        trail.append(e)
        todo = [e]
        while todo:
            x = todo.pop()
            y = phi[x]
            if not mealy and o1[x] != o2[y]:
                return False
            for a in letters:
                if mealy and o1[(x, a)] != o2[(y, a)]:
                    return False
                x2, y2 = d1[(x, a)], d2[(y, a)]
                if x2 not in phi:
                    phi[x2] = y2
                    trail.append(x2)
                    todo.append(x2)
                elif phi[x2] != y2:
                    return False
        return True

    homs = []
    nodes = 0
    n, width = len(sources), len(targets)
    stack = [[0, 0, 0]]  # [source state to branch on, next choice, trail length before]
    while stack:
        frame = stack[-1]
        i, k, mark = frame
        while len(trail) > mark:
            del phi[trail.pop()]
        if k == width:
            stack.pop()
            continue
        frame[1] = k + 1
        nodes += 1
        if nodes > ENUMERATION_GUARD:
            raise EnumerationTooLarge("the hom-set search visited more than %d nodes"
                                      % ENUMERATION_GUARD)
        if not propagate(sources[i], targets[k]):
            continue
        while i < n and sources[i] in phi:
            i += 1
        if i < n:
            stack.append([i, 0, len(trail)])
        else:
            homs.append(StateMap._trusted(m1, m2, {e: phi[e] for e in sources}))
    return HomSet(m1, m2, tuple(homs))


@dataclass(frozen=True)
class BijectionReport:
    """The outcome of attempting a transposition bijection between two
    hom-sets; on failure, ``counterexample`` names the first offending
    element."""

    left: HomSet
    right: HomSet
    pairs: tuple[tuple[StateMap, StateMap], ...]
    success: bool
    counterexample: Optional[str]

    __hash__ = None


def _transpose_report(n, left, right):
    """Attempt φ ↦ (e ↦ (out_n(e), φ(e))) as a bijection left → right,
    with the inverse projecting the second component."""
    right_maps = right.maps()
    left_maps = left.maps()
    pairs = []
    for phi in left.homs:
        transposed = {e: (n.out[e], phi.map[e]) for e in n.states}
        if transposed not in right_maps:
            return BijectionReport(
                left, right, (), False,
                "transpose of %r is not in the right hom-set" % (phi.map,),
            )
        pairs.append((phi, right.homs[right_maps.index(transposed)]))
    for psi in right.homs:
        projected = {e: psi.map[e][1] for e in n.states}
        if projected not in left_maps:
            return BijectionReport(
                left, right, (), False,
                "projection of %r is not in the left hom-set" % (psi.map,),
            )
        back = {e: (n.out[e], projected[e]) for e in n.states}
        if back != psi.map:
            return BijectionReport(
                left, right, (), False,
                "round trip fails at %r" % (psi.map,),
            )
    if len(left.homs) != len(right.homs):
        return BijectionReport(left, right, (), False, "hom-set sizes differ")
    return BijectionReport(left, right, tuple(pairs), True, None)


def check_adjunction_D1(n: MooreMachine, m: MealyMachine) -> BijectionReport:
    """Verify, by complete enumeration, the natural bijection between
    Mealy homs apply_D1(n) → m and Moore homs n → moorify(m)."""
    left = enumerate_homs(apply_D1(n), m)
    right = enumerate_homs(n, moorify(m))
    return _transpose_report(n, left, right)


def check_hom_correspondence(n: MooreMachine, m: MealyMachine) -> BijectionReport:
    """Measure the analogous correspondence between Mealy homs
    embed_j(n) → m and Moore homs n → decapitate(m), for soft n.

    This is a measurement, not an assumed law: the report records
    whether the same transposition formula works here.
    """
    if not is_soft(n):
        raise NotSoft("the correspondence is only measured for soft machines")
    left = enumerate_homs(embed_j(n), m)
    right = enumerate_homs(n, decapitate(m))
    return _transpose_report(n, left, right)


def check_counit(m: MealyMachine) -> bool:
    """True iff projecting the buffered output component,
    (b, e) ↦ e, is a Mealy homomorphism apply_D1(moorify(m)) → m."""
    src = apply_D1(moorify(m))
    proj = StateMap._trusted(src, m, {s: s[1] for s in src.states})
    return is_homomorphism(proj)


def check_moorify_functorial(phi: StateMap) -> bool:
    """True iff (b, e) ↦ (b, φ(e)) is a Moore homomorphism between the
    moorifications of φ's endpoints."""
    if not is_homomorphism(phi):
        raise NotAHomomorphism("moorify is only functorial on homomorphisms")
    src = moorify(phi.source)
    tgt = moorify(phi.target)
    lifted = StateMap._trusted(src, tgt, {(b, e): (b, phi.map[e]) for b, e in src.states})
    return is_homomorphism(lifted)


@dataclass(frozen=True)
class IdentitySearchReport:
    """Outcome of the exhaustive search for a Moore identity 1-cell."""

    alphabet: Alphabet
    max_states: int
    candidates_checked: int
    survivors: tuple[MooreMachine, ...]
    # (candidate index, probe index, direction) of each first failure
    failures: tuple[tuple[int, int, str], ...]
    probe_warning: Optional[str]

    __hash__ = None


def _pointwise_identity(candidate, probe, composite, side):
    """Does the composite behave like the probe from every probe state,
    for some choice of candidate start state?"""
    j_composite = embed_j(composite)
    for e0 in probe.states:
        found = False
        for u0 in candidate.states:
            start = (u0, e0) if side == "left" else (e0, u0)
            if bisimilar(
                PointedMachine(j_composite, start), PointedMachine(probe, e0)
            ):
                found = True
                break
        if not found:
            return False
    return True


def search_moore_identity(
    a: Alphabet, probes: list[MealyMachine], max_states: int
) -> IdentitySearchReport:
    """Enumerate every Moore machine U : a↝a with ≤ max_states states
    and test whether U⋄m and m⋄U are bisimilar to m pointwise for every
    probe m.  The survivor list is expected to be empty whenever some
    probe has a letter-dependent output table."""
    if max_states < 1:
        raise MachineError("max_states must be ≥ 1")
    survivors = []
    failures = []
    checked = 0
    for idx, candidate in enumerate(all_moore_up_to(a, a, max_states)):
        checked += 1
        failed = None
        for p_idx, probe in enumerate(probes):
            if not _pointwise_identity(candidate, probe, ltimes(candidate, probe), "left"):
                failed = (idx, p_idx, "post-composition")
                break
            if not _pointwise_identity(candidate, probe, rtimes(probe, candidate), "right"):
                failed = (idx, p_idx, "pre-composition")
                break
        if failed is None:
            survivors.append(candidate)
        else:
            failures.append(failed)
    warning = None
    if survivors and not any(
        len({m.out[(e, x)] for x in m.input.symbols}) > 1
        for m in probes
        for e in m.states
    ):
        warning = (
            "all probes have letter-independent output rows; add a probe "
            "with letter-dependent output to rule the survivors out"
        )
    return IdentitySearchReport(
        a, max_states, checked, tuple(survivors), tuple(failures), warning
    )
