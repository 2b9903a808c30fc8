"""Hom-set search and desk-scale law checking.

Every claim checked here is decided by complete enumeration.  A hom-set
is found by a propagating search: the dynamics are deterministic, so
fixing the image of one state forces the images of all its successors,
and a branch dies at the first clash of outputs or dynamics.  The
adjunction / coreflection transposition formulas are verified as
bijections between the resulting hom-sets in one pass over the left
homs, and the identity search reads every pair of states from one
partition refinement of a composite and its probe.  A hard guard on
the search nodes visited keeps enumerations honest: either the result
is complete or the search raises, never silently truncated.
"""

from __future__ import annotations

from .compose import ltimes
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
    _Value,
    is_homomorphism,
)
from .generate import all_moore_up_to
from .semantics import _blocks
from .universal import apply_D1, decapitate, embed_j, is_soft, moorify


class HomSet(_Value):
    """The complete, duplicate-free, lexicographically ordered set of
    homomorphisms between two machines."""

    _fields = ("source", "target", "homs")

    def __init__(self, source: Machine, target: Machine, homs: tuple[StateMap, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "homs", homs)

    def maps(self):
        return [phi.map for phi in self.homs]


def enumerate_homs(m1: Machine, m2: Machine) -> HomSet:
    """Every homomorphism m1 → m2, in lexicographic order of the
    target-state indices of the images of m1's states.

    Depth-first search on the index form: the first source state without
    an image is sent to each target state in declaration order, and each
    choice is propagated along the dynamics,
    phi(delta1(e, a)) = delta2(phi(e), a), until it clashes on an output
    or an image, or forces nothing more.  Each choice is one search node;
    more than ENUMERATION_GUARD nodes raise EnumerationTooLarge.
    """
    if type(m1) is not type(m2):
        raise KindMismatch("hom-sets relate machines of the same kind")
    if m1.input.symbols != m2.input.symbols or m1.output.symbols != m2.output.symbols:
        raise EndpointMismatch("hom-sets require common alphabets")
    k = len(m1.input.symbols)
    d1, d2, o1, o2 = m1._d, m2._d, m1._o, m2._o
    mealy = isinstance(m1, MealyMachine)
    n, width = m1._n, m2._n
    phi = [-1] * n  # the image of each source state found so far, -1 for none
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
            x *= k
            y *= k
            for a in range(k):
                if mealy and o1[x + a] != o2[y + a]:
                    return False
                x2 = d1[x + a]
                z = phi[x2]
                if z < 0:
                    phi[x2] = d2[y + a]
                    trail.append(x2)
                    todo.append(x2)
                elif z != d2[y + a]:
                    return False
        return True

    homs = []
    nodes = 0
    stack = [[0, 0, 0]]  # [source state to branch on, next choice, trail length before]
    while stack:
        frame = stack[-1]
        i, t, mark = frame
        while len(trail) > mark:
            phi[trail.pop()] = -1
        if t == width:
            stack.pop()
            continue
        frame[1] = t + 1
        nodes += 1
        if nodes > ENUMERATION_GUARD:
            raise EnumerationTooLarge("the hom-set search visited more than %d nodes"
                                      % ENUMERATION_GUARD)
        if not propagate(i, t):
            continue
        while i < n and phi[i] >= 0:
            i += 1
        if i < n:
            stack.append([i, 0, len(trail)])
        else:
            homs.append(StateMap._trusted(m1, m2, tuple(phi)))
    return HomSet(m1, m2, tuple(homs))


class BijectionReport(_Value):
    """The outcome of attempting a transposition bijection between two
    hom-sets; on failure, ``counterexample`` names the first offending
    element."""

    _fields = ("left", "right", "pairs", "success", "counterexample")

    def __init__(self, left, right, pairs, success, counterexample):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "success", success)
        object.__setattr__(self, "counterexample", counterexample)


def _transpose_report(n, left, right):
    """Attempt φ ↦ (e ↦ (out_n(e), φ(e))) as a bijection left → right,
    with the inverse projecting the second component.  The right-hand
    target is a register after left's target m, whose state (b, e) has
    index b·|m| + e and outputs b, so the transposition works on index
    images.  One pass pairs each left hom with its transpose, popped from
    the right homs.  No round trip can fail: output preservation makes
    every right hom send e to (out_n(e), ·), so it is the transpose of its
    projection.  Transposition is injective, so it is a bijection
    (and the sizes agree) exactly when no transpose is missing and no
    right hom is left over; the first left over is the first whose
    projection is not a left hom."""
    width = left.target._n
    unpaired = {psi._img: psi for psi in right.homs}  # in right-hom order
    pairs = []
    for phi in left.homs:
        psi = unpaired.pop(tuple(b * width + t for b, t in zip(n._o, phi._img)), None)
        if psi is None:
            missing = "transpose of %r is not in the right hom-set" % (dict(phi.map),)
            return BijectionReport(left, right, (), False, missing)
        pairs.append((phi, psi))
    if unpaired:
        psi = next(iter(unpaired.values()))  # the first right hom no transpose reached
        return BijectionReport(left, right, (), False,
                               "projection of %r is not in the left hom-set" % (dict(psi.map),))
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
    src = apply_D1(moorify(m))  # its state (b, e) has index b·|m| + e
    return is_homomorphism(StateMap._trusted(src, m, tuple(range(m._n)) * len(m.output.symbols)))


# (source, target, moorify(source), moorify(target)) of the last call.
# The keys are held strongly, so their ids cannot be reused while here;
# it is read and replaced whole, so a race between threads can cost a
# rebuild, never a wrong image.
_moorified = (None, None, None, None)


def check_moorify_functorial(phi: StateMap) -> bool:
    """True iff (b, e) ↦ (b, φ(e)) is a Moore homomorphism between the
    moorifications of φ's endpoints.

    Every call checks that φ is a homomorphism and checks the lifted map.
    The two moorifications are reused from the previous call when its
    endpoints were the very same objects, as they are for consecutive
    homs of one hom-set; the slot keeps at most two machines and their
    two images alive until a call with other endpoints."""
    global _moorified
    if not is_homomorphism(phi):
        raise NotAHomomorphism("moorify is only functorial on homomorphisms")
    source, target, src, tgt = _moorified
    if source is not phi.source or target is not phi.target:
        source, target = phi.source, phi.target
        src = moorify(source)
        tgt = src if target is source else moorify(target)
        _moorified = (source, target, src, tgt)
    b_count, width = len(source.output.symbols), target._n  # (b, e) is b·width + e
    lifted = tuple(b * width + t for b in range(b_count) for t in phi._img)
    return is_homomorphism(StateMap._trusted(src, tgt, lifted))


class IdentitySearchReport(_Value):
    """Outcome of the exhaustive search for a Moore identity 1-cell."""

    # failures: the (candidate index, probe index, direction) of each first failure
    _fields = ("alphabet", "max_states", "candidates_checked", "survivors", "failures",
               "probe_warning")

    def __init__(self, alphabet, max_states, candidates_checked, survivors, failures,
                 probe_warning):
        self._set(alphabet, max_states, candidates_checked, survivors, failures, probe_warning)


def _pointwise_identity(composite, probe):
    """Is every probe state e bisimilar to the state (u, e) of
    J(composite) = J(U⋄probe) for some candidate state u?  One refinement
    of J(composite) ⊔ probe answers every pair; (u, e) has index
    u·|probe| + e in the composite (see ``compose_cells``)."""
    block, shift = _blocks(embed_j(composite), probe), composite._n
    units = range(shift // probe._n)
    return all(any(block[u * probe._n + e] == block[shift + e] for u in units)
               for e in range(probe._n))


def search_moore_identity(
    a: Alphabet, probes: list[MealyMachine], max_states: int
) -> IdentitySearchReport:
    """Enumerate every Moore machine U : a↝a with ≤ max_states states
    and test whether U⋄m and m⋄U are bisimilar to m pointwise for every
    probe m.  The survivor list is expected to be empty whenever some
    probe has a letter-dependent output table.  With no probe nothing
    would be checked, so an empty probe list raises.

    Only U⋄m is built: once it passes, m⋄U passes too.  At each step
    U⋄m from (u, e) emits U's current output, and U's state is fixed by
    u and m's earlier outputs.  Where (u, e) is bisimilar to e those
    outputs are m's own, so each output of m from e is fixed by m's
    earlier outputs: m emits one stream from e, whatever the input word.
    m⋄U from (e, u) feeds m some word, so it emits that same stream for
    every u.  A candidate thus fails only in the "post-composition"
    direction."""
    if max_states < 1:
        raise MachineError("max_states must be ≥ 1")
    if not probes:
        raise MachineError("the identity search needs at least one probe")
    survivors = []
    failures = []
    checked = 0
    for idx, candidate in enumerate(all_moore_up_to(a, a, max_states)):
        checked += 1
        failed = None
        for p_idx, probe in enumerate(probes):
            if not _pointwise_identity(ltimes(candidate, probe), probe):
                failed = (idx, p_idx, "post-composition")
                break
        if failed is None:
            survivors.append(candidate)
        else:
            failures.append(failed)
    warning = None
    if survivors and not any(  # a cell whose output differs from that of its row's first cell
        o != m._o[x - x % len(m.input.symbols)] for m in probes for x, o in enumerate(m._o)
    ):
        warning = (
            "all probes have letter-independent output rows; add a probe "
            "with letter-dependent output to rule the survivors out"
        )
    return IdentitySearchReport(a, max_states, checked, tuple(survivors), tuple(failures), warning)
