"""Hom-set search and desk-scale law checking.

A hom-set is found by a propagating search: the dynamics are
deterministic, so fixing the image of one state forces the images of
all its successors, and a branch dies at the first clash of outputs or
dynamics.  The transposition of D₁ ⊣ moorify, and the same formula for
the decapitation correspondence, are checked as bijections between the
resulting hom-sets: each check proves that every transpose is a right
hom, and transposition keeps hom order, so the two hom lists are paired
by position when their sizes agree.  The identity search asks the
union-find check of ``bisimilar`` about each pair of states it needs.
A hard guard on the search nodes visited keeps enumerations honest:
either the result is complete or the search raises, never silently
truncated.

The definitional checks return True once their inputs pass, since the
law holds on every such input.  Each docstring carries the proof, and
a test compares each with an oracle in ``tests/oracles.py``: here
``check_counit`` (``counit_holds``) and ``check_moorify_functorial``
(``lifted_by_tables``), then ``compose.check_pentagon`` and
``unitize.check_upentagon`` (``pentagon_maps``),
``compose.check_j_compatibilities`` (``j_compatible``),
``semantics.check_extension_square`` (``extension_square_words``),
``universal.pinfty_carrier_check`` (``pinfty_carrier``) and
``unitize.check_triangle`` (``triangle_holds``).
"""

from __future__ import annotations

from .compose import compose_cells
from .core import (
    ENUMERATION_GUARD,
    Alphabet,
    EnumerationTooLarge,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    NotAHomomorphism,
    NotSoft,
    StateMap,
    _require_kind,
    _require_parallel,
    _Value,
    is_homomorphism,
)
from .generate import all_moore_up_to
from .semantics import _related
from .universal import apply_D1, decapitate, embed_j, is_soft, moorify


class HomSet(_Value):
    """The complete, duplicate-free, lexicographically ordered set of
    homomorphisms between two machines."""

    _fields = ("source", "target", "homs")

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
    _require_parallel(m1, m2, "enumerate_homs")
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
            homs.append(StateMap._trusted({"source": m1, "target": m2, "_img": tuple(phi)}))
    return HomSet._trusted({"source": m1, "target": m2, "homs": tuple(homs)})


class BijectionReport(_Value):
    """The outcome of attempting a transposition bijection between two
    hom-sets; on failure, ``counterexample`` names the first offending
    element."""

    _fields = ("left", "right", "pairs", "success", "counterexample")


def _transpose_report(left, right):
    """Pair the left homs, into some m, with the right homs, from some n,
    by position, as the transposition φ ↦ (e ↦ (out_n(e), φ(e))).

    The right-hand target is a register after m, whose state (b, t) has
    index b·|m| + t and outputs b.  Output preservation makes every right
    hom send e to (out_n(e), t) for some t, so it is the transpose of its
    projection, the index image mod |m|.  Hence the transposition is
    injective, and it keeps the lexicographic hom order: where φ and φ′
    first differ, at e, their transposes first differ too, at
    out_n(e)·|m| + φ(e) and out_n(e)·|m| + φ′(e).  Each caller proves
    that every transpose is a right hom, so the transposition is a
    bijection exactly when the sizes agree, and then it sends the i-th
    left hom to the i-th right hom.  Otherwise the first right hom that
    is no transpose, the first whose projection is not a left hom, is
    the counterexample."""
    if len(left.homs) == len(right.homs):
        return BijectionReport._trusted({"left": left, "right": right,
                                         "pairs": tuple(zip(left.homs, right.homs)),
                                         "success": True, "counterexample": None})
    width, images = left.target._n, {phi._img for phi in left.homs}
    psi = next(psi for psi in right.homs if tuple(t % width for t in psi._img) not in images)
    return BijectionReport(left, right, (), False,
                           "projection of %r is not in the left hom-set" % (dict(psi.map),))


def check_adjunction_D1(n: MooreMachine, m: MealyMachine) -> BijectionReport:
    """Verify, by complete enumeration, the natural bijection between
    Mealy homs apply_D1(n) → m and Moore homs n → moorify(m).

    Every transpose is a right hom: in moorify(m) = 𝔲⋄m the state (b, t)
    emits b and steps under a to (out(t, a), δ(t, a)).  For a hom
    φ : D₁n → m, (out_n(e), φ(e)) emits out_n(e) and steps to
    (out(φ(e), a), δ(φ(e), a)) = (out_n(δ(e, a)), φ(δ(e, a))), the
    transpose at δ(e, a).  Read backwards, the same equation makes the
    projection φ of every right hom a left hom, so the sizes always
    agree."""
    left = enumerate_homs(apply_D1(n), m)
    right = enumerate_homs(n, moorify(m))
    return _transpose_report(left, right)


def check_hom_correspondence(n: MooreMachine, m: MealyMachine) -> BijectionReport:
    """Measure the analogous correspondence between Mealy homs
    embed_j(n) → m and Moore homs n → decapitate(m), for soft n.

    The outcome is decided: in decapitate(m) = 𝔭⋄m the state (b, t)
    emits b and steps under a to (b, δ(t, a)), and m's outputs are never
    read.  For a hom φ : Jn → m, (out_n(e), φ(e)) steps to
    (out_n(e), δ(φ(e), a)) = (out_n(δ(e, a)), φ(δ(e, a))) by softness, so
    every transpose is a right hom.  The right homs are the lifts of the
    δ-maps φ : n → m, those with φ(δ(e, a)) = δ(φ(e), a); the left homs
    are the δ-maps that also have out(φ(e), a) = out_n(e).  So the
    transposition is their inclusion, never missing a transpose, and it
    is a bijection exactly when every δ-map n → m also preserves the
    outputs that way.
    """
    if not is_soft(n):
        raise NotSoft("the correspondence is only measured for soft machines")
    left = enumerate_homs(embed_j(n), m)
    right = enumerate_homs(n, decapitate(m))
    return _transpose_report(left, right)


def check_counit(m: MealyMachine) -> bool:
    """Is projecting the buffered output component, (b, e) ↦ e, a Mealy
    homomorphism apply_D1(moorify(m)) → m?  Always, so only the kind is
    checked (KindMismatch on a Moore machine).

    Proof: in moorify(m) = 𝔲⋄m the state (b, e) steps under a to
    (out(e, a), δ(e, a)), and D₁ emits there the output of that state,
    out(e, a).  The projection sends the successor to δ(e, a), and m
    emits out(e, a) at (e, a).  Oracle: ``counit_holds``."""
    _require_kind(m, MealyMachine, "check_counit")
    return True


def check_moorify_functorial(phi: StateMap) -> bool:
    """Is (b, e) ↦ (b, φ(e)) a Moore homomorphism between the
    moorifications of φ's endpoints?  Always, for a homomorphism φ, so
    only the kind (KindMismatch on a map between Moore machines) and φ
    (NotAHomomorphism) are checked.

    Proof: both states emit b, and (b, e) steps under a to
    (out(e, a), δ(e, a)), so the lift commutes with δ exactly when
    out(e, a) = out(φ(e), a) and φ(δ(e, a)) = δ(φ(e), a), that is, when φ
    is a homomorphism.  Oracle: ``lifted_by_tables``."""
    _require_kind(phi.source, MealyMachine, "check_moorify_functorial")
    if not is_homomorphism(phi):
        raise NotAHomomorphism("moorify is only functorial on homomorphisms")
    return True


class IdentitySearchReport(_Value):
    """Outcome of the exhaustive search for a Moore identity 1-cell."""

    # failures: the (candidate index, probe index, direction) of each first failure
    _fields = ("alphabet", "max_states", "candidates_checked", "survivors", "failures",
               "probe_warning")


def _pointwise_identity(candidate, probe):
    """Is every probe state e bisimilar to the state (u, e) of
    J(candidate)⋄probe for some candidate state u?  That composite is
    J(candidate⋄probe) on the index form, by J(m⋄n) = Jm⋄n for Moore m
    and Mealy n (``compose.check_j_compatibilities``), so it is built as
    a Mealy machine at once.  (u, e) has index u·|probe| + e in it (see
    ``compose_cells``); each pair is one run of the union-find check,
    O(N·|A|) for N states in all, and the search stops at the first e
    with no such u."""
    composite, width = compose_cells(embed_j(candidate), probe), probe._n
    units = range(candidate._n)
    return all(any(_related(composite, u * width + e, probe, e) for u in units)
               for e in range(width))


def search_moore_identity(
    a: Alphabet, probes: list[MealyMachine], max_states: int
) -> IdentitySearchReport:
    """Enumerate every Moore machine U : a↝a with ≤ max_states states
    and test whether U⋄m and m⋄U are bisimilar to m pointwise for every
    probe m.  The survivor list is expected to be empty whenever some
    probe has a letter-dependent output table.  With no probe nothing
    would be checked, so an empty probe list raises; a Moore probe raises
    KindMismatch before the first candidate is built.  The probes are
    kind-checked once, and every candidate is Moore by construction.

    Only J(U⋄m), built as J(U)⋄m, is checked: once it passes, m⋄U
    passes too.  At each step U⋄m from (u, e) emits U's current output,
    and U's state is fixed by u and m's earlier outputs.  Where (u, e) is
    bisimilar to e those outputs are m's own, so each output of m from e
    is fixed by m's earlier outputs: m emits one stream from e, whatever
    the input word.  m⋄U from (e, u) feeds m some word, so it emits that
    same stream for every u.  A candidate thus fails only in the
    "post-composition" direction."""
    if max_states < 1:
        raise MachineError("max_states must be ≥ 1")
    if not probes:
        raise MachineError("the identity search needs at least one probe")
    for probe in probes:
        _require_kind(probe, MealyMachine, "search_moore_identity probe")
    survivors = []
    failures = []
    for idx, candidate in enumerate(all_moore_up_to(a, a, max_states)):
        failed = None
        for p_idx, probe in enumerate(probes):
            if not _pointwise_identity(candidate, probe):
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
    return IdentitySearchReport(a, max_states, len(survivors) + len(failures), tuple(survivors),
                                tuple(failures), warning)
