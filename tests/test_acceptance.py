"""Acceptance gate: twelve desk-scale sweeps over machine space.

Each test prints a single verdict line.  Exhaustive enumeration is used
wherever the pair count stays tractable; blocks whose full product is
out of reach are covered by the exhaustive small-state slices plus a
seeded random sample (set MEALYMOORE_FULL_SWEEP=1 to force the full
product everywhere).
"""

import itertools
import os
import random

import pytest

from mealymoore import (
    Alphabet,
    FormalId,
    MealyMachine,
    MooreMachine,
    PointedMachine,
    StateMap,
    check_adjunction_D1,
    check_counit,
    check_extension_square,
    check_hom_correspondence,
    check_j_compatibilities,
    check_moorify_functorial,
    check_pentagon,
    check_triangle,
    check_upentagon,
    compose_cells,
    decapitate,
    embed_j,
    enumerate_homs,
    identity_cell,
    is_homomorphism,
    is_n_soft,
    is_soft,
    ltimes,
    moorify,
    pinfty_carrier_check,
    rtimes,
    search_moore_identity,
    trace,
    ucompose,
    universal_p,
    universal_u,
    words_up_to,
)
from mealymoore.generate import all_mealy, all_mealy_up_to, all_moore, all_moore_up_to

from conftest import BITS, make_cpar, make_par
from oracles import (
    cascade,
    extension_square_words,
    n_soft,
    pentagon_maps,
    pinfty_carrier,
    tables,
)


FULL_SWEEP = os.environ.get("MEALYMOORE_FULL_SWEEP") == "1"
PAIR_LIMIT = 200_000


def _alphabet(size):
    return Alphabet("X%d" % size, ("0", "1", "2")[:size])


CONFIGS = [
    (_alphabet(1), _alphabet(1)),
    (_alphabet(1), _alphabet(2)),
    (_alphabet(2), _alphabet(1)),
    (_alphabet(2), _alphabet(2)),
]


@pytest.fixture(scope="session")
def mealy_sweep():
    return {(a, b): list(all_mealy_up_to(a, b, 3)) for a, b in CONFIGS}


@pytest.fixture(scope="session")
def moore_sweep():
    return {(a, b): list(all_moore_up_to(a, b, 3)) for a, b in CONFIGS}


def bounded_pairs(lefts, rights, seed, samples=3000):
    """Every (left, right) pair when the product is tractable; otherwise
    the exhaustive slices where either side is small, plus a seeded
    random sample of the rest.  Returns (iterator, exhaustive_flag)."""
    total = len(lefts) * len(rights)
    if FULL_SWEEP or total <= PAIR_LIMIT:
        return itertools.product(lefts, rights), True
    small_l = [x for x in lefts if len(x.states) <= 2]
    small_r = [x for x in rights if len(x.states) <= 2]
    tiny_l = [x for x in lefts if len(x.states) == 1]
    tiny_r = [x for x in rights if len(x.states) == 1]
    rng = random.Random(seed)
    sampled = [(rng.choice(lefts), rng.choice(rights)) for _ in range(samples)]
    return (
        itertools.chain(
            itertools.product(small_l, small_r),
            itertools.product(lefts, tiny_r),
            itertools.product(tiny_l, rights),
            sampled,
        ),
        False,
    )


def verdict(num, name, ok, detail=""):
    suffix = " (%s)" % detail if detail else ""
    line = "criterion %02d %s: %s%s" % (num, name, "PASS" if ok else "FAIL", suffix)
    print(line)
    assert ok, line


def test_criterion_01_shift_equivalence(mealy_sweep):
    checked = 0
    for (a, b), machines in mealy_sweep.items():
        for m in machines:
            buffered = moorify(m)
            for e in m.states:
                for b0 in b.symbols:
                    assert buffered.out[(b0, e)] == b0
            for (e, x), target in m.delta.items():
                for b0 in b.symbols:
                    assert buffered.delta[((b0, e), x)] == (m.out[(e, x)], target)
            checked += 1
    # Dual route: literal traces on a seeded subsample, word length ≤ 6.
    rng = random.Random(1)
    literal = 0
    for (a, b), machines in mealy_sweep.items():
        for m in rng.sample(machines, min(40, len(machines))):
            buffered = moorify(m)
            for e in m.states:
                for b0 in b.symbols:
                    for w in words_up_to(a, 6):
                        assert trace(PointedMachine(buffered, (b0, e)), w) == (
                            (b0,) + trace(PointedMachine(m, e), w)
                        )
            literal += 1
    verdict(1, "moorify-shift", True, "%d machines, %d by literal trace" % (checked, literal))


def test_criterion_02_adjunction(mealy_sweep, moore_sweep):
    checked = 0
    exhaustive = True
    for cfg in moore_sweep:
        pairs, full = bounded_pairs(moore_sweep[cfg], mealy_sweep[cfg], seed=2)
        exhaustive = exhaustive and full
        for n, m in pairs:
            report = check_adjunction_D1(n, m)
            assert report.success, report.counterexample
            checked += 1
    verdict(2, "adjunction", True, "%d pairs%s" % (checked, "" if exhaustive else ", bounded"))


def test_criterion_03_softness_suite(mealy_sweep, moore_sweep):
    for size in (2, 3):
        x = _alphabet(size)
        assert is_soft(universal_p(x))
        assert not is_soft(universal_u(x))
    decapitated = 0
    for machines in mealy_sweep.values():
        for m in machines:
            assert is_soft(decapitate(m))
            decapitated += 1
    composed = 0
    for a, b in CONFIGS:
        for c, d in CONFIGS:
            if d != a:
                continue
            soft_moores = [n for n in moore_sweep[(a, b)] if is_soft(n)]
            pairs, _ = bounded_pairs(soft_moores, mealy_sweep[(c, d)], seed=3, samples=1000)
            for n, m in pairs:
                assert is_soft(ltimes(n, m))
                composed += 1
    verdict(3, "softness-suite", True,
            "%d decapitations, %d soft compositions" % (decapitated, composed))


SOFT_LEVELS = range(1, 7)
SUCCESSOR_LEVELS = (1, 2, 3)


def test_criterion_04_n_soft_hierarchy(moore_sweep):
    # The paper calls the soft levels a filtration, i.e. n-soft implies
    # (n+1)-soft.  Under is_n_soft's definition (output invariant under
    # every word of length exactly n) that is false, so the criterion
    # checks each level against word exhaustion, asserts the hierarchy
    # the definition does have (soft => n-soft, n-soft => kn-soft), and
    # reports the refuted successor claim with its first counterexample.
    machines = [m for ms in moore_sweep.values() for m in ms]
    refuted = dict.fromkeys(SUCCESSOR_LEVELS, 0)
    oracle_refuted = dict.fromkeys(SUCCESSOR_LEVELS, 0)
    first = None
    for m in machines:
        level = {n: is_n_soft(m, n) for n in SOFT_LEVELS}
        truth = {n: n_soft(m, n) for n in SOFT_LEVELS}
        assert level == truth, (m.delta, m.out, level, truth)
        if is_soft(m):
            assert all(level.values()), (m.delta, m.out, level)
        for n in SOFT_LEVELS:
            if level[n]:
                assert all(level[k * n] for k in range(2, SOFT_LEVELS[-1] // n + 1)), (
                    m.delta, m.out, n, level)
        for n in SUCCESSOR_LEVELS:
            if level[n] and not level[n + 1]:
                refuted[n] += 1
                first = first or (m, n)
            if truth[n] and not truth[n + 1]:
                oracle_refuted[n] += 1
    assert refuted == oracle_refuted, (refuted, oracle_refuted)
    implications = len(machines) * len(SUCCESSOR_LEVELS)
    detail = "%d machines, levels %d..%d match word exhaustion; %d implications, " % (
        len(machines), SOFT_LEVELS[0], SOFT_LEVELS[-1], implications)
    detail += "the paper's n-soft => (n+1)-soft refuted by %d of them (%s)" % (
        sum(refuted.values()), ", ".join("n=%d: %d" % kv for kv in refuted.items()))
    confirmed = False
    if first:
        m, n = first
        confirmed = n_soft(m, n) and not n_soft(m, n + 1)
        detail += "; first counterexample: %d-soft but not %d-soft, delta=%r out=%r" % (
            n, n + 1, m.delta, m.out)
    verdict(4, "n-soft-hierarchy", confirmed, detail)


def _machines_with_exactly(a, b, n_states):
    yield from all_mealy(a, b, n_states)
    yield from all_moore(a, b, n_states)


def _random_machine(rng, a, b, max_states):
    from mealymoore.generate import random_mealy, random_moore

    n = rng.randint(1, max_states)
    maker = random_moore if rng.random() < 0.5 else random_mealy
    return maker(rng, a, b, n)


def test_criterion_05_coherence():
    from mealymoore import associator

    checked = 0
    # Exhaustive one-state quadruples over every chain of alphabets ≤ 2.
    for sizes in itertools.product((1, 2), repeat=5):
        chain = [_alphabet(k) for k in sizes]
        slots = [list(_machines_with_exactly(chain[i], chain[i + 1], 1)) for i in range(4)]
        for f, g, h, k in itertools.product(*slots):
            assert check_pentagon(k, h, g, f)
            assert pentagon_maps(k, h, g, f)
            checked += 1
    # Exhaustive ≤ 2-state quadruples over the one-letter chain.
    one = _alphabet(1)
    slot = list(_machines_with_exactly(one, one, 1)) + list(_machines_with_exactly(one, one, 2))
    for f, g, h, k in itertools.product(slot, repeat=4):
        assert check_pentagon(k, h, g, f)
        assert pentagon_maps(k, h, g, f)
        checked += 1
    # 1000 random composable quadruples with ≤ 3 states each.
    rng = random.Random(5)
    for _ in range(1000):
        chain = [_alphabet(rng.randint(1, 2)) for _ in range(5)]
        f = _random_machine(rng, chain[0], chain[1], 3)
        g = _random_machine(rng, chain[1], chain[2], 3)
        h = _random_machine(rng, chain[2], chain[3], 3)
        k = _random_machine(rng, chain[3], chain[4], 3)
        bij = associator(h, g, f)
        assert is_homomorphism(bij.forward) and is_homomorphism(bij.backward)
        assert check_pentagon(k, h, g, f)
        assert pentagon_maps(k, h, g, f)
        checked += 1
    verdict(5, "coherence", True,
            "%d quadruples, each also by the associator maps" % checked)


def _letter_independent(m):
    return all(
        len({m.out[(e, x)] for x in m.input.symbols}) == 1 for e in m.states
    )


def test_criterion_06_overrides_and_j(mealy_sweep, moore_sweep):
    # The J-compatibilities hold by construction of compose_cells, so every
    # composite, Mealy⋄Mealy included, is also compared with the per-kind
    # formulas of the independent oracle.
    checked = mixed = 0
    for a, b in CONFIGS:
        for c, d in CONFIGS:
            if d != a:
                continue
            inner = mealy_sweep[(c, d)] + moore_sweep[(c, d)]
            outer = mealy_sweep[(a, b)] + moore_sweep[(a, b)]
            inner = [m for m in inner if len(m.states) <= 2]
            outer = [m for m in outer if len(m.states) <= 2]
            rng = random.Random(6)
            pairs = list(itertools.product(outer, inner))
            if len(pairs) > PAIR_LIMIT and not FULL_SWEEP:
                pairs = rng.sample(pairs, PAIR_LIMIT)
            for second, first in pairs:
                composite = compose_cells(second, first)
                assert tables(composite) == cascade(second, first)
                checked += 1
                if isinstance(second, MealyMachine) and isinstance(first, MealyMachine):
                    continue
                assert isinstance(composite, MooreMachine)
                assert _letter_independent(embed_j(composite))
                assert check_j_compatibilities(second, first)
                mixed += 1
    verdict(6, "overrides-and-j", True,
            "%d pairs against the cascade oracle, %d mixed" % (checked, mixed))


def test_criterion_07_extension_square(moore_sweep):
    # check_extension_square holds by construction of apply_D1, so a
    # seeded sample is also compared with word exhaustion.
    rng = random.Random(7)
    checked = oracle_checked = 0
    for machines in moore_sweep.values():
        for m in machines:
            assert check_extension_square(m, 6)
            checked += 1
        for m in rng.sample(machines, min(len(machines), 200)):
            assert extension_square_words(m, 6)
            oracle_checked += 1
    verdict(7, "extension-square", True,
            "%d machines, %d also by word exhaustion" % (checked, oracle_checked))


def test_criterion_08_pullback_carrier():
    # The count is a per-word product by construction, so it is compared
    # with the brute-force count wherever that is tractable.
    two = _alphabet(2)
    three = _alphabet(3)
    checked = [(two, depth) for depth in (1, 2, 3)] + [(three, depth) for depth in (1, 2)]
    for x, depth in checked:
        assert pinfty_carrier_check(x, depth) == pinfty_carrier(x, depth) == len(x)
    assert pinfty_carrier_check(three, 6) == 3
    verdict(8, "pullback-carrier", True,
            "counts 2 and 3, %d by brute force, 3 letters also at depth 6" % len(checked))


def test_criterion_09_non_unitality():
    report = search_moore_identity(BITS, [make_par(), identity_cell(BITS)], 2)
    verdict(9, "non-unitality", report.survivors == (),
            "%d candidates, %d survivors" % (report.candidates_checked, len(report.survivors)))


def test_criterion_10_unitization():
    corpus = [
        FormalId(BITS),
        make_cpar(),
        universal_u(BITS),
        universal_p(BITS),
        compose_cells(universal_u(BITS), make_cpar()),
    ]
    ok = True
    for c in corpus[1:]:
        ok = ok and ucompose(FormalId(BITS), c) == c and ucompose(c, FormalId(BITS)) == c
    pairs = quads = 0
    for c2, c1 in itertools.product(corpus, repeat=2):
        ok = ok and check_triangle(c2, c1)
        pairs += 1
    machine_quads = 0
    for quad in itertools.product(corpus, repeat=4):
        ok = ok and check_upentagon(*quad)
        quads += 1
        if not any(isinstance(c, FormalId) for c in quad):
            assert pentagon_maps(*quad)
            machine_quads += 1
    verdict(10, "unitization", ok, "%d triangles, %d pentagons, %d by the associator maps"
            % (pairs, quads, machine_quads))


def test_criterion_11_counit_and_functoriality(mealy_sweep):
    counits = 0
    for machines in mealy_sweep.values():
        for m in machines:
            assert check_counit(m)
            counits += 1
    homs_checked = 0
    for machines in mealy_sweep.values():
        for m in machines:
            for phi in enumerate_homs(m, m).homs:
                assert check_moorify_functorial(phi)
                homs_checked += 1
    for cfg, machines in mealy_sweep.items():
        pairs, _ = bounded_pairs(machines, machines, seed=11, samples=2000)
        for m1, m2 in pairs:
            if m1 is m2:
                continue
            for phi in enumerate_homs(m1, m2).homs:
                assert check_moorify_functorial(phi)
                homs_checked += 1
    verdict(11, "counit-and-functoriality", True,
            "%d counits, %d homs" % (counits, homs_checked))


def test_criterion_12_correspondence_reports(mealy_sweep, moore_sweep):
    reports = 0
    for cfg in CONFIGS:
        soft_small = [n for n in moore_sweep[cfg] if len(n.states) <= 2 and is_soft(n)]
        mealys_small = [m for m in mealy_sweep[cfg] if len(m.states) <= 2]
        rng = random.Random(12)
        pairs = list(itertools.product(soft_small, mealys_small))
        if len(pairs) > 5000 and not FULL_SWEEP:
            pairs = rng.sample(pairs, 5000)
        soft_large = [n for n in moore_sweep[cfg] if is_soft(n)]
        pairs += [(rng.choice(soft_large), rng.choice(mealy_sweep[cfg])) for _ in range(100)]
        for n, m in pairs:
            first = check_hom_correspondence(n, m)
            second = check_hom_correspondence(n, m)
            # Well-formedness: complete hom-sets of genuine homomorphisms.
            for homset in (first.left, first.right):
                assert all(is_homomorphism(phi) for phi in homset.homs)
            assert len(first.left.homs) == len(enumerate_homs(embed_j(n), m).homs)
            assert len(first.right.homs) == len(enumerate_homs(n, decapitate(m)).homs)
            # Determinism: the pairing attempt reproduces exactly.
            assert first.success == second.success
            assert first.counterexample == second.counterexample
            assert [(p.map, q.map) for p, q in first.pairs] == [
                (p.map, q.map) for p, q in second.pairs
            ]
            reports += 1
    verdict(12, "correspondence-reports", True, "%d reports" % reports)
