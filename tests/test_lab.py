import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mealymoore import (
    Alphabet,
    EndpointMismatch,
    EnumerationTooLarge,
    KindMismatch,
    MachineError,
    MealyMachine,
    MooreMachine,
    NotAHomomorphism,
    NotSoft,
    StateMap,
    apply_D1,
    check_adjunction_D1,
    check_counit,
    check_extension_square,
    check_hom_correspondence,
    check_moorify_functorial,
    decapitate,
    embed_j,
    enumerate_homs,
    identity_cell,
    identity_map,
    is_homomorphism,
    is_n_soft,
    is_soft,
    moorify,
    search_moore_identity,
    softness_level,
)
from mealymoore import lab
from mealymoore.generate import all_mealy_up_to, all_moore_up_to, random_mealy, random_moore

from oracles import (
    counit_holds,
    delta_maps,
    homs,
    letter_independent,
    lifted_by_tables,
    pointwise_identity,
    table_hom,
    transposition,
)
from test_properties import alphabets, mealys, moores


def one_state_moore(bits, letter="0"):
    return MooreMachine(
        bits, bits, ("s",), {("s", "0"): "s", ("s", "1"): "s"}, {"s": letter}
    )


class TestEnumerateHoms:
    def test_par_self_homs(self, par):
        homset = enumerate_homs(par, par)
        assert [phi.map for phi in homset.homs] == [{"q0": "q0", "q1": "q1"}]

    def test_u2_self_homs(self, u2):
        homset = enumerate_homs(u2, u2)
        assert [phi.map for phi in homset.homs] == [{"0": "0", "1": "1"}]

    def test_one_state_pair(self, bits):
        homset = enumerate_homs(one_state_moore(bits), one_state_moore(bits))
        assert len(homset.homs) == 1

    def test_contains_identity(self, par, cpar, u2):
        for m in (par, cpar, u2):
            homset = enumerate_homs(m, m)
            assert {e: e for e in m.states} in [phi.map for phi in homset.homs]

    def test_agrees_with_pairwise_table_check(self, bits):
        rng = random.Random(2)
        for _ in range(20):
            m1 = random_mealy(rng, bits, bits, 2)
            m2 = random_mealy(rng, bits, bits, 2)
            found = {tuple(sorted(phi.map.items())) for phi in enumerate_homs(m1, m2).homs}
            expected = set()
            for images in itertools.product(m2.states, repeat=len(m1.states)):
                mapping = dict(zip(m1.states, images))
                if table_hom(m1, m2, mapping):
                    expected.add(tuple(sorted(mapping.items())))
            assert found == expected

    def test_lexicographic_order(self, bits):
        # Self-loop dynamics plus constant output: every map is a hom,
        # so the full candidate order shows through.
        m = MealyMachine(
            bits, bits, ("a", "b"),
            {(e, x): e for e in ("a", "b") for x in ("0", "1")},
            {(e, x): "0" for e in ("a", "b") for x in ("0", "1")},
        )
        maps = [tuple(phi.map[e] for e in m.states) for phi in enumerate_homs(m, m).homs]
        assert maps == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]

    def test_endpoint_guard(self, par):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            enumerate_homs(par, identity_cell(three))

    @pytest.mark.parametrize("n_in,n_out", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_brute_force_on_all_small_pairs(self, n_in, n_out):
        # Every same-kind pair with at most two states: the same maps in
        # the same order as trying all |m2|^|m1| maps.
        inp = Alphabet("in", ("0", "1")[:n_in])
        outp = Alphabet("out", ("x", "y")[:n_out])
        for machines in (list(all_mealy_up_to(inp, outp, 2)), list(all_moore_up_to(inp, outp, 2))):
            for m1 in machines:
                for m2 in machines:
                    assert enumerate_homs(m1, m2).maps() == homs(m1, m2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_pairs(self, data):
        inp, outp = data.draw(alphabets(2)), data.draw(alphabets(2))
        kind = data.draw(st.sampled_from((mealys, moores)))
        m1 = data.draw(kind(inp=inp, outp=outp, max_states=4))
        m2 = data.draw(kind(inp=inp, outp=outp, max_states=4))
        assert enumerate_homs(m1, m2).maps() == homs(m1, m2)


def self_loops(n):
    """n states over one letter, each a fixed point with the same output:
    every state map between two such machines is a homomorphism."""
    one = Alphabet("one", ("a",))
    states = tuple("s%d" % i for i in range(n))
    return MooreMachine(one, one, states, {(e, "a"): e for e in states}, {e: "a" for e in states})


class TestEnumerationGuard:
    def test_unconstrained_pair_raises_past_the_guard(self, monkeypatch):
        # 3 states into 3: 3 + 9 + 27 = 39 search nodes and 27 homs.
        m = self_loops(3)
        monkeypatch.setattr(lab, "ENUMERATION_GUARD", 39)
        assert len(enumerate_homs(m, m).homs) == 27
        monkeypatch.setattr(lab, "ENUMERATION_GUARD", 38)
        with pytest.raises(EnumerationTooLarge):
            enumerate_homs(m, m)

    def test_larger_unconstrained_pair_never_truncates(self, monkeypatch):
        monkeypatch.setattr(lab, "ENUMERATION_GUARD", 50)
        with pytest.raises(EnumerationTooLarge):
            enumerate_homs(self_loops(4), self_loops(4))

    @pytest.mark.parametrize("up_to", [all_moore_up_to, all_mealy_up_to])
    def test_machine_enumeration_refuses_a_huge_bound(self, bits, up_to):
        # Counting every size up to 800 would give a number of thousands
        # of digits; the count stops at the first size past the guard.
        with pytest.raises(EnumerationTooLarge, match="more than %d machines"
                           % lab.ENUMERATION_GUARD):
            next(up_to(bits, bits, 800))

    def test_twelve_state_chain(self):
        # 12^12 candidate maps, far past the guard, but only 12 search
        # nodes: the image of s0 forces every other image.
        one = Alphabet("one", ("a",))
        states = tuple("s%d" % i for i in range(12))
        chain = MooreMachine(one, one, states,
                             {(e, "a"): states[min(i + 1, 11)] for i, e in enumerate(states)},
                             {e: "a" for e in states})
        assert 12 ** 12 > lab.ENUMERATION_GUARD
        found = enumerate_homs(chain, chain).maps()
        assert found == [{e: states[min(i + j, 11)] for i, e in enumerate(states)}
                         for j in range(12)]
        assert all(table_hom(chain, chain, mapping) for mapping in found)


class TestAdjunction:
    def test_cpar_par(self, cpar, par):
        report = check_adjunction_D1(cpar, par)
        assert report.success
        assert len(report.left.homs) == len(report.right.homs) == 1

    def test_constant_moore_vs_par(self, bits, par):
        report = check_adjunction_D1(one_state_moore(bits), par)
        assert report.success

    def test_singleton_alphabets(self):
        one = Alphabet("one", ("a",))
        n = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        m = MealyMachine(one, one, ("t",), {("t", "a"): "t"}, {("t", "a"): "a"})
        report = check_adjunction_D1(n, m)
        assert report.success
        assert len(report.left.homs) == 1

    def test_sweep_two_states(self, bits):
        for n in all_moore_up_to(bits, bits, 2):
            for m in all_mealy_up_to(bits, bits, 1):
                assert check_adjunction_D1(n, m).success


class TestCorrespondence:
    def test_requires_soft(self, u2, par):
        with pytest.raises(NotSoft):
            check_hom_correspondence(u2, par)

    def test_one_state_soft_vs_par(self, bits, par):
        # par flips its state on 1, so no map from one state is a δ-map:
        # both hom-sets are empty, and the empty bijection succeeds.
        report = check_hom_correspondence(one_state_moore(bits), par)
        assert report.success and report.counterexample is None
        assert (len(report.left.homs), len(report.right.homs), report.pairs) == (0, 0, ())

    def test_decapitated_par_vs_par(self, par):
        # Every δ-map lifts to a right hom, but none preserves par's
        # outputs, so there is no left hom.
        n = decapitate(par)
        report = check_hom_correspondence(n, par)
        assert not report.success and report.pairs == ()
        assert len(report.left.homs) == 0
        assert len(report.right.homs) == len(delta_maps(n, par)) == 4
        identity = {e: e for e in n.states}  # the first right hom
        assert report.counterexample == "projection of %r is not in the left hom-set" % (identity,)

    def test_deterministic(self, bits, par):
        r1 = check_hom_correspondence(one_state_moore(bits), par)
        r2 = check_hom_correspondence(one_state_moore(bits), par)
        assert r1.success == r2.success
        assert [p.map for p, _ in r1.pairs] == [p.map for p, _ in r2.pairs]


class TestTransposition:
    def test_matches_literal_checks_on_named_maps(self):
        # The adjunction, and the correspondence wherever it applies, on
        # seeded pairs of at most three states: both hom lists equal the
        # brute-force ones, as the pairing by position needs, and the
        # verdict, the first counterexample and the pairing equal those
        # of the literal three checks.
        rng = random.Random(17)
        checked = failed = failed_correspondences = 0
        for trial in range(2000):
            inp = Alphabet("in", ("0", "1")[: 1 + trial % 2])
            outp = Alphabet("out", ("x", "y", "z")[: 1 + trial % 3])
            n = random_moore(rng, inp, outp, rng.randint(1, 3))
            m = random_mealy(rng, inp, outp, rng.randint(1, 3))
            cases = [(check_adjunction_D1, apply_D1(n), moorify(m))]
            if is_soft(n):
                cases.append((check_hom_correspondence, embed_j(n), decapitate(m)))
            for check, source, register in cases:
                report = check(n, m)
                left_maps, right_maps = homs(source, m), homs(n, register)
                assert report.left.maps() == left_maps and report.right.maps() == right_maps
                success, counterexample, pairs = transposition(n, left_maps, right_maps)
                assert (report.success, report.counterexample) == (success, counterexample)
                assert [(dict(phi.map), dict(psi.map)) for phi, psi in report.pairs] == pairs
                checked += 1
                failed += not success
                failed_correspondences += not success and check is check_hom_correspondence
        assert checked > 2000 and 0 < failed_correspondences == failed  # the adjunction holds


class TestCounit:
    def test_par(self, par):
        assert check_counit(par)

    def test_identity_cell(self, bits):
        assert check_counit(identity_cell(bits))

    def test_one_state_singleton(self):
        one = Alphabet("one", ("a",))
        m = MealyMachine(one, one, ("t",), {("t", "a"): "t"}, {("t", "a"): "a"})
        assert check_counit(m)

    def test_matches_the_table_oracle_on_every_small_machine(self, bits):
        # check_counit holds by definition, so it is compared with the
        # projection checked on D₁(𝔲⋄m) built from the named tables.
        machines = list(all_mealy_up_to(bits, bits, 2))
        assert len(machines) == 4 + 256
        for m in machines:
            assert check_counit(m) == counit_holds(m)

    def test_oracle_refuses_a_wrong_projection(self, par):
        # par's two states differ at once (out(q0, 1) = 1 ≠ out(q1, 1)), so
        # sending (b, e) to the state other than e is no homomorphism.
        other = {"q0": "q1", "q1": "q0"}
        assert counit_holds(par)
        assert not counit_holds(par, lambda state: other[state[1]])


def echo(bits, *rows):
    """A Mealy machine over bits that echoes each letter; state i goes
    to rows[i][0] on "0" and to rows[i][1] on "1"."""
    states = tuple("s%d" % i for i in range(len(rows)))
    delta = {(e, a): states[row[j]] for e, row in zip(states, rows) for j, a in enumerate("01")}
    return MealyMachine(bits, bits, states, delta, {(e, a): a for e in states for a in "01"})


class TestMoorifyFunctorial:
    def test_identity_on_par(self, par):
        phi = StateMap(par, par, {"q0": "q0", "q1": "q1"})
        assert check_moorify_functorial(phi)

    def test_enumerated_homs(self, bits):
        rng = random.Random(4)
        for _ in range(20):
            m1 = random_mealy(rng, bits, bits, 2)
            m2 = random_mealy(rng, bits, bits, 2)
            for phi in enumerate_homs(m1, m2).homs:
                assert check_moorify_functorial(phi)

    def test_non_hom_rejected(self, par):
        swap = StateMap(par, par, {"q0": "q1", "q1": "q0"})
        assert not is_homomorphism(swap)
        with pytest.raises(NotAHomomorphism):
            check_moorify_functorial(swap)
        # Also right after a hom with the same endpoints passed.
        assert check_moorify_functorial(StateMap(par, par, {"q0": "q0", "q1": "q1"}))
        with pytest.raises(NotAHomomorphism):
            check_moorify_functorial(swap)

    def test_interleaved_hom_sets_match_the_table_oracle(self, bits):
        a = echo(bits, (1, 1), (1, 0), (1, 0))
        b = echo(bits, (0, 0), (1, 1))
        c = echo(bits, (1, 1), (1, 2), (1, 1))
        d = echo(bits, (0, 0), (0, 0))
        a2, b2 = (MealyMachine(m.input, m.output, m.states, m.delta, m.out) for m in (a, b))
        assert (a2, b2) == (a, b) and a2 is not a and b2 is not b
        # A→D follows A→B with the same source, C→D follows A→D with the
        # same target, and C→B follows C→D with the same source; equal
        # copies of A and B come in too.  Every verdict must match the
        # oracle, whatever the call before it.
        order = [(a, b), (c, d), (a, b), (a2, b2), (a, d), (c, d), (c, b), (a, a), (b2, b2)]
        for source, target in order:
            found = enumerate_homs(source, target).homs
            assert found
            for phi in found:
                assert check_moorify_functorial(phi) == lifted_by_tables(phi)


class TestSearchMooreIdentity:
    def test_one_state_candidates_fail(self, bits, par):
        report = search_moore_identity(bits, [par, identity_cell(bits)], 1)
        assert report.survivors == ()
        assert report.candidates_checked == 2

    def test_two_state_candidates_fail(self, bits, par):
        report = search_moore_identity(bits, [par], 2)
        assert report.survivors == ()
        assert report.candidates_checked == 66

    def test_singleton_alphabet_probe_insufficiency(self):
        one = Alphabet("one", ("a",))
        report = search_moore_identity(one, [identity_cell(one)], 1)
        assert len(report.survivors) == 1
        assert report.probe_warning is not None

    def test_guard(self, bits, par):
        with pytest.raises(EnumerationTooLarge):
            search_moore_identity(bits, [par], 6)

    def test_three_states_on_two_letters(self, bits):
        # A probe that ignores its input: s0 → s1 → s2 → s1 → …, emitting
        # 0 at s0 and s1 and 1 at s2.  No candidate of at most 2 states
        # passes; 162 of the 3-state ones do, which the warning flags.
        states = ("s0", "s1", "s2")
        nxt = {"s0": "s1", "s1": "s2", "s2": "s1"}
        probe = MealyMachine(bits, bits, states,
                             {(e, a): nxt[e] for e in states for a in bits.symbols},
                             {(e, a): "1" if e == "s2" else "0"
                              for e in states for a in bits.symbols})
        for k, checked in ((1, 2), (2, 66)):
            report = search_moore_identity(bits, [probe], k)
            assert (report.candidates_checked, report.survivors) == (checked, ())
        report = search_moore_identity(bits, [probe], 3)
        assert report.candidates_checked == 5898
        assert len(report.survivors) == 162
        assert report.probe_warning is not None
        # The oracle takes about a second per candidate, so it confirms
        # the first and the last survivor only.
        for candidate in (report.survivors[0], report.survivors[-1]):
            assert pointwise_identity(candidate, probe) is None

    def test_no_probe_raises(self, bits):
        # With no probe nothing is checked, so no candidate may survive.
        with pytest.raises(MachineError):
            search_moore_identity(bits, [], 1)

    @pytest.mark.parametrize("seed", range(36))
    def test_matches_pointwise_oracle(self, seed):
        # 1-3-letter alphabets, 1-3 random probes, letter-independent ones
        # (J of a Moore machine) on every fourth seed, and the identity
        # cell among them on every third.  Survivors occur on the singleton
        # alphabets and with some letter-independent probes.
        rng = random.Random(seed)
        size = 1 + seed % 3
        a = Alphabet("a", ("0", "1", "2")[:size])
        max_states = 4 - size
        draw = (lambda *args: embed_j(random_moore(*args))) if seed % 4 == 0 else random_mealy
        probes = [draw(rng, a, a, rng.randint(1, 3)) for _ in range(1 + seed // 3 % 3)]
        if seed % 9 < 3:
            probes.append(identity_cell(a))
        survivors, failures = [], []
        for idx, candidate in enumerate(all_moore_up_to(a, a, max_states)):
            for p_idx, probe in enumerate(probes):
                direction = pointwise_identity(candidate, probe)
                if direction is not None:
                    failures.append((idx, p_idx, direction))
                    break
            else:
                survivors.append(candidate)
        report = search_moore_identity(a, probes, max_states)
        assert report.candidates_checked == len(survivors) + len(failures)
        assert report.survivors == tuple(survivors)
        assert report.failures == tuple(failures)
        warned = bool(survivors) and all(letter_independent(probe) for probe in probes)
        assert (report.probe_warning is not None) == warned


# Each operation checks the kind it takes itself, so a library call with
# the wrong kind raises instead of answering: par is Mealy, cpar and u2
# are Moore.  The Moore probe u2 comes after a Mealy probe that every
# candidate fails, so only a check before the first candidate reaches it.
@pytest.mark.parametrize("call", [
    lambda bits, par, cpar, u2: embed_j(par),
    lambda bits, par, cpar, u2: apply_D1(par),
    lambda bits, par, cpar, u2: is_soft(par),
    lambda bits, par, cpar, u2: is_n_soft(par, 2),
    lambda bits, par, cpar, u2: softness_level(par, 2),
    lambda bits, par, cpar, u2: check_extension_square(par, 2),
    lambda bits, par, cpar, u2: check_adjunction_D1(par, cpar),
    lambda bits, par, cpar, u2: check_hom_correspondence(par, cpar),
    lambda bits, par, cpar, u2: search_moore_identity(bits, [par, u2], 2),
], ids=["embed_j", "apply_D1", "is_soft", "is_n_soft", "softness_level",
        "check_extension_square", "check_adjunction_D1-swapped",
        "check_hom_correspondence-swapped", "search_moore_identity-moore-probe"])
def test_wrong_kind_raises(call, bits, par, cpar, u2):
    with pytest.raises(KindMismatch):
        call(bits, par, cpar, u2)


# The error names the operation called, not the composition it runs on
# the way, so moorify and decapitate check their argument themselves.
@pytest.mark.parametrize("call", [
    moorify, decapitate, check_counit,
    lambda cpar: check_moorify_functorial(identity_map(cpar)),
], ids=["moorify", "decapitate", "check_counit", "check_moorify_functorial"])
def test_kind_error_names_the_operation_called(call, cpar, request):
    with pytest.raises(KindMismatch) as got:
        call(cpar)
    name = request.node.callspec.id
    assert str(got.value) == "%s: expected a MealyMachine, got a MooreMachine" % name
