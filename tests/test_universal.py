import random
import time

import pytest

from mealymoore import (
    Alphabet,
    LetterOutOfAlphabet,
    MachineError,
    MooreMachine,
    PointedMachine,
    StateMap,
    apply_D1,
    d_iter,
    decapitate,
    embed_j,
    enumerate_homs,
    is_homomorphism,
    is_n_soft,
    is_soft,
    ltimes,
    moorify,
    pinfty_carrier_check,
    softness_level,
    trace,
    universal_p,
    universal_u,
    UnknownSymbol,
)
from mealymoore.generate import all_moore_up_to, random_mealy, random_moore

from conftest import BITS
from oracles import fold_state, fold_trace, n_soft, pinfty_carrier, words_up_to


class TestUniversalU:
    def test_one_step_delay(self, u2):
        assert trace(PointedMachine(u2, "0"), ("1", "0")) == ("0", "1", "0")

    def test_output_is_identity(self, u2):
        assert u2.out == {"0": "0", "1": "1"}

    def test_state_count(self):
        three = Alphabet("three", ("a", "b", "c"))
        assert len(universal_u(three).states) == 3


class TestRegisterCache:
    def test_keyed_by_the_symbol_tuple(self, par, monkeypatch):
        # After the first call the registers come from the cache without
        # hashing or comparing an Alphabet, which runs Python code.
        first = moorify(par), decapitate(par)
        calls = []
        for name in ("__hash__", "__eq__"):
            method = getattr(Alphabet, name)
            monkeypatch.setattr(Alphabet, name,
                                lambda self, *other, _m=method, _n=name: calls.append(_n)
                                or _m(self, *other))
        again = [(moorify(par), decapitate(par)) for _ in range(3)]
        monkeypatch.undo()
        assert calls == []
        assert all(pair == first for pair in again)
        renamed = Alphabet("renamed", par.output.symbols)
        assert universal_u(renamed) is universal_u(par.output)
        assert universal_p(renamed) is universal_p(par.output)
        assert universal_u(renamed) is not universal_p(renamed)


class TestUniversalP:
    def test_soft(self, p2):
        assert is_soft(p2)

    def test_constant_traces(self, p2):
        assert trace(PointedMachine(p2, "0"), ("1", "1", "1")) == ("0",) * 4

    def test_symbol_identification_is_not_a_homomorphism(self, p2, u2):
        # The carriers agree symbol-for-symbol, yet the identity-on-symbols
        # map fails to commute with the two dynamics.
        sigma = StateMap(p2, u2, {"0": "0", "1": "1"})
        assert not is_homomorphism(sigma)


class TestPinftyCarrier:
    def test_binary_depth_one(self, bits):
        # The count needs no depth; enumeration at depth 1 agrees with it.
        assert pinfty_carrier_check(bits) == pinfty_carrier(bits, 1) == 2

    def test_binary_depth_two(self, bits):
        assert pinfty_carrier_check(bits) == pinfty_carrier(bits, 2) == 2

    def test_singleton(self):
        assert pinfty_carrier_check(Alphabet("one", ("a",))) == 1

    def test_three_letters(self):
        # At depth 4 the function space has 3^121 members, out of reach of
        # enumeration; the count needs no depth.
        assert pinfty_carrier_check(Alphabet("three", ("a", "b", "c"))) == 3


class TestEmbedJ:
    def test_output_ignores_letter(self, cpar):
        j = embed_j(cpar)
        assert j.out[("q1", "0")] == j.out[("q1", "1")] == "1"

    def test_preserves_state_count(self, u2):
        assert embed_j(u2).states == u2.states

    def test_preserves_homomorphisms(self, bits):
        machines = list(all_moore_up_to(bits, bits, 2))
        rng = random.Random(5)
        found = 0
        for _ in range(400):
            n1, n2 = rng.choice(machines), rng.choice(machines)
            for phi in enumerate_homs(n1, n2).homs:
                lifted = StateMap(embed_j(n1), embed_j(n2), phi.map)
                assert is_homomorphism(lifted)
                found += 1
        assert found > 0


class TestApplyD1:
    def test_cpar_becomes_par(self, cpar, par):
        assert apply_D1(cpar) == par

    def test_constant_output_collapses_to_embed(self, bits):
        const = MooreMachine(
            bits, bits, ("s", "t"),
            {("s", "0"): "t", ("s", "1"): "s", ("t", "0"): "s", ("t", "1"): "t"},
            {"s": "1", "t": "1"},
        )
        assert apply_D1(const) == embed_j(const)

    def test_preserves_state_count(self, u2):
        assert apply_D1(u2).states == u2.states


class TestDIter:
    def test_empty_word(self, par):
        assert d_iter(par, "q0", ()) == "q0"

    def test_parity_word(self, par):
        assert d_iter(par, "q0", ("1", "0", "1")) == "q0"

    def test_u_remembers_last_letter(self, u2):
        for w in words_up_to(u2.input, 4, include_empty=False):
            assert d_iter(u2, "0", w) == w[-1]

    def test_agrees_with_fold_oracle(self, par):
        for w in words_up_to(par.input, 5):
            assert d_iter(par, "q1", w) == fold_state(par, "q1", w)

    def test_composite_states(self, par):
        m = moorify(par)
        for w in words_up_to(par.input, 4):
            assert d_iter(m, ("1", "q0"), w) == fold_state(m, ("1", "q0"), w)

    def test_bad_letter_and_undeclared_state(self, par):
        with pytest.raises(LetterOutOfAlphabet):
            d_iter(par, "q0", ("1", "2"))
        with pytest.raises(LetterOutOfAlphabet):
            d_iter(par, "q0", (["1"],))
        with pytest.raises(UnknownSymbol):
            d_iter(par, "nope", ("1",))
        with pytest.raises(UnknownSymbol):
            d_iter(universal_u(par.input), "bogus", ())
        assert d_iter(par, "q1", ()) == "q1"
        assert d_iter(moorify(par), ("1", "q0"), ()) == ("1", "q0")


class TestMoorify:
    def test_shift_law_on_par(self, par):
        m = moorify(par)
        w = ("1", "0", "1")
        assert trace(PointedMachine(m, ("0", "q0")), w) == ("0",) + fold_trace(par, "q0", w)

    def test_state_count(self, par):
        assert len(moorify(par).states) == 4

    def test_shift_law_on_embedded_moore(self, cpar):
        j = embed_j(cpar)
        m = moorify(j)
        for b0 in cpar.output.symbols:
            for w in words_up_to(cpar.input, 4):
                assert trace(PointedMachine(m, (b0, "q0")), w) == (b0,) + fold_trace(j, "q0", w)


class TestDecapitate:
    def test_soft(self, par):
        assert is_soft(decapitate(par))

    def test_frozen_first_component(self, par):
        d = decapitate(par)
        for w in words_up_to(par.input, 3):
            assert trace(PointedMachine(d, ("0", "q0")), w) == ("0",) * (len(w) + 1)

    def test_state_count(self, par):
        assert len(decapitate(par).states) == 4


class TestSoftness:
    def test_p_soft_u_not(self, p2, u2):
        assert is_soft(p2)
        assert not is_soft(u2)

    def test_constant_output_is_soft(self, bits):
        m = MooreMachine(
            bits, bits, ("s", "t"),
            {("s", "0"): "t", ("s", "1"): "s", ("t", "0"): "s", ("t", "1"): "t"},
            {"s": "0", "t": "0"},
        )
        assert is_soft(m)

    def test_soft_implies_two_soft(self, p2):
        assert is_n_soft(p2, 2)

    def test_u_never_n_soft(self, u2):
        for n in range(1, 5):
            assert not is_n_soft(u2, n)

    def test_soft_traces_are_constant(self, bits):
        for m in all_moore_up_to(bits, bits, 2):
            if not is_soft(m):
                continue
            for e in m.states:
                for w in words_up_to(bits, 4):
                    assert fold_trace(m, e, w) == (m.out[e],) * (len(w) + 1)

    def test_is_n_soft_matches_word_exhaustion_to_twelve(self):
        # Over the Moore machines of at most 3 states, n = 1..12 passes the
        # relation power's preindex (at most (N−1)² + 1 = 5) and then a
        # whole period (dividing lcm(1, 2, 3) = 6).  Word exhaustion over
        # two letters costs 2ⁿ words per state, so there the machines whose
        # states all emit one symbol, n-soft at every n, are left to the
        # test below, and the 3-state machines are a seeded sample of 60.
        # Soft is 1-soft on every machine before the sample is drawn.
        rng = random.Random(12)
        for k, outputs in ((1, 1), (1, 2), (2, 2)):
            a, b = Alphabet("A", ("0", "1")[:k]), Alphabet("B", ("0", "1")[:outputs])
            machines = list(all_moore_up_to(a, b, 3))
            for m in machines:
                assert is_soft(m) == is_n_soft(m, 1) == n_soft(m, 1), (m.delta, m.out)
            if k == 2:
                machines = [m for m in machines if len(set(m._o)) > 1]
                small = [m for m in machines if len(m.states) < 3]
                machines = small + rng.sample(machines[len(small):], 60)
            for m in machines:
                assert [is_n_soft(m, n) for n in range(1, 13)] == [
                    n_soft(m, n) for n in range(1, 13)], (m.delta, m.out)

    def test_is_n_soft_at_a_billion_steps(self):
        # Forty states over two letters into one output symbol: n-soft at
        # every n, decided by about 30 squarings, not 10⁹ steps.
        rng = random.Random(40)
        m = random_moore(rng, BITS, Alphabet("one", ("0",)), 40)
        start = time.perf_counter()
        assert is_n_soft(m, 10**9)
        assert time.perf_counter() - start < 2.0
        # A one-letter 40-cycle whose state 0 alone emits 1 is n-soft
        # exactly when 40 divides n.
        one, states = Alphabet("one", ("a",)), tuple(range(40))
        cycle = MooreMachine(one, BITS, states, {(e, "a"): (e + 1) % 40 for e in states},
                             {e: "1" if e == 0 else "0" for e in states})
        assert is_n_soft(cycle, 10**9) and not is_n_soft(cycle, 10**9 + 1)

    def test_softness_level_report(self, u2, p2):
        assert softness_level(p2, 3).level == 1
        assert softness_level(u2, 3).level is None

    def test_softness_level_needs_a_bound(self, p2):
        with pytest.raises(MachineError):
            softness_level(p2, 0)

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_softness_level_reaches_the_bound(self, length):
        # A one-letter cycle whose state 0 alone emits "1" is n-soft
        # exactly at the multiples of its length, so a bound equal to
        # the level, or one above it, still finds it.
        one = Alphabet("one", ("a",))
        states = tuple(range(length))
        m = MooreMachine(one, BITS, states, {(e, "a"): (e + 1) % length for e in states},
                         {e: "1" if e == 0 else "0" for e in states})
        assert [n for n in range(1, length + 1) if n_soft(m, n)] == [length]
        assert softness_level(m, length).level == length
        assert softness_level(m, length + 1).level == length

    def test_ltimes_with_soft_left_factor_is_soft(self, bits, p2):
        rng = random.Random(9)
        for _ in range(25):
            m = random_mealy(rng, bits, bits, rng.randint(1, 3))
            assert is_soft(ltimes(p2, m))

    def test_counit_projection_is_mealy_hom(self, par):
        src = apply_D1(moorify(par))
        proj = StateMap(src, par, {s: s[1] for s in src.states})
        assert is_homomorphism(proj)
