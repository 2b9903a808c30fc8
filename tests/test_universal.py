import random

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
from mealymoore.generate import all_moore_up_to, random_mealy
from mealymoore.semantics import words_up_to

from conftest import BITS
from oracles import fold_state, fold_trace, n_soft


class TestUniversalU:
    def test_one_step_delay(self, u2):
        assert trace(PointedMachine(u2, "0"), ("1", "0")) == ("0", "1", "0")

    def test_output_is_identity(self, u2):
        assert u2.out == {"0": "0", "1": "1"}

    def test_state_count(self):
        three = Alphabet("three", ("a", "b", "c"))
        assert len(universal_u(three).states) == 3


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
    def test_binary_depth_two(self, bits):
        assert pinfty_carrier_check(bits, 2) == 2

    def test_binary_depth_one(self, bits):
        assert pinfty_carrier_check(bits, 1) == 2

    def test_singleton(self):
        assert pinfty_carrier_check(Alphabet("one", ("a",)), 5) == 1

    def test_three_letters_depth_four(self):
        # 3^121 functions: out of reach of enumeration, one factor per word.
        assert pinfty_carrier_check(Alphabet("three", ("a", "b", "c")), 4) == 3

    def test_depth_zero_is_refused(self, bits):
        with pytest.raises(MachineError):
            pinfty_carrier_check(bits, 0)


class TestEmbedJ:
    def test_output_ignores_letter(self, cpar):
        j = embed_j(cpar)
        assert j.out[("q1", "0")] == j.out[("q1", "1")] == "1"

    def test_preserves_state_count(self, u2):
        assert embed_j(u2).states == u2.states

    def test_preserves_homomorphisms(self, bits):
        from mealymoore import enumerate_homs

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
        from mealymoore import MooreMachine

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
        from mealymoore import MooreMachine

        m = MooreMachine(
            bits, bits, ("s", "t"),
            {("s", "0"): "t", ("s", "1"): "s", ("t", "0"): "s", ("t", "1"): "t"},
            {"s": "0", "t": "0"},
        )
        assert is_soft(m)

    def test_soft_iff_one_soft(self, bits):
        for m in all_moore_up_to(bits, bits, 2):
            assert is_soft(m) == is_n_soft(m, 1)

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

    def test_softness_level_report(self, u2, p2):
        assert softness_level(p2, 3).level == 1
        assert softness_level(u2, 3).level is None

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
