import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mealymoore import (
    Alphabet,
    EmptyWordOnMealy,
    EndpointMismatch,
    KindMismatch,
    LetterOutOfAlphabet,
    MooreMachine,
    PointedMachine,
    UnknownSymbol,
    apply_D1,
    bisimilar,
    check_extension_square,
    compose_cells,
    compose_mealy,
    identity_cell,
    run,
    trace,
    universal_p,
    universal_u,
    words_up_to,
)

from conftest import BITS, make_cpar, make_par
from oracles import bisimilar_words, extension_square_words, fold_run, fold_trace, words_agree
from test_properties import alphabets, mealys, moores


def fixtures_and_composites():
    """par, cpar, u2, p2 and their sixteen two-fold composites."""
    fixtures = [make_par(), make_cpar(), universal_u(BITS), universal_p(BITS)]
    return fixtures + [compose_cells(g, f) for g in fixtures for f in fixtures]


def family_machine(shape, n, mark, names):
    """A reset chain (letter 1 advances to the last position and stays,
    letter 0 resets) or a counter (1 advances mod n, 0 stays) over {0, 1},
    whose output is 1 at position ``mark`` only."""
    delta = {}
    for i, e in enumerate(names):
        if shape == "chain":
            delta[(e, "1")] = names[min(i + 1, n - 1)]
            delta[(e, "0")] = names[0]
        else:
            delta[(e, "1")] = names[(i + 1) % n]
            delta[(e, "0")] = e
    out = {e: "1" if i == mark else "0" for i, e in enumerate(names)}
    return MooreMachine(BITS, BITS, tuple(names), delta, out)


class TestRun:
    def test_moore_parity(self, cpar):
        assert run(PointedMachine(cpar, "q0"), ("1", "0", "1")) == "0"

    def test_mealy_parity(self, par):
        assert run(PointedMachine(par, "q0"), ("1", "0", "1")) == "0"

    def test_moore_empty_word(self, cpar):
        assert run(PointedMachine(cpar, "q0"), ()) == "0"

    def test_mealy_empty_word_rejected(self, par):
        with pytest.raises(EmptyWordOnMealy):
            run(PointedMachine(par, "q0"), ())

    def test_letter_out_of_alphabet(self, par):
        with pytest.raises(LetterOutOfAlphabet):
            run(PointedMachine(par, "q0"), ("2",))

    def test_unknown_start_state(self, par):
        with pytest.raises(UnknownSymbol):
            PointedMachine(par, "nope")

    def test_bad_letter_anywhere_in_the_word(self, par, cpar):
        for m in (par, cpar, compose_cells(par, cpar)):
            start = m.states[0]
            for word in (("0", "1", "2"), ("0", ["1"]), "0x"):
                with pytest.raises(LetterOutOfAlphabet):
                    run(PointedMachine(m, start), word)
                with pytest.raises(LetterOutOfAlphabet):
                    trace(PointedMachine(m, start), word)

    def test_composite_start_must_be_a_pair_of_states(self, par, cpar):
        m = compose_cells(par, cpar)
        for start in ("q0q1", ("q0",), ("q0", "q1", "q0"), ("q0", "nope"), ["q0", "q0"],
                      (("q0",), "q0")):
            with pytest.raises(UnknownSymbol):
                PointedMachine(m, start)

    def test_agrees_with_fold_oracle(self, par, cpar):
        for m, start in [(par, "q0"), (par, "q1"), (cpar, "q0")]:
            for w in words_up_to(m.input, 4, include_empty=False):
                assert run(PointedMachine(m, start), w) == fold_run(m, start, w)


class TestTrace:
    def test_mealy_trace(self, par):
        assert trace(PointedMachine(par, "q0"), ("1", "0", "1")) == ("1", "1", "0")

    def test_moore_trace(self, cpar):
        assert trace(PointedMachine(cpar, "q0"), ("1", "0", "1")) == ("0", "1", "1", "0")

    def test_moore_empty_trace(self, cpar):
        assert trace(PointedMachine(cpar, "q1"), ()) == ("1",)

    def test_length_law(self, par, cpar):
        for w in words_up_to(par.input, 4):
            assert len(trace(PointedMachine(par, "q0"), w)) == len(w)
            assert len(trace(PointedMachine(cpar, "q0"), w)) == len(w) + 1

    def test_prefix_coherence(self, par, cpar):
        for m, start in [(par, "q0"), (cpar, "q0")]:
            p = PointedMachine(m, start)
            for w in words_up_to(m.input, 3):
                base = trace(p, w)
                for a in m.input.symbols:
                    extended = trace(p, w + (a,))
                    assert extended[: len(base)] == base
                    assert len(extended) == len(base) + 1

    def test_agrees_with_per_prefix_oracle(self, par, cpar):
        for m in (par, cpar):
            for w in words_up_to(m.input, 4):
                assert trace(PointedMachine(m, "q0"), w) == fold_trace(m, "q0", w)


class TestBisimilar:
    def test_reflexive(self, par):
        assert bisimilar(PointedMachine(par, "q0"), PointedMachine(par, "q0"))

    def test_distinct_states_differ(self, par):
        assert not bisimilar(PointedMachine(par, "q0"), PointedMachine(par, "q1"))

    def test_identity_composition(self, par, bits):
        cc = compose_mealy(identity_cell(bits), par)
        assert bisimilar(PointedMachine(cc, ("*", "q0")), PointedMachine(par, "q0"))

    def test_kind_mismatch(self, par, cpar):
        with pytest.raises(KindMismatch):
            bisimilar(PointedMachine(par, "q0"), PointedMachine(cpar, "q0"))

    def test_endpoint_mismatch(self, par):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            bisimilar(PointedMachine(par, "q0"), PointedMachine(identity_cell(three), "*"))

    @staticmethod
    def _one_state(inp, outp):
        return MooreMachine(inp, outp, ("s",), {("s", a): "s" for a in inp.symbols},
                            {"s": outp.symbols[0]})

    def test_endpoint_mismatch_on_input_alone(self, bits):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            bisimilar(PointedMachine(self._one_state(bits, bits), "s"),
                      PointedMachine(self._one_state(three, bits), "s"))

    def test_endpoint_mismatch_on_output_alone(self, bits):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            bisimilar(PointedMachine(self._one_state(bits, bits), "s"),
                      PointedMachine(self._one_state(bits, three), "s"))

    def test_equivalence_relation_on_samples(self, par, bits):
        cc = compose_mealy(identity_cell(bits), par)
        points = [PointedMachine(par, "q0"), PointedMachine(par, "q1"),
                  PointedMachine(cc, ("*", "q0")), PointedMachine(cc, ("*", "q1"))]
        for p, q in itertools.product(points, repeat=2):
            assert bisimilar(p, q) == bisimilar(q, p)
        for p, q, r in itertools.product(points, repeat=3):
            if bisimilar(p, q) and bisimilar(q, r):
                assert bisimilar(p, r)

    def test_matches_bounded_word_exhaustion(self, par, cpar, u2, bits):
        mealys = [(par, s) for s in par.states]
        mealys += [(compose_mealy(par, par), s) for s in compose_mealy(par, par).states]
        for (m1, s1), (m2, s2) in itertools.product(mealys, repeat=2):
            assert bisimilar(
                PointedMachine(m1, s1), PointedMachine(m2, s2)
            ) == words_agree(m1, s1, m2, s2, 6)
        moores = [(cpar, s) for s in cpar.states] + [(u2, s) for s in u2.states]
        for (m1, s1), (m2, s2) in itertools.product(moores, repeat=2):
            assert bisimilar(
                PointedMachine(m1, s1), PointedMachine(m2, s2)
            ) == words_agree(m1, s1, m2, s2, 6)

    def test_matches_word_oracle_on_fixtures(self):
        # Every unordered pointed pair of one kind; the oracle's bound
        # |Q1|+|Q2| makes it exact.
        points = [(m, e) for m in fixtures_and_composites() for e in m.states]
        checked = bisimilar_pairs = 0
        for i, (m1, s1) in enumerate(points):
            for m2, s2 in points[i:]:
                if type(m1) is not type(m2):
                    continue
                verdict = bisimilar(PointedMachine(m1, s1), PointedMachine(m2, s2))
                assert verdict == bisimilar_words(m1, s1, m2, s2)
                checked += 1
                bisimilar_pairs += verdict
        assert checked > 2000 and 0 < bisimilar_pairs < checked

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_word_oracle_on_random_pairs(self, data):
        inp, outp = data.draw(alphabets(2)), data.draw(alphabets(2))
        kind = data.draw(st.sampled_from((mealys, moores)))
        m1 = data.draw(kind(inp=inp, outp=outp, max_states=4))
        m2 = data.draw(kind(inp=inp, outp=outp, max_states=4))
        s1, s2 = data.draw(st.sampled_from(m1.states)), data.draw(st.sampled_from(m2.states))
        assert bisimilar(PointedMachine(m1, s1), PointedMachine(m2, s2)) == bisimilar_words(
            m1, s1, m2, s2)

    @pytest.mark.parametrize("shape,n", [("chain", 200), ("counter", 201)])
    def test_long_families(self, shape, n):
        # Positions 1 and 2 first differ after about n letters, so the
        # refinement runs about n rounds.
        mark = n - 1 if shape == "chain" else 0
        m = family_machine(shape, n, mark, ["l%d" % i for i in range(n)])
        k = family_machine(shape, n, mark, ["r%d" % i for i in range(n)])
        k = MooreMachine(k.input, k.output, k.states[::-1], k.delta, k.out)
        assert bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r1"))
        assert not bisimilar(PointedMachine(m, "l1"), PointedMachine(k, "r2"))


class TestExtensionSquare:
    def test_cpar(self, cpar):
        assert check_extension_square(cpar, 6)

    def test_u2(self, u2):
        assert check_extension_square(u2, 6)

    def test_one_state(self):
        one = Alphabet("one", ("a",))
        m = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        assert check_extension_square(m, 6)

    def test_matches_literal_run_comparison(self, cpar, u2, p2):
        # Dual route: compare run() on every nonempty word directly.
        for m in (cpar, u2, p2):
            d1 = apply_D1(m)
            for e in m.states:
                for w in words_up_to(m.input, 4, include_empty=False):
                    assert run(PointedMachine(m, e), w) == run(PointedMachine(d1, e), w)
            assert check_extension_square(m, 4)

    def test_matches_word_oracle(self):
        for m in fixtures_and_composites():
            if isinstance(m, MooreMachine):
                for maxlen in (1, 2, 4):
                    assert check_extension_square(m, maxlen) == extension_square_words(m, maxlen)

    def test_long_words(self):
        # The verdict does not depend on maxlen, so a bound far beyond
        # word exhaustion answers at once.
        chain = family_machine("chain", 3, 2, ["s0", "s1", "s2"])
        assert check_extension_square(chain, 64)
        assert check_extension_square(chain, 10**6)
