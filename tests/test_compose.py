import itertools
import random

import pytest

import mealymoore
from mealymoore import (
    Alphabet,
    EndpointMismatch,
    KindMismatch,
    MealyMachine,
    MooreMachine,
    PointedMachine,
    StateBijection,
    StateMap,
    associator,
    check_j_compatibilities,
    check_pentagon,
    compose_cells,
    compose_mealy,
    compose_moore,
    embed_j,
    identity_cell,
    identity_map,
    is_homomorphism,
    ltimes,
    moorify,
    rtimes,
    trace,
    universal_p,
    universal_u,
)
from mealymoore.compose import NotAnIso
from mealymoore.generate import random_cell, random_mealy, random_moore

from oracles import cascade, fold_trace, letter_independent, rebracketed, tables


class TestComposeMealy:
    def test_cascade_trace(self, par):
        # Inner PAR emits [1,0] on [1,1]; outer PAR re-accumulates to [1,1].
        cc = compose_mealy(par, par)
        assert trace(PointedMachine(cc, ("q0", "q0")), ("1", "1")) == ("1", "1")

    def test_cascade_equals_fold_of_traces(self, par):
        cc = compose_mealy(par, par)
        for w in [("1",), ("1", "0", "1"), ("0", "0", "1", "1")]:
            inner = fold_trace(par, "q0", w)
            assert fold_trace(cc, ("q0", "q0"), w) == fold_trace(par, "q0", inner)

    def test_identity_post_composition(self, par, bits):
        cc = compose_mealy(identity_cell(bits), par)
        for e in par.states:
            for a in bits.symbols:
                assert cc.out[(("*", e), a)] == par.out[(e, a)]

    def test_state_count_is_product(self, par):
        assert len(compose_mealy(par, par).states) == 4

    def test_endpoint_mismatch(self, par):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            compose_mealy(identity_cell(three), par)


class TestComposeMoore:
    def test_two_step_delay(self, u2):
        cc = compose_moore(u2, u2)
        assert trace(PointedMachine(cc, ("0", "0")), ("1", "1")) == ("0", "0", "1")

    def test_output_only_sees_downstream_state(self, cpar, u2):
        cc = compose_moore(u2, cpar)
        for f, e in cc.states:
            assert cc.out[(f, e)] == u2.out[f]

    def test_one_state_composite(self):
        one = Alphabet("one", ("a",))
        m = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        assert len(compose_moore(m, m).states) == 1


class TestMixedComposition:
    def test_ltimes_u_is_moorify(self, par, u2):
        assert ltimes(u2, par) == moorify(par)

    def test_ltimes_p_is_decapitate(self, par, bits):
        from mealymoore import decapitate

        assert ltimes(universal_p(bits), par) == decapitate(par)

    def test_ltimes_returns_moore(self, par, u2):
        assert isinstance(ltimes(u2, par), MooreMachine)

    def test_rtimes_echo_after_delay(self, bits, u2):
        echo = identity_cell(bits)
        cc = rtimes(echo, u2)
        for x in bits.symbols:
            assert cc.out[("*", x)] == x

    def test_rtimes_state_count(self, par, u2):
        assert len(rtimes(par, u2).states) == 4

    def test_mixed_output_letter_independent(self, par, cpar):
        # Table-level shadow of the type-level fact: embed and scan.
        assert letter_independent(embed_j(rtimes(par, cpar)))
        assert letter_independent(embed_j(ltimes(cpar, par)))


class TestAssociator:
    # The two bracketings share their tables, so is_homomorphism on the
    # returned maps compares a table with itself; ``rebracketed`` checks
    # the target against an independently built h⋄(g⋄f).
    def test_singletons(self):
        one = Alphabet("one", ("a",))
        m = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        bij = associator(m, m, m)
        assert len(bij.source.states) == 1
        assert rebracketed(bij, m, m, m)

    def test_sizes_multiply(self):
        rng = random.Random(7)
        a = Alphabet("A", ("0", "1"))
        h = random_mealy(rng, a, a, 2)
        g = random_mealy(rng, a, a, 3)
        f = random_mealy(rng, a, a, 5)
        bij = associator(h, g, f)
        assert len(bij.forward.map) == 30
        assert is_homomorphism(bij.forward)
        assert rebracketed(bij, h, g, f)

    def test_par_triple_is_iso(self, par):
        bij = associator(par, par, par)
        assert is_homomorphism(bij.forward)
        assert is_homomorphism(bij.backward)
        assert rebracketed(bij, par, par, par)

    def test_mixed_kinds(self, par, cpar, u2):
        bij = associator(u2, par, embed_j(cpar))
        assert is_homomorphism(bij.forward)
        assert is_homomorphism(bij.backward)
        assert rebracketed(bij, u2, par, embed_j(cpar))


class TestStateBijection:
    def test_associator_maps_rebuilt_publicly(self, u2):
        iso = associator(u2, u2, u2)
        forward = StateMap(iso.source, iso.target, dict(iso.forward.map))
        backward = StateMap(iso.target, iso.source, dict(iso.backward.map))
        bij = StateBijection(iso.source, iso.target, forward, backward)
        assert (bij.forward._img, bij.backward._img) == (iso.forward._img, iso.backward._img)

    def test_not_inverse(self, bits):
        # Two indistinguishable fixed points: collapsing them is a
        # homomorphism, so only the inverse check can refuse the pair.
        twins = MooreMachine(bits, bits, ("s", "t"), {(e, a): e for e in "st" for a in "01"},
                             {"s": "0", "t": "0"})
        collapse = StateMap(twins, twins, {"s": "s", "t": "s"})
        assert is_homomorphism(collapse)
        for there, back in ((collapse, identity_map(twins)), (identity_map(twins), collapse)):
            with pytest.raises(NotAnIso, match="not the identity"):
                StateBijection(twins, twins, there, back)

    def test_not_a_homomorphism(self, par):
        # q0↔q1 is its own inverse but flips the output rows.
        swap = StateMap(par, par, {"q0": "q1", "q1": "q0"})
        with pytest.raises(NotAnIso):
            StateBijection(par, par, swap, swap)

    def test_endpoints_checked(self, u2, p2):
        iso = associator(u2, u2, u2)
        with pytest.raises(EndpointMismatch):
            StateBijection(u2, u2, iso.forward, iso.backward)
        with pytest.raises(EndpointMismatch):
            StateBijection(u2, u2, identity_map(p2), identity_map(p2))


class TestPentagon:
    def test_singletons(self):
        one = Alphabet("one", ("a",))
        m = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        assert check_pentagon(m, m, m, m)

    def test_par_quadruple(self, par):
        assert check_pentagon(par, par, par, par)

    def test_random_quadruple(self):
        rng = random.Random(11)
        a = Alphabet("A", ("0", "1"))
        k = random_mealy(rng, a, a, 2)
        h = random_moore(rng, a, a, 2)
        g = random_mealy(rng, a, a, 3)
        f = random_moore(rng, a, a, 3)
        assert check_pentagon(k, h, g, f)

    def test_mismatch_raises(self, par):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            check_pentagon(identity_cell(three), par, par, par)

    @pytest.mark.parametrize("broken", range(3))
    def test_any_broken_link_raises(self, bits, par, broken):
        # A cell reading bits and emitting {0, 1, 2} breaks only the link
        # to the cell composed after it, which is the one listed before it.
        three = Alphabet("three", ("0", "1", "2"))
        to_three = MealyMachine(bits, three, ("s",), {("s", "0"): "s", ("s", "1"): "s"},
                                {("s", "0"): "0", ("s", "1"): "2"})
        cells = [par, par, par, par]
        cells[broken + 1] = to_three
        with pytest.raises(EndpointMismatch):
            check_pentagon(*cells)


class TestJCompatibilities:
    def test_moore_moore(self, u2):
        assert check_j_compatibilities(u2, u2)

    def test_mealy_after_moore(self, par, cpar):
        assert check_j_compatibilities(par, cpar)

    def test_moore_after_mealy(self, par, cpar):
        assert check_j_compatibilities(cpar, par)

    def test_one_state(self):
        one = Alphabet("one", ("a",))
        m = MooreMachine(one, one, ("s",), {("s", "a"): "s"}, {"s": "a"})
        assert check_j_compatibilities(m, m)

    def test_two_mealy_rejected(self, par):
        with pytest.raises(KindMismatch):
            check_j_compatibilities(par, par)

    def test_random_sweep(self):
        # check_j_compatibilities holds by construction of compose_cells,
        # so the composite tables are also compared with the oracle, for
        # all four kind pairs.
        rng = random.Random(3)
        a = Alphabet("A", ("0", "1"))
        kinds = set()
        for _ in range(50):
            m = random_cell(rng, a, a, 3)
            n = random_cell(rng, a, a, 3)
            kinds.add((type(m), type(n)))
            assert tables(compose_cells(m, n)) == cascade(m, n)
            if isinstance(m, MealyMachine) and isinstance(n, MealyMachine):
                continue
            assert check_j_compatibilities(m, n)
        assert len(kinds) == 4


_ENTRY_KINDS = {
    "compose_mealy": ("mealy", "mealy"),
    "compose_moore": ("moore", "moore"),
    "ltimes": ("moore", "mealy"),
    "rtimes": ("mealy", "moore"),
}


@pytest.mark.parametrize("entry, second_kind, first_kind", [
    (entry, second_kind, first_kind)
    for entry, kinds in _ENTRY_KINDS.items()
    for second_kind, first_kind in itertools.product(("mealy", "moore"), repeat=2)
    if (second_kind, first_kind) != kinds
])
def test_entry_point_rejects_wrong_kinds(entry, second_kind, first_kind, par, cpar):
    cell = {"mealy": par, "moore": cpar}
    with pytest.raises(KindMismatch):
        getattr(mealymoore, entry)(cell[second_kind], cell[first_kind])


def test_compose_cells_dispatch(par, cpar, u2):
    assert isinstance(compose_cells(par, par), type(par))
    assert isinstance(compose_cells(cpar, u2), MooreMachine)
    assert isinstance(compose_cells(par, cpar), MooreMachine)
    assert isinstance(compose_cells(cpar, par), MooreMachine)
