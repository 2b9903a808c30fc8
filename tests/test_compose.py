import itertools
import json
import random
import time

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
    compose_maps,
    compose_mealy,
    compose_moore,
    d_iter,
    decapitate,
    embed_j,
    enumerate_homs,
    identity_cell,
    identity_map,
    is_homomorphism,
    is_soft,
    ltimes,
    moorify,
    rtimes,
    run,
    serialize_machine,
    trace,
    ucompose,
    universal_p,
)
from mealymoore.compose import NotAnIso
from mealymoore.generate import all_mealy, all_moore, random_cell, random_mealy, random_moore

from oracles import (
    cascade,
    cascade_machine,
    fold_run,
    fold_state,
    fold_trace,
    j_compatible,
    letter_independent,
    rebracketed,
    tables,
)


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
    # The two bracketings are composed apart, so is_homomorphism on the
    # returned maps compares two table sets; ``rebracketed`` checks the
    # target against an independently built h⋄(g⋄f).
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


class TestLazyTables:
    """Composing builds no table: a composite's index tables are built
    on first read, after those of every composite below it that has none
    yet, innermost first, in a loop over the nesting."""

    def test_associator_builds_no_composite_table(self):
        rng = random.Random(41)
        for _ in range(60):
            f, g, h = (random_cell(rng, Alphabet(inp, tuple(inp)), Alphabet(outp, tuple(outp)), 4)
                       for inp, outp in zip(_TRIPLES, _TRIPLES[1:]))
            iso = associator(h, g, f)
            for m in (iso.source, iso.target):
                assert "_d" not in m.__dict__ and "_o" not in m.__dict__
            assert iso.source._d == iso.target._d and iso.source._o == iso.target._o
            for m, oracle in ((iso.source, cascade_machine(cascade_machine(h, g), f)),
                              (iso.target, cascade_machine(h, cascade_machine(g, f)))):
                assert (m._d, m._o) == (oracle._d, oracle._o)
                assert tables(m) == tables(oracle)
            assert is_homomorphism(iso.forward) and is_homomorphism(iso.backward)

    @pytest.mark.parametrize("table", ["_d", "_o"])
    def test_either_read_builds_both(self, par, cpar, table):
        m = compose_cells(par, compose_cells(cpar, par))
        getattr(m, table)
        assert "_d" in m.__dict__ and "_o" in m.__dict__
        assert tables(m) == cascade(par, cascade_machine(cpar, par))

    def test_associator_builds_no_inner_table(self):
        rng = random.Random(44)
        for _ in range(30):
            f, g, h = (random_cell(rng, Alphabet(inp, tuple(inp)), Alphabet(outp, tuple(outp)), 4)
                       for inp, outp in zip(_TRIPLES, _TRIPLES[1:]))
            iso = associator(h, g, f)
            for m in (iso.source._factors[0], iso.target._factors[1]):  # h⋄g and g⋄f
                assert "_d" not in m.__dict__ and "_o" not in m.__dict__

    def test_ucompose_chain_and_its_states_build_no_table(self, bits):
        rng = random.Random(44)
        f, g, h, k = (random_moore(rng, bits, bits, n) for n in (2, 3, 2, 3))
        c = ucompose(k, ucompose(h, ucompose(g, f)))
        assert len(c.states) == 36
        composites = [c, c._factors[1], c._factors[1]._factors[1]]  # k⋄(h⋄(g⋄f)), h⋄(g⋄f), g⋄f
        for m in composites:
            assert m._factors is not None
            assert "_d" not in m.__dict__ and "_o" not in m.__dict__

    def test_one_outer_read_builds_every_inner_table(self):
        def composites(m):  # the composites of the nesting, m first
            return [m, *composites(m._factors[0]), *composites(m._factors[1])] if m._factors else []

        def rebuilt(m):  # the same nesting, composed by the oracle
            return cascade_machine(*map(rebuilt, m._factors)) if m._factors else m

        rng = random.Random(45)
        chain = _TRIPLES + ("ab",)
        for _ in range(20):
            e, f, g, h = (random_cell(rng, Alphabet(inp, tuple(inp)), Alphabet(outp, tuple(outp)), 3)
                          for inp, outp in zip(chain, chain[1:]))
            for m in (compose_cells(h, compose_cells(g, compose_cells(f, e))),
                      compose_cells(compose_cells(compose_cells(h, g), f), e),
                      compose_cells(compose_cells(h, g), compose_cells(f, e))):
                m._o
                for x in composites(m):
                    assert "_d" in x.__dict__ and "_o" in x.__dict__
                    oracle = rebuilt(x)
                    assert (x._d, x._o) == (oracle._d, oracle._o)
                    assert tables(x) == tables(oracle)

    def test_shared_factors_build_in_linear_time(self, bits):
        # x ← x⋄x sixty times: 61 distinct machines, 2⁶⁰ paths from the top.
        cell = MooreMachine(bits, bits, ("s",), {("s", "0"): "s", ("s", "1"): "s"}, {"s": "1"})
        m = cell
        for _ in range(60):
            m = compose_cells(m, m)
        started = time.perf_counter()
        assert is_soft(m)
        assert [phi._img for phi in enumerate_homs(m, m).homs] == [(0,)]
        assert is_homomorphism(identity_map(m))
        assert time.perf_counter() - started < 1.0
        assert (m._d, m._o) == ((0, 0), (1,))

    def test_deep_left_nesting_reads_without_recursion(self, bits):
        cell = MooreMachine(bits, bits, ("s",), {("s", "0"): "s", ("s", "1"): "s"}, {"s": "0"})
        m = cell
        for _ in range(2000):
            m = compose_cells(m, cell)
        assert "_d" not in m.__dict__
        assert is_soft(m)
        assert [phi._img for phi in enumerate_homs(m, m).homs] == [(0,)]
        assert is_homomorphism(identity_map(m))
        (s,) = m.states
        assert m.delta == {(s, "0"): s, (s, "1"): s} and m.out == {s: "0"}
        assert trace(PointedMachine(m, s), "01") == ("0", "0", "0")
        assert StateMap(m, m, {s: s})._img == (0,)
        text = serialize_machine(m)
        name = "⟨" * 2000 + "s" + ",s⟩" * 2000
        assert json.loads(text)["states"] == [name]

    def test_deep_chains_compare_without_recursion(self, bits):
        def cell(s):
            return MooreMachine(bits, bits, (s,), {(s, "0"): s, (s, "1"): s}, {s: "0"})

        def chain(s):  # 2,000 levels, each over a freshly built cell
            m = cell(s)
            for _ in range(2000):
                m = compose_cells(m, cell(s))
            return m

        a, b, c = chain("s"), chain("s"), chain("t")
        assert a == b and b == a and a != c
        assert "states" not in a.__dict__ and "states" not in b.__dict__
        assert compose_maps(identity_map(a), identity_map(b))._img == (0,)
        with pytest.raises(EndpointMismatch):
            compose_maps(identity_map(a), identity_map(c))
        # x ← x⋄x sixty times, twice apart: each pair of factors is compared once.
        x, y = cell("s"), cell("s")
        for _ in range(60):
            x, y = compose_cells(x, x), compose_cells(y, y)
        assert x == y


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

    def test_matches_the_table_oracle(self, bits):
        # check_j_compatibilities holds by definition, so the equalities
        # are also checked on the named tables: every pair of one-state
        # cells and of 30 random ≤3-state cells, in the three kind pairs
        # it takes.
        rng = random.Random(31)
        cells = list(all_mealy(bits, bits, 1)) + list(all_moore(bits, bits, 1))
        cells += [random_cell(rng, bits, bits, 3) for _ in range(30)]
        kinds = set()
        for m, n in itertools.product(cells, repeat=2):
            if isinstance(m, MealyMachine) and isinstance(n, MealyMachine):
                continue
            kinds.add((type(m), type(n)))
            assert check_j_compatibilities(m, n) == j_compatible(m, n)
        assert len(kinds) == 3


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


_KINDS = {"mealy": random_mealy, "moore": random_moore}
_TRIPLES = ("xyz", "pq", "ijk", "uv")


def _factor(rng, kind, inp, outp, n):
    return _KINDS[kind](rng, Alphabet(inp, tuple(inp)), Alphabet(outp, tuple(outp)), n)


class TestPast256States:
    """Composites whose state and cell indices pass CPython's cache of
    small integers (up to 256), on which the kernels stop reusing int
    objects: 18×16 over three letters (288 states, 864 cells) and a
    nested 7×7×7 (343 states), their tables against the oracle and
    their walks on words of 1,000–3,000 letters against folds of the
    oracle's named tables."""

    @staticmethod
    def _walks_agree(m, oracle, rng):
        letters = m.input.symbols
        for start in rng.sample(m.states, 3):
            word = tuple(rng.choices(letters, k=rng.randint(1000, 3000)))
            p = PointedMachine(m, start)
            assert trace(p, word) == fold_trace(oracle, start, word)
            assert run(p, word) == fold_run(oracle, start, word)
            assert d_iter(m, start, word) == fold_state(oracle, start, word)

    @pytest.mark.parametrize("second_kind, first_kind",
                             list(itertools.product(_KINDS, repeat=2)))
    def test_two_factors(self, second_kind, first_kind):
        rng = random.Random(second_kind + first_kind)
        first = _factor(rng, first_kind, "abc", "pq", 16)
        second = _factor(rng, second_kind, "pq", "xyz", 18)
        m = compose_cells(second, first)
        assert len(m.states) == 288
        assert tables(m) == cascade(second, first)
        self._walks_agree(m, cascade_machine(second, first), rng)

    @pytest.mark.parametrize("kinds", [("mealy", "mealy", "mealy"), ("moore", "mealy", "moore"),
                                       ("mealy", "moore", "mealy")])
    def test_nested_three_factors(self, kinds):
        rng = random.Random("/".join(kinds))
        f, g, h = (_factor(rng, kind, _TRIPLES[j], _TRIPLES[j + 1], 7)
                   for j, kind in enumerate(kinds))
        inner = cascade_machine(g, f)
        right = compose_cells(h, compose_cells(g, f))
        left = compose_cells(compose_cells(h, g), f)
        assert len(right.states) == len(left.states) == 343
        assert tables(right) == cascade(h, inner)
        assert tables(left) == cascade(cascade_machine(h, g), f)
        self._walks_agree(right, cascade_machine(h, inner), rng)
