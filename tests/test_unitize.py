import random

import pytest

from mealymoore import (
    Alphabet,
    EndpointMismatch,
    FormalId,
    KindMismatch,
    MooreMachine,
    StateMap,
    UMap,
    check_triangle,
    check_upentagon,
    compose_moore,
    formal_identity_map,
    identity_map,
    is_homomorphism,
    ucompose,
    ucompose2,
)
from mealymoore.generate import random_moore

from conftest import BITS


IDB = FormalId(BITS)


class TestUcompose:
    def test_left_unit(self, cpar):
        assert ucompose(IDB, cpar) == cpar

    def test_right_unit(self, cpar):
        assert ucompose(cpar, IDB) == cpar

    def test_both_formal(self):
        assert ucompose(IDB, IDB) == IDB

    def test_machine_machine(self, u2, cpar):
        assert ucompose(u2, cpar) == compose_moore(u2, cpar)

    def test_endpoint_mismatch(self, cpar):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            ucompose(FormalId(three), cpar)

    def test_unit_ignores_alphabet_name(self, cpar):
        other = FormalId(Alphabet("renamed", ("0", "1")))
        assert ucompose(other, cpar) == cpar


class TestUMap:
    def test_machine_two_cell(self, cpar):
        m = UMap(cpar, cpar, identity_map(cpar))
        assert not m.is_formal

    def test_formal_two_cell(self):
        m = formal_identity_map(BITS)
        assert m.is_formal
        assert m.statemap is None

    def test_formal_to_machine_rejected(self, cpar):
        with pytest.raises(KindMismatch):
            UMap(IDB, cpar, identity_map(cpar))

    def test_machine_to_formal_rejected(self, cpar):
        with pytest.raises(KindMismatch):
            UMap(cpar, IDB, None)

    def test_machine_without_statemap_rejected(self, cpar):
        with pytest.raises(KindMismatch):
            UMap(cpar, cpar, None)

    def test_formal_with_statemap_rejected(self, cpar):
        with pytest.raises(KindMismatch):
            UMap(IDB, IDB, identity_map(cpar))

    def test_formal_between_distinct_alphabets_rejected(self):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            UMap(IDB, FormalId(three), None)

    def test_endpoints_must_agree(self, cpar, u2):
        with pytest.raises(EndpointMismatch):
            UMap(cpar, u2, identity_map(cpar))


class TestUcompose2:
    def test_formal_formal(self):
        c = ucompose2(formal_identity_map(BITS), formal_identity_map(BITS))
        assert c.is_formal

    def test_formal_left(self, cpar):
        phi = UMap(cpar, cpar, identity_map(cpar))
        c = ucompose2(formal_identity_map(BITS), phi)
        assert c.source == cpar
        assert c.statemap.map == identity_map(cpar).map

    def test_formal_right(self, cpar):
        psi = UMap(cpar, cpar, identity_map(cpar))
        c = ucompose2(psi, formal_identity_map(BITS))
        assert c.source == cpar
        assert c.statemap.map == identity_map(cpar).map

    def test_machine_machine_product(self, cpar, u2):
        psi = UMap(u2, u2, identity_map(u2))
        phi = UMap(cpar, cpar, identity_map(cpar))
        c = ucompose2(psi, phi)
        assert c.source == compose_moore(u2, cpar)
        assert c.statemap.map[("0", "q1")] == ("0", "q1")
        assert is_homomorphism(c.statemap)

    def test_product_of_homs_is_hom(self, bits):
        rng = random.Random(13)
        from mealymoore import enumerate_homs
        from mealymoore.generate import all_moore_up_to

        machines = list(all_moore_up_to(bits, bits, 2))
        for _ in range(60):
            n1, n2 = rng.choice(machines), rng.choice(machines)
            outer = enumerate_homs(n1, n2).homs
            for _ in range(3):
                m1, m2 = rng.choice(machines), rng.choice(machines)
                inner = enumerate_homs(m1, m2).homs
                for psi in outer:
                    for phi in inner:
                        c = ucompose2(UMap(n1, n2, psi), UMap(m1, m2, phi))
                        assert is_homomorphism(c.statemap)
                        assert dict(c.statemap.map) == {
                            (f, e): (psi.map[f], phi.map[e]) for f in n1.states for e in m1.states
                        }


class TestTriangle:
    def test_machine_machine(self, cpar, u2):
        assert check_triangle(u2, cpar)

    def test_with_formal_factor(self, cpar):
        assert check_triangle(IDB, cpar)
        assert check_triangle(cpar, IDB)

    def test_random_pairs(self, bits):
        rng = random.Random(17)
        for _ in range(20):
            c2 = random_moore(rng, bits, bits, rng.randint(1, 3))
            c1 = random_moore(rng, bits, bits, rng.randint(1, 3))
            assert check_triangle(c2, c1)

    def test_endpoint_mismatch(self, bits, cpar):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            check_triangle(FormalId(three), cpar)
        with pytest.raises(EndpointMismatch):
            check_triangle(cpar, _to_three(bits, three))


def _to_three(bits, three):
    """A one-state Moore cell reading bits and emitting {0, 1, 2}."""
    return MooreMachine(bits, three, ("s",), {("s", "0"): "s", ("s", "1"): "s"}, {"s": "2"})


class TestUPentagon:
    def test_all_machines(self, cpar, u2, p2):
        assert check_upentagon(u2, cpar, p2, cpar)

    def test_each_slot_formal(self, cpar, u2, p2):
        cells = [u2, cpar, p2, cpar]
        for i in range(4):
            mixed = list(cells)
            mixed[i] = IDB
            assert check_upentagon(*mixed)

    def test_pairs_formal(self, cpar, u2):
        assert check_upentagon(IDB, IDB, u2, cpar)
        assert check_upentagon(u2, IDB, IDB, cpar)
        assert check_upentagon(u2, cpar, IDB, IDB)
        assert check_upentagon(IDB, u2, IDB, cpar)
        assert check_upentagon(IDB, u2, cpar, IDB)
        assert check_upentagon(u2, IDB, cpar, IDB)

    def test_all_formal(self):
        assert check_upentagon(IDB, IDB, IDB, IDB)

    def test_random_quadruples(self, bits):
        rng = random.Random(19)
        pool = [IDB] + [random_moore(rng, bits, bits, k) for k in (1, 2, 3)]
        for _ in range(40):
            k, h, g, f = (rng.choice(pool) for _ in range(4))
            assert check_upentagon(k, h, g, f)

    def test_endpoint_mismatch(self, cpar):
        three = Alphabet("three", ("0", "1", "2"))
        with pytest.raises(EndpointMismatch):
            check_upentagon(FormalId(three), cpar, cpar, cpar)

    def test_mealy_cell_raises(self, par, cpar):
        # Mealy machines are not cells of the unitized structure, so the
        # chain check refuses them rather than reporting the law.
        with pytest.raises(KindMismatch):
            check_upentagon(cpar, cpar, par, cpar)
        with pytest.raises(KindMismatch):
            check_triangle(cpar, par)
        with pytest.raises(KindMismatch):
            ucompose(IDB, par)

    @pytest.mark.parametrize("formal", [False, True], ids=["machines", "formal"])
    @pytest.mark.parametrize("broken", range(3))
    def test_any_broken_link_raises(self, bits, cpar, broken, formal):
        # Link i joins cells[i] to cells[i + 1], the cell composed before
        # it; exactly that link breaks.
        three = Alphabet("three", ("0", "1", "2"))
        if formal:
            cells = [FormalId(three)] * (broken + 1) + [IDB] * (3 - broken)
        else:
            cells = [cpar] * 4
            cells[broken + 1] = _to_three(bits, three)
        with pytest.raises(EndpointMismatch):
            check_upentagon(*cells)
