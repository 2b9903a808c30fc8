import random
from types import MappingProxyType

import pytest

from mealymoore import (
    Alphabet,
    DuplicateName,
    EndpointMismatch,
    FormalId,
    KindMismatch,
    MachineError,
    MealyMachine,
    MissingEntry,
    MooreMachine,
    PointedMachine,
    StateMap,
    UMap,
    UnknownSymbol,
    apply_D1,
    associator,
    check_adjunction_D1,
    check_counit,
    check_moorify_functorial,
    compose_cells,
    compose_maps,
    decapitate,
    embed_j,
    enumerate_homs,
    identity_cell,
    identity_map,
    is_homomorphism,
    moorify,
    run,
    search_moore_identity,
    softness_level,
    universal_p,
    universal_u,
    validate_mealy,
    validate_moore,
)
from mealymoore.generate import (
    all_mealy,
    all_mealy_up_to,
    all_moore,
    all_moore_up_to,
    random_cell,
    random_mealy,
    random_moore,
)

from conftest import BITS, make_cpar, make_par
from oracles import random_cell_named, random_named, table_hom


PAR_RAW = {
    "input": ["0", "1"],
    "output": ["0", "1"],
    "states": ["q0", "q1"],
    "delta": {"q0": {"0": "q0", "1": "q1"}, "q1": {"0": "q1", "1": "q0"}},
    "out": {"q0": {"0": "0", "1": "1"}, "q1": {"0": "1", "1": "0"}},
}

CPAR_RAW = {
    "input": ["0", "1"],
    "output": ["0", "1"],
    "states": ["q0", "q1"],
    "delta": {"q0": {"0": "q0", "1": "q1"}, "q1": {"0": "q1", "1": "q0"}},
    "out": {"q0": "0", "q1": "1"},
}


class TestAlphabet:
    def test_empty_rejected(self):
        with pytest.raises(MachineError):
            Alphabet("empty", ())

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(DuplicateName):
            Alphabet("dup", ("0", "0"))

    def test_name_is_a_label_only(self):
        assert Alphabet("a", ("0", "1")) == Alphabet("b", ("0", "1"))

    def test_order_is_fixed(self):
        assert Alphabet("x", ("1", "0")).symbols == ("1", "0")


class TestValidateMealy:
    def test_par_is_well_formed(self):
        m = validate_mealy(PAR_RAW)
        assert m.states == ("q0", "q1")
        assert m.out[("q1", "1")] == "0"

    def test_missing_delta_entry(self):
        raw = {**PAR_RAW, "delta": {"q0": PAR_RAW["delta"]["q0"], "q1": {"0": "q1"}}}
        with pytest.raises(MissingEntry):
            validate_mealy(raw)

    def test_unknown_output_letter(self):
        raw = {**PAR_RAW, "out": {"q0": {"0": "2", "1": "1"}, "q1": PAR_RAW["out"]["q1"]}}
        with pytest.raises(UnknownSymbol):
            validate_mealy(raw)

    def test_unknown_delta_target(self):
        raw = {**PAR_RAW, "delta": {"q0": {"0": "q9", "1": "q1"}, "q1": PAR_RAW["delta"]["q1"]}}
        with pytest.raises(UnknownSymbol):
            validate_mealy(raw)

    def test_duplicate_state(self):
        raw = {**PAR_RAW, "states": ["q0", "q0"]}
        with pytest.raises(DuplicateName):
            validate_mealy(raw)

    def test_idempotent(self):
        assert validate_mealy(PAR_RAW) == validate_mealy(PAR_RAW) == make_par()

    def test_read_only_rows_are_tables(self):
        rows = {e: MappingProxyType(row) for e, row in PAR_RAW["delta"].items()}
        raw = {**PAR_RAW, "delta": MappingProxyType(rows)}
        assert validate_mealy(raw) == make_par()

    def test_list_row_rejected(self):
        raw = {**PAR_RAW, "out": {"q0": ["0", "1"], "q1": PAR_RAW["out"]["q1"]}}
        with pytest.raises(MissingEntry):
            validate_mealy(raw)

    @pytest.mark.parametrize("table, rows, error", [
        # Right size, so the walk's count check passes: the undeclared
        # letter must still be named as such, not as the missing "1".
        ("delta", {"q0": {"0": "q0", "2": "q1"}}, UnknownSymbol),
        ("out", {"q0": {"0": "0", "2": "1"}}, UnknownSymbol),
        ("delta", {"q9": {"0": "q0", "1": "q1"}}, UnknownSymbol),
        ("out", {"q9": {"0": "0", "1": "1"}}, UnknownSymbol),
        ("delta", {"q0": {"0": "q0"}}, MissingEntry),
        ("delta", {"q0": {"0": ["q0"], "1": "q1"}}, UnknownSymbol),
        ("out", {"q0": {"0": ["0"], "1": "1"}}, UnknownSymbol),
    ], ids=["letter-in-place-of-letter", "out-letter-in-place-of-letter", "undeclared-row",
            "out-undeclared-row", "short-row", "unhashable-target", "unhashable-output"])
    def test_bad_table(self, table, rows, error):
        raw = {**PAR_RAW, table: {**PAR_RAW[table], **rows}}
        with pytest.raises(error):
            validate_mealy(raw)


class TestValidateMoore:
    def test_cpar_is_well_formed(self):
        assert validate_moore(CPAR_RAW) == make_cpar()

    def test_mealy_shaped_out_table_rejected(self):
        raw = {**CPAR_RAW, "out": {"q0": {"0": "0"}, "q1": {"0": "1"}}}
        with pytest.raises(MissingEntry):
            validate_moore(raw)

    def test_one_state_machine(self):
        raw = {
            "input": ["0", "1"],
            "output": ["0"],
            "states": ["s"],
            "delta": {"s": {"0": "s", "1": "s"}},
            "out": {"s": "0"},
        }
        m = validate_moore(raw)
        assert m.out["s"] == "0"

    @pytest.mark.parametrize("table, rows, error", [
        ("delta", {"q1": {"0": "q1", "2": "q0"}}, UnknownSymbol),
        ("delta", {"q9": {"0": "q0", "1": "q1"}}, UnknownSymbol),
        ("out", {"q9": "0"}, UnknownSymbol),
        ("out", {"q1": "2"}, UnknownSymbol),
        ("out", {"q1": ["1"]}, UnknownSymbol),
    ], ids=["letter-in-place-of-letter", "undeclared-row", "out-undeclared-state",
            "unknown-output", "unhashable-output"])
    def test_bad_table(self, table, rows, error):
        raw = {**CPAR_RAW, table: {**CPAR_RAW[table], **rows}}
        with pytest.raises(error):
            validate_moore(raw)

    def test_out_entry_in_place_of_a_state(self):
        raw = {**CPAR_RAW, "out": {"q0": "0", "q9": "1"}}
        with pytest.raises(UnknownSymbol):
            validate_moore(raw)


class TestTablesAreCopied:
    """A machine keeps its own tables: mutating the dicts it was built
    from cannot break it after validation."""

    def test_mealy(self, par):
        delta, out = dict(par.delta), dict(par.out)
        m = MealyMachine(BITS, BITS, par.states, delta, out)
        delta[("q0", "0")] = "zzz"
        del out[("q1", "1")]
        assert m == par
        assert run(PointedMachine(m, "q0"), ("0", "1", "1")) == "0"

    def test_moore(self, cpar):
        delta, out = dict(cpar.delta), dict(cpar.out)
        m = MooreMachine(BITS, BITS, cpar.states, delta, out)
        delta[("q0", "0")] = "zzz"
        out["q1"] = "zzz"
        assert m == cpar
        assert run(PointedMachine(m, "q0"), ("0", "1")) == "1"


def _read_only_cases():
    """(machine, machines that may share its tables) for each way a
    machine is built."""
    a = BITS
    par, cpar = make_par(), make_cpar()
    enumerated = list(all_mealy(a, a, 1))
    randoms = [random_moore(random.Random(3), a, a, 2) for _ in range(2)]
    u = universal_u(a)
    return {
        "validated": (par, [make_par()]),
        "all_mealy": (enumerated[0], enumerated[1:]),
        "random_moore": (randoms[0], randoms[1:]),
        "composite": (compose_cells(par, cpar), [par, cpar]),
        "embed_j": (embed_j(cpar), [cpar, apply_D1(cpar)]),
        "apply_D1": (apply_D1(cpar), [cpar, embed_j(cpar)]),
        "universal_u": (u, [moorify(par), universal_u(Alphabet("renamed", a.symbols))]),
    }


class TestReadOnlyTables:
    """delta and out are read-only on every machine, so a write can
    neither make the named tables disagree with the index form the
    kernels read nor reach a machine that shares a table."""

    @pytest.mark.parametrize("case", sorted(_read_only_cases()))
    def test_assignment_raises(self, case):
        m, sharers = _read_only_cases()[case]
        machines = [m] + sharers
        before = [(dict(x.delta), dict(x.out), x == rebuilt(x)) for x in machines]
        key, cell = next(iter(m.delta)), next(iter(m.out))
        for table, k, value in ((m.delta, key, m.states[-1]), (m.out, cell, m.output.symbols[-1])):
            with pytest.raises(TypeError):
                table[k] = value
            with pytest.raises(TypeError):
                del table[k]
        assert [(dict(x.delta), dict(x.out), x == rebuilt(x)) for x in machines] == before
        assert all(same for _, _, same in before)


def _values():
    """One value of each of the library's 11 immutable classes (the
    machine class as both kinds), by class name."""
    par, cpar = make_par(), make_cpar()
    return {type(v).__name__: v for v in (
        BITS, par, cpar, identity_map(par), associator(cpar, cpar, cpar),
        PointedMachine(par, "q0"), softness_level(cpar, 2), FormalId(BITS),
        UMap(cpar, cpar, identity_map(cpar)), enumerate_homs(par, par),
        check_adjunction_D1(cpar, par), search_moore_identity(BITS, [par], 1),
    )}


class TestValuesAreImmutable:
    @pytest.mark.parametrize("name", sorted(_values()))
    def test_field_writes_raise(self, name):
        value = _values()[name]
        field = value._fields[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.unknown = None
        assert getattr(value, field) is before

    @pytest.mark.parametrize("name", sorted(_values()))
    def test_repr_names_class_and_fields(self, name):
        # perfbench/selftest.py fingerprints its inputs by this repr, so it
        # must hold the fields, never a memory address.
        value = _values()[name]
        fields = ", ".join("%s=%r" % (f, getattr(value, f)) for f in value._fields)
        assert repr(value) == "%s(%s)" % (name, fields)
        assert " at 0x" not in repr(value)

    @pytest.mark.parametrize("name", sorted(_values()))
    def test_unequal_to_other_classes(self, name):
        values = _values()
        value = values[name]
        for other in (v for n, v in values.items() if n != name):
            assert value.__eq__(other) is NotImplemented
            assert value != other and not value == other

    @pytest.mark.parametrize(
        "name", ["BijectionReport", "FormalId", "HomSet", "IdentitySearchReport", "SoftnessReport"]
    )
    def test_records_rebuild_from_their_fields(self, name):
        value = _values()[name]
        fields = [getattr(value, f) for f in value._fields]
        assert type(value)(*fields) == value
        with pytest.raises(TypeError):
            type(value)(*fields[:-1])
        with pytest.raises(TypeError):
            type(value)(*fields, None)

    def test_formal_identity_hash_ignores_alphabet_name(self):
        renamed = FormalId(Alphabet("renamed", BITS.symbols))
        assert renamed == FormalId(BITS) and hash(renamed) == hash(FormalId(BITS))

    def test_alphabet_membership_and_iteration(self):
        assert "0" in BITS and "2" not in BITS
        assert list(BITS) == ["0", "1"]


class TestIdentityCell:
    def test_echoes_each_letter(self, bits):
        cell = identity_cell(bits)
        assert len(cell.states) == 1
        assert cell.out[("*", "0")] == "0"
        assert cell.out[("*", "1")] == "1"

    def test_singleton_alphabet_is_constant(self):
        cell = identity_cell(Alphabet("one", ("a",)))
        assert set(cell.out.values()) == {"a"}


class TestIsHomomorphism:
    def test_identity_map(self, par):
        assert is_homomorphism(identity_map(par))

    def test_swap_fails_on_output(self, par):
        # q0↔q1 commutes with the dynamics but flips the output rows.
        swap = StateMap(par, par, {"q0": "q1", "q1": "q0"})
        assert not is_homomorphism(swap)
        assert not table_hom(par, par, swap.map)

    def test_constant_fails_on_equivariance(self, par):
        const = StateMap(par, par, {"q0": "q0", "q1": "q0"})
        assert not is_homomorphism(const)

    def test_endpoint_mismatch(self, par):
        other = Alphabet("three", ("0", "1", "2"))
        raw = {
            "input": ["0", "1"],
            "output": ["0", "1", "2"],
            "states": ["s"],
            "delta": {"s": {"0": "s", "1": "s"}},
            "out": {"s": {"0": "0", "1": "1"}},
        }
        target = validate_mealy(raw)
        with pytest.raises(EndpointMismatch):
            StateMap(par, target, {"q0": "s", "q1": "s"})

    def test_kind_mismatch(self, par, cpar):
        with pytest.raises(KindMismatch):
            StateMap(par, cpar, {"q0": "q0", "q1": "q1"})

    def test_composition_of_homs_is_hom(self, par):
        phi = identity_map(par)
        psi = identity_map(par)
        assert is_homomorphism(compose_maps(psi, phi))

    def test_compose_maps_applies_phi_first(self, par):
        phi = StateMap(par, par, {"q0": "q1", "q1": "q1"})
        psi = StateMap(par, par, {"q0": "q0", "q1": "q0"})
        assert dict(compose_maps(psi, phi).map) == {"q0": "q0", "q1": "q0"}
        assert dict(compose_maps(phi, psi).map) == {"q0": "q1", "q1": "q1"}

    def test_compose_maps_needs_a_shared_middle(self, par, cpar):
        with pytest.raises(EndpointMismatch):
            compose_maps(identity_map(cpar), identity_map(par))

    def test_map_totality_enforced(self, par):
        with pytest.raises(MissingEntry):
            StateMap(par, par, {"q0": "q0"})

    @pytest.mark.parametrize("composite", [False, True], ids=["plain", "composite"])
    def test_extra_entry(self, par, composite):
        m = compose_cells(par, par) if composite else par
        with pytest.raises(UnknownSymbol):
            StateMap(m, m, {**{e: e for e in m.states}, "q9": m.states[0]})

    @pytest.mark.parametrize("composite, image", [
        (False, ("q0", "q1")), (False, "q9"), (False, ["q0"]),
        (True, ("q0", "q9")), (True, "q0"), (True, (["q0"], "q0")),
    ], ids=["plain-pair", "plain-name", "plain-unhashable",
            "composite-pair", "composite-non-tuple", "composite-unhashable"])
    def test_image_not_a_target_state(self, par, composite, image):
        m = compose_cells(par, par) if composite else par
        with pytest.raises(UnknownSymbol):
            StateMap(m, m, {**{e: e for e in m.states}, m.states[-1]: image})

    def test_checked_images_are_the_index_images(self, par):
        m = compose_cells(par, par)
        phi = StateMap(m, m, {e: m.states[-1 - i] for i, e in enumerate(m.states)})
        assert phi._img == (3, 2, 1, 0)


def named_verdict(phi, psi):
    """Equality of state maps decided on their named maps."""
    return (phi.source, phi.target, dict(phi.map)) == (psi.source, psi.target, dict(psi.map))


class TestStateMapEquality:
    def test_builds_no_map(self, par):
        # Every state of m moves to s0 and emits 0: its homs fix s0 and
        # send s1 and s2 anywhere.
        q = ("s0", "s1", "s2")
        m = MooreMachine(BITS, BITS, q, {(e, x): "s0" for e in q for x in "01"}, dict.fromkeys(q, "0"))
        phi, psi = enumerate_homs(par, par).homs[0], enumerate_homs(par, par).homs[0]
        first, second = enumerate_homs(m, m), enumerate_homs(m, m)
        maps = (phi, psi) + first.homs + second.homs
        assert len(first.homs) == 9 and not any("map" in x.__dict__ for x in maps)
        assert phi == psi and not phi != psi
        assert first == second
        assert not any("map" in x.__dict__ for x in maps)

    def test_verdicts_match_named_maps(self):
        # Homs the library built and maps the public constructor built,
        # between seeded machines and their rebuilt equal copies.
        rng = random.Random(17)
        a = Alphabet("A", ("0", "1"))
        machines = []
        for _ in range(6):
            m = rng.choice((random_mealy, random_moore))(rng, a, a, rng.randint(1, 3))
            machines += [m, rebuilt(m)]
        maps = []
        for m1 in machines:
            for m2 in machines:
                if type(m1) is type(m2):
                    maps += enumerate_homs(m1, m2).homs
                    maps.append(StateMap(m1, m2, {e: rng.choice(m2.states) for e in m1.states}))
        verdicts = [phi == psi for phi in maps for psi in maps]
        assert verdicts == [named_verdict(phi, psi) for phi in maps for psi in maps]
        assert 0 < sum(verdicts) < len(verdicts)
        # Equal endpoints with different images are told apart.
        assert any(phi.source == psi.source and phi.target == psi.target and not phi == psi
                   for phi in maps for psi in maps)


def rebuilt(m):
    """The machine the public, checking constructor builds from m's fields."""
    return type(m)(m.input, m.output, m.states, m.delta, m.out)


def assert_as_if_checked(m):
    assert type(m.states) is tuple
    checked = rebuilt(m)
    assert type(m.delta) is type(checked.delta) and type(m.out) is type(checked.out)
    assert m == checked
    assert (m.states, m.delta, m.out) == (checked.states, checked.delta, checked.out)


class TestTrustedConstruction:
    """Machines and maps the library builds without the check are the
    ones the public constructors would build from the same fields."""

    def test_library_built_machines(self):
        rng = random.Random(5)
        a = Alphabet("A", ("0", "1"))
        for m in list(all_mealy_up_to(a, a, 1)) + list(all_moore_up_to(a, a, 2)):
            assert_as_if_checked(m)
        for _ in range(60):
            moore = random_moore(rng, a, a, rng.randint(1, 3))
            mealy = random_mealy(rng, a, a, rng.randint(1, 3))
            cells = [moore, mealy, random_cell(rng, a, a, 3)]
            built = cells + [embed_j(moore), apply_D1(moore), moorify(mealy), decapitate(mealy)]
            built += [compose_cells(g, f) for g in cells for f in cells]
            for m in built:
                assert_as_if_checked(m)

    def test_library_built_maps(self):
        rng = random.Random(6)
        a = Alphabet("A", ("0", "1"))
        for _ in range(60):
            h, g, f = (random_cell(rng, a, a, 2) for _ in range(3))
            bij = associator(h, g, f)
            phis = [bij.forward, bij.backward]
            m1, m2 = random_mealy(rng, a, a, 2), random_mealy(rng, a, a, 2)
            phis += enumerate_homs(m1, m2).homs
            for phi in phis:
                assert phi == StateMap(phi.source, phi.target, phi.map)
            # The maps these checks build inside, built here publicly.
            src = apply_D1(moorify(m1))
            assert check_counit(m1)
            assert is_homomorphism(StateMap(src, m1, {s: s[1] for s in src.states}))
            for phi in enumerate_homs(m1, m2).homs:
                lift = StateMap(moorify(m1), moorify(m2),
                                {(b, e): (b, phi.map[e]) for b, e in moorify(m1).states})
                assert check_moorify_functorial(phi)
                assert is_homomorphism(lift)

    @pytest.mark.parametrize("make", [
        lambda a: next(all_mealy(a, a, 0)),
        lambda a: next(all_moore(a, a, 0)),
        lambda a: random_mealy(random.Random(0), a, a, 0),
        lambda a: random_moore(random.Random(0), a, a, 0),
        lambda a: random_cell(random.Random(0), a, a, 0),
    ])
    def test_generators_refuse_zero_states(self, bits, make):
        # The public constructor refused these; the generators must too.
        with pytest.raises(MachineError):
            make(bits)

    @pytest.mark.parametrize("kind", ["mealy", "moore", "cell"])
    def test_seeded_stream_is_pinned(self, kind):
        # Each seed gives the machine the named-first draw gives, leaves
        # the generator where that draw leaves it, and starts in index form.
        letters = ("a", "b", "c")
        for seed in range(20):
            for k in (1, 2, 3):
                inp, outp = Alphabet("A", letters[:k]), Alphabet("B", letters[:4 - k])
                for n in range(1, 8):
                    rng, ref = random.Random(seed), random.Random(seed)
                    if kind == "cell":
                        m = random_cell(rng, inp, outp, n)
                        want_kind, *want = random_cell_named(ref, inp, outp, n)
                    else:
                        want_kind = MealyMachine if kind == "mealy" else MooreMachine
                        make = random_mealy if kind == "mealy" else random_moore
                        m = make(rng, inp, outp, n)
                        want = random_named(ref, want_kind, inp, outp, n)
                    assert "_d" in m.__dict__ and "delta" not in m.__dict__
                    assert type(m) is want_kind
                    assert (m.states, m.delta, m.out) == tuple(want)
                    assert rng.random() == ref.random()

    def test_universal_cells_are_built_once(self, bits):
        assert universal_u(bits) is universal_u(bits)
        assert universal_p(bits) is universal_p(bits)
        assert_as_if_checked(universal_u(bits))
        assert_as_if_checked(universal_p(bits))
