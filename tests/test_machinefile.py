import json
import random

import pytest

from mealymoore import (
    Alphabet,
    DuplicateName,
    MachineFileSyntaxError,
    MooreMachine,
    MissingEntry,
    UnknownSymbol,
    VersionMismatch,
    compose_mealy,
    load_machine,
    machine_from_raw,
    machine_to_raw,
    parse_machine_text,
    render_state,
    save_machine,
    serialize_machine,
)
from mealymoore.generate import random_mealy, random_moore


def doc_for(m):
    return json.loads(serialize_machine(m))


class TestRoundtrip:
    def test_par(self, par):
        assert machine_from_raw(parse_machine_text(serialize_machine(par))) == par

    def test_cpar(self, cpar):
        assert machine_from_raw(parse_machine_text(serialize_machine(cpar))) == cpar

    def test_random_machines(self, bits):
        rng = random.Random(23)
        for _ in range(20):
            m = random_mealy(rng, bits, bits, rng.randint(1, 4))
            assert machine_from_raw(parse_machine_text(serialize_machine(m))) == m
            n = random_moore(rng, bits, bits, rng.randint(1, 4))
            assert machine_from_raw(parse_machine_text(serialize_machine(n))) == n

    def test_file_roundtrip(self, par, tmp_path):
        path = tmp_path / "par.machine"
        save_machine(par, path)
        assert load_machine(path) == par

    def test_composite_states_render_and_reload(self, par):
        cc = compose_mealy(par, par)
        reloaded = machine_from_raw(parse_machine_text(serialize_machine(cc)))
        assert reloaded.states == tuple(render_state(s) for s in cc.states)
        assert reloaded.out[("⟨q0,q1⟩", "1")] == cc.out[(("q0", "q1"), "1")]


    def test_colliding_composite_names_refused(self):
        # ("a", "b,c") and ("a,b", "c") both render as ⟨a,b,c⟩.
        one = Alphabet("one", ("x",))
        states = (("a", "b,c"), ("a,b", "c"))
        m = MooreMachine(one, one, states, {(e, "x"): e for e in states}, {e: "x" for e in states})
        with pytest.raises(DuplicateName) as err:
            machine_to_raw(m)
        assert repr(states[0]) in str(err.value) and repr(states[1]) in str(err.value)


class TestRenderState:
    def test_plain(self):
        assert render_state("q0") == "q0"

    def test_pair(self):
        assert render_state(("f", "e")) == "⟨f,e⟩"

    def test_nested(self):
        assert render_state((("h", "g"), "f")) == "⟨⟨h,g⟩,f⟩"


class TestParseErrors:
    def test_truncated_document(self, par):
        text = serialize_machine(par)
        with pytest.raises(MachineFileSyntaxError):
            parse_machine_text(text[: len(text) // 2])

    def test_not_an_object(self):
        with pytest.raises(MachineFileSyntaxError):
            parse_machine_text("[1, 2, 3]")

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_version_mismatch(self, par, version):
        # Only the JSON integer 1 is version 1, although True == 1.0 == 1.
        doc = doc_for(par)
        doc["version"] = version
        with pytest.raises(VersionMismatch):
            parse_machine_text(json.dumps(doc))

    def test_missing_version(self, par):
        doc = doc_for(par)
        del doc["version"]
        with pytest.raises(VersionMismatch):
            parse_machine_text(json.dumps(doc))

    def test_unknown_field(self, par):
        doc = doc_for(par)
        doc["comment"] = "not allowed"
        with pytest.raises(MachineFileSyntaxError):
            parse_machine_text(json.dumps(doc))

    def test_bad_kind(self, par):
        doc = doc_for(par)
        doc["kind"] = "medved"
        with pytest.raises(MachineFileSyntaxError):
            parse_machine_text(json.dumps(doc))


class TestShapeErrors:
    def test_moore_document_with_mealy_out(self, cpar, par):
        doc = doc_for(par)
        doc["kind"] = "moore"
        with pytest.raises(MissingEntry):
            machine_from_raw(parse_machine_text(json.dumps(doc)))

    def test_missing_delta_row(self, par):
        doc = doc_for(par)
        del doc["delta"]["q1"]
        with pytest.raises(MissingEntry):
            machine_from_raw(parse_machine_text(json.dumps(doc)))

    def test_stray_output_letter(self, par):
        doc = doc_for(par)
        doc["out"]["q0"]["0"] = "7"
        with pytest.raises(UnknownSymbol):
            machine_from_raw(parse_machine_text(json.dumps(doc)))
