import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mealymoore import (
    Alphabet,
    MooreMachine,
    load_machine,
    moorify,
    save_machine,
    universal_p,
    universal_u,
)
from mealymoore.cli import _parse_word, main

from conftest import BITS, make_cpar, make_par


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, m in [
        ("par", make_par()),
        ("cpar", make_cpar()),
        ("u2", universal_u(BITS)),
        ("p2", universal_p(BITS)),
    ]:
        path = tmp_path / ("%s.machine" % name)
        save_machine(m, path)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestParseWord:
    def test_contiguous(self):
        assert _parse_word("101", BITS) == ("1", "0", "1")

    def test_comma_separated(self):
        assert _parse_word("1, 0, 1", BITS) == ("1", "0", "1")

    def test_space_separated(self):
        assert _parse_word("1 0 1", BITS) == ("1", "0", "1")

    def test_empty(self):
        assert _parse_word("", BITS) == ()

    def test_single_multichar_symbol(self):
        from mealymoore import Alphabet

        assert _parse_word("go", Alphabet("w", ("go", "stop"))) == ("go",)


class TestValidate:
    def test_valid(self, files, capsys):
        assert main(["validate", files["par"]]) == 0
        assert capsys.readouterr().out == "valid: mealy, 2 states\n"

    def test_moore(self, files, capsys):
        assert main(["validate", files["cpar"]]) == 0
        assert "moore" in capsys.readouterr().out

    def test_missing_file(self, files, capsys):
        assert main(["validate", str(files["dir"] / "nope.machine")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, files, capsys):
        bad = files["dir"] / "bad.machine"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2


DEMO_MACHINES = Path(__file__).resolve().parent.parent / "demos" / "machines"


def _cpar_doc():
    return json.loads((DEMO_MACHINES / "cpar.machine").read_text(encoding="utf-8"))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _with(doc, path, value):
    _at(doc, path[:-1])[path[-1]] = value
    return doc


BAD_FILES = {
    "list-delta-target": json.dumps(_with(_cpar_doc(), ("delta", "q0", "0"), ["q0"])).encode(),
    "list-state-name": json.dumps(_with(_cpar_doc(), ("states", 0), ["q0"])).encode(),
    "not-utf8": b'{"version": 1, "kind": "moore\xff"}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_file_is_bad_input(tmp_path, capsys, command, name):
    path = tmp_path / "bad.machine"
    path.write_bytes(BAD_FILES[name])
    argv = [command, str(path)] + (["--start", "q0", "--word", "1"] if command == "run" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _with_delta_target(text):
    """The cpar document with the JSON ``text`` as one delta target."""
    doc = json.dumps(_with(_cpar_doc(), ("delta", "q0", "0"), "HOLE"))
    return doc.replace('"HOLE"', text).encode()


HUGE_TARGETS = {
    "nested-500-deep": "[" * 500 + '"q0"' + "]" * 500,
    "list-of-10000": json.dumps(["q0"] * 10_000),
}


@pytest.mark.parametrize("name", sorted(HUGE_TARGETS))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_huge_delta_target_gives_short_error(tmp_path, capsys, command, name):
    path = tmp_path / "bad.machine"
    path.write_bytes(_with_delta_target(HUGE_TARGETS[name]))
    argv = [command, str(path)] + (["--start", "q0", "--word", "1"] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delta target" in err
    assert len(err) < 200


def _nodes(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_machine_texts(draw):
    """A demo machine document with one to three of: a value replaced by
    a list, an int or an object, a key or element dropped, the text cut."""
    path = draw(st.sampled_from(sorted(DEMO_MACHINES.glob("*.machine"))))
    doc = json.loads(path.read_text(encoding="utf-8"))
    states = list(doc["states"])
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(list(_nodes(doc))))
        how = draw(st.sampled_from(["list", "int", "object"] + (["drop"] if target else [])))
        old = _at(doc, target)
        new = {"list": [old], "int": draw(st.integers(-2, 2)), "object": {"x": old}}.get(how)
        if not target:
            doc = new
        elif how == "drop":
            del _at(doc, target[:-1])[target[-1]]
        else:
            _with(doc, target, new)
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    start = draw(st.sampled_from(states + ["q0"]))
    return text, start, draw(st.sampled_from(["", "1", "01", "101"]))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_machine_texts())
def test_mutated_files_never_crash(case):
    # The exit-code contract: 0 or 1 for a verdict, 2 for bad input, and
    # never an escaping exception.
    text, start, word = case
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "fuzz.machine")
        Path(path).write_text(text, encoding="utf-8")
        assert main(["validate", path]) in (0, 1, 2)
        assert main(["run", path, "--start", start, "--word", word]) in (0, 1, 2)


class TestRun:
    def test_mealy(self, files, capsys):
        assert main(["run", files["par"], "--start", "q0", "--word", "101"]) == 0
        assert capsys.readouterr().out == "final: 0\ntrace: 1 1 0\n"

    def test_moore(self, files, capsys):
        assert main(["run", files["cpar"], "--start", "q0", "--word", "101"]) == 0
        assert capsys.readouterr().out == "final: 0\ntrace: 0 1 1 0\n"

    def test_unknown_start(self, files, capsys):
        assert main(["run", files["par"], "--start", "zz", "--word", "1"]) == 2

    def test_letter_outside_alphabet(self, files, capsys):
        assert main(["run", files["par"], "--start", "q0", "--word", "2"]) == 2

    def test_empty_word_on_mealy(self, files, capsys):
        assert main(["run", files["par"], "--start", "q0", "--word", ""]) == 2


class TestCompose:
    def test_stdout(self, files, capsys):
        assert main(["compose", files["par"], files["par"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "mealy"
        assert len(doc["states"]) == 4
        assert "⟨q0,q0⟩" in doc["states"]

    def test_output_file_reloads(self, files, capsys):
        out = str(files["dir"] / "cc.machine")
        assert main(["compose", files["u2"], files["cpar"], "-o", out]) == 0
        m = load_machine(out)
        assert len(m.states) == 4

    def test_mixed_kind_is_moore(self, files, capsys):
        assert main(["compose", files["cpar"], files["par"]]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "moore"

    def test_output_name_collision_refused(self, tmp_path, capsys):
        # Composite states ("a", "b,c") and ("a,b", "c") would both be
        # written as ⟨a,b,c⟩, and the file could not be loaded back.
        one = Alphabet("one", ("x",))
        paths = []
        for name, states in [("second", ("a", "a,b")), ("first", ("b,c", "c"))]:
            m = MooreMachine(one, one, states, {(e, "x"): e for e in states},
                             {e: "x" for e in states})
            paths.append(str(tmp_path / ("%s.machine" % name)))
            save_machine(m, paths[-1])
        out = tmp_path / "cc.machine"
        assert main(["compose", paths[0], paths[1], "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'a,b'" in err and "'b,c'" in err
        assert not out.exists()

    def test_endpoint_mismatch(self, files, tmp_path, capsys):
        three = tmp_path / "three.machine"
        three.write_text(json.dumps({
            "version": 1, "kind": "mealy",
            "input": ["a"], "output": ["a"], "states": ["s"],
            "delta": {"s": {"a": "s"}}, "out": {"s": {"a": "a"}},
        }))
        assert main(["compose", str(three), files["par"]]) == 2


class TestTransform:
    def test_d1_of_cpar_is_par(self, files, capsys):
        assert main(["transform", "d1", files["cpar"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == json.loads(open(files["par"]).read())

    def test_moorify(self, files, capsys):
        # Serialization renders pair states as "⟨b,e⟩" strings, so
        # compare the reloaded machine to the reserialized original.
        from mealymoore import machine_from_raw, machine_to_raw

        out = str(files["dir"] / "moorified.machine")
        assert main(["transform", "moorify", files["par"], "-o", out]) == 0
        expected = machine_from_raw(machine_to_raw(moorify(make_par())))
        assert load_machine(out) == expected

    def test_u_from_alphabet(self, files, capsys):
        assert main(["transform", "u", "--alphabet", "0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "moore"
        assert doc["states"] == ["0", "1"]

    def test_u_requires_alphabet(self, files, capsys):
        assert main(["transform", "u"]) == 2

    def test_embed_j_rejects_mealy(self, files, capsys):
        assert main(["transform", "embed-j", files["par"]]) == 2

    def test_moorify_rejects_moore(self, files, capsys):
        assert main(["transform", "moorify", files["cpar"]]) == 2


class TestCheck:
    def test_soft_true(self, files, capsys):
        assert main(["check", "soft", files["p2"]]) == 0
        assert capsys.readouterr().out == "soft: true\n"

    def test_soft_false(self, files, capsys):
        assert main(["check", "soft", files["u2"]]) == 1
        assert capsys.readouterr().out == "soft: false\n"

    def test_soft_rejects_mealy(self, files, capsys):
        assert main(["check", "soft", files["par"]]) == 2

    def test_n_soft(self, files, capsys):
        assert main(["check", "n-soft", "3", files["p2"]]) == 0
        assert capsys.readouterr().out == "3-soft: true\n"
        assert main(["check", "n-soft", "3", files["u2"]]) == 1

    def test_extension_square(self, files, capsys):
        assert main(["check", "extension-square", "5", files["cpar"]]) == 0

    def test_extension_square_long_words(self, files, capsys):
        assert main(["check", "extension-square", "1000000", files["cpar"]]) == 0

    def test_counit(self, files, capsys):
        assert main(["check", "counit", files["par"]]) == 0
        assert capsys.readouterr().out == "counit: true\n"

    def test_j_compat(self, files, capsys):
        assert main(["check", "j-compat", files["par"], files["cpar"]]) == 0
        assert main(["check", "j-compat", files["par"], files["par"]]) == 2

    def test_pentagon_files(self, files, capsys):
        quad = [files["par"], files["cpar"], files["u2"], files["p2"]]
        assert main(["check", "pentagon"] + quad) == 0

    def test_pentagon_wrong_arity(self, files, capsys):
        assert main(["check", "pentagon", files["par"]]) == 2

    def test_pentagon_has_no_sampling_mode(self, capsys):
        # The pentagon holds by definition, so a sampled run would cover
        # nothing; --samples is an unknown option.
        with pytest.raises(SystemExit) as exc:
            main(["check", "pentagon", "--samples", "20"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "n-soft", "0", "p2"],
    ["check", "extension-square", "0", "cpar"],
    ["search-identity", "--alphabet", "0,1", "--max-states", "0"],
], ids=["n-soft-0", "extension-square-0", "search-identity-max-states-0"])
def test_bound_covering_nothing_is_bad_input(files, capsys, argv):
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


class TestHoms:
    def test_par_self(self, files, capsys):
        assert main(["homs", files["par"], files["par"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("homs: 1\n")
        assert "q0↦q0" in out


class TestAdjunctionAndCorrespondence:
    def test_adjunction(self, files, capsys):
        assert main(["adjunction", files["cpar"], files["par"]]) == 0
        out = capsys.readouterr().out
        assert "adjunction: SUCCESS" in out
        assert "left homs: 1, right homs: 1" in out

    def test_adjunction_wrong_order(self, files, capsys):
        assert main(["adjunction", files["par"], files["cpar"]]) == 2

    def test_correspondence_requires_soft(self, files, capsys):
        assert main(["correspondence", files["u2"], files["par"]]) == 2

    def test_correspondence_on_soft(self, files, capsys):
        rc = main(["correspondence", files["p2"], files["par"]])
        out = capsys.readouterr().out
        assert "correspondence:" in out
        assert rc in (0, 1)


class TestSearchIdentity:
    def test_no_survivors(self, files, capsys):
        rc = main([
            "search-identity", "--alphabet", "0,1", "--max-states", "2",
            "--probe", files["par"],
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "candidates checked: 66" in out
        assert "survivors: 0" in out

    def test_default_probe(self, files, capsys):
        assert main(["search-identity", "--alphabet", "0,1", "--max-states", "1"]) == 0

    def test_singleton_alphabet_warns(self, files, capsys):
        rc = main(["search-identity", "--alphabet", "a", "--max-states", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "warning:" in out


def test_unitize_demo(capsys):
    assert main(["unitize-demo"]) == 0
    out = capsys.readouterr().out
    assert "strict unit laws: True" in out
    assert "triangle: True" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
