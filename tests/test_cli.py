import contextlib
import io
import json
import os
import random
import shlex
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mealymoore import (
    Alphabet,
    MealyMachine,
    MooreMachine,
    __version__,
    cli,
    compose_cells,
    load_machine,
    machine_from_raw,
    machine_to_raw,
    moorify,
    save_machine,
    serialize_machine,
    universal_p,
    universal_u,
)
from mealymoore.cli import _parse_word, main
from mealymoore.generate import random_mealy

from conftest import BITS, make_cpar, make_par
from oracles import machine_text


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
DEMO_FILES = sorted(DEMO_MACHINES.glob("*.machine"))


def _demo_doc(name="cpar"):
    return json.loads((DEMO_MACHINES / ("%s.machine" % name)).read_text(encoding="utf-8"))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _with(doc, path, value):
    _at(doc, path[:-1])[path[-1]] = value
    return doc


BAD_FILES = {
    "list-delta-target": json.dumps(_with(_demo_doc(), ("delta", "q0", "0"), ["q0"])).encode(),
    "list-state-name": json.dumps(_with(_demo_doc(), ("states", 0), ["q0"])).encode(),
    # par with its q0 delta row keyed by the undeclared letter 2 in place of 1.
    "undeclared-letter": json.dumps(
        _with(_demo_doc("par"), ("delta", "q0"), {"0": "q0", "2": "q1"})).encode(),
    # Only the JSON integer 1 is version 1.
    "version-true": json.dumps(_with(_demo_doc("par"), ("version",), True)).encode(),
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


@pytest.mark.parametrize("argv", [["transform", "moorify"], ["transform", "decapitate"],
                                  ["check", "counit"]], ids=" ".join)
def test_kind_error_names_the_operation(files, capsys, argv):
    assert main(argv + [files["cpar"]]) == 2
    captured = capsys.readouterr()
    name = {"counit": "check_counit"}.get(argv[1], argv[1])
    assert captured.out == ""
    assert captured.err == "error: %s: expected a MealyMachine, got a MooreMachine\n" % name


def _symbol_doc(symbol):
    """cpar with its input letter "0" replaced by ``symbol`` and its delta
    rows keyed by str(symbol), as a reader applying str() would load it."""
    doc = _demo_doc()
    doc["input"][0] = symbol
    for row in doc["delta"].values():
        row[str(symbol)] = row.pop("0")
    return json.dumps(doc).encode()


@pytest.mark.parametrize("symbol", [None, True, [1]], ids=json.dumps)
def test_symbol_neither_string_nor_integer_is_bad_input(tmp_path, capsys, symbol):
    path = tmp_path / "bad.machine"
    path.write_bytes(_symbol_doc(symbol))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input symbol %r is neither a string nor an integer\n" % (symbol,)


def test_huge_integer_is_bad_input(tmp_path, capsys):
    # 5000 digits: where int() limits its input, json.loads raises a bare
    # ValueError; elsewhere the document lacks its alphabets.  Both exit 2.
    path = tmp_path / "huge.machine"
    path.write_text('{"version": 1, "kind": "moore", "states": [%s]}' % ("9" * 5000))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _with_delta_target(text):
    """The cpar document with the JSON ``text`` as one delta target."""
    doc = json.dumps(_with(_demo_doc(), ("delta", "q0", "0"), "HOLE"))
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


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.stem)
def test_demo_machine_validates_and_is_written_back_byte_for_byte(path, capsys):
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid: ")
    assert serialize_machine(load_machine(path)).encode("utf-8") == path.read_bytes()


def _from_depth(extra, call):
    """call() made from ``extra`` more stack frames."""
    return call() if extra == 0 else _from_depth(extra - 1, call)


@pytest.mark.parametrize("extra", [0, 600])
def test_deep_target_is_bad_input_from_any_depth(tmp_path, capsys, extra):
    # Depending on the caller's stack depth the 985-deep target is refused
    # by the JSON parser or by the table check; both are one error line.
    path = tmp_path / "deep.machine"
    path.write_bytes(_with_delta_target("[" * 985 + '"q0"' + "]" * 985))
    assert _from_depth(extra, lambda: main(["validate", str(path)])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def _nodes(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


# What a fuzzed file renames a state or symbol to.
ODD_NAMES = ["\ud800x", "", " ", "a,b", "-x", "⟨a,b⟩", "0"]


def _renamed(node, old, new):
    """The JSON document node with every string equal to ``old``, key or
    value, replaced by ``new``."""
    if isinstance(node, dict):
        return {(new if k == old else k): _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


@st.composite
def mutated_machine_texts(draw):
    """A demo machine document with, half the time, one state or symbol
    renamed everywhere to one of ODD_NAMES, and otherwise one to three
    of: a value replaced by a list, an int or an object, a key or element
    dropped, the text cut.  With it a start state, a word and a second
    demo file."""
    path = draw(st.sampled_from(DEMO_FILES))
    doc = json.loads(path.read_text(encoding="utf-8"))
    names = sorted({*doc["states"], *doc["input"], *doc["output"]})
    start = draw(st.sampled_from(list(doc["states"]) + ["q0"]))
    if draw(st.booleans()):
        old, new = draw(st.sampled_from(names)), draw(st.sampled_from(ODD_NAMES))
        doc, start = _renamed(doc, old, new), new if start == old else start
        text = json.dumps(doc)
    else:
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
    other = str(draw(st.sampled_from(DEMO_FILES)))
    return text, start, draw(st.sampled_from(["", "1", "01", "101"])), other, draw(st.booleans())


@settings(max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mutated_machine_texts())
def test_mutated_files_never_crash(capsys, monkeypatch, case):
    # The exit-code contract on every command that reads a file, printing
    # to a strict UTF-8 stdout: 0 or 1 for a verdict, 2 for bad input,
    # never an escaping exception, and a handler's 2 with exactly one
    # error line.  A request argparse refuses (such as a start state
    # named -x) exits 2 through SystemExit with its usage text.  A command
    # of two files gets a demo file as well, on either side.
    text, start, word, other, first = case
    _strict_utf8_stdout(monkeypatch)
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "fuzz.machine")
        Path(path).write_text(text, encoding="utf-8")
        two = [path, other] if first else [other, path]
        argvs = [
            ["validate", path],
            ["run", path, "--start", start, "--word", word],
            ["homs", *two],
            ["compose", *two],
            ["compose", *two, "-o", str(Path(scratch) / "out.machine")],
            *(["transform", op, path] for op in ("moorify", "decapitate", "d1", "embed-j")),
            ["check", "soft", path],
            ["check", "n-soft", "2", path],
            ["check", "counit", path],
            ["check", "extension-square", "3", path],
            ["check", "j-compat", *two],
            ["adjunction", *two],
            ["correspondence", *two],
            ["search-identity", "--alphabet", "0,1", "--max-states", "1", "--probe", path],
        ]
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2 and capsys.readouterr().err.startswith("usage: mealymoore ")
                continue
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


class TestRun:
    def test_mealy(self, files, capsys):
        for flag in ("--word", "--wo"):  # argparse reads the abbreviation
            assert main(["run", files["par"], "--start", "q0", flag, "101"]) == 0
            assert capsys.readouterr().out == "final: 0\ntrace: 1 1 0\n"

    def test_moore(self, files, capsys):
        assert main(["run", files["cpar"], "--start", "q0", "--word", "101"]) == 0
        assert capsys.readouterr().out == "final: 0\ntrace: 0 1 1 0\n"

    def test_unknown_start(self, files, capsys):
        assert main(["run", files["par"], "--start", "zz", "--word", "1"]) == 2

    def test_letter_outside_alphabet(self, files, capsys):
        for word in ("2", "1x1"):
            assert main(["run", files["par"], "--start", "q0", "--word", word]) == 2

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


def test_compose_overwrites_a_larger_file(files, capsys):
    # The file already holds u2⋄u2⋄cpar; writing u2⋄cpar over it leaves
    # exactly what compose prints, which validates.
    out = str(files["dir"] / "x.machine")
    inner = str(files["dir"] / "u2_cpar.machine")
    assert main(["compose", files["u2"], files["cpar"], "-o", inner]) == 0
    assert main(["compose", files["u2"], inner, "-o", out]) == 0
    larger = Path(out).stat().st_size
    capsys.readouterr()
    assert main(["compose", files["u2"], files["cpar"]]) == 0
    printed = capsys.readouterr().out
    assert main(["compose", files["u2"], files["cpar"], "-o", out]) == 0
    assert len(printed.encode("utf-8")) < larger
    assert Path(out).read_bytes() == printed.encode("utf-8")
    assert main(["validate", out]) == 0
    assert capsys.readouterr().out == "valid: moore, 4 states\n"


def test_compose_to_dev_null(files, capsys):
    assert main(["compose", files["u2"], files["cpar"], "-o", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_surrogate_state_validates_but_is_not_written(files, capsys):
    # par with its state q1 written as the JSON escape \ud800x.
    path = str(files["dir"] / "surrogate.machine")
    text = Path(files["par"]).read_text(encoding="utf-8").replace('"q1"', '"\\ud800x"')
    Path(path).write_text(text, encoding="utf-8")
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "valid: mealy, 2 states\n"
    target, absent = files["dir"] / "target.machine", files["dir"] / "absent.machine"
    target.write_bytes(Path(files["u2"]).read_bytes())
    error = ("error: state ('q0', '\\ud800x') holds a lone surrogate; "
             "a machine file is UTF-8 text\n")
    for argv in (["compose", files["par"], path, "-o", str(target)],
                 ["compose", files["par"], path, "-o", str(absent)],
                 ["compose", files["par"], path]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", error)
    assert target.read_bytes() == Path(files["u2"]).read_bytes()
    assert not absent.exists()
    assert main(["transform", "moorify", path]) == 2
    assert capsys.readouterr() == ("", error.replace("'q0'", "'0'"))


def _strict_utf8_stdout(monkeypatch):
    """Send stdout to a strict UTF-8 stream, as a UTF-8 terminal has; the
    bytes written are returned at the end."""
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", write_through=True)
    monkeypatch.setattr("sys.stdout", stream)
    return stream.buffer


def test_homs_on_a_surrogate_state_is_bad_input(files, capsys, monkeypatch):
    # par with its state q1 written as the JSON escape \ud800x: it
    # validates, but a hom line naming that state cannot be printed.
    path = files["dir"] / "surrogate.machine"
    path.write_text(Path(files["par"]).read_text(encoding="utf-8").replace('"q1"', '"\\ud800x"'),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    printed = _strict_utf8_stdout(monkeypatch)
    assert main(["homs", str(path), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert printed.getvalue().decode("utf-8").startswith("homs: 1\n")


def test_run_on_a_surrogate_output_symbol_is_bad_input(files, capsys, monkeypatch):
    # cpar with its output symbol 1 written as the JSON escape \ud800y.
    doc = _demo_doc()
    doc["output"] = ["0", "\ud800y"]
    doc["out"]["q1"] = "\ud800y"
    path = files["dir"] / "surrogate.machine"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    _strict_utf8_stdout(monkeypatch)
    assert main(["run", str(path), "--start", "q0", "--word", "101"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_written_files_match_the_oracle(tmp_path, capsys):
    # compose -o into a 48-state composite, compose that file again into
    # nested names, then validate and moorify the result: every file the
    # CLI writes is what json.dumps prints for the in-memory machine.
    rng = random.Random(19)
    first, second, third = (random_mealy(rng, BITS, BITS, n) for n in (8, 6, 2))
    paths = {}
    for name, m in (("first", first), ("second", second), ("third", third)):
        paths[name] = str(tmp_path / ("%s.machine" % name))
        save_machine(m, paths[name])
        assert Path(paths[name]).read_text(encoding="utf-8") == machine_text(m)
    inner = compose_cells(second, first)
    nested = compose_cells(third, inner)
    steps = [
        (["compose", paths["second"], paths["first"]], "inner", inner),
        (["compose", paths["third"], str(tmp_path / "inner.machine")], "nested", nested),
        (["transform", "moorify", str(tmp_path / "nested.machine")], "moorified", moorify(nested)),
    ]
    for argv, name, m in steps:
        out = tmp_path / ("%s.machine" % name)
        assert main(argv + ["-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == machine_text(m)
    assert len(inner.states) == 48 and "⟨s0,⟨s5,s7⟩⟩" in load_machine(tmp_path / "nested.machine").states
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "nested.machine")]) == 0
    assert capsys.readouterr().out == "valid: mealy, 96 states\n"


class TestTransform:
    def test_d1_of_cpar_is_par(self, files, capsys):
        assert main(["transform", "d1", files["cpar"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == json.loads(open(files["par"]).read())

    def test_moorify(self, files, capsys):
        # Serialization renders pair states as "⟨b,e⟩" strings, so
        # compare the reloaded machine to the reserialized original.
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

    def test_moorify_requires_file(self, files, capsys):
        assert main(["transform", "moorify"]) == 2
        assert capsys.readouterr().err == "error: transform moorify needs a machine file\n"


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
        assert main(["check", "pentagon", files["par"], files["cpar"], files["u2"]]) == 2

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
    # Past the enumeration guard; the machines are never counted in full.
    ["search-identity", "--alphabet", "0,1", "--max-states", "800"],
    # Not a bound: a Moore probe after a Mealy one, refused by the library.
    ["search-identity", "--alphabet", "0,1", "--max-states", "1", "--probe", "par",
     "--probe", "cpar"],
], ids=["n-soft-0", "extension-square-0", "search-identity-max-states-0",
        "search-identity-max-states-800", "search-identity-moore-probe"])
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
        assert main(["correspondence", files["p2"], files["par"]]) == 0
        assert capsys.readouterr().out == "correspondence: SUCCESS\n  left homs: 0, right homs: 0\n"

    def test_correspondence_failure(self, files, capsys):
        decapitated = str(files["dir"] / "decapitated.machine")
        assert main(["transform", "decapitate", files["par"], "-o", decapitated]) == 0
        assert main(["correspondence", decapitated, files["par"]]) == 1
        out = capsys.readouterr().out
        assert out.startswith("correspondence: FAILURE\n  left homs: 0, right homs: 4\n")
        assert "  counterexample: projection of " in out


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

    def test_input_ignoring_probe_has_survivors(self, files, capsys):
        # s0 → s1 → s2 → s1 → … on every letter, emitting 1 at s2 only:
        # 162 of the 3-state candidates pass (test_lab.py counts them too),
        # within the 60 s the scale checks of test_scale.py are given.
        nxt = {"s0": "s1", "s1": "s2", "s2": "s1"}
        cells = [(e, a) for e in nxt for a in "01"]
        probe = str(files["dir"] / "drift.machine")
        save_machine(MealyMachine(BITS, BITS, tuple(nxt), {(e, a): nxt[e] for e, a in cells},
                                  {(e, a): "1" if e == "s2" else "0" for e, a in cells}), probe)
        start = time.perf_counter()
        assert main(["search-identity", "--alphabet", "0,1", "--max-states", "3",
                     "--probe", probe]) == 1
        assert time.perf_counter() - start < 60
        assert "\nsurvivors: 162\n" in capsys.readouterr().out


def test_unitize_demo(capsys):
    assert main(["unitize-demo"]) == 0
    out = capsys.readouterr().out
    assert "strict unit laws: True" in out
    assert "triangle: True" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_parser_is_built_once_and_shared(files, monkeypatch, capsys):
    built, loaded = [], []
    build_parser, load_machine = cli.build_parser, cli.load_machine

    def counting_build_parser():
        built.append(1)
        return build_parser()

    def recording_load_machine(path):
        loaded.append(path)
        return load_machine(path)

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "load_machine", recording_load_machine)
    par2 = str(files["dir"] / "par2.machine")
    save_machine(make_par(), par2)

    # The parser is built under another stdout; later output still goes
    # to whatever sys.stdout is when it prints.
    with contextlib.redirect_stdout(io.StringIO()) as first:
        assert main(["validate", files["par"]]) == 0
    assert first.getvalue() == "valid: mealy, 2 states\n"

    for probe in (files["par"], par2):
        loaded.clear()
        search = ["search-identity", "--alphabet", "0,1", "--max-states", "1", "--probe", probe]
        assert main(search) == 0
        assert loaded == [probe]
        assert "survivors: 0" in capsys.readouterr().out

    assert main(["transform", "u", "--alphabet", "0,1"]) == 0
    assert capsys.readouterr().out == serialize_machine(universal_u(BITS))
    assert main(["transform", "moorify", files["par"]]) == 0
    assert capsys.readouterr().out == serialize_machine(moorify(make_par()))
    assert main(["transform", "u"]) == 2
    assert "needs --alphabet" in capsys.readouterr().err

    quad = [files["par"], files["cpar"], files["u2"], files["p2"]]
    assert main(["check", "pentagon"] + quad) == 0
    assert main(["check", "pentagon"]) == 2

    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "usage: mealymoore validate" in capsys.readouterr().err
    assert main(["validate", files["cpar"]]) == 0
    assert capsys.readouterr().out == "valid: moore, 2 states\n"

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == __version__ + "\n"
    assert len(built) == 1


# The plain parse against argparse: every argv the plain parse reads must
# parse to the same Namespace, and every argv argparse refuses must go to it.
PARSER = cli.build_parser()
COMMANDS = PARSER._plain_commands
TOKEN_KINDS = (
    ["f", "q0", "101", "3", "two", "moorify", "u", "bad"],
    sorted({flag for command in COMMANDS.values() for flag in command.flags}),
    ["-", "--", "-1", "--wo", "--word=1", "-h", "", " 3"],
)


def _argparse_vars(argv):
    """vars(parse_args(argv)), or None where argparse refuses argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


WORDS = sorted(COMMANDS) + [(), ("",), ("nope",), ("-h",), ("--version",)]


@st.composite
def requests(draw):
    """Command words, then 0-6 tokens drawn from TOKEN_KINDS; or, half
    the time, a command's positionals, its required flags and some more,
    each with a value, and sometimes one more token put in somewhere."""
    words = draw(st.sampled_from(WORDS))
    token = st.one_of(*map(st.sampled_from, TOKEN_KINDS))
    if words not in COMMANDS or draw(st.booleans()):
        return list(words) + draw(st.lists(token, max_size=6))
    command, value = COMMANDS[words], st.sampled_from(TOKEN_KINDS[0])
    arity = command.arity or 0  # None for a variadic command
    tokens = draw(st.lists(value, min_size=arity, max_size=arity + 1))
    flags = [action.option_strings[-1] for action in command.required]
    if command.flags:
        flags += draw(st.lists(st.sampled_from(sorted(command.flags)), max_size=2))
    for flag in draw(st.permutations(flags)):
        tokens += [flag, draw(value)]
    if draw(st.integers(0, 2)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.one_of(value, token)))
    return list(words) + tokens


@settings(max_examples=1500, deadline=None)
@given(requests())
@example(["transform", "moorify", "--alphabet", "u", "f"])  # "?" took nothing before the flag
@example(["run", "f", "--wo", "101", "--start", "q0"])
@example(["check", "n-soft", "two", "f"])
@example(["search-identity", "--alphabet", "u", "--probe", "f", "--probe", "q0"])
def test_plain_parse_agrees_with_argparse(argv):
    plain = cli._plain_args(COMMANDS, argv)
    if plain is not None:
        assert vars(plain) == _argparse_vars(argv)


@pytest.mark.parametrize("extra", [[], ["-h"], ["junk"]], ids=["bare", "help", "junk"])
@pytest.mark.parametrize("words", sorted(COMMANDS), ids=" ".join)
def test_every_command_exits_0_or_2_without_a_traceback(words, extra, tmp_path, monkeypatch,
                                                         capsys):
    # An exception escaping main is a traceback and exit 1 ("law violated").
    monkeypatch.chdir(tmp_path)
    # Help goes to stdout; argparse refuses with usage text, and a
    # handler with one error line, on stderr.
    try:
        code, by_argparse = main(list(words) + extra), False
    except SystemExit as exc:
        code, by_argparse = exc.code, True
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err
    if extra == ["-h"]:
        assert code == 0 and out.startswith("usage: mealymoore %s [-h]" % " ".join(words))
    elif code == 2 and by_argparse:
        assert err.startswith("usage: mealymoore ")
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def _readme_requests():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mealymoore ")]


# One request of each shape the cli-files benchmark sends.
BENCHMARK_REQUESTS = [
    ["validate", "f"],
    ["run", "f", "--start", "s0", "--word", "0110"],
    ["compose", "f", "g", "-o", "fg"],
    ["transform", "decapitate", "f"],
    ["check", "soft", "f"],
    ["check", "n-soft", "3", "f"],
    ["check", "extension-square", "4", "f"],
    ["check", "counit", "f"],
    ["check", "j-compat", "f", "g"],
    ["homs", "f", "g"],
    ["adjunction", "f", "g"],
]


def test_readme_requests_exit_0(tmp_path, monkeypatch, capsys):
    # In order, from a copy of the repository's demos/, as the README runs them.
    shutil.copytree(DEMO_MACHINES, tmp_path / "demos" / "machines")
    monkeypatch.chdir(tmp_path)
    for argv in _readme_requests():
        assert main(argv) == 0, argv


@pytest.mark.parametrize("argv", _readme_requests() + BENCHMARK_REQUESTS, ids=" ".join)
def test_plain_requests_are_read_from_the_grammar(argv):
    plain = cli._plain_args(COMMANDS, argv)
    assert plain is not None and vars(plain) == _argparse_vars(argv)


def test_omitted_and_variadic_positionals_go_to_argparse(files, capsys):
    # The file of transform u is left out, and the files of check pentagon
    # are variadic: neither request has a plain arity, so argparse reads it.
    universal = ["transform", "u", "--alphabet", "0,1"]
    pentagon = ["check", "pentagon", files["par"], files["cpar"], files["u2"], files["p2"]]
    assert cli._plain_args(COMMANDS, universal) is None
    assert cli._plain_args(COMMANDS, pentagon) is None
    assert main(universal) == 0
    assert capsys.readouterr().out == serialize_machine(universal_u(BITS))
    assert main(pentagon) == 0
    assert capsys.readouterr().out == "pentagon: true\n"


def test_main_reads_plain_requests_without_argparse(files, monkeypatch, capsys):
    monkeypatch.setattr(cli._parser(), "parse_args", None)
    assert main(["validate", files["par"]]) == 0
    assert main(["run", files["par"], "--start", "q0", "--word", "101"]) == 0
    assert capsys.readouterr().out == "valid: mealy, 2 states\nfinal: 0\ntrace: 1 1 0\n"
