import copy
import json
import os
import random
import reprlib
import stat
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from mealymoore import (
    Alphabet,
    DuplicateName,
    MachineError,
    MachineFileError,
    MachineFileSyntaxError,
    MealyMachine,
    MooreMachine,
    MissingEntry,
    UnknownSymbol,
    VersionMismatch,
    compose_cells,
    compose_mealy,
    load_machine,
    machine_from_raw,
    machine_to_raw,
    parse_machine_text,
    render_state,
    save_machine,
    serialize_machine,
    validate_mealy,
    validate_moore,
)
from mealymoore.generate import random_mealy, random_moore

from conftest import BITS, make_par
from oracles import load_text_mode, machine_text, validate_flat


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

    @pytest.mark.parametrize("path", [("version",), ("states", 0), ("delta", "q0", "0")])
    def test_huge_integer(self, par, path):
        # Where int() refuses a 5000-digit string, json.loads raises a bare
        # ValueError; without that limit the number parses and is refused
        # as a version, a state or a delta target.  Either way it is a
        # MachineError.  Both cases run where the limit can be lifted.
        doc = doc_for(par)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "HOLE"
        text = json.dumps(doc).replace('"HOLE"', "9" * 5000)
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        default = get_limit() if get_limit else 0
        try:
            for limit in {default, 0} if get_limit else {0}:
                if get_limit:
                    sys.set_int_max_str_digits(limit)
                expected = MachineFileSyntaxError if 0 < limit < 5000 else MachineError
                with pytest.raises(expected):
                    machine_from_raw(parse_machine_text(text))
        finally:
            if get_limit:
                sys.set_int_max_str_digits(default)

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


def one_state_doc(letter, output):
    """A one-state Moore document over these symbols, its tables naming
    each symbol by str(), as a reader applying str() would load it."""
    return {"version": 1, "kind": "moore", "input": [letter], "output": [output],
            "states": ["s"], "delta": {"s": {str(letter): "s"}}, "out": {"s": str(output)}}


class TestSymbolTypes:
    @pytest.mark.parametrize("symbol", [None, True, False, [1], {"a": 1}, 1.5], ids=json.dumps)
    @pytest.mark.parametrize("where", ["input", "output"])
    def test_neither_string_nor_integer_refused(self, where, symbol):
        doc = one_state_doc(symbol, "b") if where == "input" else one_state_doc("a", symbol)
        with pytest.raises(MissingEntry) as got:
            machine_from_raw(parse_machine_text(json.dumps(doc)))
        assert str(got.value) == "%s symbol %s is neither a string nor an integer" % (
            where, reprlib.repr(symbol))

    def test_integers_read_as_their_decimal_text(self):
        m = machine_from_raw(parse_machine_text(json.dumps(one_state_doc(0, -7))))
        assert (m.input.symbols, m.output.symbols) == (("0",), ("-7",))
        assert serialize_machine(m) == machine_text(m)

    def test_repr_lookalike_strings_round_trip(self):
        doc = one_state_doc("None", "[1]")
        text = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
        assert serialize_machine(machine_from_raw(parse_machine_text(text))) == text


# State names that json must escape, or that render_state's brackets and
# commas make ambiguous: composites of them sometimes collide.
NAMES = ("q", "a", "b", "a,b", "b,a", 'say "hi"', "back\\slash", "tab\there", "ñé",
         "⟨x,y⟩", "日本", "%s%%", "")
ODD = Alphabet("odd", ("%s", 'q"', "é\t"))
INTS = Alphabet("ints", (0, 1, 7))


def named_machine(rng, mealy, inp, outp, n, names=NAMES):
    """A machine of n states named from names, built by the public constructor."""
    states = tuple(rng.sample(names, n))
    delta = {(e, a): rng.choice(states) for e in states for a in inp.symbols}
    if mealy:
        out = {(e, a): rng.choice(outp.symbols) for e in states for a in inp.symbols}
        return MealyMachine(inp, outp, states, delta, out)
    return MooreMachine(inp, outp, states, delta, {e: rng.choice(outp.symbols) for e in states})


def writer_cases(seed):
    """A machine of 1-9 states, then composites of it 2 and 3 deep; the
    alphabets are strings, some that json escapes, or Python ints, which
    the writer refuses."""
    rng = random.Random(seed)
    a, b, c = (rng.choice((BITS, ODD, INTS)) for _ in range(3))
    factors = []
    for inp, outp, top in ((a, b, 9), (b, c, 4), (c, a, 3)):
        mealy, n = rng.random() < 0.5, rng.randint(1, top)
        if rng.random() < 0.5:
            factors.append(named_machine(rng, mealy, inp, outp, n))
        else:
            factors.append((random_mealy if mealy else random_moore)(rng, inp, outp, n))
    first, second, third = factors
    two = compose_cells(second, first)
    yield first
    yield two
    # A composite rebuilt by the public constructor keeps its tuple states.
    yield type(two)(two.input, two.output, two.states, two.delta, two.out)
    yield compose_cells(third, two)


def loops(*states):
    """A Moore machine over {x} that stays in each of its states."""
    one = Alphabet("one", ("x",))
    return MooreMachine(one, one, states, {(e, "x"): e for e in states}, {e: "x" for e in states})


def assert_same_collision(m, expected):
    with pytest.raises(DuplicateName) as got:
        serialize_machine(m)
    assert str(got.value) == str(expected)


def assert_refused(m):
    """serialize_machine refuses m, naming its first non-str symbol, input
    alphabet first, and that symbol's alphabet."""
    symbol, alphabet = next((x, alphabet) for alphabet in (m.input, m.output)
                            for x in alphabet.symbols if not isinstance(x, str))
    with pytest.raises(MachineFileError) as got:
        serialize_machine(m)
    assert str(got.value).startswith("symbol %r of alphabet %r " % (symbol, alphabet.name))


def assert_refused_on_save(m, tmp_path):
    """m is refused by serialize_machine and save_machine leaves no file."""
    assert_refused(m)
    with pytest.raises(MachineFileError):
        save_machine(m, tmp_path / "m.machine")
    assert not (tmp_path / "m.machine").exists()


class TestWriterOracle:
    def test_matches_json_dumps(self):
        # A machine with an INTS endpoint is refused; every other one is
        # written as json.dumps prints its document.  About half are
        # refused, hence 1,200 seeds for 2,000 written.
        written = refused = 0
        for seed in range(1200):
            for m in writer_cases(seed):
                if INTS in (m.input, m.output):
                    assert_refused(m)
                    refused += 1
                    continue
                try:
                    expected = machine_text(m)
                except DuplicateName as err:
                    assert_same_collision(m, err)
                    continue
                text = serialize_machine(m)
                assert text == expected
                assert machine_to_raw(m) == json.loads(text)
                written += 1
        assert written >= 2000 and refused >= 1000

    def test_collisions_named_like_the_oracle(self):
        # ("a", "b,c") and ("a,b", "c") both render as ⟨a,b,c⟩.
        two = compose_cells(loops("a", "a,b"), loops("b,c", "c"))
        for m in (two, compose_cells(loops("z", "y"), two), compose_cells(two, loops("w")),
                  MooreMachine(two.input, two.output, two.states, two.delta, two.out)):
            with pytest.raises(DuplicateName) as err:
                machine_text(m)
            assert_same_collision(m, err.value)

    def test_tuple_output_symbols(self, tmp_path):
        # A symbol built in Python may be a tuple; the file holds strings,
        # so it would load back as another symbol: the writer refuses it.
        pairs = Alphabet("pairs", ("x", (1, (2, ())), ()))
        rng = random.Random(3)
        for mealy in (True, False):
            assert_refused_on_save(named_machine(rng, mealy, BITS, pairs, 3), tmp_path)

    def test_unusable_letter_refused_like_json(self, tmp_path):
        # json cannot key a table by a tuple letter; the writer refuses the
        # machine too, with MachineFileError before json is reached.
        pairs = Alphabet("pairs", ((0, 1),))
        m = MooreMachine(pairs, BITS, ("s",), {("s", (0, 1)): "s"}, {"s": "0"})
        with pytest.raises(TypeError):
            machine_text(m)
        assert_refused_on_save(m, tmp_path)

    def test_non_str_symbols_refused(self, tmp_path):
        # A number would load back as a string: refused like a tuple.
        assert_refused_on_save(random_moore(random.Random(3), INTS, BITS, 2), tmp_path)


def surrogate_machine(where, text="\ud800x"):
    """A one-state Moore machine holding text as its state name or as a
    symbol of its input or output alphabet."""
    inp = Alphabet("in", ("0", text) if where == "input" else ("0",))
    outp = Alphabet("out", ("0", text) if where == "output" else ("0",))
    e = text if where == "state" else "s"
    return MooreMachine(inp, outp, (e,), {(e, a): e for a in inp.symbols}, {e: outp.symbols[-1]})


class TestSurrogates:
    """A lone surrogate has no UTF-8 form: a file can spell it as a JSON
    escape and load it, but the writer refuses to write it back."""

    @pytest.mark.parametrize("text", ["\ud800x", "\udfff", "a\ud83d\ude00"])
    def test_state_named(self, text):
        with pytest.raises(MachineFileError) as got:
            serialize_machine(surrogate_machine("state", text))
        assert str(got.value) == ("state %r holds a lone surrogate; a machine file is UTF-8 text"
                                  % (text,))

    @pytest.mark.parametrize("where, alphabet", [("input", "in"), ("output", "out")])
    def test_symbol_named_with_its_alphabet(self, where, alphabet):
        with pytest.raises(MachineFileError) as got:
            serialize_machine(surrogate_machine(where))
        assert str(got.value).startswith("symbol '\\ud800x' of alphabet %r " % alphabet)

    def test_composite_state_named(self):
        m = compose_cells(surrogate_machine("state"), surrogate_machine("state"))
        with pytest.raises(MachineFileError) as got:
            serialize_machine(m)
        assert str(got.value).startswith("state ('\\ud800x', '\\ud800x') holds")

    def test_escaped_surrogate_loads_but_is_not_written(self, par, tmp_path):
        text = serialize_machine(par).replace('"q1"', '"\\ud800x"')
        path = tmp_path / "s.machine"
        path.write_text(text, encoding="utf-8")
        m = load_machine(path)
        assert m.states == ("q0", "\ud800x")
        for write in (serialize_machine, lambda m: save_machine(m, path)):
            with pytest.raises(MachineFileError):
                write(m)
        assert path.read_text(encoding="utf-8") == text

    def test_refused_exactly_when_json_text_does_not_encode(self):
        # The oracle's text is json.dumps' own; the writer refuses the
        # machine exactly when that text has no UTF-8 form.
        names = NAMES + ("\ud800", "x\udc80", "\ud83d\ude00")
        rng = random.Random(41)
        refused = 0
        for _ in range(400):
            mealy = rng.random() < 0.5
            first = named_machine(rng, mealy, BITS, ODD, rng.randint(1, 3), names)
            m = first if rng.random() < 0.5 else compose_cells(
                named_machine(rng, mealy, ODD, BITS, rng.randint(1, 3), names), first)
            try:
                expected = machine_text(m)
            except DuplicateName:
                continue
            try:
                expected.encode("utf-8")
            except UnicodeEncodeError:
                with pytest.raises(MachineFileError, match="lone surrogate"):
                    serialize_machine(m)
                refused += 1
                continue
            assert serialize_machine(m) == expected
        assert refused >= 100


class TestSaveInPlace:
    """save_machine rewrites the file in place: the bytes are exactly the
    serialized text whatever the file held, and links are written through."""

    @pytest.mark.parametrize("before, after", [(9, 1), (1, 9)], ids=["shorter", "longer"])
    def test_overwrite(self, tmp_path, before, after):
        rng = random.Random(before)
        old, new = (random_mealy(rng, BITS, ODD, n) for n in (before, after))
        path = tmp_path / "m.machine"
        save_machine(old, path)
        save_machine(new, path)
        assert path.read_bytes() == serialize_machine(new).encode("utf-8")
        assert load_machine(path) == new

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
    def test_new_file_mode_follows_the_umask(self, par, tmp_path, umask):
        old = os.umask(umask)
        try:
            save_machine(par, tmp_path / "m.machine")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "m.machine").st_mode) == 0o666 & ~umask

    def test_symlink_written_through(self, par, cpar, tmp_path):
        target, link = tmp_path / "target.machine", tmp_path / "link.machine"
        save_machine(compose_cells(par, par), target)
        link.symlink_to(target)
        save_machine(cpar, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == serialize_machine(cpar).encode("utf-8")

    def test_device_is_written_without_truncation(self, par):
        save_machine(par, os.devnull)

    @pytest.mark.parametrize("make", [
        lambda: random_moore(random.Random(3), INTS, BITS, 2),
        lambda: compose_cells(loops("a", "a,b"), loops("b,c", "c")),
        lambda: surrogate_machine("state"),
    ], ids=["non-str-symbol", "colliding-names", "surrogate"])
    def test_refused_save_keeps_the_file(self, par, tmp_path, make):
        path = tmp_path / "m.machine"
        save_machine(par, path)
        before = path.read_bytes()
        with pytest.raises(MachineError):
            save_machine(make(), path)
        assert path.read_bytes() == before


# Names and symbols that json escapes or that the writer's own "%"
# formatting must keep; composites of SAFE names never collide.
SAFE = tuple(name for name in NAMES if not set(name) & set(",⟨⟩"))
STR_SYMBOLS = st.one_of(st.sampled_from(("0", "a,b", 'q"', "%s", "%%", "é\t", "日本", "")),
                        st.text(max_size=3))
NON_STR_SYMBOLS = st.one_of(st.integers(-3, 3), st.tuples(st.integers(0, 2)), st.just(()))


@st.composite
def symbol_alphabets(draw):
    """1-3 str symbols; one time in four, ints and tuples may join them."""
    symbol = STR_SYMBOLS if draw(st.integers(0, 3)) else st.one_of(STR_SYMBOLS, NON_STR_SYMBOLS)
    return Alphabet("drawn", tuple(draw(st.lists(symbol, min_size=1, max_size=3, unique=True))))


@settings(max_examples=100, deadline=None)
@given(st.lists(symbol_alphabets(), min_size=3, max_size=3), st.booleans(), st.integers(0, 2**32))
def test_file_round_trip_over_drawn_alphabets(alphabets, composite, seed):
    a, mid, b = alphabets
    rng = random.Random(seed)
    if composite:
        first = named_machine(rng, rng.random() < 0.5, a, mid, rng.randint(1, 3), SAFE)
        m = compose_cells(named_machine(rng, rng.random() < 0.5, mid, b, rng.randint(1, 3), SAFE),
                          first)
    else:
        m = named_machine(rng, rng.random() < 0.5, a, b, rng.randint(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.machine")
        if not all(isinstance(x, str) for x in a.symbols + b.symbols):
            assert_refused(m)
            with pytest.raises(MachineFileError):
                save_machine(m, path)
            assert not os.path.exists(path)
            return
        save_machine(m, path)
        loaded = load_machine(path)
    name = {e: render_state(e) for e in m.states}
    assert loaded.states == tuple(name.values())
    assert loaded == type(m)(
        m.input, m.output, loaded.states,
        {(name[e], x): name[t] for (e, x), t in m.delta.items()},
        {(name[k[0]], k[1]) if isinstance(m, MealyMachine) else name[k]: y
         for k, y in m.out.items()},
    )
    if not composite:
        assert loaded == m


def outcome(fn, *args):
    """(machine, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return None, (type(err), str(err))


def _row(doc, table="delta"):
    return doc[table][doc["states"][0]]


class _Lookalike:
    """A row indexable by letter that is not a Mapping."""

    def __init__(self, row):
        self.row = row

    def __len__(self):
        return len(self.row)

    def __getitem__(self, letter):
        return self.row[letter]


def _duplicate_keeping_rows(doc):
    """Rename the last state to the first, keeping its row and the row
    count, so that only the repeated name is wrong."""
    states = doc["states"]
    last, states[-1] = states[-1], states[0]
    for row in doc["delta"].values():
        row.update((a, states[0]) for a, t in row.items() if t == last)


MUTATIONS = {
    "missing-row": lambda d: d["delta"].pop(d["states"][-1]),
    "missing-out-row": lambda d: d["out"].pop(d["states"][-1]),
    "extra-row": lambda d: d["delta"].__setitem__("zz", dict(_row(d))),
    "extra-out-row": lambda d: d["out"].__setitem__("zz", _row(d, "out")),
    "missing-letter": lambda d: _row(d).pop(d["input"][0]),
    "extra-letter": lambda d: _row(d).__setitem__("zz", d["states"][0]),
    "renamed-letter": lambda d: _row(d).__setitem__("zz", _row(d).pop(d["input"][0])),
    "undeclared-target": lambda d: _row(d).__setitem__(d["input"][0], "nowhere"),
    "list-target": lambda d: _row(d).__setitem__(d["input"][0], [d["states"][0]]),
    "undeclared-output": lambda d: d["out"].__setitem__(d["states"][0], "7"),
    "dict-output": lambda d: d["out"].__setitem__(d["states"][0], {d["input"][0]: "0"}),
    "list-row": lambda d: d["delta"].__setitem__(d["states"][0], list(_row(d).values())),
    "row-not-a-mapping": lambda d: d["delta"].__setitem__(d["states"][0], _Lookalike(_row(d))),
    "list-out-row": lambda d: d["out"].__setitem__(d["states"][0], ["0"]),
    "duplicate-states": lambda d: d["states"].append(d["states"][0]),
    "empty-states": lambda d: d["states"].clear(),
    "no-states-no-rows": lambda d: [d[f].clear() for f in ("states", "delta", "out")],
    "duplicate-state-keeping-rows": _duplicate_keeping_rows,
    "states-not-a-list": lambda d: d.__setitem__("states", d["states"][0]),
    "list-state": lambda d: d["states"].__setitem__(0, [d["states"][0]]),
    "missing-delta": lambda d: d.pop("delta"),
    "missing-out": lambda d: d.pop("out"),
    "delta-not-a-table": lambda d: d.__setitem__("delta", []),
}


class TestReaderEquivalence:
    """The walk into the index form gives the public constructor's
    machine, or its error, on every document."""

    @staticmethod
    def documents():
        rng = random.Random(41)
        for i in range(40):
            mealy = i % 2 == 0
            inp, outp = Alphabet("i", ("0", "1", "2")[:1 + i % 3]), BITS
            m = named_machine(rng, mealy, inp, outp, rng.randint(1, 6))
            yield (validate_mealy if mealy else validate_moore), json.loads(serialize_machine(m))

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_same_error(self, mutation):
        failed = 0
        for validate, doc in self.documents():
            raw = copy.deepcopy(doc)
            MUTATIONS[mutation](raw)
            kind = MealyMachine if validate is validate_mealy else MooreMachine
            got, expected = outcome(validate, raw), outcome(validate_flat, raw, kind)
            assert got[1] == expected[1]
            assert got[0] == expected[0]
            failed += got[1] is not None
        assert failed > 0

    def test_valid_documents(self):
        for validate, doc in self.documents():
            kind = MealyMachine if validate is validate_mealy else MooreMachine
            raw = copy.deepcopy(doc)
            m, twin = validate(raw), validate_flat(doc, kind)
            assert m == twin
            assert dict(m.delta) == dict(twin.delta) and dict(m.out) == dict(twin.out)
            key = next(iter(m.delta))
            with pytest.raises(TypeError):
                m.delta[key] = key[0]
            with pytest.raises(TypeError):
                m.out[next(iter(m.out))] = "0"
            for row in raw["delta"].values():
                for a in row:
                    row[a] = "mutated"
            raw["states"].reverse()
            raw["out"].clear()
            assert m == twin and dict(m.delta) == dict(twin.delta) and dict(m.out) == dict(twin.out)


def _par_bytes():
    return serialize_machine(make_par()).encode("utf-8")


def _greek_bytes():
    greek = Alphabet("greek", ("α", "β"))
    states = ("ω", "ψ", "q₀")
    delta = {(e, a): states[(i + j) % 3] for i, e in enumerate(states) for j, a in enumerate("αβ")}
    m = MealyMachine(greek, greek, states, delta, {(e, a): a for e in states for a in "αβ"})
    return serialize_machine(m).encode("utf-8")


def _break_line(data, line, newline):
    """The document with the comma ending its ``line``-th line (from 1)
    dropped, which the parser reports on the next line, and its line
    breaks written as ``newline``."""
    lines = data.decode("utf-8").split("\n")
    lines[line - 1] = lines[line - 1].rstrip(",")
    return newline.join(lines).encode("utf-8")


READER_FILES = {
    "not-utf8-start": lambda: b"\xff" + _par_bytes(),
    "not-utf8-inside": lambda: _par_bytes().replace(b'"q1"', b'"q\xe21"'),
    "not-utf8-truncated": lambda: _par_bytes() + b"\xe2\x82",
    "bom": lambda: b"\xef\xbb\xbf" + _par_bytes(),
    "crlf": lambda: _par_bytes().replace(b"\n", b"\r\n"),
    "lone-cr": lambda: _par_bytes().replace(b"\n", b"\r"),
    "mixed-endings": lambda: _par_bytes().replace(b"\n", b"\r", 3).replace(b"\n", b"\r\n", 4),
    "crlf-syntax-error-line-4": lambda: _break_line(_par_bytes(), 3, "\r\n"),
    "lone-cr-syntax-error-line-3": lambda: _break_line(_par_bytes(), 2, "\r"),
    "lone-cr-syntax-error-line-10": lambda: _break_line(_par_bytes(), 9, "\r"),
    "cr-inside-a-name": lambda: _par_bytes().replace(b'"q1"', b'"q\r1"'),
    "non-ascii-names": _greek_bytes,
    "non-ascii-names-crlf": lambda: _greek_bytes().replace(b"\n", b"\r\n"),
}


class TestReaderParity:
    """load_machine, which decodes the bytes itself, gives the text-mode
    reader's machine, or its error type and message, on every file."""

    @pytest.mark.parametrize("case", sorted(READER_FILES))
    def test_same_outcome(self, case, tmp_path):
        path = tmp_path / "case.machine"
        path.write_bytes(READER_FILES[case]())
        got, expected = outcome(load_machine, path), outcome(load_text_mode, path)
        assert got[1] == expected[1]
        assert got[0] == expected[0]
        if case.startswith(("not-utf8", "bom")) or "error" in case:
            assert got[1][0] is MachineFileSyntaxError
        if "line" in case:
            assert got[1][1].startswith("line %s:" % case.rpartition("-")[2])
        if case.startswith(("crlf", "lone-cr", "mixed", "non-ascii")) and "error" not in case:
            assert got[0] is not None
