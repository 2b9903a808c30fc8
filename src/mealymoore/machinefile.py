"""The on-disk machine format: one JSON document per machine.

    {"version": 1, "kind": "mealy" | "moore",
     "input": [...], "output": [...], "states": [...],
     "delta": {state: {letter: state}},
     "out":   {state: {letter: letter}}   (mealy)
            | {state: letter}             (moore)}

Unknown top-level fields are rejected.  Serialization renders composite
(tuple) states as "⟨f,e⟩", second-machine state first, so composed
machines stay auditable; parse(serialize(m)) == m for machines whose
states are plain names.  Distinct states that render to one name, such
as ("a", "b,c") and ("a,b", "c"), are refused: the file would not load.
So is an input or output symbol that is not a string, such as a number
of an alphabet built in Python: the file holds strings only; and so is a
symbol or state name holding a lone surrogate, which a file can spell as
the JSON escape "\\ud800" but which has no UTF-8 form to write back.
The writer renders the text from the index form, as json.dumps(doc,
ensure_ascii=False, indent=2) prints it; ``machine_to_raw`` is that text
parsed.  ``save_machine`` rewrites an existing file in place and cuts it
to the written length, a regular file only; the write is not atomic.
The reader walks the nested rows into the index form once; a document
failing a check is read again only to name the fault.
"""

from __future__ import annotations

import json
import os
import re
import stat
from json.encoder import encode_basestring
from typing import Union

from .core import (
    DuplicateName,
    Machine,
    MachineError,
    MealyMachine,
    validate_mealy,
    validate_moore,
)

FORMAT_VERSION = 1
_FIELDS = {"version", "kind", "input", "output", "states", "delta", "out"}
_SURROGATE = re.compile("[\ud800-\udfff]")


class MachineFileError(MachineError):
    """Base class for machine file problems."""


class MachineFileSyntaxError(MachineFileError):
    """The file is not a well-formed machine document."""


class VersionMismatch(MachineFileError):
    """The file declares an unsupported format version."""


def parse_machine_text(text: str) -> dict:
    """Parse a machine document into the raw description consumed by
    validate_mealy / validate_moore.

    How deep the JSON may nest is bounded by the recursion limit, counted
    from the caller's own stack depth.  A document nested deeper than the
    stack has room for raises MachineFileSyntaxError ("JSON nested too
    deeply"); from a shallower caller the same document parses, and
    validation then refuses the nested list as a state or delta target
    (UnknownSymbol).  Either way a deeply nested machine file is a
    MachineError, so the command exits 2 with one short error line; only
    which error it prints depends on the caller."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MachineFileSyntaxError("line %d: %s" % (err.lineno, err.msg)) from err
    except RecursionError as err:
        raise MachineFileSyntaxError("JSON nested too deeply") from err
    except ValueError as err:  # an integer longer than int() converts
        raise MachineFileSyntaxError(str(err)) from err
    if not isinstance(doc, dict):
        raise MachineFileSyntaxError("a machine file holds a single JSON object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1 == 1.0: check the type
        raise VersionMismatch("unsupported format version %r" % (version,))
    unknown = set(doc) - _FIELDS
    if unknown:
        raise MachineFileSyntaxError("unknown field %r" % (sorted(unknown)[0],))
    if doc.get("kind") not in ("mealy", "moore"):
        raise MachineFileSyntaxError("kind must be \"mealy\" or \"moore\"")
    return doc


def machine_from_raw(doc: dict) -> Machine:
    if doc["kind"] == "mealy":
        return validate_mealy(doc)
    return validate_moore(doc)


def load_machine(path) -> Machine:
    """Read a machine file as UTF-8 bytes; a byte order mark is kept for
    the parser to refuse, and CRLF and a lone CR become LF, as in text mode."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MachineFileSyntaxError("not UTF-8 text: %s" % err) from err
    return machine_from_raw(parse_machine_text(text.replace("\r\n", "\n").replace("\r", "\n")))


def render_state(s: Union[str, tuple]) -> str:
    """Composite states print as ⟨f,e⟩ with the second-machine state
    first: each tuple's parts in brackets, written piece by piece in one
    loop, in time linear in the text however deep the nesting."""
    if not isinstance(s, tuple):
        return str(s)
    pieces, todo = [], [s]
    while todo:  # what is still to write, the next piece last
        x = todo.pop()
        if isinstance(x, tuple):  # its parts, last first, with commas between
            todo += "⟩", *[y for part in reversed(x) for y in (part, ",")][:-1], "⟨"
        else:
            pieces.append(str(x))
    return "".join(pieces)


def _names(m: Machine) -> list:
    """The rendered state names of m in index order; a composite's pair
    its factors' rendered names, each factor's rendered once."""
    if m._factors is None:
        return list(map(render_state, m.states))
    second, first = (list(map(render_state, x.states)) for x in m._factors)
    return ["⟨%s,%s⟩" % (f, e) for f in second for e in first]


def _unencodable(m: Machine, names: list) -> str:
    """The first symbol, input alphabet first, or else state of m whose
    text holds a lone surrogate."""
    for alphabet in (m.input, m.output):
        for symbol in alphabet.symbols:
            if _SURROGATE.search(symbol):
                return "symbol %r of alphabet %r" % (symbol, alphabet.name)
    return "state %r" % (next(e for e, text in zip(m.states, names) if _SURROGATE.search(text)),)


def serialize_machine(m: Machine) -> str:
    """The machine file of m, rendered from the index form with each
    state name and symbol quoted once.  Before rendering it refuses a
    symbol that is not a string (MachineFileError), two states that
    render to one name (DuplicateName), and a symbol or state name that
    holds a lone surrogate (MachineFileError), found by encoding the
    names and symbols alone."""
    for alphabet in (m.input, m.output):
        for symbol in alphabet.symbols:
            if not isinstance(symbol, str):
                raise MachineFileError("symbol %r of alphabet %r is not a string; a machine "
                                       "file holds strings only" % (symbol, alphabet.name))
    names = _names(m)
    if len(set(names)) < len(names):
        owner = {}
        for e, text in zip(m.states, names):
            if owner.setdefault(text, e) != e:
                raise DuplicateName("states %r and %r both render as %r" % (owner[text], e, text))
    try:  # a lone surrogate has no UTF-8 form, so the file could not be written
        "".join([*m.input.symbols, *m.output.symbols, *names]).encode("utf-8")
    except UnicodeEncodeError:
        raise MachineFileError("%s holds a lone surrogate; a machine file is UTF-8 text"
                               % _unencodable(m, names)) from None
    q = list(map(encode_basestring, names))
    mealy = isinstance(m, MealyMachine)
    letters = list(map(encode_basestring, m.input.symbols))
    outputs = list(map(encode_basestring, m.output.symbols))
    row = "    %%s: {\n%s\n    }" % ",\n".join("      %s: %%s" % a.replace("%", "%%") for a in letters)

    def rows(values):  # one row per state, k cells each, in index order
        values = iter(values)
        return ",\n".join(map(row.__mod__, zip(q, *[values] * len(letters))))

    listed = [",\n".join("    " + t for t in texts) for texts in (letters, outputs, q)]
    out = (rows(map(outputs.__getitem__, m._o)) if mealy
           else ",\n".join(map("    %s: %s".__mod__, zip(q, map(outputs.__getitem__, m._o)))))
    return ('{\n  "version": %d,\n  "kind": "%s",\n  "input": [\n%s\n  ],\n'
            '  "output": [\n%s\n  ],\n  "states": [\n%s\n  ],\n'
            '  "delta": {\n%s\n  },\n  "out": {\n%s\n  }\n}\n') % (
        FORMAT_VERSION, "mealy" if mealy else "moore", *listed, rows(map(q.__getitem__, m._d)), out)


def machine_to_raw(m: Machine) -> dict:
    """The document of m's machine file, parsed."""
    return json.loads(serialize_machine(m))


def save_machine(m: Machine, path) -> None:
    """Write the machine file of m to path, rewriting the file in place.

    The text is rendered, and any refusal raised, before the path is
    opened, so a refused machine leaves an existing file as it was.  The
    file is opened for writing without O_TRUNC (created with mode 0o666
    less the umask, as by ``open(path, "w")``; a symbolic link is written
    through), overwritten from its start and then cut to the written
    length, which is only done for a regular file: ``/dev/null`` or a
    pipe cannot be truncated.  Truncating an open file to zero before
    writing it again, as ``open(path, "w")`` does, makes ext4 (with its
    default ``auto_da_alloc``) start writeback of the new data at close,
    which costs several times the write itself.  The write is not
    atomic: there is no fsync and no rename, so a write that fails part
    way may leave a file that does not load."""
    data = serialize_machine(m).encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()
