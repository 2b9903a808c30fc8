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
"""

from __future__ import annotations

import itertools
import json
from typing import Union

from .core import (
    DuplicateName,
    Machine,
    MachineError,
    MealyMachine,
    MooreMachine,
    validate_mealy,
    validate_moore,
)

FORMAT_VERSION = 1
_FIELDS = {"version", "kind", "input", "output", "states", "delta", "out"}


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
    if not isinstance(doc, dict):
        raise MachineFileSyntaxError("a machine file holds a single JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise VersionMismatch("unsupported format version %r" % (doc.get("version"),))
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
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise MachineFileSyntaxError("not UTF-8 text: %s" % err) from err
    return machine_from_raw(parse_machine_text(text))


def render_state(s: Union[str, tuple]) -> str:
    """Composite states print as ⟨f,e⟩ with the second-machine state first."""
    if isinstance(s, tuple):
        return "⟨%s⟩" % ",".join(render_state(part) for part in s)
    return str(s)


def machine_to_raw(m: Machine) -> dict:
    name, owner = {}, {}
    for e in m.states:
        text = name[e] = render_state(e)
        if owner.setdefault(text, e) != e:
            raise DuplicateName("states %r and %r both render as %r" % (owner[text], e, text))
    states = list(name.values())
    cells = list(itertools.product(states, m.input.symbols))  # in index order
    delta = {e: {} for e in states}
    for (e, a), t in zip(cells, m._d):
        delta[e][a] = states[t]
    symbols = m.output.symbols
    if isinstance(m, MealyMachine):
        kind, out = "mealy", {e: {} for e in states}
        for (e, a), b in zip(cells, m._o):
            out[e][a] = symbols[b]
    else:
        kind, out = "moore", dict(zip(states, map(symbols.__getitem__, m._o)))
    return {
        "version": FORMAT_VERSION,
        "kind": kind,
        "input": list(m.input.symbols),
        "output": list(m.output.symbols),
        "states": states,
        "delta": delta,
        "out": out,
    }


def serialize_machine(m: Machine) -> str:
    return json.dumps(machine_to_raw(m), ensure_ascii=False, indent=2) + "\n"


def save_machine(m: Machine, path) -> None:
    text = serialize_machine(m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
