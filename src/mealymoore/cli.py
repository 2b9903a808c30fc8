"""Command-line surface: compose, run, transform, and law-check machines.

Exit codes: 0 for success / a law that holds, 1 for a violated law or a
FAILURE report, 2 for usage and validation errors.

``build_parser`` is the one declaration of the grammar.  While it
declares the parser it records, for each command's words, the actions
``add_argument`` returns and the handler.  A request in plain form, the
command words, a token for every positional, then exact flags each
followed by one value, is read straight from that record into the
Namespace argparse would build.  Every other argv, one that leaves a
positional out or gives a variadic one included, goes to argparse,
which alone fills in defaults and writes help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .compose import check_j_compatibilities, check_pentagon, compose_cells
from .core import (
    Alphabet,
    MachineError,
    MealyMachine,
    MooreMachine,
    identity_cell,
)
from .lab import (
    check_adjunction_D1,
    check_counit,
    check_hom_correspondence,
    enumerate_homs,
    search_moore_identity,
)
from .machinefile import (
    load_machine,
    render_state,
    save_machine,
    serialize_machine,
)
from .semantics import PointedMachine, check_extension_square, run, trace
from .universal import (
    apply_D1,
    decapitate,
    embed_j,
    is_n_soft,
    is_soft,
    moorify,
    universal_p,
    universal_u,
)
from .unitize import FormalId, check_triangle, check_upentagon, ucompose


def _parse_alphabet(text, name="X"):
    if "," in text:
        symbols = [s.strip() for s in text.split(",") if s.strip()]
    else:
        symbols = text.split() or list(text)
    return Alphabet(name, tuple(symbols))


def _parse_word(text, alphabet):
    """Words are whitespace- or comma-separated symbol names; a bare
    string of single-character symbols may also be written contiguously."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(s.strip() for s in text.split(",") if s.strip())
    parts = text.split()
    if len(parts) > 1:
        return tuple(parts)
    if text in alphabet.symbols:
        return (text,)
    if set(text).issubset(alphabet.symbols):
        return tuple(text)
    return (text,)


def _emit_machine(machine, output_path):
    if output_path:
        save_machine(machine, output_path)
    else:
        sys.stdout.write(serialize_machine(machine))


def _kind(machine):
    return "mealy" if isinstance(machine, MealyMachine) else "moore"


def _cmd_validate(args):
    m = load_machine(args.file)
    print("valid: %s, %d states" % (_kind(m), len(m.states)))
    return 0


def _cmd_run(args):
    m = load_machine(args.file)
    word = _parse_word(args.word, m.input)
    p = PointedMachine(m, args.start)
    outputs = trace(p, word)  # the last is the final output; run raises on an empty Mealy word
    print("final: %s" % (outputs[-1] if outputs else run(p, word)))
    print("trace: %s" % " ".join(outputs))
    return 0


def _cmd_compose(args):
    _emit_machine(compose_cells(load_machine(args.second), load_machine(args.first)), args.output)
    return 0


def _cmd_transform(args):
    if args.op in ("u", "p"):
        if not args.alphabet:
            raise MachineError("transform %s needs --alphabet" % args.op)
        x = _parse_alphabet(args.alphabet)
        result = universal_u(x) if args.op == "u" else universal_p(x)
    else:
        if not args.file:
            raise MachineError("transform %s needs a machine file" % args.op)
        result = {"embed-j": embed_j, "d1": apply_D1, "moorify": moorify,
                  "decapitate": decapitate}[args.op](load_machine(args.file))
    _emit_machine(result, args.output)
    return 0


def _verdict(label, ok):
    print("%s: %s" % (label, "true" if ok else "false"))
    return 0 if ok else 1


def _cmd_check(args):
    if args.law == "pentagon" and len(args.files) != 4:
        raise MachineError("check pentagon takes four machine files")
    machines = list(map(load_machine, args.files))
    m = machines[0]
    if args.law == "soft":
        return _verdict("soft", is_soft(m))
    if args.law == "n-soft":
        return _verdict("%d-soft" % args.n, is_n_soft(m, args.n))
    if args.law == "extension-square":
        return _verdict("extension-square(≤%d)" % args.maxlen,
                        check_extension_square(m, args.maxlen))
    if args.law == "counit":
        return _verdict("counit", check_counit(m))
    if args.law == "j-compat":
        return _verdict("j-compat", check_j_compatibilities(*machines))
    return _verdict("pentagon", check_pentagon(*machines))


def _cmd_homs(args):
    m1 = load_machine(args.first)
    homset = enumerate_homs(m1, load_machine(args.second))
    print("homs: %d" % len(homset.homs))
    for phi in homset.homs:
        body = ", ".join("%s↦%s" % (render_state(e), render_state(phi.map[e])) for e in m1.states)
        print("  {%s}" % body)
    return 0


def _cmd_bijection(args):
    """``adjunction`` or ``correspondence``: a Moore file, then a Mealy file."""
    label = args.command
    check = check_adjunction_D1 if label == "adjunction" else check_hom_correspondence
    report = check(load_machine(args.moore), load_machine(args.mealy))
    print("%s: %s" % (label, "SUCCESS" if report.success else "FAILURE"))
    print("  left homs: %d, right homs: %d" % (len(report.left.homs), len(report.right.homs)))
    if report.counterexample:
        print("  counterexample: %s" % report.counterexample)
    return 0 if report.success else 1


def _cmd_search_identity(args):
    a = _parse_alphabet(args.alphabet, "A")
    probes = [load_machine(path) for path in args.probe or []] or [identity_cell(a)]
    report = search_moore_identity(a, probes, args.max_states)
    print("candidates checked: %d" % report.candidates_checked)
    print("survivors: %d" % len(report.survivors))
    if report.probe_warning:
        print("warning: %s" % report.probe_warning)
    return 0 if not report.survivors else 1


def _cmd_unitize_demo(args):
    b = Alphabet("B", ("0", "1"))
    cpar = MooreMachine(
        b, b, ("q0", "q1"),
        {("q0", "0"): "q0", ("q0", "1"): "q1", ("q1", "0"): "q1", ("q1", "1"): "q0"},
        {"q0": "0", "q1": "1"},
    )
    u2 = universal_u(b)
    bot = FormalId(b)
    cells = [bot, cpar, u2]
    names = ["⊥", "parity", "delay"]
    for c2, n2 in zip(cells, names):
        for c1, n1 in zip(cells, names):
            composite = ucompose(c2, c1)
            size = "⊥" if isinstance(composite, FormalId) else "%d states" % len(composite.states)
            print("%s ⋄ %s = %s; triangle: %s" % (n2, n1, size, check_triangle(c2, c1)))
    for quad in [(bot, cpar, u2, cpar), (cpar, bot, bot, u2), (bot, bot, bot, bot)]:
        print("pentagon %s: %s" % ("/".join(
            "⊥" if isinstance(c, FormalId) else "m" for c in quad), check_upentagon(*quad)))
    print("strict unit laws: %s" % (ucompose(bot, cpar) == cpar and ucompose(cpar, bot) == cpar))
    return 0


class _Command:
    """A leaf command's subparser, and what its plain requests need: the
    positionals in order with the tokens each takes, their sum (the
    arity), the flags that take one value, the required flags and the
    Namespace defaults.  A positional takes one token, or n for an
    integer nargs n; a "*" positional gives the command no arity, so
    its requests always go to argparse."""

    def __init__(self, parser, depth, defaults):
        self.parser, self.depth, self.defaults = parser, depth, defaults
        self.positionals, self.flags, self.required = [], {}, []
        self.arity = 0

    def add_argument(self, *args, **kwargs):
        action = self.parser.add_argument(*args, **kwargs)
        self.defaults[action.dest] = action.default
        if not action.option_strings:
            take = 1 if action.nargs in (None, "?") else action.nargs
            self.positionals.append((action, take))
            fixed = isinstance(take, int) and self.arity is not None
            self.arity = self.arity + take if fixed else None
        elif action.nargs is None:
            self.flags.update(dict.fromkeys(action.option_strings, action))
        if action.required and action.option_strings:
            self.required.append(action)
        return action


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mealymoore",
        description="Compose, run, transform, and law-check Mealy and Moore machines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    levels = {(): parser.add_subparsers(dest="command", required=True)}
    # Every leaf command by its words, as _plain_args reads it; the
    # attribute is this module's own, not argparse's.
    commands = parser._plain_commands = {}

    def command(words, func, **kwargs):
        leaf = levels[words[:-1]].add_parser(words[-1], **kwargs)
        leaf.set_defaults(func=func)
        fixed = {levels[words[:i]].dest: word for i, word in enumerate(words)}
        commands[words] = _Command(leaf, len(words), dict(fixed, func=func))
        return commands[words]

    p = command(("validate",), _cmd_validate, help="validate a machine file")
    p.add_argument("file")

    p = command(("run",), _cmd_run, help="run a machine on a word")
    p.add_argument("file")
    p.add_argument("--start", required=True)
    p.add_argument("--word", required=True)

    p = command(("compose",), _cmd_compose, help="compose SECOND after FIRST")
    p.add_argument("second")
    p.add_argument("first")
    p.add_argument("-o", "--output")

    p = command(("transform",), _cmd_transform,
                help="apply a conversion functor or build a universal cell")
    p.add_argument("op", choices=["embed-j", "d1", "moorify", "decapitate", "u", "p"])
    p.add_argument("file", nargs="?")
    p.add_argument("--alphabet", help="symbols for u/p, e.g. '0,1'")
    p.add_argument("-o", "--output")

    p = levels[()].add_parser("check", help="check a law; exit 1 if it fails")
    levels[("check",)] = p.add_subparsers(dest="law", required=True)
    c = command(("check", "soft"), _cmd_check)
    c.add_argument("files", nargs=1)
    c = command(("check", "n-soft"), _cmd_check)
    c.add_argument("n", type=int)
    c.add_argument("files", nargs=1)
    c = command(("check", "extension-square"), _cmd_check)
    c.add_argument("maxlen", type=int,
                   help="a word-length bound, 1 or more; the verdict does not depend on it")
    c.add_argument("files", nargs=1)
    c = command(("check", "counit"), _cmd_check)
    c.add_argument("files", nargs=1)
    c = command(("check", "j-compat"), _cmd_check)
    c.add_argument("files", nargs=2, metavar="FILE",
                   help="the downstream machine file, then the upstream one")
    c = command(("check", "pentagon"), _cmd_check)
    c.add_argument("files", nargs="*", metavar="FILE")

    p = command(("homs",), _cmd_homs, help="enumerate all homomorphisms FIRST → SECOND")
    p.add_argument("first")
    p.add_argument("second")

    for name, text in (("adjunction", "verify the one-step adjunction bijection"),
                       ("correspondence", "measure the decapitation correspondence")):
        p = command((name,), _cmd_bijection, help=text)
        p.add_argument("moore")
        p.add_argument("mealy")

    p = command(("search-identity",), _cmd_search_identity,
                help="exhaustively search for a Moore identity cell")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-states", type=int, default=2)
    p.add_argument("--probe", action="append")

    command(("unitize-demo",), _cmd_unitize_demo,
            help="exercise the unitized structure on fixture cells")

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    # parse_args leaves the parser unchanged, so one serves every request
    # of the process; build_parser() stays a factory of fresh parsers.
    return build_parser()


def _value(action, token):
    """token converted and checked as argparse does; raises where it errs."""
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError("invalid choice")
    return value


def _values(action, tokens):
    """What argparse passes to a positional ``action`` for ``tokens``."""
    if isinstance(action.nargs, int):
        return [_value(action, token) for token in tokens]
    return _value(action, tokens[0])


def _plain_args(commands, argv):
    """The Namespace parse_args(argv) returns, read straight from the
    recorded grammar, when argv is in plain form: the command words,
    exactly as many positional tokens as the command's arity, then exact
    flags, each followed by one value that does not start with "-".
    None for any other argv, omitted or variadic positionals included,
    and for every argv that argparse refuses, so that argparse alone
    fills those in and writes help and error text."""
    command = commands.get(tuple(argv[:1])) or commands.get(tuple(argv[:2]))
    if command is None:
        return None
    rest = argv[command.depth:]
    split = 0
    while split < len(rest) and not rest[split].startswith("-"):
        split += 1
    if split != command.arity or (len(rest) - split) % 2:
        return None
    tokens, options = rest[:split], rest[split:]
    args = argparse.Namespace()
    vars(args).update(command.defaults)
    try:
        at = 0
        for action, take in command.positionals:
            action(command.parser, args, _values(action, tokens[at:at + take]))
            at += take
        seen = set()
        for flag, token in zip(options[::2], options[1::2]):
            action = command.flags.get(flag)
            if action is None or token.startswith("-"):
                return None
            action(command.parser, args, _value(action, token), flag)
            seen.add(action)
    except Exception:  # a type or choice argparse refuses: it names the fault
        return None
    return args if seen.issuperset(command.required) else None


def main(argv=None) -> int:
    parser = _parser()
    args = _plain_args(parser._plain_commands, sys.argv[1:] if argv is None else argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MachineError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except UnicodeEncodeError as err:  # a name with no form in the output's encoding
        print("error: cannot print the result: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
