"""Command-line surface: compose, run, transform, and law-check machines.

Exit codes: 0 for success / a law that holds, 1 for a violated law or a
FAILURE report, 2 for usage and validation errors.
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
    if all(ch in alphabet.symbols for ch in text):
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
    print("final: %s" % run(p, word))
    print("trace: %s" % " ".join(trace(p, word)))
    return 0


def _cmd_compose(args):
    second = load_machine(args.second)
    first = load_machine(args.first)
    _emit_machine(compose_cells(second, first), args.output)
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
        m = load_machine(args.file)
        if args.op in ("embed-j", "d1") and not isinstance(m, MooreMachine):
            raise MachineError("transform %s applies to Moore machines" % args.op)
        if args.op in ("moorify", "decapitate") and not isinstance(m, MealyMachine):
            raise MachineError("transform %s applies to Mealy machines" % args.op)
        result = {
            "embed-j": embed_j,
            "d1": apply_D1,
            "moorify": moorify,
            "decapitate": decapitate,
        }[args.op](m)
    _emit_machine(result, args.output)
    return 0


def _require_moore(m, what):
    if not isinstance(m, MooreMachine):
        raise MachineError("%s applies to Moore machines" % what)
    return m


def _verdict(label, ok):
    print("%s: %s" % (label, "true" if ok else "false"))
    return 0 if ok else 1


def _cmd_check(args):
    if args.law == "soft":
        m = _require_moore(load_machine(args.files[0]), "check soft")
        return _verdict("soft", is_soft(m))
    if args.law == "n-soft":
        m = _require_moore(load_machine(args.files[0]), "check n-soft")
        return _verdict("%d-soft" % args.n, is_n_soft(m, args.n))
    if args.law == "extension-square":
        m = _require_moore(load_machine(args.files[0]), "check extension-square")
        return _verdict(
            "extension-square(≤%d)" % args.maxlen, check_extension_square(m, args.maxlen)
        )
    if args.law == "counit":
        m = load_machine(args.files[0])
        if not isinstance(m, MealyMachine):
            raise MachineError("check counit applies to Mealy machines")
        return _verdict("counit", check_counit(m))
    if args.law == "j-compat":
        m = load_machine(args.files[0])
        n = load_machine(args.files[1])
        return _verdict("j-compat", check_j_compatibilities(m, n))
    if args.law == "pentagon":
        if len(args.files) != 4:
            raise MachineError("check pentagon takes four machine files")
        return _verdict("pentagon", check_pentagon(*map(load_machine, args.files)))
    raise MachineError("unknown law %r" % args.law)


def _cmd_homs(args):
    m1 = load_machine(args.first)
    m2 = load_machine(args.second)
    homset = enumerate_homs(m1, m2)
    print("homs: %d" % len(homset.homs))
    for phi in homset.homs:
        body = ", ".join(
            "%s↦%s" % (render_state(e), render_state(phi.map[e])) for e in m1.states
        )
        print("  {%s}" % body)
    return 0


def _print_report(label, report):
    print("%s: %s" % (label, "SUCCESS" if report.success else "FAILURE"))
    print("  left homs: %d, right homs: %d" % (len(report.left.homs), len(report.right.homs)))
    if report.counterexample:
        print("  counterexample: %s" % report.counterexample)
    return 0 if report.success else 1


def _cmd_adjunction(args):
    n = _require_moore(load_machine(args.moore), "adjunction")
    m = load_machine(args.mealy)
    if not isinstance(m, MealyMachine):
        raise MachineError("adjunction takes a Moore file then a Mealy file")
    return _print_report("adjunction", check_adjunction_D1(n, m))


def _cmd_correspondence(args):
    n = _require_moore(load_machine(args.moore), "correspondence")
    m = load_machine(args.mealy)
    if not isinstance(m, MealyMachine):
        raise MachineError("correspondence takes a Moore file then a Mealy file")
    return _print_report("correspondence", check_hom_correspondence(n, m))


def _cmd_search_identity(args):
    a = _parse_alphabet(args.alphabet, "A")
    probes = []
    for path in args.probe or []:
        probe = load_machine(path)
        if not isinstance(probe, MealyMachine):
            raise MachineError("probes must be Mealy machines")
        probes.append(probe)
    if not probes:
        probes = [identity_cell(a)]
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
    ok = True
    for c2, n2 in zip(cells, names):
        for c1, n1 in zip(cells, names):
            composite = ucompose(c2, c1)
            size = "⊥" if isinstance(composite, FormalId) else "%d states" % len(composite.states)
            triangle = check_triangle(c2, c1)
            ok = ok and triangle
            print("%s ⋄ %s = %s; triangle: %s" % (n2, n1, size, triangle))
    for quad in [(bot, cpar, u2, cpar), (cpar, bot, bot, u2), (bot, bot, bot, bot)]:
        pentagon = check_upentagon(*quad)
        ok = ok and pentagon
        print("pentagon %s: %s" % ("/".join(
            "⊥" if isinstance(c, FormalId) else "m" for c in quad), pentagon))
    print("strict unit laws: %s" % (ucompose(bot, cpar) == cpar and ucompose(cpar, bot) == cpar))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mealymoore",
        description="Compose, run, transform, and law-check Mealy and Moore machines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a machine file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run a machine on a word")
    p.add_argument("file")
    p.add_argument("--start", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compose", help="compose SECOND after FIRST")
    p.add_argument("second")
    p.add_argument("first")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("transform", help="apply a conversion functor or build a universal cell")
    p.add_argument("op", choices=["embed-j", "d1", "moorify", "decapitate", "u", "p"])
    p.add_argument("file", nargs="?")
    p.add_argument("--alphabet", help="symbols for u/p, e.g. '0,1'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="check a law; exit 1 if it fails")
    csub = p.add_subparsers(dest="law", required=True)
    c = csub.add_parser("soft")
    c.add_argument("files", nargs=1)
    c = csub.add_parser("n-soft")
    c.add_argument("n", type=int)
    c.add_argument("files", nargs=1)
    c = csub.add_parser("extension-square")
    c.add_argument("maxlen", type=int)
    c.add_argument("files", nargs=1)
    c = csub.add_parser("counit")
    c.add_argument("files", nargs=1)
    c = csub.add_parser("j-compat")
    c.add_argument("files", nargs=2, metavar=("DOWNSTREAM", "UPSTREAM"))
    c = csub.add_parser("pentagon")
    c.add_argument("files", nargs="*", metavar="FILE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("homs", help="enumerate all homomorphisms FIRST → SECOND")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_homs)

    p = sub.add_parser("adjunction", help="verify the one-step adjunction bijection")
    p.add_argument("moore")
    p.add_argument("mealy")
    p.set_defaults(func=_cmd_adjunction)

    p = sub.add_parser("correspondence", help="measure the decapitation correspondence")
    p.add_argument("moore")
    p.add_argument("mealy")
    p.set_defaults(func=_cmd_correspondence)

    p = sub.add_parser("search-identity", help="exhaustively search for a Moore identity cell")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-states", type=int, default=2)
    p.add_argument("--probe", action="append")
    p.set_defaults(func=_cmd_search_identity)

    p = sub.add_parser("unitize-demo", help="exercise the unitized structure on fixture cells")
    p.set_defaults(func=_cmd_unitize_demo)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    # parse_args leaves the parser unchanged, so one serves every request
    # of the process; build_parser() stays a factory of fresh parsers.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MachineError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
