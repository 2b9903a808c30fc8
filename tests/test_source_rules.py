"""Rules over the source text itself, read with the standard library's
``ast`` alone, over the CI workflows' text, and over what importing the
CLI loads."""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _modules(*dirs):
    """(path relative to the repository root, parsed module) of every
    Python file under ``dirs``, in path order; each rule only reads the
    trees, so the rules share one parse."""
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    return [(p.relative_to(ROOT).as_posix(), ast.parse(p.read_bytes(), str(p))) for p in paths]


def test_imports_are_top_level_and_used():
    # Every import in src/, tests/ and demos/ must be a top-level
    # statement of its module, and each name it binds must be read
    # somewhere in its module.  `from __future__` imports bind nothing,
    # and src/mealymoore/__init__.py imports only to re-export, so both
    # are skipped for use.  perfbench/ is not checked.
    bad = []
    for path, tree in _modules("src", "tests", "demos"):
        top = set(map(id, tree.body))
        bad += ["%s:%d: import not at the top level" % (path, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
        if path == "src/mealymoore/__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        bad.append("%s:%d: %s" % (path, node.lineno, name))
    assert not bad, "unused or nested imports:\n" + "\n".join(bad)


def test_every_private_name_is_referred_to():
    # Every private (single-underscore) function, class, method or
    # module-level name defined in src/mealymoore/ must be referred to
    # somewhere in src/: as a name read, an attribute or an imported
    # name.  Names are matched by spelling alone, so a private name
    # defined twice passes while either is used.
    defined, used = {}, set()
    for path, tree in _modules("src/mealymoore"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, "%s:%d" % (path, node.lineno))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, "%s:%d" % (path, node.lineno))
    bad = sorted("%s: %s" % (where, name) for name, where in defined.items()
                 if name.startswith("_") and not name.startswith("__") and name != "_"
                 and name not in used)
    assert not bad, "private names nothing in src/ refers to:\n" + "\n".join(bad)


def test_no_function_calls_itself():
    # A recursion is bounded by the stack, not by the input: every walk
    # over a nesting or a search in src/mealymoore/ is a loop.  A call
    # through an attribute, such as _Value.__init__(self, ...), is a
    # delegation and passes.
    bad = ["%s:%d: %s" % (path, call.lineno, node.name)
           for path, tree in _modules("src/mealymoore")
           for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           for call in ast.walk(node)
           if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name]
    assert not bad, "functions that call their own name:\n" + "\n".join(bad)


def test_no_name_is_defined_twice_in_one_body():
    # A second def or class of one name in a module or class body replaces
    # the first without a word, so pytest would run only the later of two
    # tests of one name.
    bad = []
    for path, tree in _modules("src", "tests", "demos"):
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for body in [tree.body] + [node.body for node in classes]:
            seen = set()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name in seen:
                        bad.append("%s:%d: %s" % (path, node.lineno, node.name))
                    seen.add(node.name)
    assert not bad, "names defined twice in one body:\n" + "\n".join(bad)


def test_workflows_run_no_inline_python():
    # A Python program written into a workflow's YAML is a check only CI
    # runs; every check CI runs must be a file the Tier-1 command runs.
    inline = re.compile(r"\bpython[0-9.]*\s+(-c\b|-\s*<<)")
    bad = ["%s:%d: %s" % (path.relative_to(ROOT).as_posix(), n, line.strip())
           for path in sorted((ROOT / ".github" / "workflows").glob("*.y*ml"))
           for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
           if inline.search(line)]
    assert not bad, "inline Python in a workflow:\n" + "\n".join(bad)


def test_cli_import_loads_no_dataclasses():
    # Every CLI request imports mealymoore.cli; dataclasses and the
    # inspect module it pulls in would add about 10 ms to each one.  A
    # fresh interpreter imports it, as pytest itself loads dataclasses.
    probe = ('import sys, mealymoore.cli; '
             'print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))')
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.split() == [], "mealymoore.cli loads " + done.stdout
