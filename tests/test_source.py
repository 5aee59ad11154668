"""Properties of the package source itself."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import qkc

PACKAGE = pathlib.Path(qkc.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips assert statements, so no check may be one
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_library_has_no_unused_import():
    # a name imported but never read is a leftover of deleted code
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0]
                                for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= read, (path.name, sorted(imported - read))


# Kernel internals: the packed term map and its helpers.  Every other
# module, and the test oracles, go through `.terms`, `sorted_terms` and
# the constructors, so the key layout can change without touching them.
KERNEL_PRIVATE = {"_packed", "_reach", "_make", "_like"}


def test_packed_term_map_stays_in_rings():
    oracles = pathlib.Path(__file__).with_name("oracles.py")
    for path in SOURCES + [oracles]:
        if path.name == "rings.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in KERNEL_PRIVATE]
        uses += [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module in ("rings", "qkc.rings")
                 and any(a.name.startswith("_") for a in node.names)]
        assert not uses, (path.name, uses)


# Every command and output form of `qkc`.  A public function that none of
# them enters runs only in tests: it belongs in tests/oracles.py, or
# nowhere.
COMMANDS = [
    ["verify", "--n", "3", "--json", "--timings"],
    ["verify", "--config", "{config}", "--timings",
     "--suite", "qbg,alcove,ic,semimod,relations,qkpres"],
    ["show", "f", "--n", "2", "--l", "1"],
    ["show", "ff", "--n", "2", "--l", "1", "--variant", "1", "--json"],
    ["show", "ideal", "--n", "2", "--json"],
    ["show", "schubert", "--n", "2", "--variant", "1bar"],
    ["qbg", "export", "--n", "2", "--format", "dot"],
    ["qbg", "export", "--n", "2", "--format", "json"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "theta:1"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "gamma:1", "--json"],
    ["ic", "--w", "[-2,1]", "--m", "1"],
    ["ic", "--w", "[-2,1]", "--m", "1", "--json"],
    ["solve-system", "--n", "3"],
    ["solve-system", "--n", "3", "--json"],
]

# Runs COMMANDS in a fresh interpreter, whose caches are empty, and
# prints each exit code and every (file, name, first line) of package
# code entered.
CHILD = """
import contextlib, io, json, os, sys
from qkc.cli import main
package, commands = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        entered.add((os.path.basename(code.co_filename), code.co_name,
                     code.co_firstlineno))

codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        codes.append(main(argv))
        sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""


def public_defs():
    """(file, name, first line) -> dotted name of every public top-level
    function and public method of a top-level class; a decorated def
    starts at its first decorator, as its code object does."""
    out = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        scopes = [("", tree.body)] + [(node.name + ".", node.body)
                                      for node in tree.body
                                      if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    first = min([node.lineno] + [d.lineno for d in
                                                 node.decorator_list])
                    out[(path.name, node.name, first)] = "%s.%s%s" % (
                        path.stem, prefix, node.name)
    return out


def test_every_public_function_runs_in_a_command(tmp_path):
    config = tmp_path / "qkc.cfg"
    config.write_text("n = 3\nmode = exact\n")
    commands = [[a.format(config=config) for a in argv] for argv in COMMANDS]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == [0] * len(commands)
    entered = {tuple(key) for key in report["entered"]}
    unrun = sorted(name for key, name in public_defs().items()
                   if key not in entered)
    assert not unrun, "entered by no command: " + ", ".join(unrun)
