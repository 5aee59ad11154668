"""Properties of the package source itself."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import qkc
from qkc.cli import MAX_TRUNC

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


# The only places that may name a memo decorator: `rings.table`, which
# registers every table so that each run empties it, and a function that
# builds a table afresh at each call.
MEMO_NAMES = {"lru_cache", "cache", "identity_memo"}
MEMO_SITES = {("rings.py", "table"), ("relations.py", "csym_nested_lhs")}


def test_every_memo_outside_a_call_is_a_table():
    for path in SOURCES:
        found = []

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for child in node.decorator_list:
                    visit(child, function)
                scope = (node.name if isinstance(node, ast.FunctionDef)
                         else function)
                for child in node.body:
                    visit(child, scope)
                return
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in MEMO_NAMES and (path.name, function) \
                    not in MEMO_SITES:
                found.append((node.lineno, name))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(), str(path)), None)
        assert not found, (path.name, found)


# Every statement of `src/qkc` runs in one of the runs below: a command
# that exits 0, a usage error that exits 2, or a named fault of
# tests/faults.py under which a command exits 1.  Code that none of them
# runs is deleted, or, if a tier-1 test needs it, listed in UNREACHED.
COMMANDS = [
    ["verify", "--n", "3", "--json", "--timings"],
    ["verify", "--config", "{config}", "--timings",
     "--suite", "qbg,alcove,ic,semimod,relations,qkpres"],
    # a degree below the numerators': the cut drops terms of the factors
    ["verify", "--n", "2", "--trunc", "1", "--suite", "semimod,qkpres"],
    ["show", "f", "--n", "2", "--l", "1"],
    ["show", "ff", "--n", "2", "--l", "1", "--variant", "1", "--json"],
    ["show", "ff", "--n", "1", "--l", "3"],
    ["show", "ideal", "--n", "2", "--json"],
    ["show", "schubert", "--n", "2", "--variant", "1"],
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
CONFIG = "# rank and mode\n\nn = 3\nmode = exact\n"

# Each check of a value from outside, at the first place it is read:
# argparse types and the config reader first, then the ranges that depend
# on the command or on another flag, in the library function that first
# reads them.
USAGE = [
    ["ic", "--w", "[a]", "--m", "1"],
    ["ic", "--w", "[1,1]", "--m", "1"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "gamma:x"],
    ["verify", "--config", "{bad_config}"],
    ["verify", "--config", "{missing_config}"],
    ["verify", "--config", "{typo_config}"],
    ["verify", "--n", "1", "--trunc", str(MAX_TRUNC + 1)],
    ["verify", "--n", "x"],
    ["verify", "--n", "0"],
    ["verify", "--suite", "bogus"],
    ["show", "ff", "--n", "2", "--l", "1", "--variant", "x"],
    ["verify", "--n", "7", "--suite", "qbg"],
    ["verify", "--n", "7", "--suite", "semimod,qbg"],
    ["qbg", "export", "--n", "5"],
    ["ic", "--w", "[-2,1]", "--m", "3"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "theta:3"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "gamma:3"],
    ["show", "ff", "--n", "2", "--l", "1", "--variant", "3"],
    ["show", "schubert", "--n", "2", "--variant", "3"],
]
BAD_CONFIG = "n 3\n"
TYPO_CONFIG = "mdoe = exact\n"

# (fault in tests/faults.py, command)
FAULTS = [
    ("demazure_D_sign", ["verify", "--n", "3", "--suite", "relations"]),
    ("demazure_D_sign", ["verify", "--n", "3", "--suite", "relations",
                         "--json"]),
    ("doubled_pivots", ["verify", "--n", "3", "--suite", "relations"]),
    ("doubled_pivots", ["solve-system", "--n", "3"]),
    ("doubled_pivots", ["solve-system", "--n", "3", "--json"]),
    ("uncancelled_pair", ["verify", "--n", "3", "--suite", "ic"]),
    ("missing_partner", ["verify", "--n", "3", "--suite", "ic"]),
    ("chain_walked_twice", ["verify", "--n", "3", "--suite", "ic"]),
]

# Statements that no run reaches but a tier-1 test does, keyed by
# (file, function, statement text): why they stay, and the test.
UNREACHED = {
    ("ichevalley.py", "SemiClassSum.render", 'return "0"'): (
        "a zero sum prints as 0; no ic expansion is zero",
        "test_ichevalley.py::test_rank_one_by_hand"),
    ("rings.py", "_render_terms", 'return "0"'): (
        "a zero value prints as 0; no command prints one",
        "test_rings.py::test_render_is_stable"),
    ("rings.py", "_render_terms", 'factors.append("q^%d" % qe)'): (
        "q-powers other than 0 and 1 print; no ic expansion has one",
        "test_rings.py::test_render_is_stable"),
    ("rings.py", "Poly._pair",
     "return self, self._packed, {0: other} if other else {}"): (
        "an int is a constant of any layout; commands scale by ints only",
        "test_rings.py::test_cross_layout_equality_is_symmetric"),
    ("rings.py", "Poly.__eq__", "return False"): (
        "series of two truncations are unequal; no command compares them",
        "test_rings.py::test_cross_layout_equality_is_symmetric"),
    ("rings.py", "NovikovFraction.__eq__", "return False"): (
        "a truncated series never equals an exact fraction; no command "
        "compares the two modes",
        "test_rings.py::test_cross_layout_equality_is_symmetric"),
    ("rings.py", "Poly.add_shifted", "continue"): (
        "the truncation cut; commands shift-add in Z[P] only",
        "test_rings.py::test_cut_at_the_ends_of_the_series_layout"),
    ("weylc.py", "simple_root_weight", "return _eps(n, n, 2)"): (
        "the long simple root alpha_n = 2 eps_n; no command applies D_n",
        "test_weylc.py::test_cartan_matrix_from_pairing"),
}

# Runs every (argv, fault) in a fresh interpreter, whose caches are empty,
# with a line tracer set before the package is imported, then each named
# test on its own, and prints each exit code and stderr text, every
# (file, line) of package code that the runs ran, and those that each
# test ran.
CHILD = """
import contextlib, importlib, io, json, os, sys
package, runs, tests = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
ran = set()

def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines

def calls(frame, event, arg):
    if os.path.dirname(frame.f_code.co_filename) == package:
        return lines

sys.settrace(calls)
from qkc.cli import main
import faults

def patch(owner, name, value):
    undo.append((owner, name, getattr(owner, name)))
    setattr(owner, name, value)

codes, errors = [], []
for argv, fault in runs:
    undo = []
    if fault:
        getattr(faults, fault)(patch)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    errors.append(err.getvalue())
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)
sys.settrace(None)

def found():
    return sorted((os.path.basename(f), l) for f, l in ran)

report = {"codes": codes, "errors": errors, "ran": found(), "tests": {}}
for test in tests:
    path, name = test.split("::")
    function = getattr(importlib.import_module(path[:-3]), name)
    ran = set()
    sys.settrace(calls)
    function()
    sys.settrace(None)
    report["tests"][test] = found()
json.dump(report, sys.stdout)
"""


def _exempt(path, node, scope):
    """Safety and protocol code: a raise in the kernel, `rings.py`, whose
    guards keep packed keys sound for every caller, tests included;
    `return NotImplemented`, a __repr__ body and the __main__ guard.  A
    raise anywhere else checks a value from outside, so a usage run
    reaches it."""
    if isinstance(node, ast.Raise):
        return path.name == "rings.py"
    if scope[-1:] == ["__repr__"]:
        return True
    if isinstance(node, ast.Return):
        return (isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented")
    return (isinstance(node, ast.If) and not scope
            and ast.unparse(node.test) == "__name__ == '__main__'")


def statements(path):
    """(function, lines, text) of every counted statement of path: each
    one but docstrings, def and class, imports, nonlocal and global.  The
    lines are a simple statement's, or a compound statement's header;
    the text is its first line.  An exempt statement is skipped with its
    body."""
    source = path.read_text()
    text = source.splitlines()
    out = []

    def visit(body, scope):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                visit(node.body, scope + [node.name])
                continue
            if (isinstance(node, (ast.Import, ast.ImportFrom, ast.Nonlocal,
                                  ast.Global))
                    or (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str))
                    or _exempt(path, node, scope)):
                continue
            inner = [getattr(node, f, []) for f in
                     ("body", "orelse", "finalbody")]
            inner += [h.body for h in getattr(node, "handlers", [])]
            inner = [b for b in inner if b]
            last = (max(node.lineno, inner[0][0].lineno - 1) if inner
                    else node.end_lineno)
            out.append((".".join(scope) or "<module>",
                        range(node.lineno, last + 1),
                        text[node.lineno - 1].strip()))
            for b in inner:
                visit(b, scope)

    visit(ast.parse(source, str(path)).body, [])
    return out


def test_every_statement_runs(tmp_path):
    files = {"config": CONFIG, "bad_config": BAD_CONFIG,
             "typo_config": TYPO_CONFIG}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    paths = {name: tmp_path / name
             for name in list(files) + ["missing_config"]}
    runs = [([a.format(**paths) for a in argv], fault) for argv, fault in
            [(argv, None) for argv in COMMANDS + USAGE] + [
                (argv, fault) for fault, argv in FAULTS]]
    tests = pathlib.Path(__file__).parent
    named = sorted({test for _, test in UNREACHED.values()})
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(runs)] + named,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(PACKAGE.parent), str(tests)])),
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == ([0] * len(COMMANDS) + [2] * len(USAGE)
                               + [1] * len(FAULTS))
    # a usage error is one line naming it, never a traceback
    for (argv, _), code, err in zip(runs, report["codes"], report["errors"]):
        if code == 2:
            assert "error:" in err and "Traceback" not in err, (argv, err)
    ran = {tuple(key) for key in report["ran"]}
    unreached, allowed = [], set()
    for path in SOURCES:
        for function, lines, text in statements(path):
            if any((path.name, l) in ran for l in lines):
                continue
            key = (path.name, function, text)
            if key not in UNREACHED:
                unreached.append((path.name, lines[0], text))
                continue
            allowed.add(key)
            test = UNREACHED[key][1]
            tested = {tuple(k) for k in report["tests"][test]}
            assert any((path.name, l) in tested for l in lines), (
                "%s does not run %s:%d" % (test, path.name, lines[0]))
    assert not unreached, "run by no command:\n" + "\n".join(
        "%s:%d  %s" % item for item in sorted(unreached))
    # an entry whose statement now runs, or is gone, goes too
    assert allowed == set(UNREACHED), "stale: %r" % (
        sorted(set(UNREACHED) - allowed))
    assert len(UNREACHED) <= 12
