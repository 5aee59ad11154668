"""Properties of the package source itself."""

import ast
import pathlib

import qkc


def test_library_has_no_assert():
    # python -O strips assert statements, so no check may be one
    for path in sorted(pathlib.Path(qkc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


# Kernel internals: the packed term map and its helpers.  Every other
# module goes through `.terms`, `sorted_terms` and the constructors, so
# the key layout can change without touching them.
KERNEL_PRIVATE = {"_packed", "_reach", "_make", "_like"}


def test_packed_term_map_stays_in_rings():
    for path in sorted(pathlib.Path(qkc.__file__).parent.glob("*.py")):
        if path.name == "rings.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in KERNEL_PRIVATE]
        uses += [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "rings"
                 and any(a.name.startswith("_") for a in node.names)]
        assert not uses, (path.name, uses)
