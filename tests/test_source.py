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
