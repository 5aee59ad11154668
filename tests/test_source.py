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


# Public top-level functions and public methods that nothing in the
# package calls, each kept for a reason the tests rely on.  Anything else
# no module uses is API that only tests reach, and goes.
UNCALLED_BY_DESIGN = {
    # the independent oracle the tests compare the closed-form D_i with
    "demazure_D_fraction",
    # with ic_lhs, SemiClassSum.tensor, QExtElement.from_group and
    # specialize_q_one: the only check that the semimod recursions follow
    # from the inverse Chevalley formulas (test_derive_rec_1/2)
    "ic1_data", "ic2_data", "derive_recurrence",
}


def test_every_public_function_is_used_or_allowlisted():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in
             sorted(pathlib.Path(qkc.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    # top-level functions and the methods of top-level classes
    defs = [node for tree in trees.values() for node in tree.body]
    defs += [node for cls in defs if isinstance(cls, ast.ClassDef)
             for node in cls.body]
    unused = {node.name for node in defs
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in used}
    assert unused == UNCALLED_BY_DESIGN
