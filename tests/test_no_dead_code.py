"""Every function, class and method defined in the package serves its code:
its name is referenced somewhere in src/ outside its own definition."""

import ast
from pathlib import Path

import thermopt

SRC = Path(thermopt.__file__).resolve().parent

# Public helpers kept for users and tests although no package code calls them.
ALLOWED = {
    "interpolate": "the P1 interpolant of an expression, for users and tests",
    "write_mesh_file": "the writer of the documented mesh file format",
}


def unreferenced():
    """Names defined in src/ that nothing there references outside their own
    definition; dunder methods are left out, since the interpreter calls them."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.alias):
                references.append((node.name, path.name, node.lineno))
    return {name for name, path, first, last in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and not any(ref == name and (where != path or not first <= line <= last)
                        for ref, where, line in references)}


def test_every_definition_is_referenced():
    assert unreferenced() == set(ALLOWED)
