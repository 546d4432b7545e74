"""Every function, class and method defined in the package serves its code:
its name is referenced somewhere in src/ outside its own definition, and
every field of a dataclass there is read somewhere in src/, and so is every
name a module assigns at its top level. No module reads another module's
underscore names, every name a module imports is referenced in it, and
every defaulted parameter is passed by some call in src/."""

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


# Dataclass fields kept although no package code reads them.
UNREAD_ALLOWED = {
    ("SensitivityPair", "psi2"): "the potential half of the sensitivity, which tests check",
}


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _serializes_itself(node):
    """Whether a method of the class calls asdict(self), which reads every field."""
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "asdict"
               and [getattr(a, "id", None) for a in n.args] == ["self"]
               for n in ast.walk(node))


def unread_fields():
    """(class, field) of every @dataclass in src/ whose field nothing there
    reads as an attribute; classes that serialize themselves are left out."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                    and not _serializes_itself(node):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return {f for f in fields if f[1] not in reads}


def test_every_dataclass_field_is_read():
    assert unread_fields() == set(UNREAD_ALLOWED)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def cross_module_private_reads():
    """(module, name) of every underscore name a src/ module takes from another
    package module: by `from .mod import _name`, or as `mod._name` on a name
    that a relative import bound."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.update((path.stem, a.name) for a in node.names if _private(a.name))
                imported.update(a.asname or a.name for a in node.names)
        found.update((path.stem, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and _private(node.attr)
                     and isinstance(node.value, ast.Name) and node.value.id in imported)
    return found


def test_no_module_reads_another_modules_private_names():
    assert cross_module_private_reads() == set()


def _only_raises_not_implemented(node):
    """Whether a function's body, docstring aside, is one raise NotImplementedError."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def stub_functions():
    """(module, name, line) of every function or method in src/ that only
    raises NotImplementedError: an interface stated apart from its code."""
    return {(path.name, node.name, node.lineno)
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _only_raises_not_implemented(node)}


def test_no_function_is_a_not_implemented_stub():
    assert stub_functions() == set()


def _annotation_names(tree):
    """Names inside the string annotations of a module, which the AST keeps as text."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    return {name.id for annotation in annotations for text in ast.walk(annotation)
            if isinstance(text, ast.Constant) and isinstance(text.value, str)
            for name in ast.walk(ast.parse(text.value, mode="eval"))
            if isinstance(name, ast.Name)}


def unused_imports():
    """(module, name) of every name a src/ module imports and never references
    in its code or its string annotations; __future__ imports are left out."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update((path.stem, name) for name in imported - used - _annotation_names(tree))
    return found


def test_every_imported_name_is_referenced():
    assert unused_imports() == set()


def unread_module_names():
    """(module, name) of every name a src/ module assigns at its top level
    that no code in src/ reads, as a name, an attribute or in a string
    annotation; dunders are left out."""
    assigned, reads = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        targets = [target for stmt in tree.body
                   for target in (stmt.targets if isinstance(stmt, ast.Assign)
                                  else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])]
        assigned.update((path.stem, node.id) for target in targets for node in ast.walk(target)
                        if isinstance(node, ast.Name)
                        and not (node.id.startswith("__") and node.id.endswith("__")))
        reads.update(node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        reads.update(_annotation_names(tree))
    return {(module, name) for module, name in assigned if name not in reads}


def test_every_module_level_name_is_read():
    assert unread_module_names() == set()


# Defaulted parameters kept although no call in src/ passes them.
UNPASSED_ALLOWED = {
    ("assemble_mass", "weight"): "the weighted mass matrix, for users and tests",
    ("load_vector", "weight"): "the weighted load, for users and tests",
    ("main", "argv"): "the command line as a list, for tests and embedding; None reads sys.argv",
}


def _defaulted_parameters(node):
    """(name, positional index or None) of each defaulted parameter of a
    function definition, the index counted without a method's self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
    found = [(a.arg, i - skip)
             for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def unpassed_defaults():
    """(function, parameter) of every defaulted parameter of a function or
    method in src/ that no call in src/ passes, by keyword or by position;
    calls match by name, a call of a class or of a subclass standing for its
    __init__, and a call with *args or **kwargs passes every parameter."""
    defined, calls, bases = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", None) for b in node.bases}
                defined += [(node.name, p) for item in node.body
                            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                            for p in _defaulted_parameters(item)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name != "__init__":
                defined += [(node.name, p) for p in _defaulted_parameters(node)]
            elif isinstance(node, ast.Call):
                calls.append(node)

    def callees(name):
        """The name and, for a class, the names of its subclasses in src/."""
        return {name}.union(*(callees(sub) for sub, of in bases.items() if name in of))

    def passed(name, parameter, index):
        return any(getattr(call.func, "id", getattr(call.func, "attr", None)) in callees(name)
                   and (any(k.arg in (None, parameter) for k in call.keywords)
                        or any(isinstance(a, ast.Starred) for a in call.args)
                        or index is not None and len(call.args) > index)
                   for call in calls)

    return {(name, parameter) for name, (parameter, index) in defined
            if not passed(name, parameter, index)}


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults() == set(UNPASSED_ALLOWED)
