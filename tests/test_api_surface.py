"""Nothing public in the package that no code of the package calls: every
public function, class or method in `src/moebiusband` is named somewhere in
the package's own modules or in the benchmark tracer, which replaces package
functions by name.  A helper that only tests use belongs in the tests.

Likewise every field annotated in a class body, of a NamedTuple record or
of a plain value class, is named somewhere other than in its definition or
in the `object.__setattr__` that stores it.  The rule goes by name, so it
cannot see a field that shares its name with a field read on another
class: a write-only `details` on one report would pass while another
report's `details` is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "moebiusband").glob("*.py") if p.name != "__init__.py")
READERS = MODULES + [ROOT / "perfbench" / "tracer.py"]


def _definitions(tree):
    """The public functions, classes and methods of a module, with lines."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name, item.lineno) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node.lineno))
    return [entry for entry in out if not entry[1].startswith("_")]


def _fields(tree):
    """The annotated fields in the class bodies of a module, with lines."""
    return [(f"{node.name}.{item.target.id}", item.target.id, item.lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _references(tree):
    """Every name the module reads: identifiers, attributes, and string
    constants that are a name as a whole (getattr lookups, tracer tables).
    The target of a field's definition is not a read, nor is the name a
    constructor stores a field under with `object.__setattr__(self, name, v)`."""
    defined = {id(item.target) for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.AnnAssign)}
    names = set()
    for node in ast.walk(tree):
        # ast.walk reaches a call before its arguments
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and len(node.args) == 3):
            defined.add(id(node.args[1]))
        if id(node) in defined:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _referenced():
    return set().union(*(_references(ast.parse(p.read_text())) for p in READERS))


def test_every_public_name_is_used_in_the_package():
    referenced = _referenced()
    unused = [f"{p.name}:{line} {qualname}"
              for p in MODULES for qualname, name, line in _definitions(ast.parse(p.read_text()))
              if name not in referenced]
    assert not unused, "public but unused in the package:\n" + "\n".join(unused)


def test_every_field_is_read_in_the_package():
    referenced = _referenced()
    unused = [f"{p.name}:{line} {qualname}"
              for p in MODULES for qualname, name, line in _fields(ast.parse(p.read_text()))
              if name not in referenced]
    assert not unused, "fields named nowhere but in their definition:\n" + "\n".join(unused)
