"""Nothing public in the package that no code of the package calls: every
public function, class or method in `src/moebiusband` is named somewhere in
the package's own modules or in the benchmark tracer, which replaces package
functions by name.  A helper that only tests use belongs in the tests."""

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


def _references(tree):
    """Every name the module reads: identifiers, attributes, and string
    constants that are a name as a whole (getattr lookups, tracer tables)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_used_in_the_package():
    referenced = set().union(*(_references(ast.parse(p.read_text())) for p in READERS))
    unused = [f"{p.name}:{line} {qualname}"
              for p in MODULES for qualname, name, line in _definitions(ast.parse(p.read_text()))
              if name not in referenced]
    assert not unused, "public but unused in the package:\n" + "\n".join(unused)
