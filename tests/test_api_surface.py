"""Nothing public in the package that no code of the package calls: every
public function, class or method in `src/moebiusband` is named somewhere in
the package's own modules or in the benchmark tracer, which replaces package
functions by name.  A helper that only tests use belongs in the tests.

Likewise every field annotated in a class body is read somewhere, and a
value type stores what it measures once: no public method of a `Frozen`
class only returns one of its fields.  A field
of a `Frozen` value type must be read as an attribute, `x.field`: a local
or parameter of the same name, such as the one its constructor stores,
does not count.  A field of a NamedTuple record may be named anywhere
other than in its definition, since records are also read through
`getattr` with the name as a string.  Either rule goes by name,
so it cannot see a field that shares its name with a field read on another
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


def _is_frozen(node):
    return any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases)


def _fields(tree):
    """The annotated fields in the class bodies of a module, with lines, and
    whether their class derives from `Frozen`."""
    return [(f"{node.name}.{item.target.id}", item.target.id, item.lineno, _is_frozen(node))
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _references(tree):
    """Every name the module reads: identifiers, attributes, and string
    constants that are a name as a whole (getattr lookups, tracer tables).
    The target of a field's definition is not a read."""
    defined = {id(item.target) for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.AnnAssign)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in defined:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _attribute_reads(tree):
    """The attribute names the module reads, as in `x.name`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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
    attributes = set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in READERS))
    unused = [f"{p.name}:{line} {qualname}"
              for p in MODULES for qualname, name, line, frozen in _fields(ast.parse(p.read_text()))
              if name not in (attributes if frozen else referenced)]
    assert not unused, "fields named nowhere but in their definition:\n" + "\n".join(unused)


def _returned_attribute(method):
    """The name x where the body of `method`, past its docstring, is only
    `return self.x`; else None."""
    body = method.body[1:] if ast.get_docstring(method) is not None else method.body
    if len(body) == 1 and isinstance(body[0], ast.Return):
        value = body[0].value
        if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            return value.attr
    return None


def test_no_value_type_method_only_returns_a_field():
    getters = []
    for p in MODULES:
        tree = ast.parse(p.read_text())
        fields = {qualname for qualname, *_ in _fields(tree)}
        getters += [f"{p.name}:{item.lineno} {node.name}.{item.name}"
                    for node in tree.body if isinstance(node, ast.ClassDef) and _is_frozen(node)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and f"{node.name}.{_returned_attribute(item)}" in fields]
    assert not getters, "methods that restate a field; read the field:\n" + "\n".join(getters)
