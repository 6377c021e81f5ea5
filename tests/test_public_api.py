"""Every public library name has a caller outside the tests, and no module
reads another module's private names.

A name in a module's ``__all__``, and each public method or property of a
class in an ``__all__``, must be read somewhere in ``src/kfock`` other than
inside its own definition, or be named in a demo or the README.  A helper
that only tests call belongs in ``tests/conftest.py``.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import kfock

ROOT = Path(__file__).resolve().parents[1]


def _reads(node, inside=()):
    """Names and attributes read under ``node``, skipping each one inside a
    function or class of the same name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _reads(child, inside + (child.name,))
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in inside:
                yield child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            if child.attr not in inside:
                yield child.attr
        yield from _reads(child, inside)


def _sources():
    """Each module of ``src/kfock`` by name, parsed."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "kfock").glob("*.py"))}


def _public_members(tree, names):
    """``Class.member`` for each method or property, not ``_``-prefixed, of
    the classes in ``names`` that ``tree`` defines at its top level."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in names:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}"


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = _sources()
    read = {name for tree in trees.values() for name in _reads(tree)}
    docs = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]
    words = set(re.findall(r"\w+", "\n".join(p.read_text(encoding="utf-8") for p in docs)))
    modules = [importlib.import_module(f"kfock.{m.name}")
               for m in pkgutil.iter_modules(kfock.__path__)]
    names = {mod.__name__: [*getattr(mod, "__all__", ())] for mod in modules}
    for mod in modules:
        names[mod.__name__] += _public_members(trees[mod.__name__.split(".")[-1]],
                                               names[mod.__name__])
    unused = [f"{mod}.{name}" for mod, listed in names.items() for name in listed
              if name.split(".")[-1] not in read and name.split(".")[-1] not in words]
    assert unused == []


def _defined(tree):
    """Names a module defines: functions, classes, imports, and the targets
    of its assignments, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def test_no_module_reads_another_modules_private_names():
    """Each ``x._name`` read in a module names something that module defines."""
    foreign = []
    for module, tree in _sources().items():
        own = set(_defined(tree))
        foreign += [f"{module}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_") and not node.attr.endswith("__")
                    and node.attr not in own]
    assert foreign == []
