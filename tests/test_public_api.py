"""Every public library name has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/kfock``
other than inside its own definition, or be named in a demo or the README.
A helper that only tests call belongs in ``tests/conftest.py``.
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


def test_every_public_name_has_a_caller_outside_the_tests():
    read = set()
    for path in (ROOT / "src" / "kfock").glob("*.py"):
        read.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    docs = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]
    words = set(re.findall(r"\w+", "\n".join(p.read_text(encoding="utf-8") for p in docs)))
    modules = [importlib.import_module(f"kfock.{m.name}")
               for m in pkgutil.iter_modules(kfock.__path__)]
    unused = [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ())
              if name not in read and name not in words]
    assert unused == []
