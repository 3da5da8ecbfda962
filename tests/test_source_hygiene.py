"""Static checks on the package source: top-level used imports, no dead names.

They parse ``src/z2lie`` with :mod:`ast` and catch what a deletion leaves
behind: an import nothing uses any more, a private helper nothing calls,
or a public name, method or property that only the tests read.
"""

import ast
import importlib
from pathlib import Path

import z2lie

_SOURCES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(Path(z2lie.__file__).parent.glob("*.py"))
}


def _loaded_names(tree):
    """Every name read in ``tree``, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_every_import_is_used():
    unused = []
    for module, tree in _SOURCES.items():
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused


# the one (module, function, imported module) import inside a function:
# numpy is loaded only for correspond
_FUNCTION_IMPORTS = {("cli.py", "cmd_correspond", "blockmodel")}


def test_imports_sit_at_module_top():
    nested = set()
    for module, tree in _SOURCES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    nested.add((module, func.name, node.module))
                elif isinstance(node, ast.Import):
                    nested |= {(module, func.name, alias.name) for alias in node.names}
    assert nested == _FUNCTION_IMPORTS


def _defined(body):
    """Names bound at the top of a module or class body by def, class or =."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _scopes(tree):
    """``(prefix, body)`` of the module ("") and of each top-level class ("C.")."""
    yield "", tree.body
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield f"{node.name}.", node.body


def test_every_private_name_is_referenced():
    used = set().union(*map(_loaded_names, _SOURCES.values()))
    dead = [
        f"{module}: {prefix}{name}"
        for module, tree in _SOURCES.items()
        for prefix, body in _scopes(tree)
        for name in _defined(body)
        if _is_private(name) and name not in used
    ]
    assert not dead


def _overrides_an_outside_base(module, cls, name):
    """Whether ``cls.name`` overrides a member of a base class from outside
    the package, whose own code calls it (as argparse calls ``error``)."""
    klass = getattr(importlib.import_module(f"z2lie.{module[:-3]}"), cls)
    outside = [base for base in klass.__mro__ if not base.__module__.startswith("z2lie")]
    return any(hasattr(base, name) for base in outside)


def test_every_public_name_is_read_by_the_package():
    # a module-level name may be read bare or as an attribute; a method or
    # property only as an attribute, so a local of the same name hides none
    used = set().union(*map(_loaded_names, _SOURCES.values()))
    nodes = [node for tree in _SOURCES.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unread = {
        f"{module}: {prefix}{name}"
        for module, tree in _SOURCES.items()
        for prefix, body in _scopes(tree)
        for name in _defined(body)
        if not name.startswith("_")
        and name not in (attributes if prefix else used)
        and not (prefix and _overrides_an_outside_base(module, prefix[:-1], name))
    }
    assert unread == set()
