"""Static checks on the package source: top-level used imports, no dead names.

They parse ``src/z2lie`` with :mod:`ast` and catch what a deletion leaves
behind: an import nothing uses any more, a private helper nothing calls,
or a public name that only the tests read.
"""

import ast
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


def test_every_private_name_is_referenced():
    used = set().union(*map(_loaded_names, _SOURCES.values()))
    dead = []
    for module, tree in _SOURCES.items():
        scopes = [("", tree.body)] + [
            (f"{node.name}.", node.body)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for prefix, body in scopes:
            dead += [
                f"{module}: {prefix}{name}"
                for name in _defined(body)
                if _is_private(name) and name not in used
            ]
    assert not dead


def test_every_public_name_is_read_by_the_package():
    used = set().union(*map(_loaded_names, _SOURCES.values()))
    unread = {
        f"{module}: {name}"
        for module, tree in _SOURCES.items()
        for name in _defined(tree.body)
        if not name.startswith("_") and name not in used
    }
    assert unread == set()
