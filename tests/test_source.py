"""Source-level checks over the package itself."""

import ast
from pathlib import Path

import dualface

PACKAGE = Path(dualface.__file__).parent


def test_every_top_level_definition_has_a_reference_in_the_package():
    """A top-level function or class that nothing in the package names (as a
    Name, an Attribute or an ImportFrom) has no caller outside the tests."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [f"{module}:{name}" for module, name in defined if name not in referenced]
    assert not unreferenced, unreferenced


def test_no_module_imports_another_modules_private_name():
    """A package module reaches another's names through their public
    interface: no `from .x import _name`, and no `x._name` on a module
    imported as `from . import x`. Dunder names such as __version__ are
    public."""

    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names if is_private(alias.name)]
                private += [f"{path.name}: from .{node.module or ''} import {name}" for name in names]
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
        private += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and is_private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert not private, private
