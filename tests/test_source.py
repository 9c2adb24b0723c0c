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
