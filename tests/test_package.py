"""The package exports only what the package itself uses."""

import ast
from pathlib import Path

import nbsopt

PACKAGE = Path(nbsopt.__file__).resolve().parent


def test_every_export_is_used_inside_the_package():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(nbsopt.__all__) - used)
    assert unused == [], f"exported but not used in src/nbsopt: {unused}"
