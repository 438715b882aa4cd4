"""Every exported name has a reader outside the unit tests."""

import ast
from pathlib import Path

import facering

ROOT = Path(__file__).resolve().parent.parent


def _names_read(path: Path) -> set:
    """Names and attributes that the module at path loads; a def or class
    line, an assignment target or an import does not read its name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_export_has_a_reader():
    # a reader is package code other than __init__.py, or the acceptance tests
    modules = [p for p in (ROOT / "src" / "facering").glob("*.py") if p.name != "__init__.py"]
    modules.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_names_read, modules))
    assert sorted(set(facering.__all__) - read) == []
