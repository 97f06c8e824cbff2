"""The package exports only what its own code, demos or benchmark use."""

import ast
from pathlib import Path

import hassewitt

_PACKAGE = Path(hassewitt.__file__).parent
_ROOT = _PACKAGE.parent.parent


def used_names(path):
    # names read, attributes taken and names imported: comments and
    # docstrings do not count
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_export_is_used_by_the_tests_alone():
    sources = [p for p in _PACKAGE.glob("*.py") if p.stem != "__init__"]
    sources += sorted((_ROOT / "demos").glob("*.py")) + sorted((_ROOT / "bench").glob("*.py"))
    used = set().union(*map(used_names, sources))
    unused = sorted(set(hassewitt.__all__) - used)
    assert not unused, f"exported but used only by the tests: {unused}"
