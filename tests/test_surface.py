"""The package exports only what its own code, demos or benchmark use."""

import ast
from pathlib import Path

import hassewitt

_PACKAGE = Path(hassewitt.__file__).parent
_ROOT = _PACKAGE.parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def used_names(node):
    # names read, attributes taken and names imported: comments, docstrings
    # and assignment targets do not count
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def reachable_names():
    """Names the demos and the benchmark use, then, to a fixed point, those
    the package uses in module-level code or in a top-level def or class
    whose name is already used. A def that only the tests reach, directly or
    through other such defs, adds nothing."""
    entries = sorted((_ROOT / "demos").glob("*.py")) + sorted((_ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(ast.parse(p.read_text())) for p in entries))
    defs = []
    for path in _PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, _DEFS):
                defs.append(stmt)
            else:
                used |= used_names(stmt)
    while reached := [d for d in defs if d.name in used]:
        defs = [d for d in defs if d.name not in used]
        used = used.union(*map(used_names, reached))
    return used


def test_no_export_is_used_by_the_tests_alone():
    unused = sorted(set(hassewitt.__all__) - reachable_names())
    assert not unused, f"exported but used only by the tests: {unused}"
