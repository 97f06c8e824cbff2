"""Memory stays bounded: no unbounded cache in the package, and a stream of
fresh forms leaves nothing behind."""

import ast
import gc
import random
import tracemalloc
from pathlib import Path

import hassewitt
from hassewitt.forms import DiagonalForm
from hassewitt.solvability import _SEARCH_BUDGET, _mitm_point, solvable_over_Q

SRC = Path(hassewitt.__file__).resolve().parent


def unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines that import or apply functools.cache, or call lru_cache with
    maxsize None."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return lines


def test_checker_sees_every_unbounded_spelling():
    for snippet in (
        "from functools import cache",
        "import functools\n@functools.cache\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
        "import functools\n@functools.lru_cache(None)\ndef f(): pass",
    ):
        assert unbounded_caches(ast.parse(snippet)), snippet
    bounded = "from functools import lru_cache\n@lru_cache(maxsize=1)\ndef f(): pass"
    assert not unbounded_caches(ast.parse(bounded))


def test_no_unbounded_cache_in_the_package():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := unbounded_caches(ast.parse(path.read_text())))
    }
    assert found == {}


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return [n for n in range(lo, hi) if sieve[n]]


def test_fresh_forms_leave_no_residue():
    # rank-3 forms whose entries are +-q1*q2 for fresh primes q1, q2: each form
    # is factored, certified place by place and searched, then dropped
    rng = random.Random(777)
    primes = primes_between(10**3, 10**5)

    def entry():
        return rng.choice((1, -1)) * rng.choice(primes) * rng.choice(primes)

    forms = [DiagonalForm.of(entry(), entry(), entry()) for _ in range(240)]
    for form in forms[:40]:  # imports and first-call allocations settle here
        solvable_over_Q(form)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for form in forms[40:]:
            solvable_over_Q(form)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 50_000, f"{grown} bytes still held after 200 fresh forms"


def test_meet_in_the_middle_frees_each_probe():
    # [3, -5] has no point, so every denominator probes: each probe holds both
    # half tables, its targets, the search positions and the least values it
    # found, and frees them before the next probe
    height = 2000
    _mitm_point([3, -5], 1, height, [_SEARCH_BUDGET])  # first-call allocations
    tracemalloc.start()
    try:
        assert _mitm_point([3, -5], 1, height, [_SEARCH_BUDGET]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (height + 1) * 8
    assert peak <= 5.5 * table, f"peak of {peak / table:.2f} tables"
