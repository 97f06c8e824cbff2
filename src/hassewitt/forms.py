"""Quadratic forms over Q: Gram matrices, diagonalization by congruence,
and the classical invariants (discriminant, Hasse invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import prod
from operator import mul, xor

from .cohomology import RATIONALS, _squarefree, h1, hilbert_symbol
from .rationals import Place, as_rational

Matrix = tuple[tuple[Fraction, ...], ...]


class DegenerateFormError(ValueError):
    """The Gram matrix is singular: no nondegenerate diagonalization exists."""


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """A nondegenerate diagonal quadratic form <a_1, ..., a_n>."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a form needs at least one entry")
        if not all(isinstance(a, Fraction) for a in self.entries):
            raise TypeError("entries must be Fractions; use DiagonalForm.of")
        if any(a == 0 for a in self.entries):
            raise DegenerateFormError("zero diagonal entry")

    @classmethod
    def of(cls, *entries: Fraction | int | str) -> "DiagonalForm":
        return cls(tuple(as_rational(a) for a in entries))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "<" + ", ".join(str(a) for a in self.entries) + ">"


@dataclass(frozen=True)
class SymmetricForm:
    """A quadratic form given by its symmetric Gram matrix."""

    gram: Matrix

    def __post_init__(self) -> None:
        n = len(self.gram)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(row) != n for row in self.gram):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError(f"not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows) -> "SymmetricForm":
        return cls(tuple(tuple(as_rational(x) for x in row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.gram)


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _swap_symmetric(m: list[list[Fraction]], a: list[list[Fraction]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]
    a[i], a[j] = a[j], a[i]


def _add_row_col(m: list[list[Fraction]], a: list[list[Fraction]], i: int, j: int, f: Fraction) -> None:
    # row_i += f * row_j and col_i += f * col_j, mirrored into the transform
    n = len(m)
    for c in range(n):
        m[i][c] += f * m[j][c]
    for r in range(n):
        m[r][i] += f * m[r][j]
    for c in range(n):
        a[i][c] += f * a[j][c]


# on seeded Gram matrices with entries in +-9, diagonalize's worst of 5 seeds
# took 0.6 s at n = 48, 1.4 s at 56 and 1.7-2.3 s at 64 (2-CPU Xeon, Python
# 3.11), growing about as n^3.5, so this cap keeps one call near 2 s.
MAX_SIZE = 64


def diagonalize(form: SymmetricForm) -> tuple[Matrix, DiagonalForm]:
    """Symmetric row/column reduction: returns (A, D) with A B A^T = diag(D).

    Pivot choice when the current diagonal entry vanishes: swap in a later
    nonzero diagonal entry if one exists, else add the row (and matching
    column) of the first nonzero entry to the right in the current row. Row k
    is already zero left of k, so if it has no such entry it is zero and the
    input singular. Singular input raises DegenerateFormError; a matrix larger
    than MAX_SIZE raises ValueError before any work.
    """
    n = form.size
    if n > MAX_SIZE:
        raise ValueError(f"size {n} exceeds the cap of {MAX_SIZE}")
    m = [list(row) for row in form.gram]
    a = _identity(n)
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if i is not None:
                _swap_symmetric(m, a, k, i)
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise DegenerateFormError("singular Gram matrix")
                _add_row_col(m, a, k, j, Fraction(1))  # m[k][k] becomes 2 m[k][j]
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                _add_row_col(m, a, i, k, -m[i][k] / pivot)
    diag = tuple(m[i][i] for i in range(n))
    if any(d == 0 for d in diag):
        raise DegenerateFormError("singular Gram matrix")
    return tuple(tuple(row) for row in a), DiagonalForm(diag)


def discriminant(form: DiagonalForm) -> int:
    """Square-free representative of the product of the diagonal entries.

    It is read off the entries' degree-1 classes over Q, the symmetric
    difference of their place sets, so only each entry is factored, never the
    product (HW_1 over Q is the same class). An entry with a prime factor past
    the proven range raises FactorizationLimitError even when that prime
    cancels in the product."""
    return _squarefree(reduce(xor, (h1(a, RATIONALS).payload for a in form.entries)))


def hasse_invariant(form: DiagonalForm, v: Place) -> int:
    """Product of (a_i, a_j)_v over i < j; the empty product for rank 1.
    By bimultiplicativity that is the product over j of (a_1...a_{j-1}, a_j)_v."""
    heads = accumulate(form.entries, mul)
    return prod(hilbert_symbol(h, a, v) for h, a in zip(heads, form.entries[1:]))


def form_to_json(form: DiagonalForm) -> list[str]:
    return [str(a) for a in form.entries]


def form_from_json(doc) -> DiagonalForm:
    """Parse a JSON array of rationals ('p/q' strings or integers; floats refused)."""
    if not isinstance(doc, list):
        raise ValueError("diagonal form must be a JSON array")
    return DiagonalForm.of(*doc)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def matrix_from_json(doc) -> SymmetricForm:
    """Parse a JSON array of rows into a symmetric form. A row count or row
    length past MAX_SIZE raises ValueError before any entry is converted."""
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise ValueError("matrix must be a JSON array of arrays")
    n = max([len(doc), *map(len, doc)])
    if n > MAX_SIZE:
        raise ValueError(f"size {n} exceeds the cap of {MAX_SIZE}")
    return SymmetricForm.from_rows(doc)
