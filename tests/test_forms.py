import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt.cohomology import hilbert_symbol
from hassewitt.forms import (
    MAX_SIZE,
    DegenerateFormError,
    DiagonalForm,
    SymmetricForm,
    diagonalize,
    discriminant,
    form_from_json,
    form_to_json,
    hasse_invariant,
    matrix_from_json,
    matrix_to_json,
)
from hassewitt.rationals import REAL_PLACE, FactorizationLimitError, Place

entry = st.fractions(min_value=-10, max_value=10, max_denominator=10)


def symmetric_matrices(max_size=5, entries=entry):
    def build(n, vals):
        rows = [[Fraction(0)] * n for _ in range(n)]
        it = iter(vals)
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(it)
        return rows

    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda vals: build(n, vals))
    )


# determinants of these stay far inside the proven factorization range, so the
# square-free computations in the discriminant test always complete
small_entry = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def det(rows):
    # fraction-exact Gaussian elimination, kept independent of the library
    m = [list(r) for r in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return d


def mat_mul(a, b):
    n, mid, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(cols)]
        for i in range(n)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_diagonal_form_basics():
    f = DiagonalForm.of(1, "-1/2", 3)
    assert f.rank == 3
    assert str(f) == "<1, -1/2, 3>"
    assert f.entries == (Fraction(1), Fraction(-1, 2), Fraction(3))
    with pytest.raises(DegenerateFormError):
        DiagonalForm.of(1, 0)
    with pytest.raises(ValueError):
        DiagonalForm.of()
    with pytest.raises(TypeError):
        DiagonalForm((1.5, 2.5))


def test_symmetric_form_validation():
    with pytest.raises(ValueError):
        SymmetricForm.from_rows([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        SymmetricForm.from_rows([[1, 2, 3], [2, 1, 4]])  # not square
    f = SymmetricForm.from_rows([["1/2", 1], [1, 0]])
    assert f.size == 2


def test_diagonalize_hyperbolic_plane():
    b = SymmetricForm.from_rows([[0, 1], [1, 0]])
    a, d = diagonalize(b)
    assert a == ((Fraction(1), Fraction(1)), (Fraction(-1, 2), Fraction(1, 2)))
    assert d.entries == (Fraction(2), Fraction(-1, 2))


def test_diagonalize_rejects_singular():
    with pytest.raises(DegenerateFormError):
        diagonalize(SymmetricForm.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(DegenerateFormError):
        diagonalize(SymmetricForm.from_rows([[0, 0], [0, 1]]))
    # row 0 is zero while a later pair is not: refused at the first pivot
    with pytest.raises(DegenerateFormError):
        diagonalize(SymmetricForm.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))


def dense_gram(n, seed=0):
    # a seeded symmetric matrix with entries in +-9, as the cap was sized on
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    return rows


def test_diagonalize_refuses_past_the_size_cap():
    form = SymmetricForm.from_rows(dense_gram(MAX_SIZE + 1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        diagonalize(form)
    assert time.perf_counter() - start < 0.1
    # the cap itself is still answered
    ones = SymmetricForm.from_rows(
        [[int(i == j) for j in range(MAX_SIZE)] for i in range(MAX_SIZE)]
    )
    assert diagonalize(ones)[1].rank == MAX_SIZE


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_diagonalize_congruence_identity(rows):
    b = SymmetricForm.from_rows(rows)
    if det(rows) == 0:
        with pytest.raises(DegenerateFormError):
            diagonalize(b)
        return
    a, d = diagonalize(b)
    lhs = mat_mul(mat_mul([list(r) for r in a], [list(r) for r in b.gram]), transpose(a))
    for i in range(b.size):
        for j in range(b.size):
            assert lhs[i][j] == (d.entries[i] if i == j else 0)


@given(symmetric_matrices(max_size=4, entries=small_entry))
@settings(max_examples=100, deadline=None)
def test_diagonalize_preserves_discriminant_class(rows):
    dd = det(rows)
    if dd == 0:
        return
    _, d = diagonalize(SymmetricForm.from_rows(rows))
    prod = Fraction(1)
    for e in d.entries:
        prod *= e
    # congruence scales det by a nonzero square
    ratio = prod / dd
    assert discriminant(DiagonalForm.of(ratio)) == 1
    assert discriminant(d) == discriminant(DiagonalForm.of(dd))


def test_discriminant_values():
    assert discriminant(DiagonalForm.of(1, -1)) == -1
    assert discriminant(DiagonalForm.of(2, 18)) == 1
    assert discriminant(DiagonalForm.of("1/2", 3)) == 6


def test_discriminant_factors_each_entry():
    # the discriminant is read off the entries' classes, so a prime past the
    # proven range is refused even where it cancels in the product
    m89 = 2**89 - 1  # a Mersenne prime above 3.3e24
    with pytest.raises(FactorizationLimitError):
        discriminant(DiagonalForm.of(m89, Fraction(1, m89)))


def test_hasse_invariant_values():
    # <-1,-1>: single pair (-1,-1), invariant -1 at inf and 2, +1 elsewhere
    f = DiagonalForm.of(-1, -1)
    assert hasse_invariant(f, REAL_PLACE) == -1
    assert hasse_invariant(f, Place.finite(2)) == -1
    assert hasse_invariant(f, Place.finite(3)) == 1
    assert hasse_invariant(DiagonalForm.of(5), Place.finite(5)) == 1  # empty product
    g = DiagonalForm.of(2, 3, 5)
    expected = (
        hilbert_symbol(2, 3, Place.finite(3))
        * hilbert_symbol(2, 5, Place.finite(3))
        * hilbert_symbol(3, 5, Place.finite(3))
    )
    assert hasse_invariant(g, Place.finite(3)) == expected


@given(
    st.lists(entry.filter(lambda q: q != 0), min_size=1, max_size=4),
    st.lists(entry.filter(lambda q: q != 0), min_size=1, max_size=4),
    st.sampled_from((REAL_PLACE, Place.finite(2), Place.finite(3), Place.finite(5))),
)
@settings(max_examples=150, deadline=None)
def test_hasse_invariant_of_orthogonal_sum(e1, e2, v):
    f1, f2 = DiagonalForm(tuple(e1)), DiagonalForm(tuple(e2))
    d1 = Fraction(1)
    for a in f1.entries:
        d1 *= a
    d2 = Fraction(1)
    for a in f2.entries:
        d2 *= a
    lhs = hasse_invariant(DiagonalForm(f1.entries + f2.entries), v)
    rhs = hasse_invariant(f1, v) * hasse_invariant(f2, v) * hilbert_symbol(d1, d2, v)
    assert lhs == rhs


@given(
    st.lists(entry.filter(lambda q: q != 0), min_size=1, max_size=7),
    st.sampled_from(
        (REAL_PLACE, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7))
    ),
)
@settings(max_examples=200, deadline=None)
def test_hasse_invariant_is_the_pairwise_product(entries, v):
    # the definition, literally: one symbol per pair i < j
    form = DiagonalForm(tuple(entries))
    literal = prod(hilbert_symbol(a, b, v) for a, b in combinations(entries, 2))
    assert hasse_invariant(form, v) == literal


def test_json_round_trips():
    f = DiagonalForm.of(1, "-1/2", 3)
    assert form_to_json(f) == ["1", "-1/2", "3"]
    assert form_from_json(form_to_json(f)) == f
    assert form_from_json([2, "5"]) == DiagonalForm.of(2, 5)
    b = SymmetricForm.from_rows([[0, 1], [1, 0]])
    assert matrix_from_json(matrix_to_json(b.gram)) == b
    with pytest.raises(ValueError):
        form_from_json("[1,2]")
    with pytest.raises(ValueError):
        form_from_json([])
