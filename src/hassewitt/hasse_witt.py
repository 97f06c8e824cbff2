"""Hasse-Witt vectors of diagonal forms and the top cup-product obstruction.

The i-th entry of the vector is the i-th elementary symmetric polynomial in
the degree-1 classes of the diagonal entries. It is built one entry at a time
by the Pascal recursion sigma_i(x_1..x_k) = sigma_i(x_1..x_{k-1}) +
sigma_{i-1}(x_1..x_{k-1}) cup x_k, so a rank-n vector costs O(n^2) cups and
adds over Q, Q_p and R alike. The literal definition, a sum over every index
subset, lives in the tests as an oracle: the recursion is held against it
there, next to the Whitney sum and stabilization identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb

from .cohomology import BaseField, CohClass, add, cup, h1, zero_class
from .forms import DiagonalForm

# hasse_witt_vector makes O(n^2) cups and adds. Over Q each entry is factored
# once, by h1; a degree-2 cup then evaluates symbols at inf, 2 and the places
# of its two classes, and nothing factors again. A vector of random entries up
# to 10^6 takes 0.05 s at rank 64 and 0.67 s at rank 256 over Q (median of 5,
# max 0.67 s; 0.15 s over R and 0.12 s over Q_3) on a 2-CPU Xeon with Python
# 3.11, so this cap keeps the 1-2 s bound that rank 64 had when every add and
# cup factored products of entries. top_obstruction makes n - 1 cups and needs
# no cap.
MAX_RANK = 256
# elementary builds all C(nvars, index) index subsets: sigma_9 in 18 variables,
# 48,620 terms, takes 0.18 s and 36 MB (tracemalloc peak) on the same machine,
# so this cap keeps a formal polynomial under about 50 MB.
MAX_TERMS = 2**16


@dataclass(frozen=True)
class FormalSymmetricPolynomial:
    """sigma_index in nvars formal variables, stored as its set of index subsets."""

    nvars: int
    index: int
    terms: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.index < 0 or self.nvars < 0:
            raise ValueError("nvars and index must be nonnegative")
        for t in self.terms:
            if len(t) != self.index or not all(0 <= v < self.nvars for v in t):
                raise ValueError("terms must be index-sized subsets of the variables")

    @classmethod
    def elementary(cls, index: int, nvars: int) -> "FormalSymmetricPolynomial":
        if not 1 <= index <= nvars:
            raise ValueError("need 1 <= index <= nvars")
        if (count := comb(nvars, index)) > MAX_TERMS:
            raise ValueError(f"C({nvars}, {index}) = {count} terms exceeds the cap of {MAX_TERMS}")
        subsets = frozenset(
            frozenset(c) for c in combinations(range(nvars), index)
        )
        return cls(nvars, index, subsets)

    @property
    def is_zero_polynomial(self) -> bool:
        return not self.terms


def stabilization_pullback(index: int, nvars: int, mvars: int) -> FormalSymmetricPolynomial:
    """Restrict sigma_index(nvars) to the first mvars variables by killing the rest.

    Terms touching a killed variable drop; what survives is sigma_index(mvars)
    when index <= mvars and the zero polynomial otherwise.
    """
    if not 1 <= index <= nvars:
        raise ValueError("need 1 <= index <= nvars")
    if not 1 <= mvars <= nvars:
        raise ValueError("need 1 <= mvars <= nvars")
    sigma = FormalSymmetricPolynomial.elementary(index, nvars)
    kept = frozenset(t for t in sigma.terms if all(v < mvars for v in t))
    return FormalSymmetricPolynomial(mvars, index, kept)


@dataclass(frozen=True)
class HasseWittVector:
    """Classes (HW_1, ..., HW_n) of a rank-n diagonal form over one base field."""

    field: BaseField
    classes: tuple[CohClass, ...]

    def __getitem__(self, index: int) -> CohClass:
        """1-based: entry i has degree i."""
        if not 1 <= index <= len(self.classes):
            raise IndexError(f"no degree-{index} entry in a rank-{len(self.classes)} vector")
        return self.classes[index - 1]

    def __len__(self) -> int:
        return len(self.classes)


def hasse_witt_vector(form: DiagonalForm, field: BaseField) -> HasseWittVector:
    """All elementary symmetric classes of the degree-1 entry classes."""
    if form.rank > MAX_RANK:
        raise ValueError(f"rank {form.rank} exceeds the cap of {MAX_RANK}")
    sigma: list[CohClass] = []  # sigma[i - 1] is sigma_i of the entries so far
    for a in form.entries:
        x = h1(a, field)
        sigma.append(zero_class(field, len(sigma) + 1))
        # high to low, so sigma[i - 1] still holds the previous step's value
        for i in range(len(sigma) - 1, 0, -1):
            sigma[i] = add(sigma[i], cup(sigma[i - 1], x))
        sigma[0] = add(sigma[0], x)
    return HasseWittVector(field, tuple(sigma))


def top_obstruction(form: DiagonalForm, field: BaseField) -> CohClass:
    """The full cup product of all entry classes: degree = rank."""
    return reduce(cup, (h1(a, field) for a in form.entries))


def whitney_sum_check(d1: DiagonalForm, d2: DiagonalForm, field: BaseField) -> bool:
    """Whitney formula: HW_i of the orthogonal sum equals
    sum_{j+l=i} HW_j(d1) cup HW_l(d2), with HW_0 read as the unit.

    Computed both ways from scratch; True iff every degree agrees.
    """
    n1, n2 = d1.rank, d2.rank
    left = hasse_witt_vector(d1.concat(d2), field)
    v1 = hasse_witt_vector(d1, field)
    v2 = hasse_witt_vector(d2, field)
    for i in range(1, n1 + n2 + 1):
        total = zero_class(field, i)
        if i <= n1:
            total = add(total, v1[i])  # j = i, l = 0
        if i <= n2:
            total = add(total, v2[i])  # j = 0, l = i
        for j in range(max(1, i - n2), min(n1, i - 1) + 1):
            total = add(total, cup(v1[j], v2[i - j]))
        if total != left[i]:
            return False
    return True
