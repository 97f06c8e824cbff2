"""Slow literal identities the library is held against, shared by the tests."""

from hassewitt.cohomology import add, cup, zero_class
from hassewitt.forms import DiagonalForm
from hassewitt.hasse_witt import hasse_witt_vector


def whitney_sum_check(d1, d2, field):
    """Whitney formula: HW_i of the orthogonal sum equals
    sum_{j+l=i} HW_j(d1) cup HW_l(d2), with HW_0 read as the unit.

    Computed both ways from scratch; True iff every degree agrees.
    """
    n1, n2 = d1.rank, d2.rank
    left = hasse_witt_vector(DiagonalForm(d1.entries + d2.entries), field)
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
