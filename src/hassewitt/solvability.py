"""Local and global solvability of sum a_i x_i^2 = 1, with certificates.

Locally, the closed-form isotropy criteria for the extended form decide
every place; they never consult the residue oracle in localsolve, which the
tests hold them against. Globally, Hasse-Minkowski reduces everything to
finitely many completions, and a bounded point search looks for a witness.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cohomology import _padic_class_rep, hilbert_symbol
from .forms import DiagonalForm, hasse_invariant
from .rationals import REAL_PLACE, _TWO_PLACE, Place, factor

DEFAULT_SEARCH_HEIGHT = 100

_INT64_GUARD = 2**62
# one work budget per point search. The meet-in-the-middle route is taken only
# when its larger half table fits in this many entries: a rank-6 search at
# height 127 (128^3 = 2^21 entries) peaks at 109 MB resident and a rank-2 one
# at height 2,090,000 at 111 MB, 28 MB after import. Depth-first steps spend
# one unit per call, and the whole budget goes in about 0.3 s with small
# coefficients and about 1.7 s with 15-digit ones (2-CPU Xeon, Python 3.11).
_SEARCH_BUDGET = 2**21
# a meet in the middle spends one unit per this many left values it probes for
# a denominator, the first included (3-40 ns each here). At height 100 a rank-6
# search makes at most 100 probes of 101^3 values, 1.6M units, so every search
# whose tables fit at the default height answers
_PROBES_PER_UNIT = 64


class SearchBudgetExceeded(ValueError):
    """The point search ran past its fixed work budget before it could answer."""


@dataclass(frozen=True, slots=True)
class SolvabilityCertificate:
    """Verdict plus the evidence: which completions were checked, which one
    failed (if any), and a rational witness point when the search found one."""

    verdict: bool
    witness: tuple[Fraction, ...] | None
    failing_place: Place | None
    checked_places: tuple[Place, ...]

    def to_json(self) -> dict:
        return {
            "solvable": self.verdict,
            "witness": None if self.witness is None else [str(x) for x in self.witness],
            "failing_place": None
            if self.failing_place is None
            else str(self.failing_place),
            "checked_places": [str(v) for v in self.checked_places],
        }


def solvable_over_R(form: DiagonalForm) -> bool:
    """sum a_i x_i^2 = 1 over R needs one positive coefficient, nothing more."""
    return _solvable_at(form, REAL_PLACE)


def solvable_over_Qp(form: DiagonalForm, p: int) -> bool:
    """Closed-form local verdict at p, by rank of the extended form E = <a_1..a_n, -1>.

    Isotropy of E: rank 2 iff disc(E) is -1 mod squares; rank 3 iff
    (-1, -disc)_p equals the Hasse invariant; rank 4 iff disc is nontrivial or
    the Hasse invariant equals (-1, -1)_p; rank >= 5 always.
    """
    return _solvable_at(form, Place.finite(p))


def _solvable_at(form: DiagonalForm, v: Place) -> bool:
    # the local verdict at any place; a finite one has certified its prime
    if v.is_real:
        return any(a > 0 for a in form.entries)
    e = DiagonalForm(form.entries + (Fraction(-1),))
    r = e.rank
    if r >= 5:
        return True
    d = math.prod(e.entries, start=Fraction(1))
    if r == 2:
        return _padic_class_rep(-d, v.p) == 1
    eps = hasse_invariant(e, v)
    if r == 3:
        return hilbert_symbol(-1, -d, v) == eps
    return _padic_class_rep(d, v.p) != 1 or eps == hilbert_symbol(-1, -1, v)


def relevant_places(form: DiagonalForm) -> list[Place]:
    """The real place, 2, and every odd prime dividing a numerator or
    denominator of an entry, in that order: solvability over Q reduces to
    solvability at these. From rank 2 on the other odd completions come free.
    A rank-1 <a> can fail there (<2> fails at 3), yet it passes at these places
    only when a > 0 has every valuation even, that is, when a is a square.

    The real place and 2 are decided before any entry is factored:
    solvable_over_Q walks the same places lazily, so a form that fails at
    either answers even when one of its entries cannot be factored."""
    return list(_places(form))


def _places(form: DiagonalForm) -> Iterator[Place]:
    # the one place order: the entries are factored only after the real place
    # and 2 have been yielded
    yield REAL_PLACE
    yield _TWO_PLACE
    odd: set[int] = set()
    for a in form.entries:
        for part in (a.numerator, a.denominator):
            odd.update(p for p in factor(part) if p != 2)
    yield from map(Place._certified, sorted(odd))


def solvable_over_Q(
    form: DiagonalForm, *, search_height: int = DEFAULT_SEARCH_HEIGHT
) -> SolvabilityCertificate:
    """Hasse-Minkowski verdict with evidence.

    Checks the real place, then 2, then each odd relevant prime in order; the
    first failure is recorded. The real place and 2 are decided before any
    entry is factored, so a form that fails at either answers even when one
    of its entries cannot be factored. When every completion passes, the
    verdict is True and a bounded point search tries to attach a witness
    (absence of a witness within the height bound, or a search that runs out
    of its work budget, proves nothing and demotes nothing: the witness is
    None). A search_height below 1 raises ValueError before any place is
    checked.
    """
    if search_height < 1:
        raise ValueError("height must be positive")
    checked: list[Place] = []
    for v in _places(form):
        checked.append(v)
        if not _solvable_at(form, v):
            return SolvabilityCertificate(False, None, v, tuple(checked))
    try:
        witness = search_point(form, search_height)
    except SearchBudgetExceeded:
        witness = None
    return SolvabilityCertificate(True, witness, None, tuple(checked))


def search_point(form: DiagonalForm, height: int) -> tuple[Fraction, ...] | None:
    """Smallest rational point on sum a_i x_i^2 = 1 with |numerators|,
    denominator <= height, or None.

    The equation is even in every coordinate, so the search runs over
    nonnegative numerators; ties break by smallest denominator first, then
    lexicographically smallest numerator vector. The search meets in the
    middle when its half tables fit the work budget and scans depth first
    otherwise. Either way it raises SearchBudgetExceeded, before allocating
    anything past the budget, when it spends the budget without an answer;
    a point the tables have proved is always returned.
    """
    if height < 1:
        raise ValueError("height must be positive")
    entries = form.entries
    scale = math.lcm(*(a.denominator for a in entries))
    coeffs = [int(a * scale) for a in entries]
    m = len(coeffs)
    budget = [_SEARCH_BUDGET]
    # denominator d, numerators c_i: sum coeffs_i c_i^2 = scale * d^2
    worst = max(abs(c) for c in coeffs + [scale]) * height * height * (m + 1)
    if (height + 1) ** (m - m // 2) <= _SEARCH_BUDGET and worst < _INT64_GUARD:
        point = _mitm_point(coeffs, scale, height, budget)
    else:
        point = _dfs_point(coeffs, scale, height, budget)
    if point is None:
        return None
    d, numerators = point
    return tuple(Fraction(c, d) for c in numerators)


def _spend(budget: list[float], units: int, height: int) -> None:
    budget[0] -= units
    if budget[0] < 0:
        raise SearchBudgetExceeded(
            f"the point search at height {height} ran over its budget of {_SEARCH_BUDGET} units"
        )


def _half_values(coeffs: list[int], height: int) -> np.ndarray:
    squares = np.arange(height + 1, dtype=np.int64) ** 2
    vals = np.zeros(1, dtype=np.int64)
    for c in coeffs:
        vals = (vals[:, None] + c * squares[None, :]).ravel()
    return vals


def _denominators(coeffs: list[int], scale: int, height: int, budget: list[int]) -> range:
    """The d <= height that can carry a point. The content g of the
    coefficients divides every sum coeffs_i c_i^2, so it must divide
    scale*d^2, and the d that pass are the multiples of the least one.
    Finding it spends a unit per d tried: g, and with it that d, may be huge."""
    g = math.gcd(*coeffs)
    stop = min(height, budget[0]) + 1
    first = next((d for d in range(1, stop) if scale * d * d % g == 0), stop)
    _spend(budget, first, height)
    return range(first, height + 1, first)


def _at_least(table: np.ndarray, x):
    """The least entry of the sorted table at or above x, else the last entry,
    found by searching all but the last: x is in the table iff the result is x."""
    return table[np.searchsorted(table[:-1], x)]


def _mitm_point(
    coeffs: list[int], scale: int, height: int, budget: list[int]
) -> tuple[int, list[int]] | None:
    # meet in the middle on sorted half tables (Horowitz-Sahni), taken only when
    # they fit the budget. A probe is one binary search per distinct left value
    # l for the least right value at or above target - l. Targets only grow, so
    # l leaves once target - l passes the last right value or, on a miss, the
    # least sum l + r at or above the target passes scale*h^2
    denominators = _denominators(coeffs, scale, height, budget)
    if not denominators:
        return None
    split = len(coeffs) // 2
    left = np.sort(_half_values(coeffs[:split], height))
    keep = np.ones(left.size, dtype=bool)
    np.not_equal(left[1:], left[:-1], out=keep[1:])
    left = left[keep]
    right = np.sort(_half_values(coeffs[split:], height))
    top = scale * height * height
    for d in denominators:
        target = scale * d * d
        left = left[np.searchsorted(left, target - right[-1]) :]
        if left.size == 0:
            return None
        _spend(budget, 1 + left.size // _PROBES_PER_UNIT, height)
        least = _at_least(right, target - left)
        least += left  # the least sum l + r at or above the target, per l
        if (hit := least == target).any():
            # the least left prefix whose remainder the probe hit, then the least
            # right vector that makes it up: within the tables, spending nothing
            ends = set((target - left[hit]).tolist())
            head = _lex_smallest(coeffs[:split], target, height, [math.inf], ends)
            rest = target - sum(a * c * c for a, c in zip(coeffs, head))
            return d, head + _lex_smallest(coeffs[split:], rest, height, [math.inf])
        if least.max() > top:
            left = left[least <= top]
        del least, hit  # before the next probe, for the peak
    return None


def _dfs_point(
    coeffs: list[int], scale: int, height: int, budget: list[int]
) -> tuple[int, list[int]] | None:
    for d in _denominators(coeffs, scale, height, budget):
        numerators = _lex_smallest(coeffs, scale * d * d, height, budget)
        if numerators is not None:
            return d, numerators
    return None


def _lex_smallest(
    coeffs: list[int],
    target: int,
    height: int,
    budget: list[float],
    ends: set[int] | None = None,
) -> list[int] | None:
    """Lexicographically smallest c in [0, height]^m with sum coeffs_i c_i^2 = target.

    Given ends, the values that further coordinates can add, the smallest c
    whose remainder target - sum coeffs_i c_i^2 lies in ends.
    Each coordinate runs only over the interval of values the later ones can
    still complete, so every value tried is a node: the search spends a unit
    for itself and, at each interior node, one per child before it visits any."""
    _spend(budget, 1, height)
    m = len(coeffs)
    h2 = height * height
    # what the tail coordinates can still contribute, for pruning
    hi = [0] * (m + 1)
    lo = [0] * (m + 1)
    if ends is not None:  # an empty set leaves the empty interval [1, 0]
        lo[m], hi[m] = min(ends, default=1), max(ends, default=0)
    for i in range(m - 1, -1, -1):
        hi[i] = hi[i + 1] + (coeffs[i] * h2 if coeffs[i] > 0 else 0)
        lo[i] = lo[i + 1] + (coeffs[i] * h2 if coeffs[i] < 0 else 0)

    # depth first, on an explicit stack so that the rank never meets the
    # recursion limit: levels[i] holds the rest before coordinate i and the
    # values of it left to try. The last step is closed form
    stop = m if ends is not None else m - 1
    path, levels, rest = [0] * stop, [], target
    while True:
        i = len(levels)
        if i < stop:
            # the tail can make up rest - a*c^2 iff it lies in [lo, hi] of the
            # next coordinate, that is iff |a|*c^2 lies in [low, high]
            a = coeffs[i]
            if a > 0:
                low, high = rest - hi[i + 1], rest - lo[i + 1]
            else:
                low, high = lo[i + 1] - rest, hi[i + 1] - rest
            first = 0 if low <= 0 else math.isqrt((low - 1) // abs(a)) + 1
            last = min(height, math.isqrt(high // abs(a))) if high >= 0 else -1
            _spend(budget, max(last - first + 1, 0), height)
            levels.append((rest, iter(range(first, last + 1))))
        elif ends is not None:
            if rest in ends:
                return path
        else:  # the last coordinate alone makes up rest
            q, r = divmod(rest, coeffs[-1])
            if r == 0 and 0 <= q <= h2 and math.isqrt(q) ** 2 == q:
                return path + [math.isqrt(q)]
        while levels:
            i = len(levels) - 1
            c = next(levels[i][1], None)
            if c is not None:
                path[i], rest = c, levels[i][0] - coeffs[i] * c * c
                break
            levels.pop()
        else:
            return None
