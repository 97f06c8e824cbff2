"""Local and global solvability of sum a_i x_i^2 = 1, with certificates.

Two independent local routes are kept side by side on purpose: the
closed-form isotropy criteria for the extended form, and the brute-force
residue oracle from localsolve. The tests hold them against each other.
Globally, Hasse-Minkowski reduces everything to finitely many completions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import localsolve
from .cohomology import _padic_class_rep, hilbert_symbol
from .forms import DiagonalForm, form_to_json, hasse_invariant
from .rationals import Place, format_rational, ramified_places

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
# a denominator (3-40 ns each here, so the whole budget goes in 0.8-3.5 s). At
# height 100 a rank-6 search probes at most 100 * 101^3 values, 1.6M units, so
# every search whose tables fit at the default height answers
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
            "witness": None
            if self.witness is None
            else [format_rational(x) for x in self.witness],
            "failing_place": None
            if self.failing_place is None
            else str(self.failing_place),
            "checked_places": [str(v) for v in self.checked_places],
        }


def solvable_over_R(form: DiagonalForm) -> bool:
    """sum a_i x_i^2 = 1 over R needs one positive coefficient, nothing more."""
    return any(a > 0 for a in form.entries)


def solvable_over_Qp(form: DiagonalForm, p: int) -> bool:
    """Closed-form local verdict at p, by rank of the extended form E = <a_1..a_n, -1>.

    Isotropy of E: rank 2 iff disc(E) is -1 mod squares; rank 3 iff
    (-1, -disc)_p equals the Hasse invariant; rank 4 iff disc is nontrivial or
    the Hasse invariant equals (-1, -1)_p; rank >= 5 always.
    """
    e = DiagonalForm(form.entries + (Fraction(-1),))
    v = Place.finite(p)  # certifies p for the unchecked class reps below
    r = e.rank
    if r >= 5:
        return True
    d = math.prod(e.entries, start=Fraction(1))
    if r == 2:
        return _padic_class_rep(-d, p) == 1
    eps = hasse_invariant(e, v)
    if r == 3:
        return hilbert_symbol(-1, -d, v) == eps
    return _padic_class_rep(d, p) != 1 or eps == hilbert_symbol(-1, -1, v)


def local_oracle(form: DiagonalForm, p: int, k: int | None = None) -> bool:
    """Brute-force local verdict at p by residue search mod p^k.

    Defaults to the always-conclusive precision. Explicit low k may raise
    InconclusivePrecisionError; that is the honest answer there.
    """
    return localsolve.represents_one(form.entries, p, k)


def relevant_places(form: DiagonalForm) -> list[Place]:
    """The real place, 2, and every ramified odd prime: solvability everywhere
    reduces to solvability at these (unramified odd completions come free)."""
    return ramified_places(*form.entries)


def solvable_over_Q(
    form: DiagonalForm, *, search_height: int = DEFAULT_SEARCH_HEIGHT
) -> SolvabilityCertificate:
    """Hasse-Minkowski verdict with evidence.

    Checks the real place, then each relevant prime in order; the first
    failure is recorded. When every completion passes, the verdict is True
    and a bounded point search tries to attach a witness (absence of a
    witness within the height bound, or a search that runs out of its work
    budget, proves nothing and demotes nothing: the witness is None).
    A search_height below 1 raises ValueError before any place is checked.
    """
    if search_height < 1:
        raise ValueError("height must be positive")
    checked: list[Place] = []
    for v in relevant_places(form):
        checked.append(v)
        ok = solvable_over_R(form) if v.is_real else solvable_over_Qp(form, v.p)
        if not ok:
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
    """The least entry of the sorted table at or above x, clamped to the last
    entry, for a scalar or an array x: x is in the table iff the result is x.
    Searching all but the last entry makes the clamp: past them lies the last."""
    return table[np.searchsorted(table[:-1], x)]


def _mitm_point(
    coeffs: list[int], scale: int, height: int, budget: list[int]
) -> tuple[int, list[int]] | None:
    # meet in the middle on sorted half tables (Horowitz-Sahni). Every target
    # scale*d^2 lies in [scale, scale*h^2], so a left value l can only meet a
    # right value inside [scale - l, scale*h^2 - l]. The window holds one iff
    # the least right value at or above scale - l is at most scale*h^2 - l,
    # one binary search per l. Keep the distinct left values whose window
    # holds one, freeing those least values before the probes, then probe
    # each denominator with them, again one binary search per left value.
    # search_point takes this route only when the tables fit the budget
    denominators = _denominators(coeffs, scale, height, budget)
    if not denominators:
        return None
    split = len(coeffs) // 2
    left = np.sort(_half_values(coeffs[:split], height))
    right = np.sort(_half_values(coeffs[split:], height))
    low = _at_least(right, scale - left)
    keep = scale - left <= low
    keep &= low <= scale * height * height - left
    del low
    keep[1:] &= left[1:] != left[:-1]
    left = left[keep]
    if left.size == 0:
        return None
    for d in denominators:
        _spend(budget, 1 + left.size // _PROBES_PER_UNIT, height)
        targets = scale * d * d - left
        if np.any(_at_least(right, targets) == targets):
            break
    else:
        return None
    # the least left prefix whose remainder the right table holds, then the
    # least right vector that makes it up. The tables bound both searches, at
    # a node per prefix of either half, and the router sized them against the
    # budget, so a point the tables proved is rebuilt without spending (2^21
    # left prefixes, all but the last missing, take 2.5 s here)
    target = scale * d * d
    head = _lex_smallest(coeffs[:split], target, height, [math.inf], right)
    rest = target - sum(a * c * c for a, c in zip(coeffs, head))
    return d, head + _lex_smallest(coeffs[split:], rest, height, [math.inf])


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
    right: np.ndarray | None = None,
) -> list[int] | None:
    """Lexicographically smallest c in [0, height]^m with sum coeffs_i c_i^2 = target.

    Given right, the sorted values that further coordinates can add, the
    smallest c whose remainder target - sum coeffs_i c_i^2 right holds.
    Each coordinate runs only over the interval of values the later ones can
    still complete, so every value tried is a call: the search spends a unit
    for itself and, at each interior node, one per child before it calls any."""
    _spend(budget, 1, height)
    m = len(coeffs)
    h2 = height * height
    # what the tail coordinates can still contribute, for pruning
    hi = [0] * (m + 1)
    lo = [0] * (m + 1)
    if right is not None:
        lo[m], hi[m] = int(right[0]), int(right[-1])
    for i in range(m - 1, -1, -1):
        hi[i] = hi[i + 1] + (coeffs[i] * h2 if coeffs[i] > 0 else 0)
        lo[i] = lo[i + 1] + (coeffs[i] * h2 if coeffs[i] < 0 else 0)

    def tail(i: int, rest: int) -> list[int] | None:
        if i == m:
            return [] if _at_least(right, rest) == rest else None
        a = coeffs[i]
        if i == m - 1 and right is None:
            q, r = divmod(rest, a)
            if r != 0 or q < 0:
                return None
            root = math.isqrt(q)
            return [root] if root * root == q and root <= height else None
        # the tail can make up rest - a*c^2 iff it lies in [lo, hi] of the
        # next coordinate, that is iff |a|*c^2 lies in [low, high]
        if a > 0:
            low, high = rest - hi[i + 1], rest - lo[i + 1]
        else:
            low, high = lo[i + 1] - rest, hi[i + 1] - rest
        if high < 0:
            return None
        first = 0 if low <= 0 else math.isqrt((low - 1) // abs(a)) + 1
        last = min(height, math.isqrt(high // abs(a)))
        _spend(budget, max(last - first + 1, 0), height)
        for c in range(first, last + 1):
            found = tail(i + 1, rest - a * c * c)
            if found is not None:
                return [c] + found
        return None

    return tail(0, target)
