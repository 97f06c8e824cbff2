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
from .cohomology import hilbert_symbol, padic_class_rep
from .forms import DiagonalForm, form_to_json, hasse_invariant
from .rationals import Place, format_rational, ramified_places

DEFAULT_SEARCH_HEIGHT = 100

# beyond this many variables the meet-in-the-middle tables stop paying for
# themselves; fall back to plain depth-first search
_MITM_MAX_VARS = 6
_INT64_GUARD = 2**62
# cap on the larger meet-in-the-middle half table, checked before it is built:
# at 2^21 = 128^3 entries a search peaks at 109 MB resident (29 MB after import)
_MITM_MAX_ENTRIES = 2**21


class SearchBudgetExceeded(ValueError):
    """The point search would need more memory than its fixed budget."""


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
    v = Place.finite(p)
    r = e.rank
    if r >= 5:
        return True
    d = math.prod(e.entries, start=Fraction(1))
    if r == 2:
        return padic_class_rep(-d, p) == 1
    eps = hasse_invariant(e, v)
    if r == 3:
        return hilbert_symbol(-1, -d, v) == eps
    return padic_class_rep(d, p) != 1 or eps == hilbert_symbol(-1, -1, v)


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
    witness within the height bound proves nothing and demotes nothing).
    """
    checked: list[Place] = []
    for v in relevant_places(form):
        checked.append(v)
        ok = solvable_over_R(form) if v.is_real else solvable_over_Qp(form, v.p)
        if not ok:
            return SolvabilityCertificate(False, None, v, tuple(checked))
    witness = search_point(form, search_height)
    return SolvabilityCertificate(True, witness, None, tuple(checked))


def search_point(form: DiagonalForm, height: int) -> tuple[Fraction, ...] | None:
    """Smallest rational point on sum a_i x_i^2 = 1 with |numerators|,
    denominator <= height, or None.

    The equation is even in every coordinate, so the search runs over
    nonnegative numerators; ties break by smallest denominator first, then
    lexicographically smallest numerator vector. Raises SearchBudgetExceeded
    when the meet-in-the-middle tables would pass their fixed size cap.
    """
    if height < 1:
        raise ValueError("height must be positive")
    entries = form.entries
    scale = math.lcm(*(a.denominator for a in entries))
    coeffs = [int(a * scale) for a in entries]
    m = len(coeffs)
    # denominator d, numerators c_i: sum coeffs_i c_i^2 = scale * d^2
    worst = max(abs(c) for c in coeffs + [scale]) * height * height * (m + 1)
    if m <= _MITM_MAX_VARS and worst < _INT64_GUARD:
        d = _first_denominator_mitm(coeffs, scale, height)
    else:
        d = _first_denominator_dfs(coeffs, scale, height)
    if d is None:
        return None
    numerators = _lex_smallest(coeffs, scale * d * d, height)
    assert numerators is not None, "existence scan and witness search disagree"
    return tuple(Fraction(c, d) for c in numerators)


def _half_values(coeffs: list[int], height: int) -> np.ndarray:
    squares = np.arange(height + 1, dtype=np.int64) ** 2
    vals = np.zeros(1, dtype=np.int64)
    for c in coeffs:
        vals = (vals[:, None] + c * squares[None, :]).ravel()
    return vals


def _denominators(coeffs: list[int], scale: int, height: int) -> range:
    """The d <= height that can carry a point. The content g of the
    coefficients divides every sum coeffs_i c_i^2, so it must divide
    scale*d^2, and the d that pass are the multiples of the least one."""
    g = math.gcd(*coeffs)
    first = next((d for d in range(1, height + 1) if scale * d * d % g == 0), height + 1)
    return range(first, height + 1, first)


def _first_denominator_mitm(coeffs: list[int], scale: int, height: int) -> int | None:
    # meet in the middle on sorted half tables (Horowitz-Sahni). Every target
    # scale*d^2 lies in [scale, scale*h^2], so a left value l can only meet a
    # right value inside [scale - l, scale*h^2 - l]: keep the distinct left
    # values whose window holds one, then probe each denominator with those
    denominators = _denominators(coeffs, scale, height)
    if not denominators:
        return None
    split = len(coeffs) // 2
    if (height + 1) ** (len(coeffs) - split) > _MITM_MAX_ENTRIES:
        raise SearchBudgetExceeded(
            f"a half table at height {height} is over the cap of {_MITM_MAX_ENTRIES} entries"
        )
    left = np.sort(_half_values(coeffs[:split], height))
    right = np.sort(_half_values(coeffs[split:], height))
    reach = np.searchsorted(right, scale * height * height - left, side="right")
    reach -= np.searchsorted(right, scale - left, side="left")
    keep = reach > 0
    keep[1:] &= left[1:] != left[:-1]
    left = left[keep]
    if left.size == 0:
        return None
    for d in denominators:
        targets = scale * d * d - left
        idx = np.searchsorted(right, targets)
        idx = np.minimum(idx, len(right) - 1)
        if bool(np.any(right[idx] == targets)):
            return d
    return None


def _first_denominator_dfs(coeffs: list[int], scale: int, height: int) -> int | None:
    for d in _denominators(coeffs, scale, height):
        if _lex_smallest(coeffs, scale * d * d, height) is not None:
            return d
    return None


def _lex_smallest(coeffs: list[int], target: int, height: int) -> list[int] | None:
    """Lexicographically smallest c in [0, height]^m with sum coeffs_i c_i^2 = target."""
    m = len(coeffs)
    h2 = height * height
    # what the tail coordinates can still contribute, for pruning
    hi = [0] * (m + 1)
    lo = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        hi[i] = hi[i + 1] + (coeffs[i] * h2 if coeffs[i] > 0 else 0)
        lo[i] = lo[i + 1] + (coeffs[i] * h2 if coeffs[i] < 0 else 0)

    def tail(i: int, rest: int) -> list[int] | None:
        if i == m - 1:
            q, r = divmod(rest, coeffs[i])
            if r != 0 or q < 0:
                return None
            root = math.isqrt(q)
            return [root] if root * root == q and root <= height else None
        for c in range(height + 1):
            need = rest - coeffs[i] * c * c
            if need > hi[i + 1] or need < lo[i + 1]:
                if coeffs[i] > 0 and need < lo[i + 1]:
                    break  # need only sinks further as c grows
                if coeffs[i] < 0 and need > hi[i + 1]:
                    break  # need only climbs further as c grows
                continue
            found = tail(i + 1, need)
            if found is not None:
                return [c] + found
        return None

    return tail(0, target)
