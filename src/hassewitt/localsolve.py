"""Brute-force solvability of diagonal quadratic equations over Q_p.

Verdicts come from exhaustive search over residue vectors mod p^k combined
with the lifting criterion for simple zeros: a residue solution certifies an
exact p-adic zero once the precision exceeds twice the valuation of the
relevant partial derivative. The search runs in exact Python integers and
keeps one table entry per orbit of Z/p^k under multiplication by unit
squares; the orbits are found by brute force, not by a formula. What depends
on (p, k) alone, each residue's orbit label, the orbit representatives and
the squares mod p^k by valuation, is built once per (p, k) and kept in a
small bounded cache; the search over each coefficient's steps runs on every
call. Nothing in here consults a symbol formula, and no closed-form route
consults this module: it is the independent oracle those routes are tested
against. represents_one is its entry point.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .rationals import _require_prime, _split, as_rational

# Each coefficient costs about (number of orbits) * p^k steps on every call,
# and building the orbit tables costs about p^k once per (p, k): at 43^3,
# represents_one([3, 43, -5], 43) takes 0.26 s on a first call, 0.07 s of it
# the tables, and 0.18 s on a repeat (Python 3.11.7, a shared Xeon CPU).
# Beyond this cap a call is no longer a desk-scale computation.
MAX_MODULUS = 100_000


class InconclusivePrecisionError(ArithmeticError):
    """Residue search at the requested precision neither certifies nor refutes."""


def min_precision(p: int) -> int:
    # below this, units congruent mod p^k need not lie in the same square class
    return 3 if p == 2 else 1


def default_precision(p: int) -> int:
    # 2*v_p(2) + 3: any primitive residue solution has a unit coordinate whose
    # Hensel exponent already clears the 2t < k bar, so the search is always
    # conclusive at this depth
    return 5 if p == 2 else 3


def represents_one(
    coeffs: Sequence[Fraction | int | str], p: int, k: int | None = None
) -> bool:
    """True iff sum a_i x_i^2 = 1 has a solution over Q_p.

    Same thing as isotropy of the form extended by -1: a nontrivial zero with
    nonzero last coordinate rescales to a solution, and a zero of the original
    form alone spans a hyperbolic plane, which represents everything.
    """
    return isotropic([*coeffs, Fraction(-1)], p, k)


def isotropic(
    coeffs: Sequence[Fraction | int | str], p: int, k: int | None = None
) -> bool:
    """True iff sum c_i y_i^2 = 0 has a nontrivial zero over Q_p.

    Search all residue vectors mod p^k:

      * some residue solution has a coordinate with 2*v_p(2 c_j y_j) < k:
        it lifts (Hensel), return True;
      * no primitive residue solution exists: an exact nontrivial zero would
        scale to a primitive one and reduce, so return False;
      * otherwise raise InconclusivePrecisionError.

    The default precision makes the last case unreachable.
    """
    cs = [as_rational(c) for c in coeffs]
    if not cs:
        raise ValueError("empty coefficient list")
    if any(c == 0 for c in cs):
        raise ValueError("zero coefficient in a nondegenerate diagonal form")
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"{p!r} is not a prime")
    if k is None:
        k = default_precision(p)
    if k < min_precision(p):
        raise InconclusivePrecisionError(
            f"precision p^{k} is below the faithful minimum p^{min_precision(p)} at p={p}"
        )
    # p^k >= 2^k for |p| > 1, so past the cap once k reaches its bit length:
    # a huge k is refused without raising p to it
    m = p ** min(k, MAX_MODULUS.bit_length())
    if m > MAX_MODULUS:
        raise ValueError(f"residue modulus {p}^{k} exceeds the search cap")
    # after the cap, which is cheap: proving a large p composite is not
    _require_prime(p)

    # Modulo squares, c = p^beta * w with beta in {0,1} and w determined by its
    # residue mod p^k (faithful by the precision floor above). The Hensel
    # exponent of coordinate j at residue y is t = v_p(2) + beta_j + v_p(y).
    v2 = 1 if p == 2 else 0
    reduced = [(v % 2, w) for v, w in (_split(c, p, k) for c in cs)]
    orbit, reps, squares = _orbit_tables(p, k)

    big = k  # 2t < k already fails at t = ceil(k/2); cap valuations there
    unreach = big + 1

    # reach_t[o]: least Hensel exponent over vectors hitting orbit o (unreach
    # if none); reach_prim[o]: o is hit by a vector with a unit coordinate
    reach_t = [unreach] * len(reps)
    reach_t[orbit[0]] = big  # the empty vector
    reach_prim = [False] * len(reps)
    for beta, w in reduced:
        c = p**beta * w % m
        # the distinct steps (c*y^2, Hensel exponent, y is a unit) over y
        steps = {
            (c * q % m, min(v2 + beta + j, big), j == 0)
            for j, group in enumerate(squares)
            for q in group
        }
        new_t = [unreach] * len(reps)
        new_prim = [False] * len(reps)
        # u^2*a + c*y^2 = u^2*(a + c*(y/u)^2): the representative a speaks
        # for its whole orbit
        for o, a in enumerate(reps):
            if reach_t[o] == unreach:
                continue
            for shift, t, unit in steps:
                hit = orbit[(a + shift) % m]
                new_t[hit] = min(new_t[hit], reach_t[o], t)
                new_prim[hit] = new_prim[hit] or unit or reach_prim[o]
        reach_t, reach_prim = new_t, new_prim

    t0 = reach_t[orbit[0]]
    if t0 <= big and 2 * t0 < k:
        return True
    if reach_prim[orbit[0]]:
        raise InconclusivePrecisionError(
            f"no certified zero and no refutation at precision {p}^{k}"
        )
    return False


# Six (p, k) pairs serve every prime up to 13 at its default precision. The
# largest entry under the cap is p = 99991, k = 1, at 0.52 MB; the cache full
# of the eight largest, the eight primes below 10^5 down to 99901 at k = 1,
# holds 4.16 MB (tracemalloc).
@lru_cache(maxsize=8)
def _orbit_tables(
    p: int, k: int
) -> tuple[bytes, tuple[int, ...], tuple[memoryview, ...]]:
    """The tables of isotropic that depend on (p, k) alone, for a certified
    prime p and p^k under the cap.

    Every table of the search is constant on the orbits of Z/p^k under
    multiplication by unit squares: a vector y hitting v gives u*y hitting
    u^2*v, with the same valuations and unit coordinates. orbit[r] labels
    residue r with its orbit (60 orbits at most under the cap, at 2^16, so a
    label fits in a byte), reps[o] is the least residue of orbit o, and
    squares[j] holds the distinct y^2 mod p^k over the residues y of valuation
    j, and squares[k] holds 0 alone, for y = 0 with its valuation capped at
    k. Each table is read-only, since every caller shares it.
    """
    m = p**k
    unit_squares = {u * u % m for u in range(1, m) if u % p}
    orbit = bytearray(b"\xff") * m  # 0xFF: not labelled yet
    reps: list[int] = []
    for r in range(m):
        if orbit[r] == 0xFF:
            for s in unit_squares:
                orbit[s * r % m] = len(reps)
            reps.append(r)
    squares = [{p ** (2 * j) * s % m for s in unit_squares} for j in range(k)] + [{0}]
    return (
        bytes(orbit),
        tuple(reps),
        tuple(memoryview(array("l", group)).toreadonly() for group in squares),
    )
