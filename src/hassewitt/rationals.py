"""Exact rational scalars, desk-scale factorization, and residue symbols.

Everything downstream works over Q and its completions. The scalar type is
fractions.Fraction throughout; floats are rejected at every door so no
approximation can leak in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

DEFAULT_FACTOR_BOUND = 10**6


class FactorizationLimitError(ValueError):
    """An integer could not be certified factored within the trial-division bound."""


def as_rational(value: Rational | int | str) -> Rational:
    """Coerce to Fraction. Floats are refused: this package is exact or nothing."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
        except ValueError as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def format_rational(q: Rational) -> str:
    """Render as 'p/q', or plain 'p' when the denominator is 1."""
    return str(as_rational(q))


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test for desk-scale integers."""
    if n > DEFAULT_FACTOR_BOUND**2:
        raise FactorizationLimitError(
            f"{n} is too large to certify prime by trial division"
        )
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")


def factor(n: int) -> dict[int, int]:
    """Factor |n| by trial division up to DEFAULT_FACTOR_BOUND.

    Raises FactorizationLimitError when the cofactor left after trial division
    cannot be certified prime (its square root exceeds the bound). Perfect
    square cofactors are recursed into, since their square-free part is clean
    regardless of how the root factors.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    d = 3
    while d <= DEFAULT_FACTOR_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return out
    if d * d > n:
        # every divisor up to sqrt(n) was tried, so n is prime
        out[n] = out.get(n, 0) + 1
        return out
    r = math.isqrt(n)
    if r * r == n:
        for p, e in factor(r).items():
            out[p] = out.get(p, 0) + 2 * e
        return out
    raise FactorizationLimitError(
        f"cofactor {n} exceeds the factorization bound {DEFAULT_FACTOR_BOUND}"
    )


def squarefree_part(q: Rational | int | str) -> int:
    """The unique square-free integer s with q/s a square in Q. Keeps q's sign."""
    q = as_rational(q)
    if q == 0:
        raise ValueError("squarefree_part of zero is undefined")
    s = 1 if q > 0 else -1
    for part in (q.numerator, q.denominator):
        for p, e in factor(part).items():
            if e % 2:
                s *= p
    return s


def padic_valuation(q: Rational | int | str, p: int) -> int:
    """v_p(q) for nonzero rational q."""
    q = as_rational(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    _require_prime(p)
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def unit_part(q: Rational | int | str, p: int) -> Rational:
    """q / p^{v_p(q)}, a p-adic unit."""
    q = as_rational(q)
    return q / Fraction(p) ** padic_valuation(q, p)


def unit_residue(q: Rational | int | str, p: int, k: int = 1) -> int:
    """The unit part of q reduced mod p^k, inverting the (coprime) denominator."""
    u = unit_part(q, p)
    m = p**k
    return u.numerator * pow(u.denominator, -1, m) % m


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for an odd prime p: 0 if p | a, else +-1 by Euler's criterion."""
    _require_prime(p)
    if p == 2:
        raise ValueError("legendre_symbol needs an odd prime")
    if not isinstance(a, int) or isinstance(a, bool):
        raise TypeError("legendre_symbol takes an integer residue")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime."""
    _require_prime(p)
    if p == 2:
        raise ValueError("no nonresidues mod 2")
    a = 2
    while legendre_symbol(a, p) != -1:
        a += 1
    return a


@dataclass(frozen=True, order=False)
class Place:
    """A place of Q: the real place (p is None) or the finite place at a prime p."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            _require_prime(self.p)

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple[int, int]:
        # real place first, then finite places by prime
        return (0, 0) if self.p is None else (1, self.p)

    def __lt__(self, other: "Place") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)

    @classmethod
    def parse(cls, text: str) -> "Place":
        t = text.strip()
        if t in ("inf", "oo", "real"):
            return cls.real()
        try:
            p = int(t)
        except ValueError as exc:
            raise ValueError(f"not a place: {text!r}") from exc
        return cls.finite(p)


REAL_PLACE = Place.real()


def ramified_places(*qs: Rational | int | str) -> list[Place]:
    """The real place, 2, and every odd prime dividing a numerator or
    denominator of some q, in that order: the only places where a Hilbert
    symbol of the qs can be -1 (elsewhere the tame formula gives +1)."""
    odd: set[int] = set()
    for q in qs:
        q = as_rational(q)
        for part in (q.numerator, q.denominator):
            odd.update(p for p in factor(part) if p != 2)
    return [REAL_PLACE, Place.finite(2)] + [Place.finite(p) for p in sorted(odd)]
