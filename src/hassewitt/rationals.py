"""Exact rational scalars, certified factorization, and residue symbols.

Everything downstream works over Q and its completions. The scalar type is
fractions.Fraction throughout; floats are rejected at every door so no
approximation can leak in.

Primality is the strong-probable-prime test to the first 13 prime bases,
which is a proof below PSI_13 = 3317044064679887385961981 (Sorenson and
Webster, Math. Comp. 2017); composites that are not small-prime multiples are
split by Pollard's rho in Brent's form (Brent, BIT 1980) within a fixed
iteration budget. Past either limit the answer is a FactorizationLimitError,
never a guess. Each prime is certified once, where it enters (factor, Place);
past that places and the symbol path skip the check, and nothing is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# the first 13 primes: the trial divisors and the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to the first t of those bases (OEIS
# A014233): below psi_t, passing the first t bases proves primality
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_PSI_13 = _PSI[-1]
# map iterations allowed to the whole rho search of one factor() call
_RHO_BUDGET = 2**20
# steps whose |x - y| are multiplied together before one gcd
_RHO_BATCH = 128


class FactorizationLimitError(ValueError):
    """An integer could not be certified prime or split within the proven limits."""


def as_rational(value: Fraction | int | str) -> Fraction:
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact for every n < PSI_13.

    A witness among the 13 bases proves n composite at any size. Once the
    first t bases pass, n < psi_t proves it prime, so small n stop early; a
    probable prime at or above PSI_13 raises FactorizationLimitError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise FactorizationLimitError(
        f"{n} is a probable prime beyond the proven range {_PSI_13}"
    )


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")


def factor(n: int) -> dict[int, int]:
    """Factor |n| into {prime: exponent}, primes ascending.

    The primes up to 41 are divided out; every cofactor left is certified
    prime by is_prime, taken through isqrt when it is a perfect square, or
    split by Brent's rho. Raises FactorizationLimitError when a probable prime
    is at or above PSI_13, or when the rho search spends its budget of 2**20
    iterations without splitting a composite.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break  # what is left of n is 1 or a prime
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    budget = [_RHO_BUDGET]
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r = math.isqrt(m)
        if r * r == m:
            pending.append((r, 2 * e))
            continue
        d = _rho_divisor(m, budget)
        pending += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def _rho_divisor(n: int, budget: list[int]) -> int:
    """A proper divisor of the odd composite n, by Brent's cycle search on
    x -> x^2 + c for c = 1, 2, ..., spending map iterations from budget[0]."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            _spend(budget, r, n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                _spend(budget, steps, n)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _spend(budget: list[int], steps: int, n: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise FactorizationLimitError(
            f"{n} not split within {_RHO_BUDGET} rho iterations"
        )


def _odd_primes(q: Fraction) -> list[int]:
    """The primes p with v_p(q) odd, for nonzero q: the finite places of q's
    square class. Numerator and denominator are coprime, so none repeats."""
    return [
        p
        for part in (q.numerator, q.denominator)
        for p, e in factor(part).items()
        if e % 2
    ]


def _split(q: Fraction, p: int, k: int = 1) -> tuple[int, int]:
    """(v_p(q), the unit part of q mod p^k) for nonzero q and a certified prime
    p, in integers: at most one of numerator and denominator holds p."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    m = p**k
    return v, n * pow(d, -1, m) % m


def _legendre(a: int, p: int) -> int:
    # Euler's criterion for a certified odd prime p: r is 0, 1 or p - 1
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _least_nonresidue(p: int) -> int:
    # for a certified odd prime p
    return next(a for a in range(2, p) if _legendre(a, p) == -1)


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def _certified(cls, p: int) -> "Place":  # factor has just proved p prime
        object.__setattr__(place := object.__new__(cls), "p", p)
        return place

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
        if t == "inf":
            return cls.real()
        try:
            p = int(t)
        except ValueError as exc:
            raise ValueError(f"not a place: {text!r}") from exc
        return cls.finite(p)


REAL_PLACE = Place.real()
_TWO_PLACE = Place._certified(2)
