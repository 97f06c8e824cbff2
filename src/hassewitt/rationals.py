"""Exact rational scalars, certified factorization, and residue symbols.

Everything downstream works over Q and its completions. The scalar type is
fractions.Fraction throughout; floats are rejected at every door so no
approximation can leak in.

Primality is the strong-probable-prime test to the first 13 prime bases,
which is a proof below PSI_13 = 3317044064679887385961981 (Sorenson and
Webster, Math. Comp. 2017); composites that are not small-prime multiples are
split by Pollard's rho in Brent's form (Brent, BIT 1980) within a fixed budget
per integer, a step past 128 bits charged by its size. x -> x^2 + c mod a
product reduces to the same walk mod each factor, so the small composite
cofactors of several integers (the entries of a form) are split by one walk
modulo their product, each at the step and the cost of its own walk. Past
either limit the answer is a FactorizationLimitError, never a guess. Each
cofactor is proved prime or composite once, and each prime certified once,
where it enters (factor, Place); nothing is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
# rho iterations allowed to each integer's cofactors, weighed by size in _charge
_RHO_BUDGET = 2**20
# composite cofactors below this share one walk: each has a prime factor below
# 2**32, which rho expects to find within about 2**18 iterations, so only a
# cofactor that could spend the whole budget walks alone
_JOIN_BELOW = 2**64
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

    A witness proves n composite at any size. Once the first t bases pass,
    n < psi_t proves it prime, so small n stop early. At or above PSI_13 no
    pass can prove primality, so only base 2 is tried: a witness returns
    False and a pass raises FactorizationLimitError, which also refuses a
    strong base-2 pseudoprime that a later base would prove composite.
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
    bases = _SMALL_PRIMES if n < _PSI_13 else _SMALL_PRIMES[:1]
    for a, psi in zip(bases, _PSI):
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

    The primes up to 41 are divided out; each cofactor left is proved prime or
    composite once, and a composite one is taken through isqrt if a square or
    split by Brent's rho. Raises FactorizationLimitError when a probable prime
    is at or above PSI_13, or when the rho walks on n's cofactors spend its
    budget of 2**20 iterations, charged by size, without splitting them all.
    The one-integer case of _factor_all.
    """
    return _factor_all((n,))[0]


# a cofactor still to be factored: (cofactor, exponent, index of the integer it
# divides, rho constant c)
_Piece = tuple[int, int, int, int]


def _factor_all(ns: Sequence[int]) -> list[dict[int, int]]:
    """factor of each of ns, with one rho walk for their small composites.

    A cofactor left by trial division is a prime below 41**2 or goes through
    _settle. The composite ones below 2**64 share one walk per rho constant;
    each larger one walks alone after them, in the order of ns, and what it
    leaves is settled before the next walks. Each integer pays for its own
    cofactors' steps, so it is refused exactly when factor would refuse it,
    and a refused integer refuses the whole list.
    """
    outs: list[dict[int, int]] = []
    pending: list[_Piece] = []
    for n in ns:
        if n == 0:
            raise ValueError("cannot factor zero")
        n = abs(n)
        out: dict[int, int] = {}
        for p in _SMALL_PRIMES:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        if n >= _SMALL_PRIMES[-1] ** 2:
            pending.append((n, 1, len(outs), 1))
        elif n > 1:
            out[n] = 1  # no prime factor up to 41, so a prime
        outs.append(out)
    if pending:
        small: dict[int, list[_Piece]] = {}
        large: list[_Piece] = []
        _settle(pending, outs, small, large)
        budgets = [_RHO_BUDGET] * len(outs)
        large.reverse()  # a stack: the first integer's cofactor walks first
        while small or large:
            walkers = small.popitem()[1] if small else [large.pop()]
            _settle(_walk(walkers, budgets), outs, small, large)
    return [dict(sorted(out.items())) for out in outs]


def _settle(
    pieces: list[_Piece],
    outs: list[dict[int, int]],
    small: dict[int, list[_Piece]],
    large: list[_Piece],
) -> None:
    """Count each prime piece into outs, taking squares through isqrt, and
    queue each composite: below _JOIN_BELOW into small under its rho
    constant, else onto the stack large."""
    for m, e, i, c in pieces:
        while c > 1 or not is_prime(m):  # c > 1: a composite non-square already
            r = math.isqrt(m)
            if r * r != m:
                if m < _JOIN_BELOW:
                    small.setdefault(c, []).append((m, e, i, c))
                else:
                    large.append((m, e, i, c))
                break
            m, e = r, 2 * e
        else:
            outs[i][m] = outs[i].get(m, 0) + e


def _walk(walkers: list[_Piece], budgets: list[int]) -> list[_Piece]:
    """Brent's cycle search on x -> x^2 + c modulo the product n of the odd
    composite cofactors in walkers, which share c; returns the pieces they
    leave as.

    Mod each cofactor m this is m's own walk, so m leaves at the batch whose
    gcd its own walk would find: split in two, or, when its primes close in
    the same step, on to c + 1. The others walk on modulo n // m. Each run of
    map steps is charged to the integer of every walker, so each integer pays
    what its cofactors' own walks would.
    """
    c = walkers[0][3]
    n = math.prod(w[0] for w in walkers)
    pieces: list[_Piece] = []
    y, r, q = 2, 1, 1
    while walkers:
        _charge(walkers, budgets, r)
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and walkers:
            ys = y
            steps = min(_RHO_BATCH, r - k)
            _charge(walkers, budgets, steps)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            k += steps
            g = math.gcd(q, n)
            if g == 1:
                continue
            stay = []
            for m, e, i, _ in walkers:
                d = math.gcd(g, m)
                if d == 1:
                    stay.append((m, e, i, c))
                    continue
                if d == m:
                    # the batch overshot: redo it one step at a time
                    d, z = 1, ys % m
                    while d == 1:
                        z = (z * z + c) % m
                        d = math.gcd(x - z, m)
                n //= m
                if d == m:
                    pieces.append((m, e, i, c + 1))
                else:
                    pieces += [(d, e, i, 1), (m // d, e, i, 1)]
            walkers = stay
            if walkers:
                x, y, q = x % n, y % n, q % n
        r *= 2
    return pieces


def _charge(walkers: list[_Piece], budgets: list[int], steps: int) -> None:
    """Charge steps map iterations to each walker's integer, a step on b bits
    as (1 + (b - 1) // 128) ** 2, the square of its 128-bit words, as the
    time of a step grows; then name the first walker whose integer is over."""
    for m, _, i, _ in walkers:
        budgets[i] -= steps * (1 + (m.bit_length() - 1) // 128) ** 2
    for m, _, i, _ in walkers:
        if budgets[i] < 0:
            raise FactorizationLimitError(
                f"{m} not split within {_RHO_BUDGET} rho iterations of 128 bits"
            )


def _odd_primes(q: Fraction) -> list[int]:
    """The primes p with v_p(q) odd, for nonzero q: the finite places of q's
    square class. Numerator and denominator are coprime, so none repeats."""
    return [
        p
        for primes in _factor_all((q.numerator, q.denominator))
        for p, e in primes.items()
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
