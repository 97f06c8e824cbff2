import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassewitt import rationals
from hassewitt.cohomology import RATIONALS, cohclass_to_json, h1
from hassewitt.rationals import (
    _RHO_BATCH,
    FactorizationLimitError,
    Place,
    REAL_PLACE,
    _factor_all,
    _legendre,
    _split,
    as_rational,
    factor,
    is_prime,
)

nonzero_rationals = st.fractions(
    min_value=-10**4, max_value=10**4, max_denominator=10**4
).filter(lambda q: q != 0)

small_primes = st.sampled_from((2, 3, 5, 7, 11, 13))


def squarefree_part(q):
    # the square-free integer s with q/s a square, as the JSON of [q] over Q
    # shows it
    return cohclass_to_json(h1(q, RATIONALS))["payload"]


def valuation(q, p):
    return _split(Fraction(q), p)[0]


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == 3
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(" -7 ") == -7
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)


def test_as_rational_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError):
        as_rational("1/0")
    with pytest.raises(ValueError):
        as_rational("pi")


def test_format_round_trip():
    for text in ("3/4", "-3/4", "7", "0", "-12"):
        assert str(as_rational(text)) == text


def test_squarefree_part_fixed_values():
    assert squarefree_part(1) == 1
    assert squarefree_part(18) == 2
    assert squarefree_part(Fraction(-4, 9)) == -1
    assert squarefree_part(50) == 2
    assert squarefree_part(12) == 3
    assert squarefree_part(Fraction(5, 27)) == 15
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_padic_valuation_fixed_values():
    assert valuation(8, 2) == 3
    assert valuation(Fraction(2, 9), 3) == -2
    assert valuation(1, 5) == 0


def test_legendre_fixed_values():
    assert _legendre(1, 7) == 1
    assert _legendre(2, 5) == -1
    assert _legendre(10, 5) == 0
    assert _legendre(-1, 3) == -1
    assert _legendre(-1, 5) == 1


def test_is_prime_basics():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(1000003)
    assert not is_prime(1000003 * 3)
    assert not is_prime(10**13 + 1)  # 11 divides it
    # a prime above the proven range is refused, not guessed
    with pytest.raises(FactorizationLimitError):
        is_prime(2**89 - 1)


def test_is_prime_proven_range():
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    # a composite above the range is still decided by a witness
    assert not is_prime((2**61 - 1) * (2**89 - 1))


# A014233: psi_t, the least strong pseudoprime to the first t prime bases
PSI = (
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
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def thirteen_base_is_prime(n):
    """Miller-Rabin to all 13 bases with no early exit: exact below psi_13."""
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_probable_prime_past_the_range_refuses_at_the_first_base():
    # 2^9941 - 1 is a 2993-digit Mersenne prime: past PSI_13 no base can prove
    # it prime, so one modular power at base 2 refuses it, not thirteen
    start = time.perf_counter()
    with pytest.raises(FactorizationLimitError, match="probable prime"):
        is_prime(2**9941 - 1)
    assert time.perf_counter() - start < 5


def test_is_prime_at_each_pseudoprime_bound():
    # psi_t passes the first t bases, so the early exit must not fire at it
    for psi in PSI[:-1]:
        assert not is_prime(psi)
    with pytest.raises(FactorizationLimitError):
        is_prime(PSI[-1])  # passes all 13: past the proven range, refused


def test_early_exit_matches_thirteen_bases():
    # Below 2 * 10^6 < psi_13 the 13-base test is exact, so it agrees with the
    # sieve of Eratosthenes, the cheaper reference used there.
    limit = 2 * 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert list(filter(is_prime, range(limit))) == [n for n in range(limit) if sieve[n]]
    rng = random.Random(40)
    for _ in range(2000):
        n = rng.getrandbits(40) | 1 << 39
        assert is_prime(n) == thirteen_base_is_prime(n), n


def test_factor_certification_boundary():
    # a square of a large prime is fine: the square-free part is clean anyway
    assert factor(1000003**2) == {1000003: 2}
    assert squarefree_part(1000003**2) == 1
    # two distinct large primes are split by rho
    assert factor(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    # a prime cofactor above the proven range is refused
    with pytest.raises(FactorizationLimitError):
        factor(3 * (2**89 - 1))
    # two 16-digit primes outlast the rho budget: refused, and promptly
    start = time.perf_counter()
    with pytest.raises(FactorizationLimitError):
        factor(1000000000000037 * 1000000000000091)
    assert time.perf_counter() - start < 5
    # the budget is the integer's, not each piece's: the first walk splits
    # p1 off this 111-bit integer, and p2*p3 splits within 2**20 steps alone
    # but not within what the first walk left
    p1, p2, p3 = 26071806877, 171584905339, 541455135101
    assert factor(p2 * p3) == {p2: 1, p3: 1}
    with pytest.raises(FactorizationLimitError, match=f"^{p2 * p3} not split"):
        factor(p1 * p2 * p3)
    # a step on a cofactor past 2**128 is charged by its size, so a hard
    # 1350-digit one is refused promptly
    start = time.perf_counter()
    with pytest.raises(FactorizationLimitError):
        factor((2**2203 - 1) * (2**2281 - 1))
    assert time.perf_counter() - start < 5


def test_factor_fixed_values():
    assert factor(360) == {2: 3, 3: 2, 5: 1}
    assert factor(-7) == {7: 1}
    with pytest.raises(ValueError):
        factor(0)


TRIAL_DIVISION_BOUND = 10**6


def trial_division_factor(n: int) -> dict[int, int]:
    """Factor |n| by trial division up to TRIAL_DIVISION_BOUND: the literal
    definition, and the library's factor before Miller-Rabin and rho."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    d = 3
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
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
        for p, e in trial_division_factor(r).items():
            out[p] = out.get(p, 0) + 2 * e
        return out
    raise FactorizationLimitError(
        f"cofactor {n} exceeds the factorization bound {TRIAL_DIVISION_BOUND}"
    )


small_factor = st.sampled_from(
    [p for p in range(2, 10**4) if trial_division_factor(p) == {p: 1}]
)
# one prime below 10^8 keeps the oracle at no more than 10^4 trial divisors
large_factor = st.integers(min_value=2, max_value=10**8 - 1).map(
    lambda n: next(m for m in range(n, 1, -1) if is_prime(m))
)


@given(
    st.lists(
        st.tuples(
            st.lists(small_factor, max_size=4),
            st.lists(large_factor, max_size=1),
            st.sampled_from((1, -1)),
        ),
        min_size=1,
        max_size=8,
    )
)
@example([([], [], 1)])
@example([([3, 3, 3, 3, 3], [], 1)])
@example([([], [1000003, 1000003], 1)])
@example([([2, 3], [17389, 99991], -1)])
@example([([43, 47], [], 1), ([10007, 10009], [], -1), ([53, 53, 59], [99991], 1)])
@settings(max_examples=200)
def test_factor_matches_trial_division(parts):
    # one integer at a time, and all of them at once, where the small
    # composite cofactors of the list share one walk
    ns = [sign * math.prod(small + large) for small, large, sign in parts]
    expected = [trial_division_factor(n) for n in ns]
    for got in ([factor(n) for n in ns], _factor_all(ns)):
        assert got == expected
        assert [list(g) for g in got] == [list(e) for e in expected]


@given(st.lists(st.lists(large_factor, min_size=1, max_size=3), min_size=1, max_size=6))
@settings(max_examples=50)
def test_shared_walk_refuses_as_each_integer_alone(parts):
    # under a budget small enough to refuse some of these integers, the list
    # is refused exactly when one of them is refused by itself: a shared walk
    # charges each integer the steps its own walk takes
    ns = [math.prod(primes) for primes in parts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationals, "_RHO_BUDGET", 10000)
        alone = []
        for n in ns:
            try:
                alone.append(factor(n))
            except FactorizationLimitError:
                alone.append(None)
        if None in alone:
            with pytest.raises(FactorizationLimitError):
                _factor_all(ns)
        else:
            assert _factor_all(ns) == alone


def charged(ns: list[int]) -> list[int]:
    """What _factor_all(ns) charges to the budget of each of ns, summed over
    the calls to _charge."""
    spent = [0] * len(ns)
    charge = rationals._charge

    def counted(walkers, budgets, steps):
        before = list(budgets)
        charge(walkers, budgets, steps)
        for i, (b, a) in enumerate(zip(before, budgets)):
            spent[i] += b - a

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationals, "_charge", counted)
        _factor_all(ns)
    return spent


@given(st.lists(st.lists(large_factor, min_size=1, max_size=5), min_size=1, max_size=6))
# the first walk on the last integer splits it into two composites that walk
# on together
@example([[10007, 10009, 10037], [10151, 10271, 10613, 11197]])
@settings(max_examples=100)
def test_shared_walk_charges_each_integer_its_own_walks(parts):
    # an integer pays the same whether its cofactors share walks with other
    # integers' cofactors, walk with each other, or each walk alone
    ns = [math.prod(primes) for primes in parts]
    shared = charged(ns)
    assert shared == [charged([n])[0] for n in ns]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationals, "_JOIN_BELOW", 0)
        assert charged(ns) == shared


def closing(p: int, c: int) -> tuple[int, int]:
    """(batch, step) at which Brent's walk x -> x^2 + c mod p, from 2, first
    has x == y: where a walk on a multiple of p finds p. Steps count the
    products taken into the gcd, batches the gcds."""
    y, r, batch, step = 2, 1, 0, 0
    while True:
        x = y
        for _ in range(r):
            y = (y * y + c) % p
        for k in range(0, r, _RHO_BATCH):
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % p
                step += 1
                if x == y:
                    return batch, step
            batch += 1
        r *= 2


def test_each_branch_of_the_shared_walk(monkeypatch):
    # fixed examples, found by search with closing(), one per branch
    # overshoot: both primes close in one batch, at different steps
    assert closing(877, 1)[0] == closing(1459, 1)[0]
    assert closing(877, 1)[1] != closing(1459, 1)[1]
    # next c: both primes close at the same step for c = 1, apart for c = 2
    assert closing(109, 1) == closing(199, 1)
    assert closing(109, 2)[0] != closing(199, 2)[0]
    # three primes closing in three batches: the first split leaves a piece
    # with two primes to a fresh walk
    assert closing(47, 1)[0] < closing(139, 1)[0] < closing(359, 1)[0]
    examples = [877 * 1459, 109 * 199, 47 * 139 * 359, (43 * 47) ** 2]
    walked = []
    walk = rationals._walk

    def recorded(walkers, budgets):
        walked.append({(w[0], w[3]) for w in walkers})
        return walk(walkers, budgets)

    monkeypatch.setattr(rationals, "_walk", recorded)
    expected = [trial_division_factor(n) for n in examples]
    assert _factor_all(examples) == expected
    # the four cofactors, a square through isqrt, share the first walk
    assert walked[0] == {(877 * 1459, 1), (109 * 199, 1), (47 * 139 * 359, 1), (43 * 47, 1)}
    later = set().union(*walked[1:])
    assert (109 * 199, 2) in later and (139 * 359, 1) in later
    assert (877 * 1459, 2) not in later  # the replay split it
    # alone, each takes the same branches and gives the same primes
    assert [factor(n) for n in examples] == expected


@given(nonzero_rationals)
@settings(max_examples=200)
def test_squarefree_part_is_square_complement(q):
    s = squarefree_part(q)
    ratio = q / s
    # q/s must be the square of a rational
    assert ratio > 0
    assert math.isqrt(ratio.numerator) ** 2 == ratio.numerator
    assert math.isqrt(ratio.denominator) ** 2 == ratio.denominator
    # and s itself is square-free
    assert all(e == 1 for e in factor(s).values())


@given(nonzero_rationals, nonzero_rationals, small_primes)
@settings(max_examples=200)
def test_valuation_is_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(nonzero_rationals, small_primes, st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_unit_residue_matches_unit_part(q, p, k):
    v, r = _split(q, p, k)
    u = q / Fraction(p) ** v
    assert valuation(u, p) == 0
    # r * den = num mod p^k
    assert (r * u.denominator - u.numerator) % p**k == 0
    assert 0 < r < p**k and r % p != 0


@given(st.integers(min_value=-200, max_value=200), st.sampled_from((3, 5, 7, 11, 13)))
@settings(max_examples=200)
def test_legendre_is_multiplicative(a, p):
    assert _legendre(a * a, p) == (0 if a % p == 0 else 1)
    assert _legendre(a * p, p) == 0
    if a % p:
        assert _legendre(a, p) in (1, -1)


def test_place_basics():
    assert REAL_PLACE.is_real
    assert str(REAL_PLACE) == "inf"
    assert str(Place.finite(7)) == "7"
    assert Place.parse("inf") == REAL_PLACE
    assert Place.parse("13") == Place.finite(13)
    with pytest.raises(ValueError):
        Place.finite(6)
    with pytest.raises(ValueError):
        Place.parse("xyz")
    with pytest.raises(ValueError):
        Place.parse("4")
    with pytest.raises(ValueError):
        Place(9)
    # the unchecked constructor for primes factor has proved builds the same place
    assert Place._certified(13) == Place.finite(13)
    assert hash(Place._certified(13)) == hash(Place.finite(13))


def test_place_ordering():
    places = [Place.finite(7), REAL_PLACE, Place.finite(2), Place.finite(3)]
    assert sorted(places) == [REAL_PLACE, Place.finite(2), Place.finite(3), Place.finite(7)]
