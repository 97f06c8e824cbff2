import ast
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hassewitt
from hassewitt import rationals, solvability
from hassewitt.forms import DiagonalForm
from hassewitt.localsolve import isotropic, represents_one
from hassewitt.rationals import REAL_PLACE, Place, _split
from hassewitt.solvability import (
    _INT64_GUARD,
    _SEARCH_BUDGET,
    SearchBudgetExceeded,
    _at_least,
    _dfs_point,
    _lex_smallest,
    _mitm_point,
    relevant_places,
    search_point,
    solvable_over_Q,
    solvable_over_Qp,
    solvable_over_R,
)

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(
    lambda q: q != 0
)
forms = st.lists(coeff, min_size=1, max_size=3).map(lambda es: DiagonalForm(tuple(es)))
int_forms = st.lists(
    st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0),
    min_size=1,
    max_size=3,
).map(lambda es: DiagonalForm.of(*es))


def test_solvable_over_R():
    assert solvable_over_R(DiagonalForm.of(-1, "1/7"))
    assert not solvable_over_R(DiagonalForm.of(-1, -2, -3))


def ramified_at(p):
    # each entry times p^-1..p^2, so every valuation class meets both routes
    # even at primes beyond the entries' own factors
    entry = st.tuples(coeff, st.integers(min_value=-1, max_value=2)).map(
        lambda t: t[0] * Fraction(p) ** t[1]
    )
    return st.lists(entry, min_size=1, max_size=3).map(
        lambda es: (DiagonalForm(tuple(es)), p)
    )


@given(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23)).flatmap(ramified_at))
@settings(max_examples=200, deadline=None)
def test_local_routes_agree(case):
    # closed-form isotropy criteria vs the brute-force residue oracle
    form, p = case
    assert solvable_over_Qp(form, p) == represents_one(form.entries, p)


@pytest.mark.parametrize("p", (29, 31, 37, 41, 43))
def test_local_routes_agree_at_large_primes(p):
    # 43^3 is the largest default-precision modulus under the search cap
    cases = ([3, p, -5], [3, p, -5, 7], [-1, -p], [2, p], [3, 3 * p])
    verdicts = []
    for entries in cases:
        form = DiagonalForm.of(*entries)
        verdicts.append(represents_one(form.entries, p))
        assert solvable_over_Qp(form, p) == verdicts[-1], entries
    assert False in verdicts and True in verdicts


def springer(entries, p):
    # Springer (Serre IV.2, Lam VI.1) at an odd prime: E = <entries, -1> is
    # E_0 + p*E_1 up to squares, with unit entries split by valuation parity,
    # and E is isotropic over Q_p iff E_0 or E_1 is isotropic over F_p. That
    # is the residue oracle at k = 1, so no symbol formula enters.
    halves = ([], [])
    for c in (*entries, Fraction(-1)):
        v, u = _split(c, p)
        halves[v % 2].append(u)
    return any(h and isotropic(h, p, 1) for h in halves)


@pytest.mark.parametrize("p", [p for p in range(3, 100, 2) if rationals.is_prime(p)])
def test_local_routes_agree_with_springer_below_100(p):
    # every odd prime below 100, those from 47 on past the p^3 cap of
    # represents_one: entries +-(1..3p) * p^(0..2), over 1 or p, of rank 1 to 4
    rng = random.Random(p)
    verdicts = []
    for _ in range(60):
        entries = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 3 * p) * p ** rng.randint(0, 2))
            / rng.choice((1, p))
            for _ in range(rng.randint(1, 4))
        )
        verdicts.append(springer(entries, p))
        assert solvable_over_Qp(DiagonalForm(entries), p) == verdicts[-1], entries
    assert False in verdicts and True in verdicts


@pytest.mark.parametrize("p", (3.0, True, 4))
def test_local_routes_refuse_a_non_prime_alike(p):
    form = DiagonalForm.of(3)
    with pytest.raises(ValueError, match=re.escape(f"{p!r} is not a prime")):
        solvable_over_Qp(form, p)
    with pytest.raises(ValueError, match=re.escape(f"{p!r} is not a prime")):
        represents_one(form.entries, p)


def test_local_fixed_verdicts():
    assert not solvable_over_Qp(DiagonalForm.of(2), 2)  # 1/2 is not a 2-adic square
    assert not solvable_over_Qp(DiagonalForm.of(2), 5)  # nor a residue mod 5
    assert solvable_over_Qp(DiagonalForm.of(2), 7)  # 1/2 = 4/8 = 4 * 8^-1... 4/2=2^2/2; 2 is a QR mod 7
    assert not solvable_over_Qp(DiagonalForm.of(-1, 3), 2)
    # -x^2 + 3y^2 = 1 forces x^2 = -1 mod 3 after sorting valuations
    assert not solvable_over_Qp(DiagonalForm.of(-1, 3), 3)
    assert solvable_over_Qp(DiagonalForm.of(-1, 3), 11)
    assert not solvable_over_Qp(DiagonalForm.of(3, 3), 2)
    # five variables never obstruct locally
    assert solvable_over_Qp(DiagonalForm.of(-7, -7, -7, -7), 7)


def test_ramified_and_relevant_places():
    f = DiagonalForm.of("2/3", 5)
    assert [str(v) for v in relevant_places(f)] == ["inf", "2", "3", "5"]
    assert relevant_places(DiagonalForm.of(4)) == [REAL_PLACE, Place.finite(2)]
    assert [str(v) for v in relevant_places(DiagonalForm.of(-1))] == ["inf", "2"]
    # odd primes to any power count, in the numerator or the denominator
    assert [str(v) for v in relevant_places(DiagonalForm.of("9/50", 7))] == [
        "inf", "2", "3", "5", "7"
    ]
    # a rank-1 form can fail at a place left out: <2> at 3
    assert relevant_places(DiagonalForm.of(2)) == [REAL_PLACE, Place.finite(2)]
    assert not solvable_over_Qp(DiagonalForm.of(2), 3)


@given(int_forms.filter(lambda f: f.rank >= 2), st.sampled_from((11, 13, 17, 19)))
@settings(max_examples=100, deadline=None)
def test_unramified_odd_places_never_obstruct(form, p):
    # the reduction behind relevant_places: with two or more variables the
    # extended form has three unit entries at an odd unramified prime
    if Place.finite(p) in relevant_places(form):
        return
    assert solvable_over_Qp(form, p)


scalars = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4).filter(
    lambda q: q != 0
)


@given(st.one_of(scalars, scalars.map(lambda q: q * q)))
@settings(max_examples=200, deadline=None)
def test_rank_one_is_decided_at_the_relevant_places(a):
    # <a> can fail at an odd place relevant_places leaves out, yet the places
    # it lists already decide it: a > 0 with every valuation even
    square = a > 0 and all(math.isqrt(n) ** 2 == n for n in (a.numerator, a.denominator))
    assert solvable_over_Q(DiagonalForm((a,)), search_height=1).verdict == square


def test_global_fixed_certificates():
    c = solvable_over_Q(DiagonalForm.of(-1, 3))
    assert not c.verdict
    assert c.failing_place == Place.finite(2)
    assert c.checked_places == (REAL_PLACE, Place.finite(2))
    assert c.witness is None

    c = solvable_over_Q(DiagonalForm.of(-1, -1))
    assert not c.verdict and c.failing_place == REAL_PLACE

    c = solvable_over_Q(DiagonalForm.of(3, 3))
    assert not c.verdict and c.failing_place == Place.finite(2)

    c = solvable_over_Q(DiagonalForm.of(5, 5))
    assert c.verdict and c.witness == (Fraction(1, 5), Fraction(2, 5))


def test_local_checks_certify_no_prime(monkeypatch):
    # the place walk certifies each prime once; the local checks reuse it
    form = DiagonalForm.of(3 * 5, 7, Fraction(-11, 13), 2)
    places = relevant_places(form)
    calls = []
    is_prime = rationals.is_prime
    monkeypatch.setattr(solvability, "_places", lambda f: iter(places))
    monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or is_prime(n))
    certificate = solvable_over_Q(form, search_height=3)
    assert calls == []
    assert certificate.checked_places == tuple(places)


@given(forms)
@settings(max_examples=200, deadline=None)
def test_checked_places_are_a_prefix_of_the_relevant_places(form):
    # a certificate walks relevant_places in order and stops at its failure
    places = relevant_places(form)
    c = solvable_over_Q(form, search_height=1)
    checked = list(c.checked_places)
    assert checked == places[: len(checked)]
    if c.verdict:
        assert checked == places
    else:
        assert checked[-1] == c.failing_place


# two 16-digit primes: factoring this outlasts the rho budget
SEMIPRIME = 1000000000000037 * 1000000000000091


@pytest.mark.parametrize(
    "entries, checked",
    [((-SEMIPRIME, -1), ["inf"]), ((SEMIPRIME, 3), ["inf", "2"])],
    ids=["real", "two"],
)
def test_real_place_and_two_are_decided_before_factoring(monkeypatch, entries, checked):
    # a form that fails at the real place or at 2 answers without factoring an
    # entry, even one that factor would refuse
    calls = []
    factor_all = rationals._factor_all

    def counted(ns):
        calls.append(ns)
        return factor_all(ns)

    monkeypatch.setattr(rationals, "_factor_all", counted)
    monkeypatch.setattr(solvability, "_factor_all", counted)
    start = time.perf_counter()
    c = solvable_over_Q(DiagonalForm.of(*entries))
    assert time.perf_counter() - start < 0.1
    assert calls == []
    assert not c.verdict
    assert [str(v) for v in c.checked_places] == checked
    assert str(c.failing_place) == checked[-1]


def test_four_hard_entries_refuse_within_one_budget(monkeypatch):
    # each entry is two 16-digit primes, past 2**64, so each walks alone in
    # entry order: the first spends the budget and is the one named, as when
    # the entries were factored one at a time, and the refusal costs one
    # budget of steps on a modulus of one entry
    primes = [10**15 + k for k in (37, 91, 159, 187, 223, 241, 249, 259)]
    entries = [q1 * q2 for q1, q2 in zip(primes[::2], primes[1::2])]
    spent, charged, walks = {}, set(), []
    charge, walk = rationals._charge, rationals._walk

    def counted(walkers, budgets, steps):
        charge(walkers, budgets, steps)
        for m, _, i, _ in walkers:
            spent[i] = spent.get(i, 0) + steps
            charged.add(m)

    def recorded(walkers, budgets):
        walks.append([w[0] for w in walkers])
        return walk(walkers, budgets)

    monkeypatch.setattr(rationals, "_charge", counted)
    monkeypatch.setattr(rationals, "_walk", recorded)
    with pytest.raises(rationals.FactorizationLimitError, match=f"^{entries[0]} not split"):
        relevant_places(DiagonalForm.of(*entries))
    assert all(steps <= rationals._RHO_BUDGET for steps in spent.values())
    assert charged == {entries[0]}
    assert walks == [[entries[0]]]


def test_each_prime_is_certified_once(monkeypatch):
    # factor proves each prime of the entries; the places relevant_places
    # builds from them are not proved again
    form = DiagonalForm.of(3 * 10007 * 10009, -5 * 10037 * 10039, 7 * 10061 * 10067)
    proved = []
    is_prime = rationals.is_prime

    def counted(n):
        if is_prime(n):
            proved.append(n)
            return True
        return False

    monkeypatch.setattr(rationals, "is_prime", counted)
    certificate = solvable_over_Q(form, search_height=3)
    assert sorted(proved) == [10007, 10009, 10037, 10039, 10061, 10067]
    assert [str(v) for v in certificate.checked_places] == [
        "inf", "2", "3", "5", "7", "10007", "10009", "10037", "10039", "10061", "10067"
    ]


def test_rank_past_the_recursion_limit_gets_its_witness():
    # the depth-first scan keeps its own stack, one level per coordinate
    n = 1100
    certificate = solvable_over_Q(DiagonalForm.of(*[1] * n))
    assert certificate.verdict
    assert certificate.witness == (Fraction(0),) * (n - 1) + (Fraction(1),)


def test_witness_is_height_bounded_not_semantics():
    # the verdict never depends on the search height; only the witness does
    lo = solvable_over_Q(DiagonalForm.of(13, 13), search_height=5)
    hi = solvable_over_Q(DiagonalForm.of(13, 13), search_height=13)
    assert lo.verdict and lo.witness is None
    assert hi.verdict and hi.witness == (Fraction(2, 13), Fraction(3, 13))


def test_search_height_checked_before_any_place():
    # a false verdict (Q_2 fails) and a true one refuse height 0 alike
    for form in (DiagonalForm.of(3, 3, -1), DiagonalForm.of(1)):
        with pytest.raises(ValueError, match="height must be positive"):
            solvable_over_Q(form, search_height=0)


def test_search_fixed_points():
    assert search_point(DiagonalForm.of(1, 1), 3) == (Fraction(0), Fraction(1))
    assert search_point(DiagonalForm.of(5, 5), 5) == (Fraction(1, 5), Fraction(2, 5))
    assert search_point(DiagonalForm.of(2, 3, 5, 7), 20) == (
        Fraction(1, 3),
        Fraction(0),
        Fraction(0),
        Fraction(1, 3),
    )
    assert search_point(DiagonalForm.of(-1, -1), 30) is None
    with pytest.raises(ValueError):
        search_point(DiagonalForm.of(1), 0)


@given(forms, st.integers(min_value=1, max_value=8))
@settings(max_examples=120, deadline=None)
def test_search_results_satisfy_the_equation(form, height):
    pt = search_point(form, height)
    if pt is None:
        return
    assert sum(a * x * x for a, x in zip(form.entries, pt)) == 1
    assert all(x >= 0 for x in pt)
    d = math.lcm(*(x.denominator for x in pt))
    assert d <= height
    assert all(abs(x * d) <= height for x in pt)


nonzero_digit = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)
# targets here are at most 12 * 10^2, so these mostly leave every window empty
huge = st.integers(min_value=10**6, max_value=10**9) | st.integers(
    min_value=-(10**9), max_value=-(10**6)
)
# the largest coefficient the int64 guard lets through at height 2, rank 2
_NEAR_GUARD = (_INT64_GUARD - 1) // (2 * 2 * 3)


@given(
    st.tuples(
        st.lists(nonzero_digit | huge, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=10),
    )
    # ranks 5-7 at low heights: rank 7 now meets in the middle wherever its
    # tables fit the budget
    | st.tuples(
        st.lists(nonzero_digit | huge, min_size=5, max_size=7),
        st.integers(min_value=1, max_value=3),
    ),
    st.integers(min_value=1, max_value=12),
)
@example(([-5, 2], 2), 3)  # only hit -5 + 8 = 3 * 1^2 sits on the low edge of its window
@example(([1, 7], 2), 2)  # only hit 1 + 7 = 2 * 2^2 sits on the high edge of its window
@example(([10**6, -(10**9)], 10), 12)  # no window holds a right value
@example(([10**6, 1 - 10**6], 10), 1)  # huge entries that still meet at d = 1
@example(([_NEAR_GUARD, 3 - _NEAR_GUARD], 2), 3)
@example(([_NEAR_GUARD, -_NEAR_GUARD], 2), 2)
@example(([-2, 5, -5, 5], 5), 1)  # the left table shrinks from 36 to 29 before d = 5 hits
@example(([1, 1, -3, 2], 4), 5)  # the left table a^2 + b^2 holds duplicates
@settings(max_examples=200, deadline=None)
def test_denominator_scan_routes_agree(case, scale):
    # the depth-first scan is the oracle for the windowed meet in the middle,
    # and for the witness it rebuilds from its tables
    coeffs, height = case
    worst = max(abs(c) for c in coeffs + [scale]) * height * height * (len(coeffs) + 1)
    assert worst < _INT64_GUARD  # the only inputs search_point sends to MITM
    mitm = _mitm_point(coeffs, scale, height, [_SEARCH_BUDGET])
    dfs = _dfs_point(coeffs, scale, height, [_SEARCH_BUDGET])
    assert mitm == dfs


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
)
@example([3, 3, 3], [-9, 2, 3, 4, 9])  # below, in and above a one-value table
def test_at_least_answers_membership(values, xs):
    # draws from a narrow range repeat, so the tables hold duplicates, and
    # the probes fall below the minimum, above the maximum and in between
    table = np.sort(np.array(values, dtype=np.int64))
    for x in xs:
        assert _at_least(table, x) == min((v for v in values if v >= x), default=max(values))
        assert (_at_least(table, x) == x) == (x in values)
    probes = np.array(xs, dtype=np.int64)
    assert ((_at_least(table, probes) == probes) == np.isin(probes, table)).all()


@given(
    st.lists(nonzero_digit, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=1, max_value=5),
)
@example([2, 3, 5, 7], 9, 3)
@example([1, -3], 1, 5)
@settings(max_examples=200, deadline=None)
def test_lex_smallest_matches_enumeration(coeffs, target, height):
    # the interval scan against every vector, in lexicographic order
    expected = next(
        (
            list(c)
            for c in itertools.product(range(height + 1), repeat=len(coeffs))
            if sum(a * x * x for a, x in zip(coeffs, c)) == target
        ),
        None,
    )
    assert _lex_smallest(coeffs, target, height, [_SEARCH_BUDGET]) == expected


@given(
    st.lists(nonzero_digit, max_size=3),
    st.integers(min_value=-40, max_value=80),
    st.integers(min_value=1, max_value=4),
    st.sets(st.integers(min_value=-300, max_value=300), max_size=6),
)
@example([2, 3], 20, 3, set())  # nothing to end on
@example([1, 1], 5, 2, {10**6, -(10**6)})  # every end out of reach
@example([1, -3], 2, 3, {-4, -7})  # remainders below zero: 2 - 3^2 and 2 - 3^2 + 3
@example([], 7, 1, {7})  # a rank-1 form leaves the left half empty
@settings(max_examples=200, deadline=None)
def test_lex_smallest_over_ends_matches_enumeration(coeffs, target, height, ends):
    # the rebuild of the left half: the least prefix whose remainder lies in ends
    expected = next(
        (
            list(c)
            for c in itertools.product(range(height + 1), repeat=len(coeffs))
            if target - sum(a * x * x for a, x in zip(coeffs, c)) in ends
        ),
        None,
    )
    assert _lex_smallest(coeffs, target, height, [_SEARCH_BUDGET], ends) == expected


def unpruned_first_point(coeffs, scale, height):
    """Every denominator in turn, with no content check: (d, numerators)."""
    for d in range(1, height + 1):
        numerators = _lex_smallest(coeffs, scale * d * d, height, [_SEARCH_BUDGET])
        if numerators is not None:
            return d, numerators
    return None


@given(forms | int_forms, st.sampled_from((2, 3, 6, 7)), st.integers(min_value=1, max_value=10))
@example(DiagonalForm.of(2, 4), 2, 4)  # content 4: only the even d remain
@example(DiagonalForm.of("1/2", "3/2"), 6, 6)
@settings(max_examples=150, deadline=None)
def test_content_skip_keeps_search_results(form, g, height):
    # a form scaled by g has content divisible by g, so most d are skipped
    scaled = DiagonalForm(tuple(g * a for a in form.entries))
    scale = math.lcm(*(a.denominator for a in scaled.entries))
    coeffs = [int(a * scale) for a in scaled.entries]
    point = unpruned_first_point(coeffs, scale, height)
    assert _dfs_point(coeffs, scale, height, [_SEARCH_BUDGET]) == point
    assert _mitm_point(coeffs, scale, height, [_SEARCH_BUDGET]) == point
    if point is None:
        assert search_point(scaled, height) is None
    else:
        d, numerators = point
        assert search_point(scaled, height) == tuple(Fraction(c, d) for c in numerators)


def test_oversized_search_refused_before_allocation():
    # (1448 + 1)^2 entries in each half table: at rank 4 the least height
    # past the budget, so the depth-first scan runs instead, and on this form
    # it spends the budget before it finds a point
    with pytest.raises(SearchBudgetExceeded, match="2097152"):
        search_point(DiagonalForm.of(3, 5, 7, -1000003), 1448)
    # the certificate keeps its verdict without a witness
    cert = solvable_over_Q(DiagonalForm.of(3, 5, 7, -1000003), search_height=1448)
    assert cert.verdict and cert.witness is None
    # where the tables would take 6.71 GiB, a cheap point is still found
    assert search_point(DiagonalForm.of(1, 1, 1, -3), 30000) == (0, 0, 1, 0)
    # the content 1000003 leaves no denominator up to the height: nothing to
    # build, so nothing is refused
    assert search_point(DiagonalForm.of(1000003, 1000003, -1000003), 30000) is None


def test_searches_with_no_point_charge_every_probe():
    # a probe spends one unit and one per 64 distinct left values it holds,
    # the first probe included; finding the least denominator spends one
    # unit per d tried
    budget = [_SEARCH_BUDGET]
    assert _mitm_point([3, -5], 1, 200, budget) is None
    assert _SEARCH_BUDGET - budget[0] == 541
    # entries +-s*q1*q2: no left value plus a right value lies in [1, 100^2],
    # so the first probe, over all 101^2 left values, empties the table
    coeffs = [3 * 10007 * 10009, -5 * 10037 * 10039, 7 * 10061 * 10067, -2 * 10069 * 10079]
    budget = [_SEARCH_BUDGET]
    assert _mitm_point(coeffs, 1, 100, budget) is None
    assert _SEARCH_BUDGET - budget[0] == 1 + (1 + 101**2 // 64)


def test_only_the_tables_use_numpy():
    # the rebuild reads a set of the probe's hits, so numpy stays inside the
    # code that builds and probes the tables
    tree = ast.parse(Path(solvability.__file__).read_text())
    users = {
        getattr(node, "name", type(node).__name__)
        for node in tree.body
        if any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node))
    }
    assert users == {"_half_values", "_at_least", "_mitm_point"}


def test_witness_the_tables_prove_is_returned():
    # the tables prove d = 1; a plain depth-first search for the least
    # numerators at that d spends more than the whole budget; the rebuild over
    # the left prefixes whose remainder the probe hit would cost 3838 units
    form = DiagonalForm.of("11/5", "-9/4", "24/5", 2, 6, "11/3")
    assert search_point(form, 100) == (1, 6, 1, 3, 2, 3)
    assert solvable_over_Q(form).witness == (1, 6, 1, 3, 2, 3)


def test_point_search_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (about 1.75 MB of RSS); the search must not
    code = (
        "import sys\n"
        "from hassewitt.forms import DiagonalForm\n"
        "from hassewitt.solvability import search_point\n"
        "search_point(DiagonalForm.of(2, 3, 5, 7), 100)\n"
        "search_point(DiagonalForm.of(6 * 10007 * 10009, -10037 * 10039, 3, -5), 100)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(hassewitt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@given(forms)
@settings(max_examples=80, deadline=None)
def test_false_verdict_means_no_point(form):
    c = solvable_over_Q(form, search_height=6)
    if not c.verdict:
        assert search_point(form, 6) is None
        assert c.failing_place is not None
    else:
        assert c.failing_place is None


@given(forms)
@settings(max_examples=60, deadline=None)
def test_certificate_verdict_matches_all_places(form):
    c = solvable_over_Q(form, search_height=1)
    every = solvable_over_R(form) and all(
        solvable_over_Qp(form, v.p) for v in relevant_places(form) if not v.is_real
    )
    assert c.verdict == every


def test_certificate_json():
    doc = solvable_over_Q(DiagonalForm.of(-1, 3)).to_json()
    assert doc == {
        "solvable": False,
        "witness": None,
        "failing_place": "2",
        "checked_places": ["inf", "2"],
    }
    doc = solvable_over_Q(DiagonalForm.of(5, 5)).to_json()
    assert doc["solvable"] is True
    assert doc["witness"] == ["1/5", "2/5"]
    assert doc["failing_place"] is None
