import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hassewitt
from hassewitt.forms import DiagonalForm
from hassewitt.rationals import REAL_PLACE, Place
from hassewitt.solvability import (
    _INT64_GUARD,
    _SEARCH_BUDGET,
    SearchBudgetExceeded,
    _at_least,
    _dfs_point,
    _lex_smallest,
    _mitm_point,
    local_oracle,
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
    assert solvable_over_Qp(form, p) == local_oracle(form, p)


@pytest.mark.parametrize("p", (29, 31, 37, 41, 43))
def test_local_routes_agree_at_large_primes(p):
    # 43^3 is the largest default-precision modulus under the search cap
    cases = ([3, p, -5], [3, p, -5, 7], [-1, -p], [2, p], [3, 3 * p])
    verdicts = []
    for entries in cases:
        form = DiagonalForm.of(*entries)
        verdicts.append(local_oracle(form, p))
        assert solvable_over_Qp(form, p) == verdicts[-1], entries
    assert False in verdicts and True in verdicts


@pytest.mark.parametrize("p", (3.0, True, 4))
def test_local_routes_refuse_a_non_prime_alike(p):
    form = DiagonalForm.of(3)
    for route in (solvable_over_Qp, local_oracle):
        with pytest.raises(ValueError, match=re.escape(f"{p!r} is not a prime")):
            route(form, p)


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


@given(int_forms.filter(lambda f: f.rank >= 2), st.sampled_from((11, 13, 17, 19)))
@settings(max_examples=100, deadline=None)
def test_unramified_odd_places_never_obstruct(form, p):
    # the reduction behind relevant_places: with two or more variables the
    # extended form has three unit entries at an odd unramified prime
    if Place.finite(p) in relevant_places(form):
        return
    assert solvable_over_Qp(form, p)


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


def test_witness_the_tables_prove_is_returned():
    # the tables prove d = 1; a plain depth-first search for the least
    # numerators at that d spends more than the whole budget, the rebuild
    # over the left prefixes the right table completes costs about 4000 units
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
