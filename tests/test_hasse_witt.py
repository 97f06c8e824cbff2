import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt.cohomology import (
    BaseField,
    CohClass,
    RATIONALS,
    REALS,
    add,
    cohclass_to_json,
    cup,
    h1,
    hilbert_symbol,
    is_zero,
    zero_class,
)
from hassewitt.forms import DiagonalForm, discriminant, hasse_invariant
from hassewitt.hasse_witt import MAX_RANK, hasse_witt_vector, top_obstruction
from hassewitt import rationals
from hassewitt.rationals import REAL_PLACE, Place
from oracles import whitney_sum_check

fields = st.sampled_from(
    (RATIONALS, REALS, BaseField.padics(2), BaseField.padics(3), BaseField.padics(5))
)
coeff = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(
    lambda q: q != 0
)
small_forms = st.lists(coeff, min_size=1, max_size=4).map(
    lambda es: DiagonalForm(tuple(es))
)


def literal_vector(form, field):
    """The definition term for term: HW_i is the sum over every i-subset of
    entries of the cup product of their degree-1 classes."""
    ones = [h1(a, field) for a in form.entries]
    out = []
    for i in range(1, form.rank + 1):
        total = zero_class(field, i)
        for subset in combinations(range(form.rank), i):
            total = add(total, reduce(cup, (ones[j] for j in subset)))
        out.append(total)
    return tuple(out)


@given(
    st.lists(coeff, min_size=1, max_size=7).map(lambda es: DiagonalForm(tuple(es))),
    fields,
)
@settings(max_examples=150, deadline=None)
def test_vector_matches_literal_oracle(form, field):
    assert hasse_witt_vector(form, field).classes == literal_vector(form, field)


def test_vector_of_three_minus_ones_over_reals():
    v = hasse_witt_vector(DiagonalForm.of(-1, -1, -1), REALS)
    # sigma_i of three copies of the nontrivial class: C(3,i) mod 2 copies survive
    assert [c.payload for c in v.classes] == [1, 1, 1]


def test_vector_of_three_minus_ones_over_q():
    v = hasse_witt_vector(DiagonalForm.of(-1, -1, -1), RATIONALS)
    assert v[1].payload == frozenset({REAL_PLACE})
    assert v[2].payload == frozenset({REAL_PLACE, Place.finite(2)})
    assert v[3].payload == 1 and not is_zero(v[3])


def test_vector_indexing():
    v = hasse_witt_vector(DiagonalForm.of(2, 3), RATIONALS)
    assert len(v) == 2
    assert v[1].degree == 1 and v[2].degree == 2
    with pytest.raises(IndexError):
        v[0]
    with pytest.raises(IndexError):
        v[3]


@given(small_forms, fields)
@settings(max_examples=120, deadline=None)
def test_top_obstruction_is_last_vector_entry(form, field):
    assert top_obstruction(form, field) == hasse_witt_vector(form, field)[form.rank]


@given(coeff, fields)
@settings(max_examples=80)
def test_obstruction_dim0_is_the_square_class(a, field):
    # the n = 0 case of o_{n+1}: a single coefficient's obstruction is its class
    assert top_obstruction(DiagonalForm.of(a), field) == h1(a, field)


def test_rank_cap():
    big = DiagonalForm(tuple(Fraction(1) for _ in range(MAX_RANK + 1)))
    with pytest.raises(ValueError, match=str(MAX_RANK)):
        hasse_witt_vector(big, REALS)


@given(
    st.lists(coeff, min_size=13, max_size=20).map(lambda es: DiagonalForm(tuple(es))),
    st.sampled_from((RATIONALS, REALS, BaseField.padics(2))),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_ranks_past_the_old_cap(form, field, cut):
    # ranks 13-20 used to be refused; the recursion answers them, and its
    # top entry and Whitney sums agree with the independent routes
    assert hasse_witt_vector(form, field)[form.rank] == top_obstruction(form, field)
    d1 = DiagonalForm(form.entries[:cut])
    d2 = DiagonalForm(form.entries[cut:])
    assert whitney_sum_check(d1, d2, field)


def test_top_obstruction_has_no_rank_cap():
    minus_ones = DiagonalForm(tuple(Fraction(-1) for _ in range(100)))
    assert top_obstruction(minus_ones, RATIONALS).payload == 1
    assert top_obstruction(minus_ones, REALS).payload == 1
    assert top_obstruction(minus_ones, BaseField.padics(2)).payload is None
    # from degree 3 on the class over Q is carried by the real place alone
    negative = DiagonalForm(tuple(Fraction(-2 - i) for i in range(100)))
    assert top_obstruction(negative, RATIONALS) == CohClass(RATIONALS, 100, 1)
    mixed = DiagonalForm((Fraction(3),) + negative.entries[1:])
    assert is_zero(top_obstruction(mixed, RATIONALS))


@pytest.mark.parametrize("p", (2, 10007))
def test_padic_vector_certifies_no_prime(monkeypatch, p):
    # the field certified p once; classes, cups and sums inside reuse it
    field = BaseField.padics(p)
    form = DiagonalForm.of(
        3, -5, p, -2 * p, Fraction(7, p), 11, -p * p, 6, -1, 13, Fraction(p, 3), 2
    )
    calls = []
    is_prime = rationals.is_prime
    monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or is_prime(n))
    vector = hasse_witt_vector(form, field)
    assert calls == []
    monkeypatch.undo()
    assert vector.classes == literal_vector(form, field)


def test_rational_vector_factors_each_entry_once(monkeypatch):
    # h1 factors each entry once; adds and cups over Q never factor
    form = DiagonalForm.of(-30, Fraction(5, 27), 7 * 10007**2, -1, 2 * 10009 * 10037, 3)
    calls = []
    factor_all = rationals._factor_all
    monkeypatch.setattr(rationals, "_factor_all", lambda ns: calls.append(ns) or factor_all(ns))
    ones = [h1(a, RATIONALS) for a in form.entries]
    from_h1 = len(calls)
    assert from_h1 == len(form.entries)
    hasse_witt_vector(form, RATIONALS)
    assert len(calls) == 2 * from_h1
    for x in ones:
        for y in ones:
            add(x, y)
            add(cup(x, y), cup(y, x))
            cup(cup(x, y), y)
    assert len(calls) == 2 * from_h1


def next_prime(n):
    n += 1
    while not rationals.is_prime(n):
        n += 1
    return n


def test_rational_vector_of_products_of_ten_digit_primes():
    # entries +-q1*q2: each factors within the rho budget, but a product of
    # several entries need not, so every class is kept as the entry's places
    rng = random.Random(3)
    primes, entries = set(), []
    for _ in range(8):
        sign = rng.choice((1, -1))
        q1 = next_prime(rng.randrange(10**9, 10**10))
        q2 = next_prime(rng.randrange(10**9, 10**10))
        primes |= {q1, q2}
        entries.append(sign * q1 * q2)
    form = DiagonalForm.of(*entries)
    v = hasse_witt_vector(form, RATIONALS)
    assert v[1] == reduce(add, (h1(a, RATIONALS) for a in entries))
    assert v[8] == top_obstruction(form, RATIONALS)
    # HW_2 is the sum of the pairwise cups: -1 exactly where the Hasse invariant is
    places = [REAL_PLACE, Place.finite(2)] + [Place.finite(q) for q in sorted(primes)]
    assert v[2].payload == {w for w in places if hasse_invariant(form, w) == -1}
    # the discriminant is HW_1, found without factoring the product
    doc = cohclass_to_json(v[1])
    assert discriminant(form) == doc["payload"]
    assert len(str(abs(doc["payload"]))) == 156


def test_whitney_fixed_example():
    # over Q: <-1> + <-1> must produce the cross term (-1, -1)
    d1, d2 = DiagonalForm.of(-1), DiagonalForm.of(-1)
    assert whitney_sum_check(d1, d2, RATIONALS)
    v = hasse_witt_vector(DiagonalForm(d1.entries + d2.entries), RATIONALS)
    assert v[2] == cup(h1(-1, RATIONALS), h1(-1, RATIONALS))


@given(small_forms, small_forms, fields)
@settings(max_examples=100, deadline=None)
def test_whitney_sum_property(d1, d2, field):
    assert whitney_sum_check(d1, d2, field)


def test_whitney_rank_cap():
    half = DiagonalForm(tuple(Fraction(1) for _ in range(MAX_RANK // 2 + 1)))
    with pytest.raises(ValueError, match=str(MAX_RANK)):
        whitney_sum_check(half, half, REALS)


def stabilized(form, extra):
    """The orthogonal sum of form with extra copies of <1>."""
    return DiagonalForm(form.entries + (Fraction(1),) * extra)


def test_stabilization_spot_cases():
    # adding <1>s keeps HW_i for i up to the old rank and kills the rest
    form = DiagonalForm.of(-1, -1, -2)
    v = hasse_witt_vector(stabilized(form, 2), RATIONALS)
    assert v.classes[:3] == hasse_witt_vector(form, RATIONALS).classes
    assert v[3] == CohClass(RATIONALS, 3, 1)
    assert is_zero(v[4]) and is_zero(v[5])
    assert hasse_witt_vector(stabilized(DiagonalForm.of(-3), 5), REALS).classes == (
        h1(-1, REALS), *(zero_class(REALS, i) for i in range(2, 7))
    )


@given(
    st.lists(coeff, min_size=1, max_size=5).map(lambda es: DiagonalForm(tuple(es))),
    st.integers(min_value=0, max_value=4),
    fields,
)
@settings(max_examples=80, deadline=None)
def test_stabilization_dichotomy(form, extra, field):
    m = form.rank
    v = hasse_witt_vector(stabilized(form, extra), field)
    assert v.classes[:m] == hasse_witt_vector(form, field).classes
    assert all(is_zero(c) for c in v.classes[m:])


@given(small_forms)
@settings(max_examples=60, deadline=None)
def test_top_obstruction_support_matches_hasse_product(form):
    # over Q the top class in degree 2 is supported exactly where the
    # pairwise symbol product is -1
    if form.rank != 2:
        return
    c = top_obstruction(form, RATIONALS)
    a, b = form.entries
    for v in c.payload:
        assert hilbert_symbol(a, b, v) == -1


def test_vector_one_entries_vanish():
    v = hasse_witt_vector(DiagonalForm.of(1, 1, 1, 1), RATIONALS)
    assert all(is_zero(c) for c in v.classes)
