import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassewitt import rationals
from hassewitt.cohomology import (
    BaseField,
    CohClass,
    RATIONALS,
    REALS,
    TWO_ADIC_REPS,
    _padic_class_rep,
    add,
    cohclass_to_json,
    cup,
    h1,
    hilbert_symbol,
    is_zero,
    reciprocity_holds,
    zero_class,
)
from hassewitt.forms import DiagonalForm
from hassewitt.localsolve import represents_one
from hassewitt.rationals import REAL_PLACE, Place, _legendre, _split
from hassewitt.solvability import relevant_places

nonzero = st.fractions(min_value=-100, max_value=100, max_denominator=40).filter(
    lambda q: q != 0
)
places = st.sampled_from(
    (REAL_PLACE, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7))
)
fields = st.sampled_from(
    (RATIONALS, REALS, BaseField.padics(2), BaseField.padics(3), BaseField.padics(5))
)


def test_base_field_parse_and_str():
    assert str(RATIONALS) == "Q"
    assert str(BaseField.padics(7)) == "Qp:7"
    assert BaseField.parse("Qp:7") == BaseField.padics(7)
    assert BaseField.parse("R") == REALS
    with pytest.raises(ValueError):
        BaseField.parse("Qp:6")
    with pytest.raises(ValueError):
        BaseField.parse("C")
    with pytest.raises(ValueError):
        BaseField("Q", 3)
    with pytest.raises(ValueError, match="^unknown base field kind 'X'$"):
        BaseField("X")
    with pytest.raises(ValueError, match="^Qp needs a prime$"):
        BaseField("Qp")


def test_hilbert_fixed_values():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, 1, REAL_PLACE) == 1
    assert hilbert_symbol(2, 5, Place.finite(5)) == -1
    assert hilbert_symbol(3, 3, Place.finite(3)) == -1
    assert hilbert_symbol(5, 5, Place.finite(5)) == 1
    assert hilbert_symbol(-1, -1, Place.finite(2)) == -1
    assert hilbert_symbol(2, 5, Place.finite(2)) == -1
    assert hilbert_symbol(-1, 2, Place.finite(2)) == 1
    assert hilbert_symbol(Fraction(1, 2), Fraction(3, 4), Place.finite(2)) == \
        hilbert_symbol(2, 3, Place.finite(2))
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, REAL_PLACE)


def test_dyadic_formula_matches_the_residue_oracle():
    # Serre's closed formula at 2 against the residue search, on every pair of
    # square classes
    for a in TWO_ADIC_REPS:
        for b in TWO_ADIC_REPS:
            expected = 1 if represents_one([Fraction(a), Fraction(b)], 2) else -1
            assert hilbert_symbol(a, b, Place.finite(2)) == expected


def test_two_adic_class_fixed_values():
    assert _padic_class_rep(10, 2) == 10
    assert _padic_class_rep(-2, 2) == -2
    assert _padic_class_rep(6, 2) == -10
    assert _padic_class_rep(7, 2) == -1
    assert _padic_class_rep(3, 2) == -5
    assert _padic_class_rep(Fraction(1, 2), 2) == 2
    assert _padic_class_rep(4, 2) == 1


@given(nonzero)
@settings(max_examples=150)
def test_two_adic_class_is_square_equivalent(q):
    rep = _padic_class_rep(q, 2)
    ratio = q / rep
    # ratio must be a 2-adic square: even valuation, unit part 1 mod 8
    v, u = _split(ratio, 2, 3)
    assert v % 2 == 0 and u == 1


@given(nonzero, st.sampled_from((3, 5, 7, 11)))
@settings(max_examples=150)
def test_padic_class_rep_is_square_equivalent(q, p):
    rep = _padic_class_rep(q, p)
    ratio = Fraction(q) / rep
    v, u = _split(ratio, p)
    assert v % 2 == 0 and _legendre(u, p) == 1


@given(nonzero, nonzero, places)
@settings(max_examples=200)
def test_hilbert_symmetry(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


@given(nonzero, nonzero, nonzero, places)
@settings(max_examples=200)
def test_hilbert_bimultiplicative(a, b, c, v):
    assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)


@given(nonzero, places)
@settings(max_examples=150)
def test_hilbert_a_minus_a(a, v):
    assert hilbert_symbol(a, -a, v) == 1


@given(nonzero.filter(lambda q: q != 1), places)
@settings(max_examples=150)
def test_hilbert_steinberg(a, v):
    assert hilbert_symbol(a, 1 - a, v) == 1


@given(nonzero, nonzero)
@example(Fraction(63, 4), -5)  # 63 = 3^2 * 7: an odd prime to an even power
@settings(max_examples=100, deadline=None)
def test_reciprocity(a, b):
    assert reciprocity_holds(a, b)


def test_h1_fixed_values():
    assert h1(18, RATIONALS).payload == frozenset({Place.finite(2)})
    assert h1(Fraction(-5, 27), RATIONALS).payload == frozenset(
        {REAL_PLACE, Place.finite(3), Place.finite(5)}
    )
    assert h1(-1, REALS).payload == 1
    assert h1(2, REALS).payload == 0
    assert h1(18, BaseField.padics(3)).payload == 2  # 18 = 2 * 3^2, 2 is a nonresidue mod 3
    assert h1(6, BaseField.padics(3)).payload == 6
    # a nonresidue unit is represented by the least nonresidue: 3 mod 7 and mod 17
    assert h1(5, BaseField.padics(7)).payload == 3
    assert h1(5, BaseField.padics(17)).payload == 3
    assert is_zero(h1(4, RATIONALS))
    assert is_zero(h1(Fraction(9, 4), BaseField.padics(7)))
    with pytest.raises(ValueError):
        h1(0, RATIONALS)


def test_h1_over_q_certifies_each_prime_once(monkeypatch):
    # factor proves the primes of the entry; the class's places skip a second proof
    proved = []
    is_prime = rationals.is_prime

    def counted(n):
        if is_prime(n):
            proved.append(n)
            return True
        return False

    monkeypatch.setattr(rationals, "is_prime", counted)
    c = h1(-3 * 10007 * 10009, RATIONALS)
    assert sorted(proved) == [10007, 10009]
    assert c.payload == frozenset({REAL_PLACE, Place.finite(3), Place(10007), Place(10009)})


@given(nonzero, fields)
@settings(max_examples=150)
def test_h1_kills_squares(a, field):
    assert add(h1(a, field), h1(a, field)) == zero_class(field, 1)
    assert is_zero(add(h1(a, field), h1(a, field)))


@given(nonzero, nonzero, fields)
@settings(max_examples=150)
def test_h1_is_multiplicative(a, b, field):
    assert add(h1(a, field), h1(b, field)) == h1(a * b, field)


# a sign times distinct primes, drawn so that two payloads often share some
signed_primes = st.tuples(
    st.sampled_from((1, -1)),
    st.sets(st.sampled_from((2, 3, 5, 7, 11, 13, 10007)), max_size=5),
)


def class_of(sign, primes):
    # the class over Q of sign * prod(primes), built without factoring
    places = {Place.finite(p) for p in primes} | ({REAL_PLACE} if sign < 0 else set())
    return CohClass(RATIONALS, 1, frozenset(places))


@given(signed_primes, signed_primes)
@settings(max_examples=150)
def test_degree_one_add_over_q_needs_no_factoring(a, b):
    c = add(class_of(*a), class_of(*b))
    product = a[0] * math.prod(a[1]) * b[0] * math.prod(b[1])
    assert c == h1(product, RATIONALS)
    squarefree = a[0] * b[0] * math.prod(a[1] ^ b[1])
    assert cohclass_to_json(c)["payload"] == squarefree


def test_cup_fixed_values():
    c = cup(h1(-1, RATIONALS), h1(-1, RATIONALS))
    assert c.payload == frozenset({REAL_PLACE, Place.finite(2)})
    assert not is_zero(c)
    assert is_zero(cup(h1(2, RATIONALS), h1(-1, RATIONALS)))  # 2 is a sum of... x^2+2y^2? no:
    # (2, -1) = 1 at every place: z^2 = 2x^2 - y^2 has (1,1,1)


def test_cup_degree_rules():
    one = h1(-1, RATIONALS)
    two = cup(one, one)
    three = cup(two, one)
    assert (two.degree, three.degree) == (2, 3)
    assert three.payload == 1 and not is_zero(three)
    # over Q_p everything of degree >= 3 dies
    p = BaseField.padics(2)
    assert is_zero(cup(cup(h1(-1, p), h1(-1, p)), h1(-1, p)))
    assert cup(cup(h1(-1, p), h1(-1, p)), h1(-1, p)).payload is None


@given(nonzero, nonzero, fields)
@settings(max_examples=150)
def test_cup_commutes_in_degree_one(a, b, field):
    assert cup(h1(a, field), h1(b, field)) == cup(h1(b, field), h1(a, field))


@given(nonzero, nonzero, nonzero, fields)
@settings(max_examples=120, deadline=None)
def test_cup_distributes_over_add(a, b, c, field):
    lhs = cup(add(h1(a, field), h1(b, field)), h1(c, field))
    rhs = add(cup(h1(a, field), h1(c, field)), cup(h1(b, field), h1(c, field)))
    assert lhs == rhs


@given(nonzero, fields)
@settings(max_examples=120)
def test_cup_with_self_is_cup_with_minus_one(a, field):
    assert cup(h1(a, field), h1(a, field)) == cup(h1(a, field), h1(-1, field))


@given(nonzero, nonzero, st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=150)
def test_qp_cup_bit_is_the_symbol(a, b, p):
    field = BaseField.padics(p)
    c = cup(h1(a, field), h1(b, field))
    assert c.payload == (1 if hilbert_symbol(a, b, Place.finite(p)) == -1 else 0)


@given(nonzero, nonzero)
@example(Fraction(63, 4), -5)  # 63 = 3^2 * 7: an odd prime to an even power
@settings(max_examples=120, deadline=None)
def test_q_cup_support_is_even_and_local(a, b):
    c = cup(h1(a, RATIONALS), h1(b, RATIONALS))
    assert len(c.payload) % 2 == 0
    for v in c.payload:
        assert hilbert_symbol(a, b, v) == -1
    # every other place that divides a or b, even to an even power, gives +1
    for v in relevant_places(DiagonalForm.of(a, b)):
        if v not in c.payload:
            assert hilbert_symbol(a, b, v) == 1


def test_cohclass_validation():
    with pytest.raises(ValueError, match="frozenset of places"):
        CohClass(RATIONALS, 1, 6)  # an integer payload comes in through h1 or JSON only
    with pytest.raises(ValueError):
        CohClass(BaseField.padics(5), 1, 3)  # not a canonical rep at 5
    not_an_int = "^degree-1 payload over Q_p is an integer square-class rep$"
    for payload in (True, "5"):
        with pytest.raises(ValueError, match=not_an_int):
            CohClass(BaseField.padics(5), 1, payload)
    with pytest.raises(ValueError):
        CohClass(RATIONALS, 2, frozenset({REAL_PLACE}))  # odd support
    with pytest.raises(ValueError):
        CohClass(RATIONALS, 3, 2)  # not a bit
    with pytest.raises(ValueError):
        CohClass(BaseField.padics(3), 3, 0)  # must be None
    with pytest.raises(ValueError):
        CohClass(RATIONALS, 0, 1)
    with pytest.raises(ValueError):
        cup(h1(2, RATIONALS), h1(2, REALS))
    with pytest.raises(ValueError):
        add(h1(2, RATIONALS), cup(h1(2, RATIONALS), h1(3, RATIONALS)))


def test_add_matches_symmetric_difference_in_degree_two():
    c1 = cup(h1(-1, RATIONALS), h1(-1, RATIONALS))  # {inf, 2}
    c2 = cup(h1(-1, RATIONALS), h1(3, RATIONALS))
    s = add(c1, c2)
    assert s.payload == c1.payload ^ c2.payload
    assert is_zero(add(c1, c1))


@given(nonzero, fields, st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_zero_class_is_neutral(a, field, extra):
    c = h1(a, field)
    for _ in range(extra - 1):
        c = cup(c, h1(a, field))
    z = zero_class(field, c.degree)
    assert add(c, z) == c
    assert add(c, c) == z


def test_json_round_trip():
    samples = [
        h1(18, RATIONALS),
        h1(-1, REALS),
        h1(10, BaseField.padics(2)),
        cup(h1(-1, RATIONALS), h1(-1, RATIONALS)),
        cup(h1(-1, BaseField.padics(2)), h1(-1, BaseField.padics(2))),
        cup(cup(h1(-1, RATIONALS), h1(-1, RATIONALS)), h1(-1, RATIONALS)),
        cup(cup(h1(-1, BaseField.padics(3)), h1(3, BaseField.padics(3))), h1(3, BaseField.padics(3))),
        zero_class(RATIONALS, 2),
    ]
    for c in samples:
        doc = cohclass_to_json(c)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["field"] == str(c.field) and doc["degree"] == c.degree
        assert doc["zero"] == is_zero(c)


def test_degree_one_json_over_q_is_the_squarefree_integer():
    for c, payload in (
        (h1(-30, RATIONALS), -30),
        (h1(Fraction(5, 27), RATIONALS), 15),
        (zero_class(RATIONALS, 1), 1),
    ):
        assert cohclass_to_json(c)["payload"] == payload
