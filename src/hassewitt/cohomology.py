"""Mod-2 Galois cohomology of Q, Q_p and R, encoded by local invariants.

Scope restriction, deliberately part of the API: classes here are symbol
classes (sums of cup products of degree-1 square classes), stored by the
invariants that classify them:

  * degree 1 over Q: a square-free integer (the square class);
  * degree 1 over Q_p: a canonical square-class representative;
  * degree 1 over R: one bit (sign);
  * degree 2 over Q: the finite, even-sized set of places where the local
    invariant is -1 (Hilbert reciprocity forces even size);
  * degree 2 over Q_p or R: one bit;
  * degree >= 3 over Q_p: the group is trivial, payload None;
  * degree >= 3 over Q or R: one bit, carried entirely by the real place.

On symbol classes this encoding is faithful and the cup/add rules below are
the honest induced operations. Nothing outside symbol classes is
representable, and no routine here pretends otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .localsolve import represents_one
from .rationals import (
    REAL_PLACE,
    Place,
    Rational,
    _least_nonresidue,
    _legendre,
    _require_prime,
    _split,
    as_rational,
    ramified_places,
    squarefree_part,
)

TWO_ADIC_REPS = (1, -1, 2, -2, 5, -5, 10, -10)


@dataclass(frozen=True)
class BaseField:
    """Q, Q_p for a prime p, or R."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "Qp", "R"):
            raise ValueError(f"unknown base field kind {self.kind!r}")
        if self.kind == "Qp":
            if self.p is None:
                raise ValueError("Qp needs a prime")
            Place.finite(self.p)  # prime check
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no prime")

    @classmethod
    def rationals(cls) -> "BaseField":
        return cls("Q")

    @classmethod
    def padics(cls, p: int) -> "BaseField":
        return cls("Qp", p)

    @classmethod
    def reals(cls) -> "BaseField":
        return cls("R")

    def __str__(self) -> str:
        return f"Qp:{self.p}" if self.kind == "Qp" else self.kind

    @classmethod
    def parse(cls, text: str) -> "BaseField":
        t = text.strip()
        if t == "Q":
            return cls.rationals()
        if t == "R":
            return cls.reals()
        if t.startswith("Qp:"):
            try:
                return cls.padics(int(t[3:]))
            except ValueError as exc:
                raise ValueError(f"not a base field: {text!r}") from exc
        raise ValueError(f"not a base field: {text!r}")


RATIONALS = BaseField.rationals()
REALS = BaseField.reals()


def hilbert_symbol(a: Rational | int | str, b: Rational | int | str, v: Place) -> int:
    """(a, b)_v in {+1, -1}: does z^2 = a x^2 + b y^2 have a nontrivial zero over the completion at v."""
    a = as_rational(a)
    b = as_rational(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    return _finite_symbol(a, b, v.p)  # p certified by Place


def _finite_symbol(a: Rational, b: Rational, p: int) -> int:
    # (a, b)_p for nonzero a, b and a certified prime p
    if p == 2:
        return _two_adic_table()[two_adic_class(a), two_adic_class(b)]
    # the tame formula (Serre, A Course in Arithmetic, III.1.2)
    alpha, u = _split(a, p)
    beta, w = _split(b, p)
    sign = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


@lru_cache(maxsize=1)
def _two_adic_table() -> dict[tuple[int, int], int]:
    # Generated, not transcribed: each entry is the brute-force local verdict
    # for z^2 = a x^2 + b y^2 over Q_2 on canonical square-class reps.
    table = {}
    for a in TWO_ADIC_REPS:
        for b in TWO_ADIC_REPS:
            solvable = represents_one([Fraction(a), Fraction(b)], 2)
            table[a, b] = 1 if solvable else -1
    return table


def two_adic_class(q: Rational | int | str) -> int:
    """Canonical representative of the square class of q in Q_2: one of +-1, +-2, +-5, +-10."""
    q = as_rational(q)
    if q == 0:
        raise ValueError("zero has no square class")
    v, u = _split(q, 2, 3)
    return (2 if v % 2 else 1) * {1: 1, 3: -5, 5: 5, 7: -1}[u]


def padic_class_rep(q: Rational | int | str, p: int) -> int:
    """Canonical square-class representative in Q_p: {1, u, p, u p} for odd p (u the least nonresidue), the mod-8 family at p = 2."""
    q = as_rational(q)
    if q == 0:
        raise ValueError("zero has no square class")
    if p != 2:
        _require_prime(p)
    return _padic_class_rep(q, p)


def _padic_class_rep(q: Rational, p: int) -> int:
    # for nonzero q and a certified prime p
    if p == 2:
        return two_adic_class(q)
    v, u = _split(q, p)
    unit = 1 if _legendre(u, p) == 1 else _least_nonresidue(p)
    return (p if v % 2 else 1) * unit


def _qp_reps(p: int) -> tuple[int, ...]:
    if p == 2:
        return TWO_ADIC_REPS
    u = _least_nonresidue(p)  # p certified by BaseField
    return (1, u, p, u * p)


@dataclass(frozen=True)
class CohClass:
    """A mod-2 cohomology class over Q, Q_p or R, stored by its classifying invariant."""

    field: BaseField
    degree: int
    payload: int | frozenset | None

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        kind, d, pay = self.field.kind, self.degree, self.payload
        if kind == "R" or (kind == "Q" and d >= 3) or (kind == "Qp" and d == 2):
            if pay not in (0, 1):
                raise ValueError("this group is one bit")
        elif kind == "Qp" and d >= 3:
            if pay is not None:
                raise ValueError("H^d(Q_p) vanishes for d >= 3; payload must be None")
        elif d == 1:
            if not isinstance(pay, int) or isinstance(pay, bool):
                raise ValueError("degree-1 payload is an integer square-class rep")
            if kind == "Q":
                if squarefree_part(pay) != pay:
                    raise ValueError(f"{pay} is not square-free")
            elif pay not in _qp_reps(self.field.p):
                raise ValueError(f"{pay} is not a canonical rep at p={self.field.p}")
        else:  # (Q, 2)
            if not isinstance(pay, frozenset) or not all(
                isinstance(v, Place) for v in pay
            ):
                raise ValueError("degree-2 payload over Q is a frozenset of places")
            if len(pay) % 2:
                raise ValueError("local invariants must flip at an even number of places")


def zero_class(field: BaseField, degree: int) -> CohClass:
    """The zero element of the (field, degree) group."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    kind = field.kind
    if kind == "Qp" and degree >= 3:
        return CohClass(field, degree, None)
    if degree == 1 and kind != "R":
        return CohClass(field, 1, 1)
    if degree == 2 and kind == "Q":
        return CohClass(field, 2, frozenset())
    return CohClass(field, degree, 0)


def is_zero(c: CohClass) -> bool:
    """Whether c is the zero class."""
    return c == zero_class(c.field, c.degree)


def h1(a: Rational | int | str, field: BaseField) -> CohClass:
    """The degree-1 class [a] of a nonzero scalar: a modulo squares."""
    a = as_rational(a)
    if a == 0:
        raise ValueError("[0] is not a cohomology class")
    if field.kind == "Q":
        return CohClass(field, 1, squarefree_part(a))
    if field.kind == "Qp":
        return CohClass(field, 1, _padic_class_rep(a, field.p))  # p certified by BaseField
    return CohClass(field, 1, 1 if a < 0 else 0)


def _real_invariant(c: CohClass) -> int:
    # the image of c at the real place, as a bit
    if c.field.kind == "R":
        return c.payload
    if c.field.kind == "Qp":
        raise ValueError("no real place on Q_p")
    if c.degree == 1:
        return 1 if c.payload < 0 else 0
    if c.degree == 2:
        return 1 if REAL_PLACE in c.payload else 0
    return c.payload


def _symbol_support(r1: int, r2: int) -> frozenset:
    # places where (r1, r2)_v = -1
    return frozenset(
        v for v in ramified_places(r1, r2) if hilbert_symbol(r1, r2, v) == -1
    )


def cup(c1: CohClass, c2: CohClass) -> CohClass:
    """Cup product. Degrees add; everything of degree >= 3 lives at the real place."""
    if c1.field != c2.field:
        raise ValueError("cup product needs a common base field")
    field = c1.field
    d = c1.degree + c2.degree
    if field.kind == "R":
        return CohClass(field, d, c1.payload & c2.payload)
    if field.kind == "Qp":
        if d >= 3:
            return zero_class(field, d)
        bit = _finite_symbol(c1.payload, c2.payload, field.p) == -1
        return CohClass(field, 2, int(bit))
    if d == 2:
        return CohClass(field, 2, _symbol_support(c1.payload, c2.payload))
    return CohClass(field, d, _real_invariant(c1) & _real_invariant(c2))


def add(c1: CohClass, c2: CohClass) -> CohClass:
    """Group law (everything is 2-torsion, so this is also subtraction)."""
    if c1.field != c2.field or c1.degree != c2.degree:
        raise ValueError("can only add classes of one field and degree")
    field, d = c1.field, c1.degree
    if field.kind == "Qp" and d >= 3:
        return c1
    if d == 1 and field.kind == "Q":
        # square-free a and b: a*b is g^2 times the square-free a*b/g^2
        a, b = c1.payload, c2.payload
        return CohClass(field, 1, a * b // gcd(a, b) ** 2)
    if d == 1 and field.kind == "Qp":
        return CohClass(field, 1, _padic_class_rep(c1.payload * c2.payload, field.p))
    # remaining groups are bits under xor, or place sets under symmetric difference
    return CohClass(field, d, c1.payload ^ c2.payload)


def reciprocity_holds(a: Rational | int | str, b: Rational | int | str) -> bool:
    """Product of (a,b)_v over the real place, 2, and every odd prime dividing a or b."""
    return prod(hilbert_symbol(a, b, v) for v in ramified_places(a, b)) == 1


def cohclass_to_json(c: CohClass) -> dict:
    """JSON document for a class: field, degree, and the payload in readable form."""
    pay = c.payload
    if isinstance(pay, frozenset):
        pay = [str(v) for v in sorted(pay)]
    return {"field": str(c.field), "degree": c.degree, "zero": is_zero(c), "payload": pay}


def cohclass_from_json(doc: dict) -> CohClass:
    """Inverse of cohclass_to_json (the `zero` member is ignored on input)."""
    field = BaseField.parse(doc["field"])
    degree = doc["degree"]
    pay = doc["payload"]
    if isinstance(pay, list):
        pay = frozenset(Place.parse(s) for s in pay)
    return CohClass(field, degree, pay)
