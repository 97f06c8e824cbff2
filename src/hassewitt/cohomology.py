"""Mod-2 Galois cohomology of Q, Q_p and R, encoded by local invariants.

Scope restriction, deliberately part of the API: classes here are symbol
classes (sums of cup products of degree-1 square classes), stored by the
invariants that classify them:

  * degree 1 over Q: the set of places of [a], the primes p with v_p(a) odd
    and the real place when a < 0. h1 factors a once; add is symmetric
    difference. JSON shows it as the square-free integer, the signed product;
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

Hilbert symbols come from closed formulas at every place, 2 included, never
from the brute-force residue oracle: the tests hold the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .rationals import (
    REAL_PLACE,
    _TWO_PLACE,
    Place,
    _least_nonresidue,
    _legendre,
    _odd_primes,
    _split,
    as_rational,
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
    def padics(cls, p: int) -> "BaseField":
        return cls("Qp", p)

    def __str__(self) -> str:
        return f"Qp:{self.p}" if self.kind == "Qp" else self.kind

    @classmethod
    def parse(cls, text: str) -> "BaseField":
        t = text.strip()
        if t in ("Q", "R"):
            return cls(t)
        if t.startswith("Qp:"):
            try:
                return cls.padics(int(t[3:]))
            except ValueError as exc:
                raise ValueError(f"not a base field: {text!r}") from exc
        raise ValueError(f"not a base field: {text!r}")


RATIONALS = BaseField("Q")
REALS = BaseField("R")


def hilbert_symbol(a: Fraction | int | str, b: Fraction | int | str, v: Place) -> int:
    """(a, b)_v in {+1, -1}: does z^2 = a x^2 + b y^2 have a nontrivial zero over the completion at v."""
    a = as_rational(a)
    b = as_rational(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    return _finite_symbol(a, b, v.p)  # p certified by Place


def _finite_symbol(a: Fraction, b: Fraction, p: int) -> int:
    # (a, b)_p for nonzero a, b and a certified prime p, by the closed
    # formulas of Serre, A Course in Arithmetic, III.1.2, Theorem 1
    k = 3 if p == 2 else 1
    alpha, u = _split(a, p, k)
    beta, w = _split(b, p, k)
    if p == 2:
        # -1 iff eps(u) eps(w) + alpha omega(w) + beta omega(u) is odd, with
        # eps(u) = [u = 3 mod 4] and omega(u) = [u = +-3 mod 8]
        odd = (u % 4 == 3 and w % 4 == 3) + alpha * (w in (3, 5)) + beta * (u in (3, 5))
        return -1 if odd % 2 else 1
    sign = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


def _padic_class_rep(q: Fraction, p: int) -> int:
    # for nonzero q and a certified prime p; at 2 one of TWO_ADIC_REPS
    if p == 2:
        v, u = _split(q, 2, 3)
        return (2 if v % 2 else 1) * {1: 1, 3: -5, 5: 5, 7: -1}[u]
    v, u = _split(q, p)
    unit = 1 if _legendre(u, p) == 1 else _least_nonresidue(p)
    return (p if v % 2 else 1) * unit


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
        elif kind == "Qp":  # degree 1
            if not isinstance(pay, int) or isinstance(pay, bool):
                raise ValueError("degree-1 payload over Q_p is an integer square-class rep")
            if pay == 0 or _padic_class_rep(pay, self.field.p) != pay:
                raise ValueError(f"{pay} is not a canonical rep at p={self.field.p}")
        else:  # (Q, 1) or (Q, 2)
            if not isinstance(pay, frozenset) or not all(
                isinstance(v, Place) for v in pay
            ):
                raise ValueError(f"degree-{d} payload over Q is a frozenset of places")
            if d == 2 and len(pay) % 2:
                raise ValueError("local invariants must flip at an even number of places")


def zero_class(field: BaseField, degree: int) -> CohClass:
    """The zero element of the (field, degree) group."""
    kind = field.kind
    if kind == "Qp" and degree >= 3:
        return CohClass(field, degree, None)
    if degree == 1 and kind == "Qp":
        return CohClass(field, 1, 1)
    if degree <= 2 and kind == "Q":
        return CohClass(field, degree, frozenset())
    return CohClass(field, degree, 0)


def is_zero(c: CohClass) -> bool:
    """Whether c is the zero class."""
    return c == zero_class(c.field, c.degree)


def h1(a: Fraction | int | str, field: BaseField) -> CohClass:
    """The degree-1 class [a] of a nonzero scalar: a modulo squares."""
    a = as_rational(a)
    if a == 0:
        raise ValueError("[0] is not a cohomology class")
    if field.kind == "Q":
        sign = (REAL_PLACE,) if a < 0 else ()
        return CohClass(field, 1, frozenset((*sign, *map(Place._certified, _odd_primes(a)))))
    if field.kind == "Qp":
        return CohClass(field, 1, _padic_class_rep(a, field.p))  # p certified by BaseField
    return CohClass(field, 1, 1 if a < 0 else 0)


def _real_invariant(c: CohClass) -> int:
    # the image of a class over Q at the real place, as a bit
    if c.degree <= 2:
        return 1 if REAL_PLACE in c.payload else 0
    return c.payload


def _squarefree(places: frozenset) -> int:
    # the square-free integer whose square class over Q is this place set
    sign = -1 if REAL_PLACE in places else 1
    return sign * prod(v.p for v in places if not v.is_real)


def _symbol_support(x: frozenset, y: frozenset) -> frozenset:
    # the places where (a, b)_v = -1 for a, b of the square classes x, y over
    # Q: only inf, 2 and the places of x and y can qualify, since (a, b)_v = +1
    # at every odd prime dividing neither a nor b
    a, b = _squarefree(x), _squarefree(y)
    return frozenset(v for v in x | y | {REAL_PLACE, _TWO_PLACE} if hilbert_symbol(a, b, v) == -1)


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
    if d == 1 and field.kind == "Qp":
        return CohClass(field, 1, _padic_class_rep(c1.payload * c2.payload, field.p))
    # remaining groups are bits under xor, or place sets under symmetric difference
    return CohClass(field, d, c1.payload ^ c2.payload)


def reciprocity_holds(a: Fraction | int | str, b: Fraction | int | str) -> bool:
    """Whether (a,b)_v = -1 at an even number of places. Only the real place,
    2 and the primes of odd valuation in a or b can be among them, the same
    support cup finds in degree 2 over Q."""
    return len(_symbol_support(h1(a, RATIONALS).payload, h1(b, RATIONALS).payload)) % 2 == 0


def cohclass_to_json(c: CohClass) -> dict:
    """JSON document for a class: field, degree, and the payload in readable form."""
    pay = c.payload
    if c.field.kind == "Q" and c.degree == 1:
        pay = _squarefree(pay)
    elif isinstance(pay, frozenset):
        pay = [str(v) for v in sorted(pay)]
    return {"field": str(c.field), "degree": c.degree, "zero": is_zero(c), "payload": pay}
