"""A finite groupoid model of a Klein-four descent problem on a conic.

Four objects, one per choice of signs for the two square roots (s, t) with
s^2 = a and t^2 = -b; morphisms are the circle maps z -> c z^e with c a
fourth root of unity and e = +-1, admissible between two objects exactly
when they respect the relation tying z to the roots. Loops at an object are
{z, -z}, one bit. A family of connecting paths indexed by the Galois group
yields a normalized Z/2-valued 2-cocycle; its class is independent of the
path choices and equals the cup product of the two sign characters.

One encoding throughout: an object and a Galois element are each a position
in range(4) whose bit 0 negates s and bit 1 negates t, so acting and
multiplying xor positions; a character, 1-cochain or path family is a
4-tuple by position, and a 2-cocycle is 16 bits with c(s, t) at 4 * s + t.

Everything is small enough to check exhaustively, and the tests do.
`main_example_report` returns the whole `gerbe-verify` document, keys in
order, and the CLI prints it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import xor

# fourth roots of unity, indexed by their exponent of i
_ROOT_NAMES = ("1", "i", "-1", "-i")


@dataclass(frozen=True)
class GroupoidObject:
    """A point of the descent groupoid by its position in range(4): bit 0
    says s is negated, bit 1 that t is, against the base object (+, +)."""

    position: int

    def __post_init__(self) -> None:
        if self.position not in range(4):
            raise ValueError("an object is a position in range(4)")

    def __str__(self) -> str:
        return f"({'+-'[self.position & 1]}, {'+-'[self.position >> 1]})"


BASE_OBJECT = GroupoidObject(0)

# printed as (+, +), (+, -), (-, +), (-, -)
ALL_OBJECTS = tuple(map(GroupoidObject, (0, 2, 1, 3)))


def _admissible_labels(src: GroupoidObject, dst: GroupoidObject) -> tuple[int, int]:
    # The relation pins z_src^2 to one of +-z_dst^{+-2}:
    #   z_src^2 = ((rho_s + rho_t)/2) z_dst^2 + ((rho_s - rho_t)/2) z_dst^{-2}
    # with rho_s = src.s/dst.s, rho_t = src.t/dst.t, which are -1 where the
    # bits of src.position ^ dst.position are set. Solving for z_src gives
    # the coefficient parity (1 vs i times a sign) and the exponent.
    flips = src.position ^ dst.position
    return flips & 1, 1 if flips & 1 == flips >> 1 else -1


@dataclass(frozen=True)
class GroupoidMorphism:
    """An arrow src -> dst labelled by the circle map z -> i^c4 * z^e."""

    src: GroupoidObject
    dst: GroupoidObject
    c4: int
    e: int

    def __post_init__(self) -> None:
        if self.c4 not in (0, 1, 2, 3) or self.e not in (1, -1):
            raise ValueError("label must be (c4 mod 4, e = +-1)")
        parity, e = _admissible_labels(self.src, self.dst)
        if self.c4 % 2 != parity or self.e != e:
            raise ValueError(
                f"z -> {_ROOT_NAMES[self.c4]} z^{self.e:+d} does not respect "
                f"{self.src} -> {self.dst}"
            )

    def __str__(self) -> str:
        exp = "" if self.e == 1 else "^-1"
        coef = "" if self.c4 == 0 else _ROOT_NAMES[self.c4] + " "
        return f"{self.src} -> {self.dst}: z -> {coef}z{exp}"


def morphisms_between(
    src: GroupoidObject, dst: GroupoidObject
) -> tuple[GroupoidMorphism, GroupoidMorphism]:
    """The two arrows src -> dst: coefficients differ by a sign."""
    parity, e = _admissible_labels(src, dst)
    return (
        GroupoidMorphism(src, dst, parity, e),
        GroupoidMorphism(src, dst, parity + 2, e),
    )


def identity_morphism(obj: GroupoidObject) -> GroupoidMorphism:
    return GroupoidMorphism(obj, obj, 0, 1)


# the whole finite groupoid: 2 arrows per ordered pair of objects, 32 in all
ALL_MORPHISMS = tuple(
    f for s in ALL_OBJECTS for t in ALL_OBJECTS for f in morphisms_between(s, t)
)


def compose(g: GroupoidMorphism, f: GroupoidMorphism) -> GroupoidMorphism:
    """g after f: substituting f into g gives (g.c * f.c^{g.e}, f.e * g.e)."""
    if f.dst != g.src:
        raise ValueError(f"cannot compose: [{f}] then [{g}]")
    return GroupoidMorphism(f.src, g.dst, (g.c4 + f.c4 * g.e) % 4, f.e * g.e)


def inverse(f: GroupoidMorphism) -> GroupoidMorphism:
    """The unique arrow with inverse(f) o f = id: label (-c4 * e mod 4, e)."""
    return GroupoidMorphism(f.dst, f.src, (-f.c4 * f.e) % 4, f.e)


@dataclass(frozen=True)
class GaloisElement:
    """An element of Gal = Z/2 x Z/2 by its position in GALOIS_GROUP: bit 0
    says it moves sqrt(a), bit 1 that it moves sqrt(-b)."""

    position: int

    def __post_init__(self) -> None:
        if self.position not in range(4):
            raise ValueError("a Galois element is a position in range(4)")

    def __str__(self) -> str:
        return ("1", "sigma_a", "sigma_b", "sigma_ab")[self.position]


GALOIS_GROUP = IDENTITY, SIGMA_A, SIGMA_B, SIGMA_AB = tuple(map(GaloisElement, range(4)))

# the sign characters: chi(sigma) = [sigma moves the corresponding root]
CHI_A = (0, 1, 0, 1)
CHI_B = (0, 0, 1, 1)


def _bits(values, n: int, what: str) -> tuple[int, ...]:
    values = tuple(values)
    if len(values) != n or any(bit not in (0, 1) for bit in values):
        raise ValueError(f"{what} is {n} bits")
    return values


def galois_act_object(sigma: GaloisElement, obj: GroupoidObject) -> GroupoidObject:
    return GroupoidObject(sigma.position ^ obj.position)


def galois_act(sigma: GaloisElement, f: GroupoidMorphism) -> GroupoidMorphism:
    """Transport f along sigma: endpoints move, the label keeps its name."""
    return GroupoidMorphism(
        galois_act_object(sigma, f.src),
        galois_act_object(sigma, f.dst),
        f.c4,
        f.e,
    )


def loop_class(f: GroupoidMorphism) -> int:
    """The bit of a loop: 0 for z -> z, 1 for z -> -z (no other loops exist)."""
    if f.src != f.dst:
        raise ValueError("not a loop")
    assert f.e == 1 and f.c4 % 2 == 0, "loops can only be +-identity on z"
    return f.c4 // 2


@dataclass(frozen=True)
class TwoCocycle:
    """A normalized Z/2-valued 2-cocycle on the Klein four group.

    `values` holds the 16 bits c(s, t) at 4 * s + t, from any iterable.
    Construction checks normalization and the cocycle identity, so every
    instance is an honest cocycle.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        table = _bits(self.values, 16, "a 2-cocycle")
        if any(table[k] or table[4 * k] for k in range(4)):
            raise ValueError("not normalized at the identity")
        # the position of a product is the xor of the positions
        for s, t, u in product(range(4), repeat=3):
            if table[4 * t + u] ^ table[4 * (s ^ t) + u] ^ table[4 * s + (t ^ u)] ^ table[4 * s + t]:
                g = GALOIS_GROUP
                raise ValueError(f"cocycle identity fails at ({g[s]}, {g[t]}, {g[u]})")
        object.__setattr__(self, "values", table)

    def __call__(self, s: GaloisElement, t: GaloisElement) -> int:
        return self.values[4 * s.position + t.position]


def zero_cocycle() -> TwoCocycle:
    return TwoCocycle((0,) * 16)


def coboundary(phi) -> TwoCocycle:
    """d(phi)(s, t) = phi(s) + phi(t) + phi(st) for a 1-cochain phi given as
    4 bits by position; phi(1) = 1 leaves d(phi) unnormalized, so it raises."""
    phi = _bits(phi, 4, "a 1-cochain")
    return TwoCocycle(phi[s] ^ phi[t] ^ phi[s ^ t] for s in range(4) for t in range(4))


@lru_cache(maxsize=1)
def _all_coboundaries() -> frozenset[TwoCocycle]:
    return frozenset(coboundary((0, *bits)) for bits in product((0, 1), repeat=3))


def _coset(c: TwoCocycle) -> frozenset[tuple[int, ...]]:
    # the class of c, as the values of c + b for every coboundary b
    return frozenset(tuple(map(xor, c.values, b.values)) for b in _all_coboundaries())


def cohomologous(c1: TwoCocycle, c2: TwoCocycle) -> bool:
    """Whether c1 and c2 differ by a coboundary: whether their cosets agree."""
    if not isinstance(c1, TwoCocycle) or not isinstance(c2, TwoCocycle):
        raise ValueError("cohomologous compares TwoCocycle instances")
    return _coset(c1) == _coset(c2)


def cup_character_cocycle(chi1, chi2) -> TwoCocycle:
    """The cup product of two characters, each 4 bits by position:
    (s, t) -> chi1(s) * chi2(t)."""
    chi1, chi2 = (_bits(chi, 4, "a character") for chi in (chi1, chi2))
    for chi in (chi1, chi2):
        # s = t = 1 forces chi(1) = 0
        if any(chi[s ^ t] != chi[s] ^ chi[t] for s, t in product(range(4), repeat=2)):
            raise ValueError("not a character")
    return TwoCocycle(chi1[s] & chi2[t] for s in range(4) for t in range(4))


PathFamily = tuple[GroupoidMorphism, ...]


def obstruction_cocycle(paths: PathFamily) -> TwoCocycle:
    """The descent 2-cocycle of a family of connecting paths gamma, with
    gamma_sigma at the position of sigma.

    Needs gamma_1 = id at the base object and gamma_sigma: base -> sigma(base).
    The value at (sigma, tau) is the class of the loop
    gamma_{sigma tau}^{-1} o sigma(gamma_tau) o gamma_sigma.
    """
    if len(paths) != 4:
        raise ValueError(f"a path family has one path per Galois element, not {len(paths)}")
    for sigma, f in zip(GALOIS_GROUP, paths):
        if f.src != BASE_OBJECT or f.dst != galois_act_object(sigma, BASE_OBJECT):
            raise ValueError(f"path for {sigma} must run base -> {sigma}(base)")
    if paths[0] != identity_morphism(BASE_OBJECT):
        raise ValueError("the identity path must be the identity morphism")
    return TwoCocycle(
        loop_class(
            compose(inverse(paths[s ^ t]), compose(galois_act(GALOIS_GROUP[s], paths[t]), paths[s]))
        )
        for s in range(4)
        for t in range(4)
    )


def all_path_families() -> tuple[PathFamily, ...]:
    """Every choice of connecting paths: two arrows per nonidentity element."""
    choices = [morphisms_between(BASE_OBJECT, GroupoidObject(k)) for k in (1, 2, 3)]
    return tuple((identity_morphism(BASE_OBJECT), *pick) for pick in product(*choices))


def default_path_family() -> PathFamily:
    """The distinguished choice: coefficient i (not -i) wherever a choice exists.

    Spelled out: gamma_{sigma_a} = i z^{-1}, gamma_{sigma_b} = z^{-1},
    gamma_{sigma_ab} = i z. It is the first of all_path_families, which takes
    the first arrow of morphisms_between at each element.
    """
    return all_path_families()[0]


def h2_census() -> int:
    """Number of classes of normalized 2-cocycles: enumerate all 2^9 candidate
    tables (row and column 1 are 0), keep the cocycles, quotient by the
    coboundaries."""
    classes = set()
    for bits in product((0, 1), repeat=9):
        values = (0, 0, 0, 0, 0, *bits[0:3], 0, *bits[3:6], 0, *bits[6:9])
        try:
            classes.add(_coset(TwoCocycle(values)))
        except ValueError:
            continue
    return len(classes)


def main_example_report() -> dict:
    """The gerbe-verify document for the main example. "verified" is True iff
    the whole story holds: every path family yields a cocycle, all families
    share one class, and that class is the (nonzero) cup product of the two
    sign characters. The table is the default family's cocycle, the first."""
    families = all_path_families()
    cocycles = [obstruction_cocycle(f) for f in families]
    classes = {_coset(c) for c in cocycles}
    path_independent = len(classes) == 1
    matches_cup = classes == {_coset(cup_character_cocycle(CHI_A, CHI_B))}
    nonzero = _coset(zero_cocycle()) not in classes
    table = cocycles[0].values
    return {
        "families": len(cocycles),
        "path_independent": path_independent,
        "matches_character_cup": matches_cup,
        "nonzero": nonzero,
        "census": h2_census(),
        "verified": path_independent and matches_cup and nonzero,
        "labels": [str(g) for g in GALOIS_GROUP],
        "cocycle_table": [list(table[4 * k : 4 * k + 4]) for k in range(4)],
    }
