"""A finite groupoid model of a Klein-four descent problem on a conic.

Four objects indexed by the sign choices for the two square roots (s, t)
with s^2 = a and t^2 = -b; morphisms are the circle maps z -> c z^e with c a
fourth root of unity and e = +-1, admissible between two objects exactly
when they respect the relation tying z to the roots. Loops at an object are
{z, -z}, one bit. A family of connecting paths indexed by the Galois group
yields a normalized Z/2-valued 2-cocycle; its class is independent of the
path choices and equals the cup product of the two sign characters.

Everything is small enough to check exhaustively, and the tests do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

# fourth roots of unity as exponents of i
_ROOT_NAMES = {0: "1", 1: "i", 2: "-1", 3: "-i"}


@dataclass(frozen=True)
class GroupoidObject:
    """A point of the descent groupoid: the signs chosen for the two roots."""

    s_sign: int
    t_sign: int

    def __post_init__(self) -> None:
        if self.s_sign not in (1, -1) or self.t_sign not in (1, -1):
            raise ValueError("signs are +-1")

    def __str__(self) -> str:
        fmt = {1: "+", -1: "-"}
        return f"({fmt[self.s_sign]}, {fmt[self.t_sign]})"


BASE_OBJECT = GroupoidObject(1, 1)

ALL_OBJECTS = tuple(GroupoidObject(s, t) for s in (1, -1) for t in (1, -1))


def _admissible_labels(src: GroupoidObject, dst: GroupoidObject) -> tuple[int, int]:
    # The relation pins z_src^2 to one of +-z_dst^{+-2}:
    #   z_src^2 = ((rho_s + rho_t)/2) z_dst^2 + ((rho_s - rho_t)/2) z_dst^{-2}
    # with rho_s = src.s/dst.s, rho_t = src.t/dst.t. Solving for z_src gives
    # the coefficient parity (1 vs i times a sign) and the exponent.
    rho_s = src.s_sign * dst.s_sign
    rho_t = src.t_sign * dst.t_sign
    parity = 0 if rho_s == 1 else 1
    e = 1 if rho_s == rho_t else -1
    return parity, e


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


@dataclass(frozen=True)
class Groupoid:
    objects: tuple[GroupoidObject, ...]
    morphisms: tuple[GroupoidMorphism, ...]

    def loops_at(self, obj: GroupoidObject) -> tuple[GroupoidMorphism, ...]:
        return tuple(f for f in self.morphisms if f.src == obj and f.dst == obj)


def build_groupoid() -> Groupoid:
    """The whole finite groupoid: 4 objects, 2 arrows per ordered pair, 32 total."""
    morphisms = tuple(
        f for s in ALL_OBJECTS for t in ALL_OBJECTS for f in morphisms_between(s, t)
    )
    return Groupoid(ALL_OBJECTS, morphisms)


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
    """An element of Gal = Z/2 x Z/2, recorded by which square roots it moves."""

    flips_sqrt_a: int
    flips_sqrt_minus_b: int

    def __post_init__(self) -> None:
        if self.flips_sqrt_a not in (0, 1) or self.flips_sqrt_minus_b not in (0, 1):
            raise ValueError("flip flags are bits")

    def __mul__(self, other: "GaloisElement") -> "GaloisElement":
        return GaloisElement(
            self.flips_sqrt_a ^ other.flips_sqrt_a,
            self.flips_sqrt_minus_b ^ other.flips_sqrt_minus_b,
        )

    def __str__(self) -> str:
        return {
            (0, 0): "1",
            (1, 0): "sigma_a",
            (0, 1): "sigma_b",
            (1, 1): "sigma_ab",
        }[self.flips_sqrt_a, self.flips_sqrt_minus_b]


IDENTITY = GaloisElement(0, 0)
SIGMA_A = GaloisElement(1, 0)
SIGMA_B = GaloisElement(0, 1)
SIGMA_AB = GaloisElement(1, 1)
GALOIS_GROUP = (IDENTITY, SIGMA_A, SIGMA_B, SIGMA_AB)

# the sign characters: chi(sigma) = [sigma moves the corresponding root]
CHI_A = {g: g.flips_sqrt_a for g in GALOIS_GROUP}
CHI_B = {g: g.flips_sqrt_minus_b for g in GALOIS_GROUP}


def galois_act_object(sigma: GaloisElement, obj: GroupoidObject) -> GroupoidObject:
    return GroupoidObject(
        -obj.s_sign if sigma.flips_sqrt_a else obj.s_sign,
        -obj.t_sign if sigma.flips_sqrt_minus_b else obj.t_sign,
    )


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


class TwoCocycle:
    """A normalized Z/2-valued 2-cocycle on the Klein four group.

    Construction checks normalization and the cocycle identity, so every
    instance is an honest cocycle.
    """

    def __init__(self, values: dict[tuple[GaloisElement, GaloisElement], int]):
        table = {}
        for s in GALOIS_GROUP:
            for t in GALOIS_GROUP:
                if (s, t) not in values:
                    raise ValueError(f"missing value at ({s}, {t})")
                bit = values[s, t]
                if bit not in (0, 1):
                    raise ValueError("cocycle values are bits")
                table[s, t] = bit
        if any(table[IDENTITY, t] or table[t, IDENTITY] for t in GALOIS_GROUP):
            raise ValueError("not normalized at the identity")
        for s in GALOIS_GROUP:
            for t in GALOIS_GROUP:
                for u in GALOIS_GROUP:
                    if table[t, u] ^ table[s * t, u] ^ table[s, t * u] ^ table[s, t]:
                        raise ValueError(f"cocycle identity fails at ({s}, {t}, {u})")
        self._table = table

    def __call__(self, s: GaloisElement, t: GaloisElement) -> int:
        return self._table[s, t]

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoCocycle) and self._table == other._table

    def __hash__(self) -> int:
        return hash(tuple(self._table[s, t] for s in GALOIS_GROUP for t in GALOIS_GROUP))

    def table(self) -> dict[tuple[GaloisElement, GaloisElement], int]:
        return dict(self._table)


def zero_cocycle() -> TwoCocycle:
    return TwoCocycle({(s, t): 0 for s in GALOIS_GROUP for t in GALOIS_GROUP})


def coboundary(phi: dict[GaloisElement, int]) -> TwoCocycle:
    """d(phi)(s, t) = phi(s) + phi(t) + phi(st) for a normalized 1-cochain."""
    if phi.get(IDENTITY, 0) != 0:
        raise ValueError("1-cochains are normalized: phi(1) = 0")
    return TwoCocycle(
        {
            (s, t): phi.get(s, 0) ^ phi.get(t, 0) ^ phi.get(s * t, 0)
            for s in GALOIS_GROUP
            for t in GALOIS_GROUP
        }
    )


@lru_cache(maxsize=1)
def _all_coboundaries() -> frozenset[TwoCocycle]:
    out = set()
    for bits in product((0, 1), repeat=3):
        phi = dict(zip((SIGMA_A, SIGMA_B, SIGMA_AB), bits))
        phi[IDENTITY] = 0
        out.add(coboundary(phi))
    return frozenset(out)


def cohomologous(c1: TwoCocycle, c2: TwoCocycle) -> bool:
    """Whether c1 and c2 differ by a coboundary (8 candidates, checked directly)."""
    if not isinstance(c1, TwoCocycle) or not isinstance(c2, TwoCocycle):
        raise ValueError("cohomologous compares TwoCocycle instances")
    diff = {
        (s, t): c1(s, t) ^ c2(s, t) for s in GALOIS_GROUP for t in GALOIS_GROUP
    }
    return any(d.table() == diff for d in _all_coboundaries())


def cup_character_cocycle(
    chi1: dict[GaloisElement, int], chi2: dict[GaloisElement, int]
) -> TwoCocycle:
    """The cup product of two characters: (s, t) -> chi1(s) * chi2(t)."""
    for chi in (chi1, chi2):
        if chi.get(IDENTITY, 0) != 0:
            raise ValueError("characters send the identity to 0")
        for s in GALOIS_GROUP:
            for t in GALOIS_GROUP:
                if chi[s * t] != chi[s] ^ chi[t]:
                    raise ValueError("not a character")
    return TwoCocycle(
        {(s, t): chi1[s] & chi2[t] for s in GALOIS_GROUP for t in GALOIS_GROUP}
    )


PathFamily = dict[GaloisElement, GroupoidMorphism]


def obstruction_cocycle(paths: PathFamily) -> TwoCocycle:
    """The descent 2-cocycle of a family of connecting paths gamma.

    Needs gamma_1 = id at the base object and gamma_sigma: base -> sigma(base).
    The value at (sigma, tau) is the class of the loop
    gamma_{sigma tau}^{-1} o sigma(gamma_tau) o gamma_sigma.
    """
    for sigma in GALOIS_GROUP:
        if sigma not in paths:
            raise ValueError(f"missing path for {sigma}")
        f = paths[sigma]
        if f.src != BASE_OBJECT or f.dst != galois_act_object(sigma, BASE_OBJECT):
            raise ValueError(f"path for {sigma} must run base -> {sigma}(base)")
    if paths[IDENTITY] != identity_morphism(BASE_OBJECT):
        raise ValueError("the identity path must be the identity morphism")
    values = {}
    for sigma in GALOIS_GROUP:
        for tau in GALOIS_GROUP:
            loop = compose(
                inverse(paths[sigma * tau]),
                compose(galois_act(sigma, paths[tau]), paths[sigma]),
            )
            values[sigma, tau] = loop_class(loop)
    return TwoCocycle(values)


def all_path_families() -> tuple[PathFamily, ...]:
    """Every choice of connecting paths: two arrows per nonidentity element."""
    choices = [
        morphisms_between(BASE_OBJECT, galois_act_object(sigma, BASE_OBJECT))
        for sigma in (SIGMA_A, SIGMA_B, SIGMA_AB)
    ]
    out = []
    for pick in product(*choices):
        family: PathFamily = {IDENTITY: identity_morphism(BASE_OBJECT)}
        family.update(zip((SIGMA_A, SIGMA_B, SIGMA_AB), pick))
        out.append(family)
    return tuple(out)


def default_path_family() -> PathFamily:
    """The distinguished choice: coefficient i (not -i) wherever a choice exists.

    Spelled out: gamma_{sigma_a} = i z^{-1}, gamma_{sigma_b} = z^{-1},
    gamma_{sigma_ab} = i z.
    """
    return {
        IDENTITY: identity_morphism(BASE_OBJECT),
        SIGMA_A: GroupoidMorphism(BASE_OBJECT, GroupoidObject(-1, 1), 1, -1),
        SIGMA_B: GroupoidMorphism(BASE_OBJECT, GroupoidObject(1, -1), 0, -1),
        SIGMA_AB: GroupoidMorphism(BASE_OBJECT, GroupoidObject(-1, -1), 1, 1),
    }


def h2_census() -> int:
    """Number of classes of normalized 2-cocycles: enumerate all 2^9 candidate
    tables, keep the cocycles, quotient by the coboundaries."""
    nonid = [g for g in GALOIS_GROUP if g != IDENTITY]
    pairs = [(s, t) for s in nonid for t in nonid]
    cocycles = []
    for bits in product((0, 1), repeat=len(pairs)):
        values = {(s, t): 0 for s in GALOIS_GROUP for t in GALOIS_GROUP}
        values.update(dict(zip(pairs, bits)))
        try:
            cocycles.append(TwoCocycle(values))
        except ValueError:
            continue
    coboundaries = _all_coboundaries()
    classes = {
        frozenset(
            tuple(z(s, t) ^ b(s, t) for s in GALOIS_GROUP for t in GALOIS_GROUP)
            for b in coboundaries
        )
        for z in cocycles
    }
    return len(classes)


def verify_main_example() -> bool:
    """True iff the whole story holds: every path family yields a cocycle, all
    families are pairwise cohomologous, and the common class is the (nonzero)
    cup product of the two sign characters."""
    report = main_example_report()
    return report["verified"]


def main_example_report() -> dict:
    """The full evidence behind verify_main_example, in one dict."""
    cup = cup_character_cocycle(CHI_A, CHI_B)
    cocycles = [obstruction_cocycle(f) for f in all_path_families()]
    pairwise = all(
        cohomologous(c1, c2)
        for i, c1 in enumerate(cocycles)
        for c2 in cocycles[i + 1 :]
    )
    matches_cup = all(cohomologous(c, cup) for c in cocycles)
    nonzero = not cohomologous(cocycles[0], zero_cocycle())
    return {
        "families": len(cocycles),
        "path_independent": pairwise,
        "matches_character_cup": matches_cup,
        "nonzero": nonzero,
        "census": h2_census(),
        "verified": pairwise and matches_cup and nonzero,
        "cocycle": obstruction_cocycle(default_path_family()),
    }
