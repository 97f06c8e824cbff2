import ast
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hassewitt
from hassewitt.localsolve import (
    MAX_MODULUS,
    InconclusivePrecisionError,
    _orbit_tables,
    default_precision,
    isotropic,
    min_precision,
    represents_one,
)
from hassewitt.rationals import _split, as_rational, is_prime

coeff = st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(
    lambda q: q != 0
)


def naive_verdict(coeffs, p, k):
    """Same decision procedure, by direct enumeration. Tiny inputs only."""
    m = p**k
    v2 = 1 if p == 2 else 0

    def vp(r):
        if r == 0:
            return k
        v = 0
        while r % p == 0:
            r //= p
            v += 1
        return v

    reduced = []
    for c in coeffs:
        v = _split(c, p)[0]
        beta = v % 2
        u = c / Fraction(p) ** v
        w = u.numerator * pow(u.denominator, -1, m) % m
        reduced.append(p**beta * w % m)
    best_t = None
    primitive = False
    for ys in product(range(m), repeat=len(coeffs)):
        if sum(c * y * y for c, y in zip(reduced, ys)) % m:
            continue
        if any(y for y in ys):
            t = min(
                v2 + _split(Fraction(c), p)[0] % 2 + vp(y)
                for c, y in zip(coeffs, ys)
            )
            best_t = t if best_t is None else min(best_t, t)
        if any(y % p for y in ys):
            primitive = True
    if best_t is not None and 2 * best_t < k:
        return True
    if primitive:
        return "inconclusive"
    return False


def residue_table_isotropic(coeffs, p, k=None):
    """The same search with one table entry per residue mod p^k, in numpy:
    one np.roll per distinct (shift, exponent, unit flag) group. Slow."""
    cs = [as_rational(c) for c in coeffs]
    if not cs:
        raise ValueError("empty coefficient list")
    if any(c == 0 for c in cs):
        raise ValueError("zero coefficient in a nondegenerate diagonal form")
    if not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    if k is None:
        k = default_precision(p)
    if k < min_precision(p):
        raise InconclusivePrecisionError(
            f"precision p^{k} is below the faithful minimum p^{min_precision(p)} at p={p}"
        )
    m = p**k
    if m > MAX_MODULUS:
        raise ValueError(f"residue modulus {p}^{k} exceeds the search cap")

    # Modulo squares, c = p^beta * w with beta in {0,1} and w determined by its
    # residue mod p^k (faithful by the precision floor above). The Hensel
    # exponent of coordinate j at residue y is t = v_p(2) + beta_j + v_p(y).
    v2 = 1 if p == 2 else 0
    reduced = [(v % 2, w) for v, w in (_split(c, p, k) for c in cs)]

    big = k  # 2t < k already fails at t = ceil(k/2); cap valuations there
    unreach = big + 1
    vp_res = np.zeros(m, dtype=np.int64)
    pj = p
    while pj < m:
        vp_res[pj::pj] += 1
        pj *= p
    vp_res[0] = big
    np.minimum(vp_res, big, out=vp_res)
    residues = np.arange(m, dtype=np.int64)
    unit_mask = residues % p != 0

    # reach_t[v]: least Hensel exponent over vectors hitting value v (unreach
    # if none); reach_prim[v]: v is hit by a vector with a unit coordinate
    reach_t = np.full(m, unreach, dtype=np.int64)
    reach_t[0] = big  # the empty vector
    reach_prim = np.zeros(m, dtype=bool)
    for beta, w in reduced:
        term = (p**beta * w % m) * residues**2 % m
        texp = np.minimum(v2 + beta + vp_res, big)
        # group residues sharing (shift, exponent, unit flag): one roll each
        groups: dict[tuple[int, int, bool], None] = {}
        for r in range(m):
            groups[(int(term[r]), int(texp[r]), bool(unit_mask[r]))] = None
        reach_any = reach_t < unreach
        cand_t = {
            t: np.where(reach_any, np.minimum(reach_t, t), unreach)
            for t in {t for (_, t, _) in groups}
        }
        new_t = np.full(m, unreach, dtype=np.int64)
        new_prim = np.zeros(m, dtype=bool)
        for shift, t, unit in groups:
            np.minimum(new_t, np.roll(cand_t[t], shift), out=new_t)
            new_prim |= np.roll(reach_any if unit else reach_prim, shift)
        reach_t, reach_prim = new_t, new_prim

    t0 = int(reach_t[0])
    if t0 <= big and 2 * t0 < k:
        return True
    if bool(reach_prim[0]):
        raise InconclusivePrecisionError(
            f"no certified zero and no refutation at precision {p}^{k}"
        )
    return False


def run_or_inconclusive(coeffs, p, k):
    try:
        return isotropic(coeffs, p, k)
    except InconclusivePrecisionError:
        return "inconclusive"


def test_fixed_verdicts():
    one = Fraction(1)
    assert represents_one([one, one], 3, 1) is True
    assert represents_one([Fraction(2), Fraction(5)], 5, 2) is False
    with pytest.raises(InconclusivePrecisionError):
        represents_one([Fraction(2), Fraction(5)], 5, 1)
    # sum of two squares is 1 trivially
    assert represents_one([one], 7) is True
    assert represents_one([Fraction(-1)], 7, 1) is False
    # the 2-adic sum-of-four-squares form is anisotropic
    assert isotropic([one, one, one, one], 2) is False
    assert isotropic([one, one, one, Fraction(7)], 2) is True
    assert isotropic([one, Fraction(-1)], 2) is True


def test_min_precision_floor():
    assert min_precision(2) == 3
    assert min_precision(5) == 1
    assert default_precision(2) == 5
    assert default_precision(7) == 3
    with pytest.raises(InconclusivePrecisionError):
        isotropic([Fraction(1), Fraction(-1)], 2, 2)


def test_input_validation():
    with pytest.raises(ValueError):
        isotropic([], 3)
    with pytest.raises(ValueError):
        isotropic([Fraction(0), Fraction(1)], 3)
    with pytest.raises(ValueError):
        isotropic([Fraction(1)], 6)
    with pytest.raises(ValueError):
        isotropic([Fraction(1), Fraction(1)], 3, 11)  # 3^11 past the search cap


def test_cap_is_checked_before_primality():
    # a 3001-digit composite with no prime factor up to 41: Miller-Rabin takes
    # seconds to prove it composite, the cap refuses it at once, and a huge
    # precision is refused without computing p^k
    p = 43**1837
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the search cap"):
        represents_one([1], p)
    with pytest.raises(ValueError, match="exceeds the search cap"):
        represents_one([1], p, 10**12)
    with pytest.raises(ValueError, match="exceeds the search cap"):
        represents_one([1], 3, 10**12)
    assert time.perf_counter() - start < 0.1
    for not_prime in (-5, 0, 1):
        with pytest.raises(ValueError, match="is not a prime"):
            represents_one([1], not_prime, 10**12)


def test_verdicts_match_naive_enumeration():
    # exhaustive residue enumeration agrees with the table-driven search,
    # including on where exactly the precision becomes conclusive
    cases = [
        ([2, 5], 5, 1),
        ([2, 5], 5, 2),
        ([1, 1], 3, 1),
        ([3, 3], 3, 1),
        ([3, 3], 3, 2),
        ([1, -7], 3, 1),
        ([-1, -1, -1], 3, 2),
        ([2, 2, -1], 2, 3),
        ([2, 2, -1], 2, 5),
        ([1, 1, 1, 1], 2, 4),
        ([1, 1, 7], 2, 3),
        ([Fraction(1, 2), 3], 3, 2),
        ([Fraction(3, 4), Fraction(-5, 9)], 5, 2),
    ]
    for coeffs, p, k in cases:
        cs = [Fraction(c) for c in coeffs]
        assert run_or_inconclusive(cs, p, k) == naive_verdict(cs, p, k), (coeffs, p, k)


@given(
    st.lists(coeff, min_size=1, max_size=3),
    st.sampled_from((3, 5)),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_random_verdicts_match_naive_enumeration(coeffs, p, k):
    assert run_or_inconclusive(coeffs, p, k) == naive_verdict(coeffs, p, k)


@given(st.lists(coeff, min_size=1, max_size=5), st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=80, deadline=None)
def test_default_precision_always_concludes(coeffs, p):
    verdict = isotropic(coeffs, p)  # must not raise
    assert verdict in (True, False)


@given(st.lists(coeff, min_size=1, max_size=4), st.sampled_from((2, 3, 5)))
@settings(max_examples=40, deadline=None)
def test_verdict_stable_under_extra_precision(coeffs, p):
    assert isotropic(coeffs, p) == isotropic(coeffs, p, default_precision(p) + 2)


@given(st.lists(coeff, min_size=1, max_size=4), st.sampled_from((2, 3, 5, 7)), coeff)
@settings(max_examples=80, deadline=None)
def test_invariance_under_square_scaling(coeffs, p, scale):
    scaled = [c * scale * scale for c in coeffs]
    assert isotropic(coeffs, p) == isotropic(scaled, p)


@given(st.lists(coeff, min_size=2, max_size=4), st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=60, deadline=None)
def test_isotropic_forms_represent_one(coeffs, p):
    # an isotropic diagonal form is universal, so it represents 1;
    # conversely a form with a -1 slot appended is isotropic when it does
    if isotropic(coeffs, p):
        assert represents_one(coeffs, p)


@given(st.lists(coeff, min_size=1, max_size=4), st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(coeffs, p):
    assert isotropic(coeffs, p) == isotropic(list(reversed(coeffs)), p)


# every precision from 1 to one past the default with p^k <= 7^4. The residue
# table costs about p^(2k) per coefficient, so 11^4 and 13^4, the other such
# moduli under the search cap, come as the fixed examples below
_DRAWN = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13)
    for k in range(1, default_precision(p) + 2)
    if p**k <= 7**4
]


def outcome(search, coeffs, p, k):
    try:
        return search(coeffs, p, k)
    except Exception as exc:
        return type(exc)


@given(
    st.sampled_from(_DRAWN),
    st.lists(st.tuples(coeff, st.integers(0, 2)), min_size=1, max_size=5),
)
@example((11, 4), [(Fraction(3), 1), (Fraction(-5), 0)])
@example((11, 4), [(Fraction(2, 7), 0)])
@example((13, 4), [(Fraction(-1), 0), (Fraction(7, 4), 0)])
@example((13, 4), [(Fraction(5), 1)])
@settings(max_examples=150, deadline=None)
def test_orbit_tables_match_residue_tables(precision, terms):
    # the per-orbit search against the per-residue one, refusals included
    p, k = precision
    coeffs = [c * p**e for c, e in terms]
    assert outcome(isotropic, coeffs, p, k) == outcome(residue_table_isotropic, coeffs, p, k)


def test_refusals_leave_the_cache_empty():
    # every refusal comes before the orbit tables are built
    _orbit_tables.cache_clear()
    refusals = [
        ([], 3, None, ValueError),
        ([1, 0], 3, None, ValueError),
        ([1], 3.0, None, ValueError),
        ([1], 6, None, ValueError),
        ([1, -1], 2, 2, InconclusivePrecisionError),
        ([1, 1], 3, 11, ValueError),
    ]
    for coeffs, p, k, error in refusals:
        with pytest.raises(error):
            isotropic(coeffs, p, k)
    assert _orbit_tables.cache_info().currsize == 0


@given(
    st.sampled_from(_DRAWN),
    st.lists(st.tuples(coeff, st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.sampled_from(_DRAWN), max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_cold_and_warm_cache_agree(precision, terms, others):
    # the same verdict or refusal from freshly built tables, from tables built
    # after other (p, k) filled the cache, and from the cached entry itself
    p, k = precision
    coeffs = [c * p**e for c, e in terms]
    _orbit_tables.cache_clear()
    cold = outcome(isotropic, coeffs, p, k)
    _orbit_tables.cache_clear()
    for other in others:
        outcome(isotropic, [1], *other)
    assert outcome(isotropic, coeffs, p, k) == cold
    assert outcome(isotropic, coeffs, p, k) == cold


_PACKAGE = Path(hassewitt.__file__).parent
# the closed-form route, none of which the residue oracle may import
_CLOSED_FORM = {"cohomology", "forms", "hasse_witt", "solvability"}


@pytest.mark.parametrize("module", sorted(path.stem for path in _PACKAGE.glob("*.py")))
def test_closed_form_route_never_imports_the_oracle(module):
    # the closed-form route and the residue oracle check each other only while
    # neither is built from the other: no module but the package's front door
    # imports the oracle, and the oracle imports nothing of the closed form
    names = set()
    for node in ast.walk(ast.parse((_PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split(".") + [a.name for a in node.names])
    if module == "localsolve":
        assert not names & _CLOSED_FORM, f"the residue oracle imports {names & _CLOSED_FORM}"
    elif module == "__init__":
        assert "represents_one" in hassewitt.__all__
    else:
        assert "localsolve" not in names, f"{module} imports the residue oracle"
