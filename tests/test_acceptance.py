"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
its runtime, and enforces the stated time bound. Frozen families and seeds
keep every run identical.
"""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from hassewitt.cohomology import (
    RATIONALS,
    REALS,
    BaseField,
    hilbert_symbol,
    is_zero,
    reciprocity_holds,
    zero_class,
)
from hassewitt.forms import DiagonalForm, SymmetricForm, diagonalize
from hassewitt.gerbe import (
    ALL_MORPHISMS,
    ALL_OBJECTS,
    BASE_OBJECT,
    CHI_A,
    CHI_B,
    GroupoidMorphism,
    GroupoidObject,
    all_path_families,
    cohomologous,
    compose,
    cup_character_cocycle,
    h2_census,
    loop_class,
    obstruction_cocycle,
    zero_cocycle,
)
from hassewitt.hasse_witt import hasse_witt_vector, top_obstruction
from hassewitt.localsolve import represents_one
from hassewitt.rationals import REAL_PLACE, Place
from hassewitt.solvability import (
    _solvable_at,
    relevant_places,
    search_point,
    solvable_over_Q,
)
from oracles import whitney_sum_check

SQUAREFREE_PARTS = [s * m for m in (1, 2, 3, 5, 6, 7, 10) for s in (1, -1)]
PLACES = [REAL_PLACE] + [Place.finite(p) for p in (2, 3, 5, 7)]

FAMILY_SYMBOLS = (1, -1, 2, -2, 3, -3, 5, -5)
SEARCH_HEIGHT = 100
# sha256 of the family's (entries, point) pairs at SEARCH_HEIGHT and of its
# certificate documents at search height 1, as JSON: a change to any witness,
# verdict, failing place or checked place shows here
FAMILY_POINTS_SHA256 = "6a784f1eacceaa8c0ab0ac251338c8e2b11a0fa08474afc667e92e0bd14008c0"
FAMILY_CERTIFICATES_SHA256 = "d22fe4832d00ce70ed7ac18bcf5c78da586a01a8649c1ebe6c35c96e1e47d606"


def criterion_family():
    """Every diagonal form with entries in +-{1,2,3,5} and rank 1 to 4."""
    for rank in (1, 2, 3, 4):
        for entries in itertools.product(FAMILY_SYMBOLS, repeat=rank):
            yield DiagonalForm.of(*entries)


@lru_cache(maxsize=None)
def _search_hits() -> dict:
    """Form entries -> the point found at the standard height, or None.

    Computed once; the tests for the main theorem and for Hasse-Minkowski
    consistency quantify over the same 4680 searches.
    """
    return {form.entries: search_point(form, SEARCH_HEIGHT) for form in criterion_family()}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _report(capsys, number, label, ok, elapsed, detail=""):
    tail = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(
            f"\nacceptance {number} ({label}): "
            f"{'PASS' if ok else 'FAIL'} in {elapsed:.2f}s{tail}"
        )


def test_criterion_1_hilbert_symbol_suite(capsys):
    start = time.perf_counter()
    violations = []
    for a in SQUAREFREE_PARTS:
        for b in SQUAREFREE_PARTS:
            for v in PLACES:
                if hilbert_symbol(a, b, v) != hilbert_symbol(b, a, v):
                    violations.append(("symmetry", a, b, v))
                # the symbol only sees square classes
                if hilbert_symbol(4 * a, b, v) != hilbert_symbol(a, b, v):
                    violations.append(("class invariance", a, b, v))
            if not reciprocity_holds(a, b):
                violations.append(("reciprocity", a, b))
    for a in SQUAREFREE_PARTS:
        for b in SQUAREFREE_PARTS:
            for c in SQUAREFREE_PARTS:
                for v in PLACES:
                    if hilbert_symbol(a * b, c, v) != hilbert_symbol(
                        a, c, v
                    ) * hilbert_symbol(b, c, v):
                        violations.append(("bimultiplicativity", a, b, c, v))
    for a in SQUAREFREE_PARTS:
        for v in PLACES:
            if hilbert_symbol(a, -a, v) != 1:
                violations.append(("(a,-a)", a, v))
            if a != 1 and hilbert_symbol(a, 1 - a, v) != 1:
                violations.append(("steinberg", a, v))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0
    _report(capsys, 1, "hilbert symbol suite", ok, elapsed, "28 classes, 5 places")
    assert not violations, violations[:10]
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    disagreements = []
    for a in SQUAREFREE_PARTS:
        for b in SQUAREFREE_PARTS:
            for p in (2, 3, 5, 7):
                closed = hilbert_symbol(a, b, Place.finite(p)) == 1
                brute = represents_one((Fraction(a), Fraction(b)), p)
                if closed != brute:
                    disagreements.append((a, b, p))
    elapsed = time.perf_counter() - start
    ok = not disagreements
    _report(capsys, 2, "symbol vs residue oracle", ok, elapsed, "784 verdicts")
    assert not disagreements, disagreements[:10]


def test_criterion_3_diagonalization(capsys):
    rng = random.Random(20260822)

    def random_symmetric():
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(
                    rng.randint(-10, 10), rng.randint(1, 10)
                )
        return rows

    def det(rows):
        m = [list(r) for r in rows]
        n = len(m)
        out = Fraction(1)
        for c in range(n):
            pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                out = -out
            out *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
        return out

    start = time.perf_counter()
    violations = []
    for case in range(200):
        rows = random_symmetric()
        d_b = det(rows)
        while d_b == 0:
            rows = random_symmetric()
            d_b = det(rows)
        b = SymmetricForm.from_rows(rows)
        a, d = diagonalize(b)
        n = b.size
        for i in range(n):
            for j in range(n):
                got = sum(
                    a[i][k] * b.gram[k][l] * a[j][l]
                    for k in range(n)
                    for l in range(n)
                )
                if got != (d.entries[i] if i == j else 0):
                    violations.append(("product", case, i, j))
        prod = Fraction(1)
        for e in d.entries:
            prod *= e
        ratio = prod / d_b
        num_ok = ratio > 0 and math.isqrt(ratio.numerator) ** 2 == ratio.numerator
        den_ok = math.isqrt(ratio.denominator) ** 2 == ratio.denominator
        if not (num_ok and den_ok):
            violations.append(("discriminant class", case))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 5.0
    _report(capsys, 3, "congruence diagonalization", ok, elapsed, "200 matrices")
    assert not violations, violations[:10]
    assert elapsed < 5.0


def test_criterion_4_witness_forces_zero_obstruction(capsys):
    start = time.perf_counter()
    hits = _search_hits()
    violations = []
    witnessed = 0
    for form in criterion_family():
        if hits[form.entries] is None:
            continue
        witnessed += 1
        if not is_zero(top_obstruction(form, RATIONALS)):
            violations.append(form.entries)
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    _report(
        capsys,
        4,
        "witness implies zero obstruction",
        ok,
        elapsed,
        f"{witnessed} witnessed of 4680 forms",
    )
    assert not violations, violations[:10]
    assert elapsed < 300.0
    # every (entries, point) pair, pinned: a refactor keeps each witness
    points = [
        [[str(a) for a in entries], None if point is None else [str(x) for x in point]]
        for entries, point in hits.items()
    ]
    assert _digest(points) == FAMILY_POINTS_SHA256


def test_criterion_5_dimension_zero(capsys):
    start = time.perf_counter()
    violations = []
    solvable_seen = set()
    for a in (1, 2, 4, 9, -1, -4, 18):
        zero = is_zero(top_obstruction(DiagonalForm.of(a), RATIONALS))
        solvable = solvable_over_Q(DiagonalForm.of(a)).verdict
        if zero != solvable:
            violations.append(a)
        if solvable:
            solvable_seen.add(a)
    elapsed = time.perf_counter() - start
    ok = not violations and solvable_seen == {1, 4, 9}
    _report(capsys, 5, "single coefficient case", ok, elapsed, "7 scalars")
    assert not violations, violations
    assert solvable_seen == {1, 4, 9}


def test_criterion_6_hasse_minkowski_consistency(capsys):
    start = time.perf_counter()
    hits = _search_hits()
    violations = []
    solvable_count = 0
    docs = []
    for form in criterion_family():
        # the verdict is height-independent; the tiny height just skips
        # re-running the witness search already done at the standard height
        cert = solvable_over_Q(form, search_height=1)
        docs.append(cert.to_json())
        verdict = cert.verdict
        solvable_count += verdict
        # both stated directions (search success implies a true verdict, a
        # false verdict implies the search fails) are this one implication
        if hits[form.entries] is not None and not verdict:
            violations.append(form.entries)
    elapsed = time.perf_counter() - start
    ok = not violations
    _report(
        capsys,
        6,
        "local-global consistency",
        ok,
        elapsed,
        f"{solvable_count} of 4680 solvable",
    )
    assert not violations, violations[:10]
    assert _digest(docs) == FAMILY_CERTIFICATES_SHA256


def test_criterion_7_whitney_identity(capsys):
    rng = random.Random(7)
    forms = list(criterion_family())
    start = time.perf_counter()
    failures = []
    for _ in range(100):
        d1 = rng.choice(forms)
        d2 = rng.choice(forms)
        if not whitney_sum_check(d1, d2, RATIONALS):
            failures.append((d1.entries, d2.entries))
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(capsys, 7, "whitney sum formula", ok, elapsed, "100 random pairs")
    assert not failures, failures[:10]


def test_criterion_8_stabilization(capsys):
    # HW_i(form + <1>^(n - m)) for a rank-m form is HW_i(form) when i <= m
    # and zero when i > m, as Stiefel-Whitney classes are stable under adding
    # a trivial bundle
    entries = tuple(Fraction(a) for a in (-1, -2, 3, -5, -6, 7))
    fields = (REALS, BaseField.padics(2), BaseField.padics(3), RATIONALS)
    start = time.perf_counter()
    violations = []
    for field in fields:
        for n in range(1, 7):
            for m in range(1, n + 1):
                form = DiagonalForm(entries[:m])
                base = hasse_witt_vector(form, field)
                stable = hasse_witt_vector(
                    DiagonalForm(form.entries + (Fraction(1),) * (n - m)), field
                )
                for i in range(1, n + 1):
                    expected = base[i] if i <= m else zero_class(field, i)
                    if stable[i] != expected:
                        violations.append((str(field), i, n, m))
    elapsed = time.perf_counter() - start
    ok = not violations
    _report(capsys, 8, "stabilization", ok, elapsed, "91 triples over R, Q_2, Q_3, Q")
    assert not violations, violations


def test_local_solvability_forces_zero_local_obstruction():
    # the paper's claim at each completion Q_v: a local point makes o_{n+1}
    # vanish over Q_v. The converse holds at inf, and at every place for rank
    # at most 2, where o_{n+1} is [a] or the symbol (a, b)_v
    violations = []
    for form in criterion_family():
        for v in relevant_places(form):
            field = REALS if v.is_real else BaseField.padics(v.p)
            zero = is_zero(top_obstruction(form, field))
            solvable = _solvable_at(form, v)
            if solvable and not zero:
                violations.append((form.entries, str(v), "point but o != 0"))
            if (v.is_real or form.rank <= 2) and zero and not solvable:
                violations.append((form.entries, str(v), "o = 0 but no point"))
    assert not violations, violations[:10]


def test_criterion_9_finite_descent_example(capsys):
    start = time.perf_counter()
    checks = {}

    checks["counts"] = len(ALL_OBJECTS) == 4 and len(ALL_MORPHISMS) == 32

    f1 = GroupoidMorphism(BASE_OBJECT, GroupoidObject(3), 1, 1)  # i z
    f2 = GroupoidMorphism(GroupoidObject(3), GroupoidObject(1), 0, -1)
    f3 = GroupoidMorphism(GroupoidObject(1), BASE_OBJECT, 1, -1)  # i z^-1
    out = compose(f3, compose(f2, f1))
    checks["composite"] = (out.c4, out.e) == (2, 1) and loop_class(out) == 1

    families = all_path_families()
    cocycles = [obstruction_cocycle(f) for f in families]
    cup = cup_character_cocycle(CHI_A, CHI_B)
    checks["eight families"] = len(families) == 8
    checks["path independence"] = all(
        cohomologous(c1, c2) for c1, c2 in itertools.combinations(cocycles, 2)
    )
    checks["class is the cup"] = all(cohomologous(c, cup) for c in cocycles)
    checks["nonzero"] = not cohomologous(cocycles[0], zero_cocycle())
    checks["census"] = h2_census() == 8

    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 1.0
    failed = [k for k, v in checks.items() if not v]
    _report(capsys, 9, "descent cocycle example", ok, elapsed, "8 path families")
    assert not failed, failed
    assert elapsed < 1.0
