"""
Hilbert symbols, place by place
===============================

The symbol (a, b)_v answers one question: does a x^2 + b y^2 = 1 have a
solution in the completion of Q at v? This script walks the classical
examples and then checks the product formula on a grid.
"""

from fractions import Fraction

from hassewitt import Place, REAL_PLACE, hilbert_symbol, reciprocity_holds
from hassewitt.cohomology import TWO_ADIC_REPS

# the real place only cares about signs: fail iff both are negative
print("(-1, -1) at inf:", hilbert_symbol(-1, -1, REAL_PLACE))
print("(-1,  2) at inf:", hilbert_symbol(-1, 2, REAL_PLACE))

# at an odd prime everything is tame; 2 is a nonresidue mod 5
print("( 2,  5) at 5:  ", hilbert_symbol(2, 5, Place.finite(5)))
print("( 3,  3) at 3:  ", hilbert_symbol(3, 3, Place.finite(3)))

# the symbol only sees square classes, so denominators are free
print("(1/2, 3/4) at 2:", hilbert_symbol(Fraction(1, 2), Fraction(3, 4), Place.finite(2)))
print("( 2,   3)  at 2:", hilbert_symbol(2, 3, Place.finite(2)))

# the full table at 2 over the eight square classes; the package stores no
# table, each entry comes from Serre's dyadic formula in the valuations and
# the units mod 8, and the tests check all 64 against the residue oracle
print("\nsymbols at 2 over the square classes", TWO_ADIC_REPS)
for a in TWO_ADIC_REPS:
    row = " ".join(f"{hilbert_symbol(a, b, Place.finite(2)):+d}" for b in TWO_ADIC_REPS)
    print(f"{a:+4d}  {row}")

# product formula: over all places at once the symbols multiply to +1,
# so any single local failure forces a second one somewhere else
grid = [-10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10]
checked = 0
for a in grid:
    for b in grid:
        assert reciprocity_holds(a, b)
        checked += 1
print(f"\nreciprocity holds on all {checked} pairs from {grid}")

# one pair spelled out: (-1, -3) fails exactly at inf and at 3
a, b = -1, -3
failures = [
    v
    for v in [REAL_PLACE] + [Place.finite(p) for p in (2, 3, 5, 7, 11)]
    if hilbert_symbol(a, b, v) == -1
]
print(f"(-1, -3) fails at: {[str(v) for v in failures]} (an even number of places)")
