"""
A 2-cocycle from a finite groupoid
==================================

The smallest nontrivial case of the degree-2 obstruction can be played
out by hand: a groupoid with four objects indexed by two signs, a
Klein four group permuting them, and connecting paths whose failure to
compose is measured by a 2-cocycle. The class that comes out is the cup
product of the two sign characters, whichever paths are chosen.
"""

from hassewitt.gerbe import (
    ALL_MORPHISMS,
    ALL_OBJECTS,
    CHI_A,
    CHI_B,
    GALOIS_GROUP,
    all_path_families,
    cohomologous,
    cup_character_cocycle,
    default_path_family,
    h2_census,
    obstruction_cocycle,
    zero_cocycle,
)

print(f"groupoid: {len(ALL_OBJECTS)} objects, {len(ALL_MORPHISMS)} morphisms")
for obj in ALL_OBJECTS:
    loops = ", ".join(str(f).split(": ")[1] for f in ALL_MORPHISMS if f.src == f.dst == obj)
    print(f"  loops at {obj}: {loops}")

# the distinguished family of connecting paths and its cocycle
family = default_path_family()
print("\nconnecting paths:")
for sigma, path in zip(GALOIS_GROUP, family):
    print(f"  {sigma}: {path}")

cocycle = obstruction_cocycle(family)
print("\ncocycle table c(sigma, tau):")
header = " ".join(f"{str(t):>9}" for t in GALOIS_GROUP)
print(f"{'':>9} {header}")
for s in GALOIS_GROUP:
    row = " ".join(f"{cocycle(s, t):>9}" for t in GALOIS_GROUP)
    print(f"{str(s):>9} {row}")

# the table is literally chi_a(sigma) * chi_b(tau)
assert cocycle == cup_character_cocycle(CHI_A, CHI_B)
print("\nthe cocycle is the cup product of the two sign characters, on the nose")

# different path choices move the cocycle by a coboundary, never the class
families = all_path_families()
cocycles = [obstruction_cocycle(f) for f in families]
distinct = len({c for c in cocycles})
print(f"{len(families)} path families give {distinct} distinct cocycles, one class")
assert all(cohomologous(c, cocycle) for c in cocycles)
assert not cohomologous(cocycle, zero_cocycle())
print("the class is nonzero: no choice of paths composes cleanly")

# and the ambient group it lives in
print(f"h2 census: {h2_census()} classes for the Klein four group with bit values")
