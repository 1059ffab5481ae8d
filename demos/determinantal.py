"""Generic determinantal rings: free class group, torsion number n - m.

The ring cut out by the maximal minors of a generic m x n matrix (m <= n)
has class group Z, generated by the class of the prime of the first rows,
and the canonical class is (n - m) times that generator.  Its torsion
number is therefore n - m: 0 on the square (Gorenstein) diagonal and 1
just off it.
"""

from divclass import GroupStructure, determinantal_invariants

print("d(m, n) = n - m for generic determinantal rings\n")
print("m\\n " + "".join(f"{n:>3}" for n in range(1, 11)))
for m in range(1, 11):
    cells = []
    for n in range(1, 11):
        if n < m:
            cells.append("  .")
        else:
            inv = determinantal_invariants(m, n)
            assert inv.group == GroupStructure(1, ()) and inv.torsion_number == n - m
            cells.append(f"{inv.torsion_number:>3}")
    print(f"{m:>3} " + "".join(cells))

print("\nThe first off-diagonal (n = m + 1) always has torsion number 1.")
