"""Seeded randomized sweep: the library's theorems as executable properties.

Every distinct poset structure among the samples is run through the full
pipeline once and checked for: internal consistency of the report (both
torsion routes agree), the rank formula, fundamental-cycle coefficients in
{-1, 0, 1}, torsion number zero exactly on pure posets, and the chain-gap
divisibility bound.  Each sample records its structure's outcomes.  A
failure on any poset would be a bug, never a property of the poset.
"""

import json

from divclass import run_sweep

summary = run_sweep(count=200, max_n=7, seed=42)

print(f"seed {summary.seed}, {summary.count} posets, at most {summary.max_n} elements each\n")
for check, attempts in summary.attempts.items():
    passed = summary.passes.get(check, 0)
    print(f"  {check:<22} {passed}/{attempts}")

print("\nall passed:", summary.all_passed)
if not summary.all_passed:
    print(json.dumps(summary.failures, indent=2))
