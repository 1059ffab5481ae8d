"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 share a single seeded sweep of random posets (the fixture);
all tolerances are exact, and each criterion also pins its stated runtime
budget.
"""

import math
import random
import time

import pytest

from divclass import (
    AbelianPresentation,
    BoundedPoset,
    ClassElement,
    IntMatrix,
    choose_tree,
    cone_report,
    determinantal_invariants,
    fitting_number,
    joinmeet_report,
    maximal_chains,
    relation_matrix,
    segre_veronese_cone,
    smith_normal_form,
    torsion_number,
    two_chains_poset,
    veronese_cone,
    verify_column_relations,
)
from divclass.semigroup import GroupStructure
from divclass.sweep import random_poset

from oracles import brute_minor_gcd, det_cofactor

SWEEP_SEED = 20260809
SWEEP_COUNT = 220
SWEEP_MAX_N = 7


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_two_chains_torsion():
    t0 = time.perf_counter()
    mismatches = []
    for a in range(9):
        for b in range(9):
            rep = joinmeet_report(two_chains_poset(a, b))
            if rep.torsion_number != abs(a - b) or rep.pure != (a == b):
                mismatches.append((a, b, rep.torsion_number, rep.pure))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report_line(1, "two-chains family: d = |a - b|, pure iff a = b", ok)
    assert not mismatches, mismatches
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_veronese_family():
    # Criterion, over the whole grid 1 <= r, n <= 12: torsion 0 and
    # Gorenstein when n = 1 or r | n, gcd(r, n) otherwise.  The closed form
    # "Cl = Z/r with canonical class n times the generator" needs n >= 2.
    # For n = 1 the r-th Veronese of k[x] is k[x^r], itself a polynomial
    # ring in one variable (its single facet form normalizes to (1)); a
    # polynomial ring is a UFD, so its class group is 0, it is Gorenstein
    # and its torsion number is 0 for every r.
    t0 = time.perf_counter()
    mismatches = []
    for r in range(1, 13):
        for n in range(1, 13):
            rep = cone_report(veronese_cone(n, r))
            if n == 1 or n % r == 0:
                ok = rep.torsion_number == 0 and rep.gorenstein
            else:
                ok = rep.torsion_number == math.gcd(r, n)
            if not ok:
                mismatches.append((r, n, rep.torsion_number, rep.gorenstein))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report_line(2, "veronese family: d = 0 if n = 1 or r | n, else gcd(r, n)", ok)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert not mismatches, (
        "cells (r, n, d, gorenstein) disagreeing with the stated closed form: "
        f"{mismatches}"
    )


def test_criterion_3_segre_example_and_sweep():
    t0 = time.perf_counter()
    rep = cone_report(segre_veronese_cone(4, 2, 9, 3))
    headline = (
        rep.group == GroupStructure(1, ()) and rep.torsion_number == 6
    )
    mismatches = []
    for m in range(2, 7):
        for n in range(2, 7):
            for p in range(1, 5):
                for q in range(1, 5):
                    r = cone_report(segre_veronese_cone(m, p, n, q))
                    g = math.gcd(p, q)
                    expected_group = GroupStructure(1, (g,) if g > 1 else ())
                    is_multiple = m % p == 0 and n % q == 0 and m // p == n // q
                    if r.group != expected_group or r.gorenstein != is_multiple:
                        mismatches.append((m, p, n, q, str(r.group), r.gorenstein))
    elapsed = time.perf_counter() - t0
    ok = headline and not mismatches and elapsed < 2.0
    report_line(3, "segre family: Z + Z/gcd(p,q); d(4,2,9,3) = 6", ok)
    assert headline, (rep.group, rep.torsion_number)
    assert not mismatches, mismatches
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_4_determinantal_closed_form():
    t0 = time.perf_counter()
    mismatches = []
    for m in range(1, 11):
        for n in range(m, 11):
            inv = determinantal_invariants(m, n)
            if inv.group != GroupStructure(1, ()) or inv.torsion_number != n - m:
                mismatches.append((m, n, inv))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 0.1
    report_line(4, "determinantal rings: d = n - m", ok)
    assert not mismatches, mismatches
    assert elapsed < 0.1, f"took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def poset_sweep():
    rng = random.Random(SWEEP_SEED)
    records = []
    t0 = time.perf_counter()
    for index in range(SWEEP_COUNT):
        poset = random_poset(rng, SWEEP_MAX_N)
        extension = BoundedPoset(poset)
        matrix = relation_matrix(extension)
        snf = smith_normal_form(matrix)
        tree = choose_tree(extension)
        column_relations_ok = verify_column_relations(tree)
        d_tree = math.gcd(*(abs(c) for c in tree.canonical_coords))
        presentation = AbelianPresentation(matrix)
        d_matrix = torsion_number(presentation, ClassElement((1,) * matrix.rows))
        report = joinmeet_report(poset)
        chains = maximal_chains(poset)
        records.append(
            {
                "poset": poset,
                "edges": len(extension.edges),
                "snf_factors": snf.invariant_factors,
                "cokernel_rank": matrix.rows - snf.rank,
                "column_relations_ok": column_relations_ok,
                "d_tree": d_tree,
                "d_matrix": d_matrix,
                "report": report,
                "chains": chains,
            }
        )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_5_gorenstein_iff_pure(poset_sweep):
    records, elapsed = poset_sweep
    assert len(records) >= 200
    violations = [
        r["poset"]
        for r in records
        if (r["report"].torsion_number == 0) != r["report"].pure
    ]
    ok = not violations and elapsed < 20.0
    report_line(5, f"d = 0 iff pure over {len(records)} random posets", ok)
    assert not violations, f"{len(violations)} violating posets, first: {violations[:1]}"
    assert elapsed < 20.0, f"sweep took {elapsed:.2f}s"


def test_criterion_6_cross_method_equivalence(poset_sweep):
    records, _ = poset_sweep
    torsion_mismatch = [r["poset"] for r in records if r["d_tree"] != r["d_matrix"]]
    relation_failures = [r["poset"] for r in records if not r["column_relations_ok"]]
    ok = not torsion_mismatch and not relation_failures
    report_line(6, "tree-basis d equals Fitting-ideal d; column relations verify", ok)
    assert not torsion_mismatch
    assert not relation_failures


def test_criterion_7_rank_formula(poset_sweep):
    records, _ = poset_sweep
    bad = [
        r["poset"]
        for r in records
        if any(f != 1 for f in r["snf_factors"])
        or r["cokernel_rank"] != r["edges"] - (r["poset"].n + 1)
    ]
    ok = not bad
    report_line(7, "class group free of rank |E| - (n + 1)", ok)
    assert not bad


def test_criterion_8_chain_divisibility(poset_sweep):
    records, _ = poset_sweep
    violations = []
    pairs_seen = 0
    for r in records:
        d = r["report"].torsion_number
        chains = r["chains"]
        for a in range(len(chains)):
            first = set(chains[a])
            for b in range(a + 1, len(chains)):
                if not first.isdisjoint(chains[b]):
                    continue
                pairs_seen += 1
                gap = abs(len(chains[a]) - len(chains[b]))
                divides = (gap == 0) if d == 0 else (gap % d == 0)
                if not divides:
                    violations.append((r["poset"], d, gap))
    ok = not violations
    report_line(8, f"d divides |a - b| over {pairs_seen} disjoint chain pairs", ok)
    assert pairs_seen > 0
    assert not violations, violations[:1]


def test_criterion_9_snf_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    while checked < 500:
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows, cols=n)
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D
        assert abs(det_cofactor(snf.U.to_lists())) == 1
        assert abs(det_cofactor(snf.V.to_lists())) == 1
        for x, y in zip(snf.invariant_factors, snf.invariant_factors[1:]):
            assert y % x == 0
        p = AbelianPresentation(A)
        for k in range(min(m, n) + 1):
            assert fitting_number(p, m - k) == brute_minor_gcd(rows, k)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report_line(9, f"SNF property suite over {checked} random matrices", ok)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
