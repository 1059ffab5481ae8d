import math
import random
import sys

import pytest

from divclass import (
    AbelianPresentation,
    ClassElement,
    ConeDescription,
    GroupStructure,
    InputError,
    IntMatrix,
    bound,
    cone_report,
    determinantal_invariants,
    fitting_number,
    is_zero_class,
    joinmeet_report,
    minor_gcd,
    normalize_form,
    rank,
    segre_veronese_cone,
    solve_integer,
    structure,
    support_forms,
    torsion_number,
    two_chains_poset,
    veronese_cone,
)
from divclass import exact_linalg
from divclass.abelian import free_coordinates
from divclass.semigroup import canonical_coordinate_gcd
from divclass.sweep import random_poset


def test_normalize_form_examples():
    assert normalize_form((2, 4, -6)) == (1, 2, -3)
    assert normalize_form((-1, 0), interior=(1, 1)) == (1, 0)
    with pytest.raises(InputError):
        normalize_form((1, -1), interior=(1, 1))
    with pytest.raises(InputError):
        normalize_form((0, 0))


def test_cone_description_validation():
    with pytest.raises(InputError):
        ConeDescription(2, [(2, 4)])  # not primitive
    with pytest.raises(InputError):
        ConeDescription(2, [(0, 0)])
    with pytest.raises(InputError):
        ConeDescription(2, [(1, 0), (0, 1)], interior_point=(1, -1))
    with pytest.raises(InputError):
        ConeDescription(2, [(1, 0, 0)])
    cone = ConeDescription(2, [(1, 0), (-1, 2)], interior_point=(1, 1))
    assert cone.forms == ((1, 0), (-1, 2))


def test_repeated_form_rejected():
    # A doubled form would count its prime class twice and report
    # Z + Z/2 with d = 1 for a ring whose class group is Z/2.
    cone = veronese_cone(3, 2)
    assert cone_report(cone).group == GroupStructure(0, (2,))
    with pytest.raises(InputError, match="more than once"):
        ConeDescription(cone.dim, cone.forms + cone.forms[-1:], cone.interior_point)


def test_veronese_builder():
    assert veronese_cone(2, 2).forms == ((1, 0), (-1, 2))
    assert veronese_cone(1, 5).forms == ((1,),)
    with pytest.raises(InputError):
        veronese_cone(0, 3)
    with pytest.raises(InputError):
        veronese_cone(3, 0)


def test_veronese_reports():
    rep = cone_report(veronese_cone(4, 6))
    assert rep.group == GroupStructure(0, (6,))
    assert rep.torsion_number == 2
    assert not rep.gorenstein
    assert rep.pure is None

    rep = cone_report(veronese_cone(4, 2))
    assert rep.gorenstein and rep.torsion_number == 0

    rep = cone_report(veronese_cone(3, 3))
    assert rep.gorenstein


def test_veronese_sweep_torsion_values():
    # For n >= 2 the class group is Z/r with canonical class n times the
    # generator, so d = 0 when r | n and gcd(r, n) otherwise.  For n = 1 the
    # ring is a polynomial ring in one variable for every r (the single
    # support form normalizes to (1)): class group trivial, d = 0.
    for r in range(1, 13):
        for n in range(1, 13):
            rep = cone_report(veronese_cone(n, r))
            if n == 1:
                assert rep.torsion_number == 0
                assert rep.gorenstein
            elif n % r == 0:
                assert rep.torsion_number == 0
                assert rep.gorenstein
            else:
                assert rep.torsion_number == math.gcd(r, n)
                assert not rep.gorenstein


def test_segre_builder():
    cone = segre_veronese_cone(2, 2, 2, 2)
    assert cone.forms == ((1, 0, 0), (0, 1, 0), (-1, 0, 2), (0, -1, 2))
    with pytest.raises(InputError):
        segre_veronese_cone(1, 2, 3, 1)
    with pytest.raises(InputError):
        segre_veronese_cone(2, 0, 2, 1)


def test_segre_2222_is_gorenstein():
    rep = cone_report(segre_veronese_cone(2, 2, 2, 2))
    assert rep.group == GroupStructure(1, (2,))
    assert rep.gorenstein and rep.torsion_number == 0


def test_segre_4293():
    rep = cone_report(segre_veronese_cone(4, 2, 9, 3))
    assert rep.group == GroupStructure(1, ())
    assert rep.torsion_number == 6
    assert canonical_coordinate_gcd(rep) == 6


def test_segre_structure_and_gorenstein_sweep():
    for m in range(2, 7):
        for n in range(2, 7):
            for p in range(1, 5):
                for q in range(1, 5):
                    rep = cone_report(segre_veronese_cone(m, p, n, q))
                    g = math.gcd(p, q)
                    expected = GroupStructure(1, (g,) if g > 1 else ())
                    assert rep.group == expected
                    multiple = m % p == 0 and n % q == 0 and m // p == n // q
                    assert rep.gorenstein == multiple


def test_segre_coprime_is_free_rank_one():
    for m, p, n, q in [(3, 2, 4, 3), (2, 1, 5, 4), (6, 3, 5, 2)]:
        assert math.gcd(p, q) == 1
        rep = cone_report(segre_veronese_cone(m, p, n, q))
        assert rep.group == GroupStructure(1, ())
        assert rep.canonical_in_basis is not None


def test_free_basis_coordinate_gcd_matches_torsion_number():
    cases = [segre_veronese_cone(4, 2, 9, 3), segre_veronese_cone(3, 2, 5, 3)]
    cases += [veronese_cone(1, r) for r in (1, 4)]
    for cone in cases:
        rep = cone_report(cone)
        if rep.canonical_in_basis is not None:
            assert canonical_coordinate_gcd(rep) == rep.torsion_number


def test_determinantal_invariants():
    assert determinantal_invariants(3, 3).torsion_number == 0
    assert determinantal_invariants(3, 4).torsion_number == 1
    assert determinantal_invariants(2, 5).torsion_number == 3
    for m in range(1, 11):
        for n in range(m, 11):
            inv = determinantal_invariants(m, n)
            assert inv.group == GroupStructure(1, ())
            assert inv.torsion_number == n - m
    with pytest.raises(InputError):
        determinantal_invariants(4, 3)


def test_cone_mode_matches_poset_mode():
    rng = random.Random(99)
    for _ in range(40):
        p = random_poset(rng, 6)
        poset_rep = joinmeet_report(p)
        forms = [f.coeffs for f in support_forms(bound(p))]
        cone_rep = cone_report(ConeDescription(p.n + 1, forms))
        assert cone_rep.group == poset_rep.group
        assert cone_rep.torsion_number == poset_rep.torsion_number
        assert cone_rep.gorenstein == poset_rep.gorenstein


def test_row_and_column_permutation_invariance():
    rng = random.Random(123)
    base = segre_veronese_cone(4, 2, 9, 3)
    reference = cone_report(base)
    for _ in range(10):
        rows = list(base.forms)
        rng.shuffle(rows)
        cols = list(range(base.dim))
        rng.shuffle(cols)
        permuted = ConeDescription(
            base.dim, [tuple(f[c] for c in cols) for f in rows]
        )
        rep = cone_report(permuted)
        assert rep.group == reference.group
        assert rep.torsion_number == reference.torsion_number
        assert rep.gorenstein == reference.gorenstein


def read_every_invariant():
    # Z + Z/2 + Z/6 on four generators, read through every presentation reader
    p = AbelianPresentation(IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 6], [0, 0, 0]]))
    e = ClassElement((1, 1, 1, 1))
    structure(p)
    for i in range(p.generators + 1):
        fitting_number(p, i)
    is_zero_class(p, e)
    torsion_number(p, e)
    free_coordinates(p, e)


MATRIX = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])


@pytest.mark.parametrize(
    "compute",
    [
        lambda: joinmeet_report(two_chains_poset(3, 1)),
        lambda: cone_report(segre_veronese_cone(4, 2, 9, 3)),  # free: reads canonical_in_basis
        lambda: cone_report(veronese_cone(4, 6)),  # torsion group
        read_every_invariant,
        lambda: solve_integer(MATRIX, [2, -6, 10]),
        lambda: minor_gcd(MATRIX, 2),
        lambda: rank(MATRIX),
    ],
    ids=["joinmeet", "cone-free", "cone-torsion", "every-reader", "solve_integer", "minor_gcd", "rank"],
)
def test_one_smith_elimination_per_report(monkeypatch, compute):
    # count calls through every divclass reference to smith_normal_form
    original = exact_linalg.smith_normal_form
    calls = []

    def counting(A):
        calls.append(A)
        return original(A)

    for name, module in list(sys.modules.items()):
        if name == "divclass" or name.startswith("divclass."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    compute()
    assert len(calls) == 1


def dense_cone(seed=5, r=12, dim=8, bound=100):
    rng = random.Random(seed)
    forms = set()
    while len(forms) < r:
        f = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(f) and math.gcd(*f) == 1:
            forms.add(f)
    return ConeDescription(dim, sorted(forms))


@pytest.mark.parametrize(
    "compute, builds_v",
    [
        (lambda: cone_report(dense_cone()), False),
        (lambda: cone_report(segre_veronese_cone(4, 2, 9, 3)), False),  # free: reads canonical_in_basis
        # d = 0: the membership test finds the diagonal solution
        (lambda: cone_report(veronese_cone(4, 2)), False),
        (lambda: joinmeet_report(two_chains_poset(2, 2)), False),
        (lambda: solve_integer(MATRIX, [2, -6, 10]), True),
    ],
    ids=["cone-dense", "cone-free", "cone-gorenstein", "joinmeet", "solve_integer"],
)
def test_only_solve_integer_builds_v(monkeypatch, compute, builds_v):
    # D and V are built on first read; the reports read U and the invariant
    # factors only, so they never build either.
    original = exact_linalg.smith_normal_form
    decompositions = []

    def recording(A):
        decompositions.append(original(A))
        return decompositions[-1]

    for name, module in list(sys.modules.items()):
        if name == "divclass" or name.startswith("divclass."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    compute()
    (snf,) = decompositions
    assert ("V" in vars(snf)) is builds_v
    assert "D" not in vars(snf)
