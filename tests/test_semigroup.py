import math
import random
import sys
import tracemalloc

import pytest

from divclass import (
    AbelianPresentation,
    BoundedPoset,
    ClassElement,
    ConeDescription,
    GroupStructure,
    InputError,
    IntMatrix,
    LimitExceededError,
    cone_report,
    determinantal_invariants,
    fitting_number,
    joinmeet_report,
    normalize_form,
    relation_matrix,
    segre_veronese_cone,
    solve_integer,
    structure,
    torsion_number,
    two_chains_poset,
    veronese_cone,
)
from divclass import exact_linalg
from divclass.abelian import torsion_and_free_coordinates
from divclass.sweep import random_poset


def test_normalize_form_examples():
    assert normalize_form((2, 4, -6)) == (1, 2, -3)
    assert normalize_form((-1, 0), interior=(1, 1)) == (1, 0)
    with pytest.raises(InputError):
        normalize_form((1, -1), interior=(1, 1))
    with pytest.raises(InputError):
        normalize_form((0, 0))
    with pytest.raises(InputError, match="interior point dimension does not match the form"):
        normalize_form((1, 2), interior=(1, 2, 3))


def test_cone_description_validation():
    with pytest.raises(InputError):
        ConeDescription(2, [(2, 4)])  # not primitive
    with pytest.raises(InputError):
        ConeDescription(2, [(0, 0)])
    with pytest.raises(InputError):
        ConeDescription(2, [(1, 0), (0, 1)], interior_point=(1, -1))
    with pytest.raises(InputError):
        ConeDescription(2, [(1, 0, 0)])
    with pytest.raises(InputError, match="cone dimension must be nonnegative"):
        ConeDescription(-1, [])
    with pytest.raises(InputError, match="interior point dimension does not match the cone"):
        ConeDescription(2, [(1, 0), (0, 1)], interior_point=(1, 1, 1))
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


def test_families_refuse_past_the_form_entry_limit():
    # n forms of dimension n: refused before anything n x n is built
    for build in (lambda: veronese_cone(1001, 2), lambda: segre_veronese_cone(500, 1, 501, 1)):
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError, match="limit of 1000000 form entries"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert len(veronese_cone(1000, 1).forms) == 1000
    assert segre_veronese_cone(500, 1, 500, 1).dim == 999


def test_segre_2222_is_gorenstein():
    rep = cone_report(segre_veronese_cone(2, 2, 2, 2))
    assert rep.group == GroupStructure(1, (2,))
    assert rep.gorenstein and rep.torsion_number == 0


def test_segre_4293():
    rep = cone_report(segre_veronese_cone(4, 2, 9, 3))
    assert rep.group == GroupStructure(1, ())
    assert rep.torsion_number == 6
    assert math.gcd(*rep.canonical_in_basis) == 6


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
            assert math.gcd(*rep.canonical_in_basis) == rep.torsion_number


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


def test_determinantal_arguments_must_be_integers():
    # 1.5 passes the range check 1 <= m <= n, so it must be caught first
    with pytest.raises(InputError, match="m must be an integer"):
        determinantal_invariants(1.5, 3)
    with pytest.raises(InputError, match="n must be an integer"):
        determinantal_invariants(1, 3.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: normalize_form((1.5, 1)),
        lambda: ConeDescription(2.0, [(1, 0), (0, 1)]),
        lambda: ConeDescription(2, [(1.5, 0), (0, 1)]),
        lambda: ConeDescription(2, [(1, 0), (0, 1)], interior_point=(1, 0.5)),
        lambda: veronese_cone(3, 2.0),
        lambda: segre_veronese_cone(2, 1, 2.5, 1),
    ],
    ids=["form", "dim", "form-entry", "interior-point", "veronese", "segre-veronese"],
)
def test_cone_arguments_must_be_integers(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: normalize_form((1, -2), interior=(0.5, 0.1)),
        lambda: normalize_form((1, -2), interior=("a", "b")),
        lambda: normalize_form((1, -2), interior=5),
        lambda: ConeDescription(2, [(1, 0), (0, 1)], interior_point=5),
    ],
    ids=["float", "string", "scalar", "cone-scalar"],
)
def test_interior_point_must_be_a_lattice_point(build):
    # (0.5, 0.1) would orient (1, -2) by a point that is not a lattice point
    with pytest.raises(InputError, match="interior point"):
        build()


def test_a_declared_dimension_costs_no_memory():
    # a cone with no forms is a 0 x dim presentation holding no data, so
    # neither the product check's replay nor the membership test may
    # allocate per column (about 80 MB here if either did)
    tracemalloc.start()
    try:
        report = cone_report(ConeDescription(10**6, []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (report.group, report.torsion_number) == (GroupStructure(0, ()), 0)


def test_cone_mode_matches_poset_mode():
    rng = random.Random(99)
    for _ in range(40):
        p = random_poset(rng, 6)
        poset_rep = joinmeet_report(p)
        forms = relation_matrix(BoundedPoset(p)).to_lists()
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
    torsion_number(p, e)
    torsion_and_free_coordinates(p, e)


def record_smith(monkeypatch):
    """The list that every divclass reference to smith_normal_form appends its results to."""
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
    return decompositions


MATRIX = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])


@pytest.mark.parametrize(
    "compute",
    [
        lambda: joinmeet_report(two_chains_poset(3, 1)),
        lambda: cone_report(segre_veronese_cone(4, 2, 9, 3)),  # free: reads canonical_in_basis
        lambda: cone_report(veronese_cone(4, 6)),  # torsion group
        read_every_invariant,
        lambda: solve_integer(MATRIX, [2, -6, 10]),
    ],
    ids=["joinmeet", "cone-free", "cone-torsion", "every-reader", "solve_integer"],
)
def test_one_smith_elimination_per_report(monkeypatch, compute):
    decompositions = record_smith(monkeypatch)
    compute()
    assert len(decompositions) == 1


def test_determinantal_closed_form_runs_no_elimination(monkeypatch):
    decompositions = record_smith(monkeypatch)
    for m in range(1, 8):
        for n in range(m, 8):
            determinantal_invariants(m, n)
    assert decompositions == []


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
        (lambda: torsion_number(AbelianPresentation(MATRIX), ClassElement((1, 2, 3))), False),
        (lambda: solve_integer(MATRIX, [2, -6, 10]), True),
    ],
    ids=[
        "cone-dense",
        "cone-free",
        "cone-gorenstein",
        "joinmeet",
        "torsion_number",
        "solve_integer",
    ],
)
def test_only_solve_integer_builds_v(monkeypatch, compute, builds_v):
    # U, D and V are built on first read; every reader takes U v from the
    # logged row operations and D from the invariant factors, so only
    # solve_integer builds a transform, and that one is V.
    decompositions = record_smith(monkeypatch)
    compute()
    (snf,) = decompositions
    assert ("V" in vars(snf)) is builds_v
    assert "U" not in vars(snf)
    assert "D" not in vars(snf)


@pytest.mark.parametrize(
    "cone",
    [dense_cone(), segre_veronese_cone(4, 2, 9, 3), veronese_cone(4, 6)],
    ids=["cone-dense", "cone-free", "cone-torsion"],
)
def test_cone_report_replays_the_row_log_once(monkeypatch, cone):
    # the torsion number and the free coordinates both read one c = U omega
    original = exact_linalg.SmithDecomposition.U_mul_vector
    calls = []

    def counting(snf, v):
        calls.append(v)
        return original(snf, v)

    monkeypatch.setattr(exact_linalg.SmithDecomposition, "U_mul_vector", counting)
    report = cone_report(cone)
    assert len(calls) == 1
    assert (report.canonical_in_basis is None) == bool(report.group.torsion_factors)

