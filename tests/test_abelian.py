import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from divclass import (
    AbelianPresentation,
    ClassElement,
    GroupStructure,
    InputError,
    IntMatrix,
    InternalInvariantError,
    SmithDecomposition,
    fitting_number,
    quotient_by,
    solve_integer,
    structure,
    torsion_number,
)
from divclass.abelian import torsion_and_free_coordinates

from oracles import brute_minor_gcd, cyclic_quotient_order


def presentation(columns, generators=None):
    """Presentation from relation columns (each a vector over the generators)."""
    g = generators if generators is not None else len(columns[0])
    rows = [[col[i] for col in columns] for i in range(g)]
    return AbelianPresentation(IntMatrix.from_rows(rows, cols=len(columns)))


def free_presentation(r):
    """The free group Z^r: r generators and no relations."""
    return AbelianPresentation(IntMatrix.zeros(r, 0))


def test_structure_examples():
    assert structure(presentation([(6,)])) == GroupStructure(0, (6,))
    assert structure(presentation([(2, 3)])) == GroupStructure(1, ())
    assert structure(presentation([(2, 2)])) == GroupStructure(1, (2,))


def test_structure_str():
    assert str(GroupStructure(0, ())) == "0"
    assert str(GroupStructure(1, ())) == "Z"
    assert str(GroupStructure(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_fitting_examples():
    zmod6 = presentation([(6,)])
    assert fitting_number(zmod6, 0) == 6
    assert fitting_number(zmod6, 1) == 1
    free2 = free_presentation(2)
    assert fitting_number(free2, 1) == 0
    assert fitting_number(free2, 2) == 1
    with pytest.raises(InputError):
        fitting_number(zmod6, 2)


def test_fitting_monotone_divisibility():
    rng = random.Random(3)
    for _ in range(60):
        g = rng.randint(1, 5)
        cols = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(0, 5))]
        p = presentation(cols, generators=g) if cols else free_presentation(g)
        values = [fitting_number(p, i) for i in range(g + 1)]
        for low, high in zip(values, values[1:]):
            if low != 0 and high != 0:
                assert low % high == 0
        r = structure(p).free_rank
        assert all(values[i] == 0 for i in range(r))
        assert values[r] != 0


def test_quotient_examples():
    z = free_presentation(1)
    assert structure(quotient_by(z, ClassElement((1,)))) == GroupStructure(0, ())

    zmod6 = presentation([(6,)])
    q = quotient_by(zmod6, ClassElement((4,)))
    assert structure(q) == GroupStructure(0, (2,))
    assert cyclic_quotient_order(6, 4) == 2

    essen = presentation([(2, 3)])
    q2 = quotient_by(essen, ClassElement((4, 9)))
    assert structure(q2) == GroupStructure(0, (6,))


def test_quotient_dimension_mismatch():
    with pytest.raises(InputError):
        quotient_by(free_presentation(2), ClassElement((1,)))


def test_element_length_checked_by_every_reader():
    for reader in (quotient_by, torsion_number, torsion_and_free_coordinates):
        with pytest.raises(InputError):
            reader(free_presentation(2), ClassElement((1,)))


def free_coordinates(p, e):
    """(U e) past the rank, with U built from the operation log."""
    return p.smith.U.mul_vector(e.coords)[p.smith.rank :]


def test_free_coordinates_examples():
    # Z^3 has no relations, so the Smith basis is the generator basis
    z3 = free_presentation(3)
    e = ClassElement((4, -1, 0))
    assert torsion_and_free_coordinates(z3, e)[1] == free_coordinates(z3, e) == (4, -1, 0)
    # Z/6 has no free part, and a group with torsion gets no coordinates
    zmod6 = presentation([(6,)])
    assert free_coordinates(zmod6, ClassElement((5,))) == ()
    assert torsion_and_free_coordinates(zmod6, ClassElement((5,)))[1] is None
    # Z^2 / <(1, 1)> = Z: an element's coordinate is zero exactly for the zero class
    line = presentation([(1, 1)])
    assert len(torsion_and_free_coordinates(line, ClassElement((1, 0)))[1]) == 1
    for coords in [(1, 1), (3, 3), (0, 0), (1, 0), (2, -1)]:
        e = ClassElement(coords)
        (coordinate,) = torsion_and_free_coordinates(line, e)[1]
        assert (coordinate,) == free_coordinates(line, e)
        assert (coordinate == 0) == (torsion_number(line, e) == 0)
        assert abs(coordinate) == abs(coords[0] - coords[1])


def test_is_zero_class_examples():
    zmod6 = presentation([(6,)])
    assert torsion_number(zmod6, ClassElement((0,))) == 0
    assert torsion_number(zmod6, ClassElement((4,))) != 0
    segre22 = presentation([(2, 2)])
    assert torsion_number(segre22, ClassElement((2, 2))) == 0


def test_torsion_number_examples():
    zmod6 = presentation([(6,)])
    assert torsion_number(zmod6, ClassElement((4,))) == 2
    assert torsion_number(free_presentation(1), ClassElement((3,))) == 3
    assert torsion_number(zmod6, ClassElement((0,))) == 0

    # the same Z/6 presented on four generators, with the canonical element
    # as the all-ones vector
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 6]]
    big = AbelianPresentation(IntMatrix.from_rows(rows))
    assert structure(big) == GroupStructure(0, (6,))
    assert torsion_number(big, ClassElement((1, 1, 1, 1))) == 2


def test_torsion_number_free_is_coordinate_gcd():
    rng = random.Random(9)
    for _ in range(50):
        r = rng.randint(0, 5)
        coords = tuple(rng.randint(-20, 20) for _ in range(r))
        e = ClassElement(coords)
        assert torsion_number(free_presentation(r), e) == math.gcd(*coords)
        assert torsion_and_free_coordinates(free_presentation(r), e) == (math.gcd(*coords), coords)


def test_torsion_and_free_coordinates_match_the_two_readers():
    rng = random.Random(23)
    for _ in range(80):
        g, k = rng.randint(1, 4), rng.randint(0, 4)
        rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(g)]
        p = AbelianPresentation(IntMatrix.from_rows(rows, cols=k))
        e = ClassElement([rng.randint(-5, 5) for _ in range(g)])
        free = not structure(p).torsion_factors
        expected = (torsion_number(p, e), free_coordinates(p, e) if free else None)
        assert torsion_and_free_coordinates(p, e) == expected
    with pytest.raises(InputError):
        torsion_and_free_coordinates(free_presentation(2), ClassElement((1,)))


def test_class_element_coordinates_must_be_integers():
    with pytest.raises(InputError, match="coordinate must be an integer"):
        ClassElement((1.5,))
    with pytest.raises(InputError, match="coordinate must be an integer"):
        ClassElement((True, 2))


def test_torsion_cross_check_raises_on_disagreement():
    # No elimination returns this decomposition: with the factor -2 the
    # Fitting formula reads d = 2, while 2 = (-1)(-2) passes the membership test.
    p = presentation([(2,)])
    p.__dict__["smith"] = SmithDecomposition((-2,), 1, 1, [])
    with pytest.raises(InternalInvariantError, match="disagree"):
        torsion_number(p, ClassElement((2,)))


def test_free_quotient_structure():
    # quotient of Z^r by a nonzero element: Z^(r-1) plus a cyclic factor of
    # order gcd of the coordinates
    rng = random.Random(14)
    for _ in range(60):
        r = rng.randint(1, 5)
        coords = tuple(rng.randint(-12, 12) for _ in range(r))
        if not any(coords):
            continue
        d = math.gcd(*(abs(c) for c in coords))
        q = quotient_by(free_presentation(r), ClassElement(coords))
        expected = GroupStructure(r - 1, (d,) if d > 1 else ())
        assert structure(q) == expected


def test_structure_torsion_factors_form_divisibility_chain():
    rng = random.Random(15)
    for _ in range(60):
        g = rng.randint(1, 6)
        cols = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(1, 6))]
        factors = structure(presentation(cols, generators=g)).torsion_factors
        assert all(f > 1 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_torsion_zero_iff_zero_class_randomized():
    rng = random.Random(2024)
    for _ in range(250):
        g = rng.randint(1, 6)
        ncols = rng.randint(0, 6)
        cols = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(ncols)]
        p = presentation(cols, generators=g) if cols else free_presentation(g)
        if rng.random() < 0.35 and cols:
            # force a nontrivial zero class reasonably often
            weights = [rng.randint(-2, 2) for _ in cols]
            omega = ClassElement(
                tuple(sum(w * c[i] for w, c in zip(weights, cols)) for i in range(g))
            )
        else:
            omega = ClassElement(tuple(rng.randint(-9, 9) for _ in range(g)))
        d = torsion_number(p, omega)  # raises internally on any disagreement
        x = solve_integer(p.relations, omega.coords)
        assert (d == 0) == (x is not None)
        assert x is None or p.relations.mul_vector(x) == omega.coords


# zeros keep many presentations rank-deficient; large entries grow the transforms
LARGE_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**40), 2**40))


@st.composite
def presentation_and_element(draw):
    """Up to 5 generators x 5 relations, and an omega that is random or in the relation span."""
    g = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(LARGE_ENTRIES, min_size=n, max_size=n), min_size=g, max_size=g))
    if draw(st.booleans()):
        weights = draw(st.lists(LARGE_ENTRIES, min_size=n, max_size=n))
        omega = tuple(sum(w * a for w, a in zip(weights, row)) for row in rows)
    else:
        omega = tuple(draw(st.lists(LARGE_ENTRIES, min_size=g, max_size=g)))
    return IntMatrix.from_rows(rows, cols=n), omega


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(presentation_and_element())
def test_torsion_number_matches_definition_at_large_entries(case):
    # d against its definition, read off a second elimination of [A | omega],
    # and d = 0 against an integer solution of A x = omega
    A, omega = case
    p = AbelianPresentation(A)
    d = torsion_number(p, ClassElement(omega))
    q = quotient_by(p, ClassElement(omega))
    r = structure(q).free_rank
    assert d == (0 if fitting_number(p, r) == fitting_number(q, r) else fitting_number(q, r))
    x = solve_integer(A, omega)
    assert (d == 0) == (x is not None)
    assert x is None or A.mul_vector(x) == omega


def test_structure_stable_under_redundant_relation():
    rng = random.Random(31)
    for _ in range(40):
        g = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        cols = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(ncols)]
        p = presentation(cols, generators=g)
        weights = [rng.randint(-3, 3) for _ in cols]
        redundant = ClassElement(
            tuple(sum(w * c[i] for w, c in zip(weights, cols)) for i in range(g))
        )
        assert structure(quotient_by(p, redundant)) == structure(p)


def test_fitting_index_must_be_an_integer():
    with pytest.raises(InputError, match="integer"):
        fitting_number(presentation([(6,)]), 1.0)


def brute_torsion_number(rows, omega):
    """The definition of d, from minor gcds of A and of [A | omega] alone."""
    augmented = [row + [w] for row, w in zip(rows, omega)]
    # Fitting index r = g - rank([A | omega]), i.e. minors of size rank([A | omega])
    k = max(k for k in range(len(rows) + 1) if brute_minor_gcd(augmented, k))
    fit_full = brute_minor_gcd(rows, k)
    fit_reduced = brute_minor_gcd(augmented, k)
    return 0 if fit_full == fit_reduced else fit_reduced


def test_torsion_number_matches_minor_gcd_definition():
    # torsion_number reads d off one Smith decomposition of A and the column
    # U omega; the oracle eliminates nothing.  Cover the branch where omega
    # raises the rank (t != 0) and, at equal rank (t = 0), both omega in the
    # span of the relations and omega nonzero in the group.
    rng = random.Random(31)
    seen = {"raises_rank": 0, "zero_class": 0, "nonzero_torsion": 0}
    for _ in range(400):
        g = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(g)]
        A = IntMatrix.from_rows(rows, cols=m)
        if rng.random() < 0.3:
            omega = list(A.mul_vector([rng.randint(-2, 2) for _ in range(m)]))
        else:
            omega = [rng.randint(-5, 5) for _ in range(g)]
        d = brute_torsion_number(rows, omega)
        assert torsion_number(AbelianPresentation(A), ClassElement(omega)) == d
        rank_a = max(k for k in range(g + 1) if brute_minor_gcd(rows, k))
        augmented = [row + [w] for row, w in zip(rows, omega)]
        if brute_minor_gcd(augmented, rank_a + 1):
            seen["raises_rank"] += 1
        elif d == 0:
            seen["zero_class"] += 1
        else:
            seen["nonzero_torsion"] += 1
    assert min(seen.values()) >= 30, seen
