"""Class groups of normal affine semigroup rings from facet support forms.

A full-dimensional positive rational cone in Z^n is described by the
primitive integer linear forms cutting out its facets, one per height-one
monomial prime of the semigroup ring.  Stacking the forms as rows gives the
relation matrix of the divisor class group on those prime classes, and the
canonical class is the sum of all of them (its module is spanned by the
monomials interior to the cone).  Everything downstream (group structure,
Gorenstein test, torsion number) is exact integer linear algebra on that
matrix.

The form list is trusted to be exactly the facet data; no convex-hull
validation is attempted.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .abelian import (
    AbelianPresentation,
    ClassElement,
    GroupStructure,
    element_gcd,
    free_coordinates,
    free_presentation,
    structure,
    torsion_number,
)
from .errors import InputError
from .exact_linalg import IntMatrix


def normalize_form(v: Sequence[int], interior: Optional[Sequence[int]] = None) -> tuple:
    """Primitive representative of a linear form, oriented by an interior point.

    Divides out the gcd of the entries; when an interior point is supplied
    the sign is flipped if needed so the form is positive there, and a form
    vanishing on the interior point is rejected (it cuts no facet of a cone
    containing that point in its interior).
    """
    v = tuple(operator.index(x) for x in v)
    if not any(v):
        raise InputError("the zero vector is not a support form")
    g = math.gcd(*(abs(x) for x in v))
    w = tuple(x // g for x in v)
    if interior is not None:
        if len(interior) != len(w):
            raise InputError("interior point dimension does not match the form")
        value = sum(a * b for a, b in zip(w, interior))
        if value == 0:
            raise InputError("form vanishes on the interior point")
        if value < 0:
            w = tuple(-x for x in w)
    return w


@dataclass(frozen=True)
class ConeDescription:
    """Facet support forms of a positive rational cone in Z^dim.

    Every form must be nonzero, primitive and listed once; when an
    interior point is given, every form must be strictly positive on it.
    """

    dim: int
    forms: tuple
    interior_point: Optional[tuple] = None

    def __init__(self, dim, forms, interior_point=None):
        dim = operator.index(dim)
        if dim < 0:
            raise InputError("cone dimension must be nonnegative")
        forms = tuple(tuple(operator.index(x) for x in f) for f in forms)
        for f in forms:
            if len(f) != dim:
                raise InputError(f"form {f} does not have {dim} coordinates")
            if not any(f):
                raise InputError("the zero vector is not a support form")
            if math.gcd(*(abs(x) for x in f)) != 1:
                raise InputError(f"form {f} is not primitive; divide out the gcd")
        if len(set(forms)) != len(forms):
            raise InputError("a form is listed more than once; each facet is one prime class")
        if interior_point is not None:
            interior_point = tuple(operator.index(x) for x in interior_point)
            if len(interior_point) != dim:
                raise InputError("interior point dimension does not match the cone")
            for f in forms:
                if sum(a * b for a, b in zip(f, interior_point)) <= 0:
                    raise InputError(
                        f"form {f} is not positive on the interior point {interior_point}"
                    )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "interior_point", interior_point)


@dataclass(frozen=True)
class ClassGroupReport:
    """Everything this library computes about one ring.

    The canonical class is the all-ones element over the height-one prime
    classes.  ``canonical_in_basis`` is its coordinate vector over a free
    basis when the class group is free (None otherwise); its coordinate gcd
    equals the torsion number.  ``num_height_one_primes`` is None for a
    closed form that does not list the primes.  Set only in poset mode:
    ``pure``, whether all maximal chains have the same cardinality, and
    ``cycles``, the fundamental cycles that give the tree classes in the
    nontree basis of ``canonical_in_basis`` (``ClassExpression.cycles``).
    """

    num_height_one_primes: Optional[int]
    group: GroupStructure
    canonical_in_basis: Optional[tuple]
    torsion_number: int
    pure: Optional[bool] = None
    cycles: Optional[tuple] = None

    @property
    def gorenstein(self) -> bool:
        """Whether the canonical class is trivial, i.e. the torsion number is 0."""
        return self.torsion_number == 0


def cone_report(cone: ConeDescription) -> ClassGroupReport:
    """Class group, canonical class, torsion number, and Gorenstein flag."""
    r = len(cone.forms)
    # one generator per form, one relation per coordinate
    presentation = AbelianPresentation(IntMatrix.from_rows(cone.forms, cols=cone.dim))
    group = structure(presentation)
    canonical = ClassElement((1,) * r)
    d = torsion_number(presentation, canonical)
    coords = None if group.torsion_factors else free_coordinates(presentation, canonical)
    return ClassGroupReport(
        num_height_one_primes=r, group=group, canonical_in_basis=coords, torsion_number=d
    )


def veronese_cone(n: int, r: int) -> ConeDescription:
    """Cone of the r-th Veronese of a polynomial ring in n variables.

    Forms in coordinates (x_1, ..., x_{n-1}, t): the unit forms x_i >= 0
    and -(x_1 + ... + x_{n-1}) + r t >= 0.  For n = 1 the single form (r)
    normalizes to (1): the cone is a ray and the ring is a polynomial ring
    in one variable, so the r-dependence vanishes.
    """
    if n < 1 or r < 1:
        raise InputError("veronese_cone requires n >= 1 and r >= 1")
    forms = [tuple(int(j == i) for j in range(n)) for i in range(n - 1)]
    forms.append((-1,) * (n - 1) + (r,))
    interior = (1,) * (n - 1) + (n,)
    return ConeDescription(n, tuple(normalize_form(f) for f in forms), interior)


def segre_veronese_cone(m: int, p: int, n: int, q: int) -> ConeDescription:
    """Cone of the Segre product of the p-th and q-th Veronese subrings.

    The first factor has m variables, the second n; coordinates are
    (x_1..x_{m-1}, y_1..y_{n-1}, t) and the m + n facet forms are the unit
    forms on the x_i and y_j together with
    -(x_1 + ... + x_{m-1}) + p t  and  -(y_1 + ... + y_{n-1}) + q t.
    """
    if m < 2 or n < 2:
        raise InputError("segre_veronese_cone requires m >= 2 and n >= 2")
    if p < 1 or q < 1:
        raise InputError("segre_veronese_cone requires p >= 1 and q >= 1")
    dim = m + n - 1
    forms = [tuple(int(j == i) for j in range(dim)) for i in range(m + n - 2)]
    forms.append((-1,) * (m - 1) + (0,) * (n - 1) + (p,))
    forms.append((0,) * (m - 1) + (-1,) * (n - 1) + (q,))
    interior = (1,) * (dim - 1) + (m + n,)
    return ConeDescription(dim, tuple(forms), interior)


def determinantal_invariants(m: int, n: int) -> ClassGroupReport:
    """Closed form for a generic determinantal ring on an m x n matrix, m <= n.

    The class group is free of rank one and the canonical class is n - m
    times the generator, so the torsion number is n - m (zero, i.e.
    Gorenstein, exactly for square matrices).
    """
    if not 1 <= m <= n:
        raise InputError("determinantal_invariants requires 1 <= m <= n")
    d = torsion_number(free_presentation(1), ClassElement((n - m,)))
    group = GroupStructure(1, ())
    return ClassGroupReport(
        num_height_one_primes=None, group=group, canonical_in_basis=(n - m,), torsion_number=d
    )


def canonical_coordinate_gcd(report: ClassGroupReport) -> Optional[int]:
    """gcd of the free-basis coordinates of the canonical class, when free.

    For a free class group this equals the torsion number, whatever basis
    the coordinates were taken in.
    """
    if report.canonical_in_basis is None:
        return None
    return element_gcd(ClassElement(report.canonical_in_basis))
