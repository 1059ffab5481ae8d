"""Finitely generated abelian groups given by integer presentation matrices.

A presentation with g generators and relation matrix A (g rows, one column
per relation) describes the group Z^g modulo the column span of A.  Fitting
ideals of Z are principal, so each one is represented here by its unique
nonnegative generator.

Every invariant is read here off one Smith decomposition U A V = D per
presentation (``AbelianPresentation.smith``): structure and Fitting numbers
off its invariant factors, and the torsion number and the free coordinates
together off one c = U omega (``torsion_and_free_coordinates``, the one
reader of both, which also checks membership off that c).
``SmithDecomposition.U_mul_vector`` replays c from the logged row
operations without building U; only ``solve_integer`` reads a transform,
V, which is sparse, so V y sums nonzeros only, and pads y past the rank.
``solve_integer`` reads a matrix as the presentation of its cokernel.

>>> zmod6 = AbelianPresentation(IntMatrix.from_rows([[6]]))
>>> structure(zmod6)
GroupStructure(free_rank=0, torsion_factors=(6,))
>>> torsion_number(zmod6, ClassElement((4,)))
2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError, as_integer, excerpt, integer_vector, require
from .exact_linalg import IntMatrix, SmithDecomposition, smith_normal_form


@dataclass(frozen=True)
class AbelianPresentation:
    """Z^generators modulo the integer column span of ``relations``, one generator per row."""

    relations: IntMatrix

    def __post_init__(self):
        require(self.relations, IntMatrix, "a presentation needs an IntMatrix")

    @property
    def generators(self) -> int:
        return self.relations.rows

    @cached_property
    def smith(self) -> SmithDecomposition:
        """The Smith decomposition U @ relations @ V == D, eliminated once on first use."""
        return smith_normal_form(self.relations)


@dataclass(frozen=True)
class GroupStructure:
    """Isomorphism type Z^free_rank + Z/t_1 + ... with t_1 | t_2 | ..., t_i > 1."""

    free_rank: int
    torsion_factors: tuple

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion_factors)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ClassElement:
    """A group element written as integer coefficients over the generators."""

    coords: tuple

    def __init__(self, coords: Sequence[int]):
        object.__setattr__(self, "coords", integer_vector(coords, "element", "coordinate"))


def _check_element(p: AbelianPresentation, e: ClassElement):
    require(p, AbelianPresentation, "a group must be an AbelianPresentation")
    require(e, ClassElement, "an element must be a ClassElement")
    if len(e.coords) != p.generators:
        raise InputError(
            f"element has {len(e.coords)} coordinates for {p.generators} generators"
        )


def _diagonal_solution(snf: SmithDecomposition, c: Sequence[int]) -> Optional[list]:
    """y below the rank for D y = c (free past it), or None: d_i | c_i below it, c = 0 past it."""
    quotients = [divmod(x, f) for x, f in zip(c, snf.invariant_factors)]
    if any(r for _, r in quotients) or any(c[snf.rank :]):
        return None
    return [q for q, _ in quotients]


def structure(p: AbelianPresentation) -> GroupStructure:
    """Invariant-factor decomposition of the presented group."""
    snf = require(p, AbelianPresentation, "structure needs an AbelianPresentation").smith
    return GroupStructure(
        free_rank=p.generators - snf.rank,
        torsion_factors=tuple(f for f in snf.invariant_factors if f > 1),
    )


def fitting_number(p: AbelianPresentation, i: int) -> int:
    """Nonnegative generator of the i-th Fitting ideal of the group.

    This is the gcd of the (g - i)-minors of the relation matrix; it is 0
    while i is below the free rank, first nonzero at the rank, and the
    successive generators divide each other upward.
    """
    require(p, AbelianPresentation, "fitting_number needs an AbelianPresentation")
    i = as_integer(i, "Fitting index")
    if not 0 <= i <= p.generators:
        raise InputError(f"Fitting index {excerpt(i)} out of range for {p.generators} generators")
    k = p.generators - i
    if k > p.smith.rank:
        return 0
    return math.prod(p.smith.invariant_factors[:k])


def quotient_by(p: AbelianPresentation, e: ClassElement) -> AbelianPresentation:
    """Presentation of the quotient by the cyclic subgroup generated by ``e``."""
    _check_element(p, e)
    return AbelianPresentation(p.relations.append_column(e.coords))


def torsion_number(p: AbelianPresentation, omega: ClassElement) -> int:
    """Torsion number of the pair (group, distinguished element ``omega``).

    Let r be the rank of the quotient by ``omega``.  The result is 0 when
    the r-th Fitting numbers of the group and of the quotient agree, and
    the r-th Fitting number of the quotient otherwise
    (``torsion_and_free_coordinates`` reads it off one c = U omega).
    The result is 0 exactly when ``omega`` is the zero class.
    """
    return torsion_and_free_coordinates(p, omega)[0]


def torsion_and_free_coordinates(p: AbelianPresentation, omega: ClassElement) -> tuple:
    """``(torsion_number(p, omega), coordinates)`` from one c = U omega.

    When the group is free, the coordinates of omega over the free part of
    the Smith basis are the entries of c past the rank, and their gcd is
    the torsion number; they are None when the group has torsion.  With the
    group's one Smith decomposition U A V = D, with invariant factors
    f_1 | ... | f_s: U [A | omega] diag(V, 1) = [D | c].  Let
    P = f_1 ... f_s and t = gcd(c_{s+1}, ...).  If t != 0, omega raises the
    rank and d = P t.  Otherwise the quotient's Fitting number is
    F = gcd(P, c_i P / f_i for i <= s), and d = 0 if F = P, else d = F.
    The membership test on the same c must give d = 0 exactly for the zero
    class; a mismatch fails loudly.
    """
    _check_element(p, omega)
    snf = p.smith
    c = snf.U_mul_vector(omega.coords)
    full = fitting_number(p, p.generators - snf.rank)
    t = math.gcd(*c[snf.rank :])
    if t:
        d = full * t
    else:
        reduced = math.gcd(full, *(x * (full // f) for x, f in zip(c, snf.invariant_factors)))
        d = 0 if reduced == full else reduced
    if (d == 0) != (_diagonal_solution(snf, c) is not None):
        raise InternalInvariantError(
            "Fitting-ideal torsion number and membership test disagree "
            f"(d={d}, generators={p.generators})"
        )
    free = all(f == 1 for f in snf.invariant_factors)
    return d, (c[snf.rank :] if free else None)


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """Some integer solution x of A @ x = b, or None if there is none.

    Solved through the Smith transforms: with U A V = D the system becomes
    D y = U b and x = V y, where D is diagonal so each coordinate is a
    single exact-divisibility test; y is 0 past the rank.
    """
    require(A, IntMatrix, "solve_integer needs an IntMatrix")
    b = integer_vector(b, "right-hand side")
    if len(b) != A.rows:
        raise InputError(f"right-hand side of length {len(b)} does not match {A.rows} rows")
    snf = AbelianPresentation(A).smith
    y = _diagonal_solution(snf, snf.U_mul_vector(b))
    return None if y is None else snf.V.mul_vector(y + [0] * (A.cols - snf.rank))
