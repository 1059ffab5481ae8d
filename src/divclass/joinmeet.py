"""Join-meet (Hibi) ring of a finite poset: class group and torsion number.

The cone attached to a poset P on n elements lives in coordinates
(z_0, z_1, ..., z_n), one z_i per element plus the auxiliary z_0.  Every
Hasse edge e of the bounded extension contributes one facet, with support
form

    z_i          for e = (v_i, top),
    z_i - z_j    for e = (v_i, v_j) inside P,
    z_0 - z_j    for e = (bot, v_j),

and the class group is generated by the corresponding height-one prime
classes [P_e] subject to the coefficient columns of those forms.  It is
always free of rank |E| - (n + 1).  ``relation_matrix`` holds each form
once, as the row of its edge in the order of ``bound``.  The report
eliminates the same rows top-down, by descending upper endpoint, with the
columns numbered by first appearance (``_top_down_matrix``): each row then
meets the pivot search with its upper endpoint's column already cleared, so
every pivot is a lone +1 on the diagonal, and the elimination logs no fill,
no column operation and at most two row additions per edge.  Reordering
rows and columns changes neither the group nor the torsion number of the
all-ones canonical class.

A spanning tree of the Hasse diagram assigning one upward edge to each
vertex below the top makes the tree rows of the relation matrix upper
triangular with unit diagonal, so the nontree classes form a basis.  A
``SpanningTree`` carries its extension and checks on construction that it
is such a tree, so ``class_expressions`` and ``verify_column_relations``
read it unchecked.  The signed tree edges on the fundamental cycle of each
nontree edge, kept sparse, expand the tree classes in that basis with
coefficients +1/-1/0.
Summing all edge classes gives the canonical class; the gcd of its basis
coordinates is the torsion number, which is also computed independently
from Fitting ideals of the relation matrix and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import AbelianPresentation, ClassElement, structure, torsion_number
from .errors import InputError, InternalInvariantError, as_tuple, excerpt
from .exact_linalg import IntMatrix
from .poset import BoundedPoset, Poset, bound
from .semigroup import ClassGroupReport


@dataclass(frozen=True)
class SpanningTree:
    """One upward tree edge per vertex of ``extension`` except the top.

    ``tree_edges[v]`` is the edge chosen for vertex v (v = 0 is the bottom);
    ``nontree_edges`` lists the remaining Hasse edges.  Both are read as
    tuples on construction, which raises ``InputError`` unless together
    they are the edges of ``extension``, each a pair of ints, and the tree
    edges go up, one out of each vertex below the top in vertex order.
    """

    extension: BoundedPoset
    tree_edges: tuple
    nontree_edges: tuple

    def __post_init__(self):
        extension = self.extension
        if not isinstance(extension, BoundedPoset):
            raise InputError(f"a spanning tree needs a BoundedPoset, got {excerpt(extension)}")
        tree_edges = as_tuple(self.tree_edges, "tree edges")
        nontree_edges = as_tuple(self.nontree_edges, "nontree edges")
        object.__setattr__(self, "tree_edges", tree_edges)
        object.__setattr__(self, "nontree_edges", nontree_edges)
        edges = tree_edges + nontree_edges
        for edge in edges:
            if not (type(edge) is tuple and len(edge) == 2 and type(edge[0]) is type(edge[1]) is int):
                raise InputError(f"tree edge {excerpt(edge)} is not a pair of int vertices")
        if sorted(edges) != sorted(extension.edges):
            raise InputError("tree edges do not partition the edge set")
        if [source for source, _ in tree_edges] != list(range(extension.top)):
            raise InputError("tree does not take one edge out of each vertex below the top")
        for v, (_, target) in enumerate(tree_edges):
            # upper triangular with unit diagonal: row v is z_v or z_v - z_target
            if target <= v:
                raise InputError(f"tree row {v} is not upper triangular")


@dataclass(frozen=True)
class ClassExpression:
    """Fundamental cycles of the nontree edges, plus the canonical coordinates.

    ``cycles[j]`` is the cycle of the j-th nontree edge (x, y) as
    ``(v, sign)`` pairs naming ``tree_edges[v]``: +1 along y's tree path up
    to the meet, then -1 along x's.  The sign is the coefficient of the j-th
    nontree class in the class of ``tree_edges[v]`` (0 off the cycle), and
    ``canonical_coords[j]`` is 1 plus the signs of cycle j.
    """

    cycles: tuple
    canonical_coords: tuple


def _relation_rows(extension: BoundedPoset) -> list:
    """The ``{column: coefficient}`` row of each Hasse edge, in the order of ``bound``."""
    top = extension.top
    return [{u: 1} if v == top else {u: 1, v: -1} for u, v in extension.edges]


def relation_matrix(extension: BoundedPoset) -> IntMatrix:
    """Relation matrix of the class group: one row per Hasse edge, columns z_0..z_n.

    The rows are built through the trusted constructor: each is a fresh dict
    of nonzero ``±1`` entries at columns below ``extension.top``.
    """
    return IntMatrix._of(extension.top, _relation_rows(extension))


def _top_down_matrix(extension: BoundedPoset) -> IntMatrix:
    """The rows of ``relation_matrix`` top-down, its columns renumbered by first appearance.

    The edges are taken by descending upper endpoint, ties by descending
    lower endpoint, and each vertex's column is numbered where it first
    shows up in that order.  Every vertex below the top is the lower
    endpoint of some edge, so the columns are a bijection onto z_0..z_n,
    and each row stays a fresh dict of nonzero ``±1`` entries for the
    trusted constructor.  A vertex shows up first in its up-edge of largest
    upper endpoint, which is where the elimination pivots on it: the Smith
    route runs along each vertex's largest up-cover, ``choose_tree`` along
    its smallest.
    """
    edges, rows = extension.edges, _relation_rows(extension)
    order = sorted(range(len(edges)), key=lambda k: (edges[k][1], edges[k][0]), reverse=True)
    column: dict = {}
    top_down = [{column.setdefault(c, len(column)): e for c, e in rows[k].items()} for k in order]
    return IntMatrix._of(extension.top, top_down)


def choose_tree(extension: BoundedPoset) -> SpanningTree:
    """Deterministic spanning tree: each vertex keeps its smallest upward edge.

    For every vertex below the top, the upward Hasse edge with the
    smallest-labelled target is kept (the top counts as largest); the
    bottom keeps its edge to the smallest minimal element.  The resulting
    tree rows are upper triangular with unit diagonal, which is what makes
    the nontree classes a basis.  A tree the constructor refuses is an
    ``InternalInvariantError``.
    """
    n = extension.base.n
    ups: dict = {}
    for u, v in extension.edges:
        ups.setdefault(u, []).append(v)
    tree = []
    for v in range(n + 1):
        targets = ups.get(v)
        if not targets:
            raise InternalInvariantError(f"vertex {v} has no upward edge in the Hasse diagram")
        tree.append((v, min(targets)))
    tree_set = set(tree)
    nontree = tuple(e for e in extension.edges if e not in tree_set)
    try:
        # targets climb strictly, so every tree path ends at the top
        return SpanningTree(extension, tuple(tree), nontree)
    except InputError as exc:
        raise InternalInvariantError(str(exc)) from exc


def class_expressions(tree: SpanningTree) -> ClassExpression:
    """Fundamental cycle of every nontree edge, and the canonical class.

    For a nontree edge e_j = (x, y), the tree plus e_j closes a unique
    cycle; orienting it x -> y, a tree edge traversed along its own
    direction gets sign +1, one traversed backwards -1.  The cycle climbs
    from y to the meet of the two tree paths and descends to x, so the
    y-side tree edges are the +1's and the x-side ones the -1's.  With
    ``dep`` the number of tree steps to the top, coordinate j of the
    canonical class is therefore 1 + dep(y) - dep(x).
    """
    parent = [edge[1] for edge in tree.tree_edges]
    dep = [0] * (tree.extension.top + 1)
    for v in reversed(range(len(parent))):  # every tree target is above its vertex
        dep[v] = dep[parent[v]] + 1
    cycles = []
    for x, y in tree.nontree_edges:
        x_side, y_side = [], []
        while x != y:
            if dep[x] >= dep[y]:
                x_side.append((x, -1))
                x = parent[x]
            else:
                y_side.append((y, 1))
                y = parent[y]
        cycles.append(tuple(y_side + x_side))
    canonical = tuple(1 + dep[y] - dep[x] for x, y in tree.nontree_edges)
    return ClassExpression(tuple(cycles), canonical)


def verify_column_relations(tree: SpanningTree, expr: ClassExpression) -> bool:
    """Substitute the tree-class expressions into every defining relation.

    The relation rows of ``tree.extension`` are read edge by edge.
    Each coordinate column of the relation matrix says a certain integer
    combination of edge classes vanishes; replacing the tree classes by
    their nontree expressions must leave the zero vector over the basis.
    Over class j that sums the (at most two) nonzeros of the row of e_j and
    of the signed tree rows along cycle j.  A cycle entry that is not a
    pair ``(v, sign)`` of ints, with v a vertex below the top and sign ±1,
    is an ``InputError``.
    """
    if len(expr.cycles) != len(tree.nontree_edges):
        return False
    extension = tree.extension
    rows = dict(zip(extension.edges, _relation_rows(extension)))
    tree_rows = [rows[e] for e in tree.tree_edges]
    vertices = range(len(tree_rows))
    for edge, cycle in zip(tree.nontree_edges, expr.cycles):
        total = dict(rows[edge])
        for entry in cycle:
            if not (
                type(entry) is tuple
                and len(entry) == 2
                and type(entry[0]) is type(entry[1]) is int
                and entry[0] in vertices
                and entry[1] in (1, -1)
            ):
                raise InputError(
                    f"cycle entry {excerpt(entry)} is not an int pair (v, ±1) with v in {vertices}"
                )
            v, sign = entry
            for c, a in tree_rows[v].items():
                total[c] = total.get(c, 0) + sign * a
        if any(total.values()):
            return False
    return True


def joinmeet_report(poset: Poset) -> ClassGroupReport:
    """Full class-group report of the join-meet ring of a poset.

    The torsion number is computed twice, once from the fundamental-cycle
    coordinates of the canonical class and once from Fitting ideals of the
    relation matrix, and the two must agree.  The class group must be free
    of rank |E| - (n + 1) and every cycle coefficient -1, 0 or 1: the
    sweep's ``rank_formula`` and ``cycle_coefficients``, checked only here.
    Any mismatch raises, since each one is a theorem.

    The Fitting-ideal route eliminates ``_top_down_matrix``; the tree
    route checks its tree once, when ``choose_tree`` builds it.
    """
    extension = bound(poset)
    matrix = _top_down_matrix(extension)
    r = matrix.rows
    n = poset.n
    presentation = AbelianPresentation(matrix)
    group = structure(presentation)
    expected_rank = r - (n + 1)
    if group.torsion_factors or group.free_rank != expected_rank:
        raise InternalInvariantError(
            f"class group of a join-meet ring must be free of rank {expected_rank}, got {group}"
        )
    tree = choose_tree(extension)
    expr = class_expressions(tree)
    if any(len({v for v, _ in cycle}) != len(cycle) for cycle in expr.cycles):
        raise InternalInvariantError("fundamental-cycle coefficients must be -1, 0, or 1")
    if not verify_column_relations(tree, expr):
        raise InternalInvariantError("tree-class expressions violate the defining relations")
    canonical = ClassElement((1,) * r)
    d_tree = math.gcd(*expr.canonical_coords)
    d_matrix = torsion_number(presentation, canonical)
    if d_tree != d_matrix:
        raise InternalInvariantError(
            f"tree-basis torsion number {d_tree} disagrees with the Fitting-ideal value {d_matrix}"
        )
    return ClassGroupReport(
        num_height_one_primes=r,
        group=group,
        canonical_in_basis=expr.canonical_coords,
        torsion_number=d_matrix,
        pure=extension.is_graded(),
    )
