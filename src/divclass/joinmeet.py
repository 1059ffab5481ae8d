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
once, as the row of its edge in the order of ``BoundedPoset.edges``.  The
report eliminates the same rows top-down, by descending upper endpoint, with
the columns numbered by first appearance (``_top_down_matrix``): each row then
meets the pivot search with its upper endpoint's column already cleared, so
every pivot is a lone +1 on the diagonal, and the elimination logs no fill,
no column operation and at most two row additions per edge.  Reordering
rows and columns changes neither the group nor the torsion number of the
all-ones canonical class.

A spanning tree with one upward edge per vertex below the top makes the
nontree classes a basis.  A ``SpanningTree``, checked on construction,
derives the sparse fundamental cycles that expand the tree classes in it
with coefficients +1/-1/0, which ``verify_column_relations`` substitutes
into the relations, and the basis coordinates of the canonical class (all
edge classes summed), whose gcd is the torsion number, cross-checked
against Fitting ideals of the relation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .abelian import AbelianPresentation, ClassElement, structure, torsion_number
from .errors import InputError, InternalInvariantError, as_tuple, excerpt, require
from .exact_linalg import IntMatrix
from .poset import BoundedPoset, Poset
from .semigroup import ClassGroupReport


@dataclass(frozen=True)
class SpanningTree:
    """One upward tree edge per vertex of ``extension`` except the top, and its cycles.

    ``tree_edges[v]`` is the edge chosen for vertex v (v = 0 is the bottom);
    ``nontree_edges`` lists the remaining Hasse edges.  Both are read as
    tuples on construction, which raises ``InputError`` unless together
    they are the edges of ``extension``, each a pair of ints, and the tree
    edges go up, one out of each vertex below the top in vertex order.

    ``cycles`` and ``canonical_coords`` are then derived, not passed in.
    ``cycles[j]`` is the cycle the j-th nontree edge (x, y) closes, as
    ``(v, sign)`` pairs naming ``tree_edges[v]``: +1 along y's tree path up
    to the meet of the two paths, then -1 along x's.  The sign is the
    coefficient of the j-th nontree class in the class of ``tree_edges[v]``
    (0 off the cycle); ``canonical_coords[j]`` is 1 plus the signs of cycle
    j, δ(x, y) = 1 + dep(y) - dep(x) with dep the tree steps to the top.  δ
    is 0 on tree edges and telescopes along a maximal chain p: len(p) =
    Σ_{e in p} δ(e) + dep(bottom).  So δ(x, y) is the length gap of two
    maximal chains that reach x alike, leave it by (x, y) or by its tree
    edge and then follow the tree: the torsion number, the gcd of the
    canonical coordinates, is the gcd of the chain length gaps.
    """

    extension: BoundedPoset
    tree_edges: tuple
    nontree_edges: tuple
    cycles: tuple = field(init=False)
    canonical_coords: tuple = field(init=False)

    def __post_init__(self):
        extension = require(self.extension, BoundedPoset, "a spanning tree needs a BoundedPoset")
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
        parent = [target for _, target in tree_edges]
        dep = [0] * (extension.top + 1)
        for v in reversed(range(len(parent))):  # every tree target is above its vertex
            dep[v] = dep[parent[v]] + 1
        cycles, canonical = [], []
        for x, y in nontree_edges:
            x_side, y_side = [], []
            while x != y:
                if dep[x] >= dep[y]:
                    x_side.append((x, -1))
                    x = parent[x]
                else:
                    y_side.append((y, 1))
                    y = parent[y]
            cycles.append(tuple(y_side + x_side))
            canonical.append(1 + len(y_side) - len(x_side))
        object.__setattr__(self, "cycles", tuple(cycles))
        object.__setattr__(self, "canonical_coords", tuple(canonical))


def _relation_rows(extension: BoundedPoset) -> list:
    """The ``{column: coefficient}`` row of each Hasse edge, in the order of ``extension.edges``."""
    top = extension.top
    return [{u: 1} if v == top else {u: 1, v: -1} for u, v in extension.edges]


def relation_matrix(extension: BoundedPoset) -> IntMatrix:
    """Relation matrix of the class group: one row per Hasse edge, columns z_0..z_n.

    The rows are built through the trusted constructor: each is a fresh dict
    of nonzero ``±1`` entries at columns below ``extension.top``.
    """
    require(extension, BoundedPoset, "relation_matrix needs a BoundedPoset")
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
    require(extension, BoundedPoset, "a spanning tree needs a BoundedPoset")
    ups: dict = {}
    for u, v in extension.edges:
        ups.setdefault(u, []).append(v)
    tree = []
    for v in range(extension.top):
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


def verify_column_relations(tree: SpanningTree) -> bool:
    """Substitute the tree's fundamental cycles into every defining relation.

    The relation rows of ``tree.extension`` are read edge by edge.
    Each coordinate column of the relation matrix says a certain integer
    combination of edge classes vanishes; replacing the tree classes by
    their nontree expressions must leave the zero vector over the basis.
    Over class j that sums the (at most two) nonzeros of the row of e_j and
    of the signed tree rows along ``tree.cycles[j]``.
    """
    require(tree, SpanningTree, "verify_column_relations needs a SpanningTree")
    rows = dict(zip(tree.extension.edges, _relation_rows(tree.extension)))
    tree_rows = [rows[e] for e in tree.tree_edges]
    for edge, cycle in zip(tree.nontree_edges, tree.cycles):
        total = dict(rows[edge])
        for v, sign in cycle:
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
    route reads what ``choose_tree``'s tree derived when it was built.
    """
    extension = BoundedPoset(poset)
    matrix = _top_down_matrix(extension)
    r = matrix.rows
    presentation = AbelianPresentation(matrix)
    group = structure(presentation)
    expected_rank = r - (poset.n + 1)
    if group.torsion_factors or group.free_rank != expected_rank:
        raise InternalInvariantError(
            f"class group of a join-meet ring must be free of rank {expected_rank}, got {group}"
        )
    tree = choose_tree(extension)
    if any(len({v for v, _ in cycle}) != len(cycle) for cycle in tree.cycles):
        raise InternalInvariantError("fundamental-cycle coefficients must be -1, 0, or 1")
    if not verify_column_relations(tree):
        raise InternalInvariantError("tree-class expressions violate the defining relations")
    d_tree = math.gcd(*tree.canonical_coords)
    d_matrix = torsion_number(presentation, ClassElement((1,) * r))
    if d_tree != d_matrix:
        raise InternalInvariantError(
            f"tree-basis torsion number {d_tree} disagrees with the Fitting-ideal value {d_matrix}"
        )
    return ClassGroupReport(
        num_height_one_primes=r,
        group=group,
        canonical_in_basis=tree.canonical_coords,
        torsion_number=d_matrix,
        pure=extension.is_graded(),
    )
