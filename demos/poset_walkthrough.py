"""Walk the whole poset pipeline on one small example, step by step.

The poset is a "bowtie with a tail": two minimal elements under a common
middle element, which sits under two maximal elements, one of which has an
extra element on top.  Its maximal chains do not all have the same length,
so the ring attached to it cannot be Gorenstein, and the torsion number
measures how far off it is.
"""

import math

from divclass import (
    AbelianPresentation,
    BoundedPoset,
    ClassElement,
    build_poset,
    choose_tree,
    joinmeet_report,
    quotient_by,
    relation_matrix,
    structure,
    verify_column_relations,
)

poset = build_poset(
    ["a", "b", "m", "u", "v", "w"],
    [("a", "m"), ("b", "m"), ("m", "u"), ("m", "v"), ("v", "w")],
)
print("elements in linear-extension order:", poset.labels)
print("cover relations:", poset.cover_label_pairs())
print("pure (all maximal chains the same size)?", BoundedPoset(poset).is_graded())

# Bounded extension: new bottom below the minimal elements, new top above
# the maximal ones.  Every Hasse edge of the extension is one facet.
extension = BoundedPoset(poset)
print("\nHasse edges of the bounded extension:")
for u, v in extension.edges:
    print(f"  {extension.vertex_name(u)} -> {extension.vertex_name(v)}")

matrix = relation_matrix(extension)
print("\nrelation matrix (rows = edges, columns = z_0..z_n):")
print(matrix.pretty())

# Route 1: Smith normal form of the relation matrix.  joinmeet_report
# eliminates it once and reads every invariant below off that one
# decomposition.  The class group is always free here; its rank is
# |edges| - (n + 1).
report = joinmeet_report(poset)
print("\nclass group:", report.group)
print("class-group rank:", report.group.free_rank, "=", len(extension.edges), "-", poset.n + 1)
print("torsion number via Fitting ideals:", report.torsion_number)
# The reduced class group is still a second elimination, of [A | omega].
presentation = AbelianPresentation(matrix)
canonical = ClassElement((1,) * matrix.rows)  # sum of all edge classes
print("reduced class group (quotient by the canonical class):",
      structure(quotient_by(presentation, canonical)))

# Route 2: spanning tree and fundamental cycles.  Each vertex below the top
# keeps one upward edge; the leftover edges index a basis of the class
# group.  Each basis edge closes one cycle through the tree, and the signs
# along the cycles expand every tree class in that basis.  The tree carries
# its extension, is checked once, when it is built, and derives its cycles
# and the canonical class over the basis from the checked edges.
tree = choose_tree(extension)
print("\ntree edges (one per vertex below the top):")
for u, v in tree.tree_edges:
    print(f"  {extension.vertex_name(u)} -> {extension.vertex_name(v)}")
print("nontree (basis) edges:")
for u, v in tree.nontree_edges:
    print(f"  {extension.vertex_name(u)} -> {extension.vertex_name(v)}")

print("\nfundamental cycles (tree edges a basis edge closes, with their signs):")
for (x, y), cycle in zip(tree.nontree_edges, tree.cycles):
    print(f"  {extension.vertex_name(x)} -> {extension.vertex_name(y)}:")
    for v, sign in cycle:
        u, w = tree.tree_edges[v]
        print(f"    {sign:+d} [{extension.vertex_name(u)} -> {extension.vertex_name(w)}]")
print("canonical class over the basis:", tree.canonical_coords)
print("expressions satisfy every defining relation?",
      verify_column_relations(tree))

# The two routes must agree, and joinmeet_report has already cross-checked
# them: it raises on any mismatch.
print("\ntorsion number, tree route == Fitting route:",
      math.gcd(*tree.canonical_coords), "==", report.torsion_number)
print("gorenstein:", report.gorenstein, "| pure:", report.pure)
