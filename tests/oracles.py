"""Independent brute-force oracles used to pin expected values.

Nothing here may call into divclass' own linear algebra, chain search or
canonicalization: these are the second opinions the library is checked
against.  The one exception is the input generator ``layered_poset``, which
hands its relations to ``build_poset`` to make a test input, not an answer.
``dense_smith_normal_form`` stores its result in ``IntMatrix`` values, a
container only, so that it compares directly with a ``SmithDecomposition``.
"""

import itertools
import random
from fractions import Fraction
from itertools import combinations, product

import networkx as nx

from divclass import IntMatrix, LimitExceededError, Poset, build_poset


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * head * det_cofactor(minor)
    return total


def dense_product(a, b, cols):
    """Product of two matrices given as lists of rows; ``cols`` is the column count of ``b``.

    Every entry is the full sum over the inner index, zeros included, so it
    shares nothing with the sparse ``IntMatrix`` product it is checked against.
    """
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for row in a]


def brute_minor_gcd(rows, k):
    """gcd of all k x k minors (0 when there are none or all vanish)."""
    import math

    if k == 0:
        return 1
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if k > m or k > n:
        return 0
    g = 0
    for row_idx in combinations(range(m), k):
        for col_idx in combinations(range(n), k):
            sub = [[rows[i][j] for j in col_idx] for i in row_idx]
            g = math.gcd(g, abs(det_cofactor(sub)))
    return g


def brute_invariant_factors(rows):
    """Invariant factors as successive quotients of minor gcds."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = brute_minor_gcd(rows, k)
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def bareiss_rank(rows):
    """Rank by fraction-free Gaussian elimination."""
    matrix = [list(r) for r in rows]
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    rank_so_far = 0
    previous = 1
    for col in range(n):
        if rank_so_far == m:
            break
        pivot = next((i for i in range(rank_so_far, m) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        r = rank_so_far
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                matrix[i][j] = (matrix[i][j] * matrix[r][col] - matrix[i][col] * matrix[r][j]) // previous
            matrix[i][col] = 0
        previous = matrix[r][col]
        rank_so_far += 1
    return rank_so_far


def rational_rank(rows):
    """Rank by plain Gaussian elimination over the rationals."""
    matrix = [[Fraction(x) for x in r] for r in rows]
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    rank_so_far = 0
    for col in range(n):
        pivot = next((i for i in range(rank_so_far, m) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        r = rank_so_far
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][col]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(m):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        rank_so_far += 1
        if rank_so_far == m:
            break
    return rank_so_far


def bounded_solve_exists(rows, b, bound=20):
    """Whether A x = b has a solution with every |x_i| <= bound."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if n == 0:
        return all(v == 0 for v in b)
    for candidate in product(range(-bound, bound + 1), repeat=n):
        if all(sum(rows[i][j] * candidate[j] for j in range(n)) == b[i] for i in range(m)):
            return True
    return False


def brute_maximal_chain_cardinalities(n, covers):
    """Cardinalities of all maximal chains, straight off the cover pairs."""
    ups = {i: sorted(j for (a, j) in covers if a == i) for i in range(n)}
    downs = {j for (_, j) in covers}
    sizes = []

    def walk(v, size):
        targets = ups[v]
        if not targets:
            sizes.append(size)
            return
        for w in targets:
            walk(w, size + 1)

    for start in range(n):
        if start not in downs:
            walk(start, 1)
    return sizes


def recursive_maximal_chains(poset, limit):
    """Maximal chains by recursive depth-first search, one call per chain element.

    The recursive form of ``maximal_chains``: same order, and the same
    ``LimitExceededError`` on the chain past the limit.
    """
    chains = []

    def extend(chain):
        ups = poset.up_covers(chain[-1])
        if not ups:
            if len(chains) >= limit:
                raise LimitExceededError(f"maximal-chain enumeration exceeded the limit of {limit}")
            chains.append(tuple(chain))
            return
        for w in ups:
            chain.append(w)
            extend(chain)
            chain.pop()

    for start in poset.minimals():
        extend([start])
    return chains


def cyclic_quotient_order(modulus, element):
    """Order of (Z/modulus) / <element> by enumerating the subgroup."""
    seen = set()
    value = 0
    while value not in seen:
        seen.add(value)
        value = (value + element) % modulus
    return modulus // len(seen)


def networkx_canonical_poset(names, relations):
    """Canonical poset by networkx, or None when the relations hold a cycle.

    Covers are networkx's transitive reduction and labels follow its
    lexicographic topological sort over input positions.  Names are assumed
    distinct and known; a reflexive pair is a self-loop, hence a cycle.
    """
    index = {x: i for i, x in enumerate(names)}
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(len(names)))
    digraph.add_edges_from((index[a], index[b]) for a, b in relations)
    if not nx.is_directed_acyclic_graph(digraph):
        return None
    reduced = nx.transitive_reduction(digraph)
    order = list(nx.lexicographical_topological_sort(reduced))
    position = {node: k for k, node in enumerate(order)}
    return Poset(
        labels=tuple(names[node] for node in order),
        covers=frozenset((position[u], position[v]) for u, v in reduced.edges),
    )


def dense_class_expressions(extension, tree):
    """Dense fundamental-cycle table of a spanning tree, and the canonical class.

    Returns ``(coeffs, canonical)``: ``coeffs[i][j]`` is the coefficient of
    the j-th nontree class in the class of ``tree.tree_edges[i]``, one row
    per vertex below the top, read off full tree paths to the top; and
    ``canonical[j]`` is 1 plus the sum of column j.  For a nontree edge
    (x, y), the tree edges on y's path above the meet of the two paths get
    +1 and those on x's path get -1.
    """
    n = extension.base.n
    top = extension.top
    parent = [edge[1] for edge in tree.tree_edges]

    def path_to_top(v):
        out = [v]
        while out[-1] != top:
            out.append(parent[out[-1]])
        return out

    m = len(tree.nontree_edges)
    coeffs = [[0] * m for _ in range(n + 1)]
    for j, (x, y) in enumerate(tree.nontree_edges):
        px = path_to_top(x)
        py = path_to_top(y)
        ix, iy = len(px), len(py)
        while ix > 0 and iy > 0 and px[ix - 1] == py[iy - 1]:
            ix -= 1
            iy -= 1
        for w in py[:iy]:
            coeffs[w][j] += 1
        for w in px[:ix]:
            coeffs[w][j] -= 1
    canonical = tuple(1 + sum(coeffs[i][j] for i in range(n + 1)) for j in range(m))
    return tuple(map(tuple, coeffs)), canonical


def layered_poset(n, width=8, seed=1):
    """Layers of ``width`` elements, two covers up per element, one skip relation per layer."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    layers = [names[i : i + width] for i in range(0, n, width)]
    relations = []
    for k in range(len(layers) - 1):
        for a in layers[k]:
            relations.extend((a, b) for b in rng.sample(layers[k + 1], min(2, len(layers[k + 1]))))
        if k + 2 < len(layers):
            relations.append((rng.choice(layers[k]), rng.choice(layers[k + 2])))
    return build_poset(names, relations)


def dense_smith_normal_form(A):
    """The dense Smith elimination that ``smith_normal_form`` replaced.

    Same pivot rule and order of operations, on dense ``[D | U]`` rows and
    dense ``V`` rows.  Returns ``(U, D, V, invariant_factors, rank)``, the
    transforms as ``IntMatrix`` values.  It checks nothing itself: a test
    that finds it equal to ``smith_normal_form``, which checks ``U A V = D``
    exactly, has checked both.
    """
    m, n = A.rows, A.cols
    rows = [list(A.row(i)) + [int(i == k) for k in range(m)] for i in range(m)]
    v = [[int(i == k) for k in range(n)] for i in range(n)]

    def find_pivot(t):
        best = None
        best_abs = None
        for i in range(t, m):
            row = rows[i]
            if not any(row[t:n]):
                continue
            for j in range(t, n):
                e = row[j]
                if e != 0 and (best is None or abs(e) < best_abs):
                    best, best_abs = (i, j), abs(e)
                    if best_abs == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            rows[t], rows[i] = rows[i], rows[t]
            if j != t:
                for row in itertools.chain(rows, v):
                    row[t], row[j] = row[j], row[t]
            top = rows[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, m):
                if rows[i][t]:
                    q = rows[i][t] // p
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], top)]
                    if rows[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // p
                    if q:
                        for row in itertools.chain(rows, v):
                            row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                pivot = find_pivot(t)
                continue
            if abs(p) == 1:
                break
            offender = None
            for i in range(t + 1, m):
                row = rows[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rows[t] = [a + b for a, b in zip(top, rows[offender])]
            pivot = (t, t)
        t += 1

    for k in range(min(m, n)):
        if rows[k][k] < 0:
            rows[k] = [-e for e in rows[k]]

    diag = [rows[k][k] for k in range(min(m, n))]
    rank = sum(1 for e in diag if e)
    D = IntMatrix(m, n, (e for row in rows for e in row[:n]))
    U = IntMatrix(m, m, (e for row in rows for e in row[n:]))
    V = IntMatrix(n, n, (e for row in v for e in row))
    return U, D, V, tuple(diag[:rank]), rank
