"""Seeded input documents for the benchmark workloads.

Everything here is plain Python: the program under test is never imported,
so the documents and the facts the checks rely on (Hasse edges, purity,
closed forms) are derived independently of it.  The same seed always gives
byte-identical documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

SWEEP_COUNT = 3000
SWEEP_MAX_N = 10

# (count, elements, target Hasse edges of the bounded extension) for the
# random posets of poset-wide; a draw is kept when its edge count, which is
# the row count of the relation matrix, is within EDGE_WINDOW of the target.
# Fixing the matrix shapes keeps the work per seed nearly constant.
POSET_SIZES = ((1, 60, 155), (1, 80, 205), (1, 100, 255))
EDGE_WINDOW = 2
GRID = (8, 9)

# (count, forms, dim, entry bound) for the dense random cones of cone-dense.
# Elimination time varies from matrix to matrix with the entry growth, so
# many matrices are summed to keep the work per seed steady.
DENSE_CONES = ((12, 24, 18, 10**3), (12, 32, 24, 10**3), (2, 36, 28, 10**4))
VERONESE = (60, 7)
SEGRE_VERONESE = (20, 4, 30, 6)


@dataclass
class Ring:
    """One call of the command line: its arguments, stdin, and what to check."""

    id: str
    argv: list
    stdin: str = ""
    expect: dict = field(default_factory=dict)


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def covers_of(n: int, edges) -> set:
    """Cover relations (transitive reduction) of a DAG on 0..n-1, as index pairs."""
    succ = [set() for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        if v not in succ[u]:
            succ[u].add(v)
            indeg[v] += 1
    order = []
    ready = [v for v in range(n) if indeg[v] == 0]
    while ready:
        u = ready.pop()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != n:
        raise ValueError("relations contain a cycle")
    reach = [0] * n  # bitset of strict successors
    for u in reversed(order):
        bits = 0
        for v in succ[u]:
            bits |= reach[v] | (1 << v)
        reach[u] = bits
    covers = set()
    for u in range(n):
        implied = 0  # reachable through another successor, so not a cover
        for w in succ[u]:
            implied |= reach[w]
        covers.update((u, v) for v in succ[u] if not implied >> v & 1)
    return covers


def poset_facts(n: int, covers) -> dict:
    """Bounded-extension edge count and purity, from the cover relations.

    Every cover path from a minimal to a maximal element is a maximal
    chain, so the poset is pure exactly when the shortest and the longest
    such path have the same length.
    """
    if n == 0:
        return {"n": 0, "edges": 1, "covers": 0, "pure": True}
    down = [[] for _ in range(n)]
    up = [[] for _ in range(n)]
    for u, v in covers:
        up[u].append(v)
        down[v].append(u)
    shortest = [None] * n
    longest = [None] * n
    pending = [len(d) for d in down]
    ready = [v for v in range(n) if not down[v]]
    for v in ready:
        shortest[v] = longest[v] = 0
    while ready:
        u = ready.pop()
        for v in up[u]:
            s, l = shortest[u] + 1, longest[u] + 1
            shortest[v] = s if shortest[v] is None else min(shortest[v], s)
            longest[v] = l if longest[v] is None else max(longest[v], l)
            pending[v] -= 1
            if pending[v] == 0:
                ready.append(v)
    maximals = [v for v in range(n) if not up[v]]
    minimals = [v for v in range(n) if not down[v]]
    pure = min(shortest[v] for v in maximals) == max(longest[v] for v in maximals)
    return {
        "n": n,
        "edges": len(covers) + len(minimals) + len(maximals),
        "covers": len(covers),
        "pure": pure,
    }


def random_poset_ring(rng: random.Random, ring_id: str, n: int, target: int) -> Ring:
    """A random DAG on n elements whose bounded extension has about
    ``target`` Hasse edges.  The full relation set (not just covers) is
    sent, in shuffled element order, so the program's canonicalisation does
    work.
    """
    names = [f"p{i}" for i in range(n)]
    lo, hi = 0.0, 0.5
    while True:
        density = rng.uniform(lo, hi)
        order = rng.sample(range(n), n)
        edges = [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        covers = covers_of(n, edges)
        facts = poset_facts(n, covers)
        if abs(facts["edges"] - target) <= EDGE_WINDOW:
            break
        # The edge count rises with density on this (sparse) side of its
        # peak, so narrowing the interval homes in on the target.
        if facts["edges"] < target:
            lo = density
        else:
            hi = density
        if hi - lo < 1e-4:
            lo, hi = 0.0, 0.5
    doc = {
        "mode": "poset",
        "elements": names,
        "relations": [[names[u], names[v]] for u, v in edges],
    }
    expect = {"kind": "poset", **facts}
    expect["cover_pairs"] = sorted([names[u], names[v]] for u, v in covers)
    return Ring(ring_id, ["analyze"], _dumps(doc), expect)


def grid_ring(ring_id: str, a: int, b: int) -> Ring:
    """Product of an a-chain and a b-chain: pure, so the ring is Gorenstein."""
    names = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    relations = []
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                relations.append([f"g{i}_{j}", f"g{i + 1}_{j}"])
            if j + 1 < b:
                relations.append([f"g{i}_{j}", f"g{i}_{j + 1}"])
    doc = {"mode": "poset", "elements": names, "relations": relations}
    n = a * b
    expect = {
        "kind": "poset",
        "n": n,
        "edges": len(relations) + 2,
        "covers": len(relations),
        "pure": True,
        "cover_pairs": sorted(relations),
        # closed form: free of rank (a - 1)(b - 1), Gorenstein
        "rank": (a - 1) * (b - 1),
        "torsion_number": 0,
    }
    return Ring(ring_id, ["analyze"], _dumps(doc), expect)


def dense_cone_ring(rng: random.Random, ring_id: str, r: int, dim: int, bound: int) -> Ring:
    """r distinct primitive random forms in Z^dim with entries in [-bound, bound]."""
    forms = []
    seen = set()
    while len(forms) < r:
        f = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if not any(f) or gcd(*f) != 1 or f in seen:
            continue
        seen.add(f)
        forms.append(f)
    doc = {"mode": "cone", "dim": dim, "forms": [list(f) for f in forms]}
    expect = {"kind": "cone", "forms": len(forms), "rational_rank": rational_rank(forms)}
    return Ring(ring_id, ["analyze"], _dumps(doc), expect)


def rational_rank(rows) -> int:
    """Rank over Q by Fraction elimination, independent of the program's Smith form."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                q = m[i][c] / p[c]
                m[i] = [x - q * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def veronese_ring(ring_id: str, n: int, r: int) -> Ring:
    """r-th Veronese of k[x_1..x_n], n >= 2: class group Z/r; d = 0 if r | n else gcd(r, n)."""
    forms = [[int(j == i) for j in range(n)] for i in range(n - 1)]
    forms.append([-1] * (n - 1) + [r])
    doc = {"mode": "cone", "dim": n, "forms": forms, "interior_point": [1] * (n - 1) + [n]}
    expect = {
        "kind": "cone",
        "forms": n,
        "rational_rank": n,
        "rank": 0,
        "invariant_factors": [str(r)] if r > 1 else [],
        "torsion_number": 0 if n % r == 0 else gcd(r, n),
    }
    return Ring(ring_id, ["analyze"], _dumps(doc), expect)


def segre_veronese_ring(ring_id: str, m: int, p: int, n: int, q: int) -> Ring:
    """Segre product of Veroneses: Z + Z/gcd(p, q), Gorenstein iff m/p == n/q."""
    dim = m + n - 1
    forms = [[int(j == i) for j in range(dim)] for i in range(m + n - 2)]
    forms.append([-1] * (m - 1) + [0] * (n - 1) + [p])
    forms.append([0] * (m - 1) + [-1] * (n - 1) + [q])
    doc = {"mode": "cone", "dim": dim, "forms": forms, "interior_point": [1] * (dim - 1) + [m + n]}
    g = gcd(p, q)
    expect = {
        "kind": "cone",
        "forms": m + n,
        "rational_rank": dim,
        "rank": 1,
        "invariant_factors": [str(g)] if g > 1 else [],
        "gorenstein": m % p == 0 and n % q == 0 and m // p == n // q,
    }
    return Ring(ring_id, ["analyze"], _dumps(doc), expect)


def build(workload: str, seed: int) -> list:
    """The fixed, seeded ring list of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "poset-wide":
        rings = [
            random_poset_ring(rng, f"poset-{n}-{k}", n, target)
            for count, n, target in POSET_SIZES
            for k in range(count)
        ]
        rings.append(grid_ring("grid-%dx%d" % GRID, *GRID))
        return rings
    if workload == "cone-dense":
        rings = [
            dense_cone_ring(rng, f"dense-{r}x{dim}-{k}", r, dim, bound)
            for count, r, dim, bound in DENSE_CONES
            for k in range(count)
        ]
        rings.append(veronese_ring("veronese-%d-%d" % VERONESE, *VERONESE))
        rings.append(segre_veronese_ring("segre-veronese-%d-%d-%d-%d" % SEGRE_VERONESE, *SEGRE_VERONESE))
        return rings
    if workload == "sweep-small":
        argv = ["sweep", "--count", str(SWEEP_COUNT), "--max-n", str(SWEEP_MAX_N), "--seed", str(seed)]
        expect = {"kind": "sweep", "count": SWEEP_COUNT, "max_n": SWEEP_MAX_N, "seed": seed}
        return [Ring("sweep", argv, "", expect)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("poset-wide", "cone-dense", "sweep-small")
