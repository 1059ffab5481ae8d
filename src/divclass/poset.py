"""Finite posets, their bounded extension, purity, and maximal chains.

Elements are kept in a fixed linear-extension order: whenever x_i < x_j in
the poset, the index i is smaller than j.  ``build_poset`` accepts any
acyclic relation set and canonicalizes it (transitive reduction plus a
stable relabeling), so every other function can rely on that order.  A
``BoundedPoset`` takes only its base ``Poset`` and derives its Hasse edges
from it, so every extension in the package is the bounded extension of a
valid poset.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    InputError,
    InternalInvariantError,
    LimitExceededError,
    as_integer,
    as_tuple,
    excerpt,
    require,
)

DEFAULT_CHAIN_LIMIT = 10**6


@dataclass(frozen=True)
class Poset:
    """A finite poset given by its cover relations on linearly-extended indices.

    ``labels`` is a tuple of distinct strings and ``covers`` a frozenset of
    index pairs (i, j) with 0 <= i < j < n, none implied by the others;
    anything else is an ``InputError``.
    """

    labels: tuple
    covers: frozenset

    def __post_init__(self):
        labels, covers = self.labels, self.covers
        for label in require(labels, tuple, "poset labels must be a tuple of strings"):
            require(label, str, "a poset label must be a string")
        if len(set(labels)) != len(labels):
            raise InputError("poset labels must be distinct")
        require(covers, frozenset, "poset covers must be a frozenset of index pairs")
        n = len(labels)
        ups = [[] for _ in range(n)]
        for pair in covers:
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and type(pair[0]) is int  # exactly int, so no bool
                and type(pair[1]) is int
                and 0 <= pair[0] < pair[1] < n
            ):
                raise InputError(
                    f"cover {excerpt(pair)} is not an index pair (i, j) with 0 <= i < j < {n}"
                )
            ups[pair[0]].append(pair[1])
        implied = covers.difference(_reduction(ups))
        if implied:
            raise InputError(f"cover {excerpt(min(implied))} is implied by the other covers")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _up(self) -> tuple:
        out = [[] for _ in range(self.n)]
        for i, j in self.covers:
            out[i].append(j)
        return tuple(tuple(sorted(js)) for js in out)

    def up_covers(self, i: int) -> tuple:
        return self._up[i]

    def minimals(self) -> tuple:
        uppers = {j for _, j in self.covers}
        return tuple(i for i in range(self.n) if i not in uppers)

    def maximals(self) -> tuple:
        return tuple(i for i in range(self.n) if not self._up[i])

    def cover_label_pairs(self) -> tuple:
        """Cover relations as (smaller, larger) label pairs, sorted by index."""
        return tuple((self.labels[i], self.labels[j]) for i, j in sorted(self.covers))


BOTTOM = 0


@dataclass(frozen=True)
class BoundedPoset:
    """The extension of a poset by a new bottom and top element.

    Vertices are integers: 0 is the bottom, 1..n are the poset elements in
    label order, n+1 is the top.  ``edges`` lists the Hasse edges in a fixed
    order: internal covers (lexicographic), then bottom edges, then top
    edges.  The empty poset degenerates to the single edge (bottom, top).
    The edges are derived from ``base`` on construction and cannot be
    passed in; a ``base`` that is not a ``Poset`` is an ``InputError``.
    """

    base: Poset
    edges: tuple = field(init=False)

    def __post_init__(self):
        poset = require(self.base, Poset, "a bounded extension needs a Poset")
        n = poset.n
        internal = sorted((i + 1, j + 1) for i, j in poset.covers)
        bottom_edges = [(BOTTOM, i + 1) for i in poset.minimals()]
        top_edges = [(i + 1, n + 1) for i in poset.maximals()]
        edges = tuple(internal + bottom_edges + top_edges) if n else ((BOTTOM, 1),)
        object.__setattr__(self, "edges", edges)

    @property
    def top(self) -> int:
        return self.base.n + 1

    def vertex_name(self, v: int) -> str:
        if v == BOTTOM:
            return "bot"
        if v == self.top:
            return "top"
        return str(self.base.labels[v - 1])

    def is_graded(self) -> bool:
        """Whether every vertex gets one rank along all edge paths from the bottom.

        Ranks propagate from the bottom along the Hasse edges, taken by
        target; grading fails exactly when two paths assign different ranks
        to the same vertex.
        """
        ranks: list = [None] * (self.top + 1)
        ranks[BOTTOM] = 0
        for u, v in sorted(self.edges, key=lambda e: (e[1], e[0])):
            if ranks[u] is None:
                raise InternalInvariantError(f"vertex {u} reached before being ranked")
            candidate = ranks[u] + 1
            if ranks[v] is None:
                ranks[v] = candidate
            elif ranks[v] != candidate:
                return False
        return True


def build_poset(names: Iterable[str], relations: Iterable[Sequence] = ()) -> Poset:
    """Canonical poset from a sequence of element names and one of strict relations.

    The relations may include comparisons implied by others.  The elements
    are renumbered by the lexicographically smallest linear extension over
    input positions (Kahn's algorithm with a heap, so ties keep input
    order); an element left unplaced lies on a cycle.  The covers are the
    transitive reduction, taken in reverse linear-extension order from
    bitsets of the elements each element reaches (Aho, Garey and Ullman).
    Cycles, unknown names and relations that are not pairs are rejected.
    """
    names = [str(x) for x in as_tuple(names, "element names")]
    if len(set(names)) != len(names):
        raise InputError("element names must be distinct")
    index = {x: i for i, x in enumerate(names)}
    above = [set() for _ in names]
    for pair in as_tuple(relations, "relations"):
        try:
            a, b = as_tuple(pair, "relation")
        except (InputError, ValueError):
            raise InputError(f"relation {excerpt(pair)} is not a pair of element names") from None
        a, b = str(a), str(b)
        for x in (a, b):
            if x not in index:
                raise InputError(f"relation mentions unknown element {excerpt(x)}")
        if a == b:
            raise InputError(f"relation {excerpt(a)} < {excerpt(b)} is reflexive, hence a cycle")
        above[index[a]].add(index[b])
    below_count = Counter(v for targets in above for v in targets)
    ready = [v for v in range(len(names)) if not below_count[v]]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in above[u]:
            below_count[v] -= 1
            if not below_count[v]:
                heapq.heappush(ready, v)
    if len(order) != len(names):
        raise InputError("relations contain a cycle")
    position = {node: k for k, node in enumerate(order)}
    covers = _reduction([[position[v] for v in above[node]] for node in order])
    return Poset(tuple(names[node] for node in order), frozenset(covers))


def _reduction(ups: Sequence[Iterable[int]]) -> list:
    """The pairs (k, j), j in ``ups[k]``, that no chain through the other pairs implies.

    Every j in ``ups[k]`` must exceed k.  Taken in reverse index order from
    bitsets of the indices each index reaches (Aho, Garey and Ullman).
    """
    reach = [0] * len(ups)  # bit j of reach[k]: index j lies above index k
    covers = []
    for k in reversed(range(len(ups))):
        for j in sorted(ups[k]):
            if not reach[k] >> j & 1:
                covers.append((k, j))
                reach[k] |= reach[j] | 1 << j
    return covers


def maximal_chains(poset: Poset, limit: int = DEFAULT_CHAIN_LIMIT) -> list:
    """All maximal chains as index tuples, in depth-first enumeration order.

    An explicit stack of (element, chain length) replaces recursion, so a
    long chain costs no call depth; up covers are pushed in reverse order.
    """
    require(poset, Poset, "maximal_chains needs a Poset")
    limit = as_integer(limit, "chain limit")
    chains: list = []
    chain: list = []
    pending = [(start, 1) for start in reversed(poset.minimals())]
    while pending:
        v, length = pending.pop()
        del chain[length - 1 :]
        chain.append(v)
        ups = poset.up_covers(v)
        if ups:
            pending.extend((w, length + 1) for w in reversed(ups))
            continue
        if len(chains) >= limit:
            raise LimitExceededError(f"maximal-chain enumeration exceeded the limit of {limit}")
        chains.append(tuple(chain))
    return chains


def disjoint_chain_pairs(chains: Sequence[tuple]) -> Iterator[tuple]:
    """Element-disjoint pairs (chains[a], chains[b]) with a < b, lazily, ordered by (a, b)."""
    for a, first in enumerate(chains):
        members = set(first)
        for second in chains[a + 1 :]:
            if members.isdisjoint(second):
                yield first, second


def two_chains_poset(a: int, b: int) -> Poset:
    """Disjoint union of two chains with a and b cover steps each.

    The chains have a+1 and b+1 elements; a = b = 0 is the two-element
    antichain.
    """
    a, b = as_integer(a, "chain length"), as_integer(b, "chain length")
    if a < 0 or b < 0:
        raise InputError("chain lengths must be nonnegative")
    xs = [f"x{i}" for i in range(a + 1)]
    ys = [f"y{i}" for i in range(b + 1)]
    relations = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    return build_poset(xs + ys, relations)
