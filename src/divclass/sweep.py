"""Randomized property sweep over posets.

The theorems the library rests on are checked as executable properties of
seeded random posets, through the full join-meet pipeline.  A sample is a
draw, ``draw_relations``: its size n and its relations as index pairs, read
off one RNG stream, which ``build_drawn`` turns into a canonical poset;
``random_poset`` does both.  Small draws repeat often, so each distinct
draw is built once per ``run_sweep`` call.  Every check reads only the
poset's structure, its size n and its canonical covers, so each distinct
structure is evaluated once per call, keyed by ``(n, covers)``, and its
outcomes are recorded for every sample that has it, under the sample's own
index.  Any failure is a bug somewhere, never a property of the
poset; offending posets are serialized so a failure can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain

from .errors import InputError, InternalInvariantError, as_integer
from .joinmeet import joinmeet_report
from .poset import Poset, build_poset, disjoint_chain_pairs, maximal_chains

CHECKS = (
    "report_consistency",  # report builds; internal cross-checks hold
    "rank_formula",  # free of rank |E| - (n + 1)
    "cycle_coefficients",  # no cycle passes a tree edge twice: entries in {-1, 0, 1}
    "pure_iff_gorenstein",  # torsion number 0 exactly for pure posets
    "chain_divisibility",  # d divides |a - b| for disjoint maximal chains
)


def draw_relations(rng: random.Random, max_n: int) -> tuple:
    """One random DAG by edge probability, as ``(n, relations)``.

    ``relations`` is a tuple of index pairs ``(a, b)``, meaning element
    ``e{a}`` lies below ``e{b}``.  The element order is shuffled before
    edges are drawn so the stable relabeling of ``build_poset`` is actually
    exercised.
    """
    n = rng.randint(0, max_n)
    density = rng.choice((0.0, 0.1, 0.2, 0.35, 0.5, 0.75))
    order = rng.sample(range(n), n)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((order[i], order[j]))
    return n, tuple(relations)


def build_drawn(n: int, relations: tuple) -> Poset:
    """The canonical poset of a draw: elements ``e0``..``e{n-1}``, through build_poset."""
    names = [f"e{i}" for i in range(n)]
    return build_poset(names, [(names[a], names[b]) for a, b in relations])


def random_poset(rng: random.Random, max_n: int) -> Poset:
    """Random DAG by edge probability, canonicalized through build_poset."""
    return build_drawn(*draw_relations(rng, max_n))


def poset_document(poset: Poset) -> dict:
    """JSON-ready serialization, sufficient to rebuild the poset."""
    return {
        "elements": list(poset.labels),
        "relations": [list(pair) for pair in poset.cover_label_pairs()],
    }


@dataclass
class SweepSummary:
    count: int
    max_n: int
    seed: int
    attempts: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def record(self, check: str, ok: bool, index: int, poset: Poset | None, message: str = ""):
        """Count one outcome; a failure also keeps ``poset``, which only a failure reads."""
        self.attempts[check] = self.attempts.get(check, 0) + 1
        if ok:
            self.passes[check] = self.passes.get(check, 0) + 1
        else:
            self.failures.append(
                {
                    "index": index,
                    "check": check,
                    "message": message,
                    "poset": poset_document(poset),
                }
            )

    def as_document(self) -> dict:
        return {
            "count": self.count,
            "max_n": self.max_n,
            "seed": self.seed,
            "checks": {
                check: {
                    "pass": self.passes.get(check, 0),
                    "fail": self.attempts.get(check, 0) - self.passes.get(check, 0),
                }
                for check in CHECKS
            },
            "failures": self.failures,
            "all_passed": self.all_passed,
        }


def _evaluate(poset: Poset) -> tuple:
    """``(check, passed, message)`` for each check that runs, in ``CHECKS`` order.

    A report that fails its own cross-checks ends the list.  One that builds
    has passed ``rank_formula`` and ``cycle_coefficients``, which
    ``joinmeet_report`` certifies, so only the last two checks are evaluated
    here.  Every check reads only ``n`` and the covers, never the labels, so
    the outcomes hold for every poset of the same structure; a message is
    formatted only for a check that fails.
    """
    try:
        report = joinmeet_report(poset)
    except InternalInvariantError as exc:
        return (("report_consistency", False, str(exc)),)
    failed = {}
    d = report.torsion_number
    if (d == 0) != report.pure:
        failed["pure_iff_gorenstein"] = f"d={d}, pure={report.pure}"

    pairs = disjoint_chain_pairs(maximal_chains(poset))
    gaps = (abs(len(first) - len(second)) for first, second in pairs)
    # the first gap that d fails to divide, where d = 0 divides only 0
    bad_gap = next((gap for gap in gaps if (gap % d if d else gap)), None)
    if bad_gap is not None:
        failed["chain_divisibility"] = f"d={d} does not divide chain gap {bad_gap}"

    return tuple((check, check not in failed, failed.get(check, "")) for check in CHECKS)


def run_sweep(count: int, max_n: int, seed: int) -> SweepSummary:
    """Evaluate every property on ``count`` seeded random posets.

    Each distinct draw is built once per call, and only its structure's
    outcomes are kept; a sample that repeats a draw rebuilds its ``Poset``
    only if a check fails and must quote it.  Each distinct structure is
    evaluated once per call, keyed by ``(poset.n, poset.covers)``:
    ``build_poset`` makes the covers a canonical frozenset, so two samples
    share a key exactly when they share a structure.  Every sample records
    its structure's outcomes under its own index.
    """
    count = as_integer(count, "sweep count")
    max_n = as_integer(max_n, "sweep max_n")
    seed = as_integer(seed, "sweep seed")
    if count < 1:
        raise InputError("sweep count must be at least 1")
    if not 0 <= max_n <= 10:
        raise InputError("sweep max_n must be between 0 and 10")
    rng = random.Random(seed)
    summary = SweepSummary(count=count, max_n=max_n, seed=seed)
    outcomes_of_draw = {}
    outcomes_of = {}
    for index in range(count):
        n, relations = drawn = draw_relations(rng, max_n)
        # the draw packed as bytes, n and then each pair's indices, all at
        # most 10: two bytes a pair, where a tuple of pairs keeps some 64
        packed = bytes([n, *chain.from_iterable(relations)])
        poset = None
        outcomes = outcomes_of_draw.get(packed)
        if outcomes is None:
            poset = build_drawn(*drawn)
            key = (poset.n, poset.covers)
            outcomes = outcomes_of.get(key)
            if outcomes is None:
                outcomes = outcomes_of[key] = _evaluate(poset)
            outcomes_of_draw[packed] = outcomes
        for check, ok, message in outcomes:
            if not ok and poset is None:
                poset = build_drawn(*drawn)  # a failure quotes its sample's poset
            summary.record(check, ok, index, poset, message)
    return summary
