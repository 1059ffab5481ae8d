"""Randomized property sweep over posets.

Each sampled poset is pushed through the full join-meet pipeline and the
theorems the library rests on are checked as executable properties.  Any
failure is a bug somewhere, never a property of the poset; offending
posets are serialized so a failure can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InputError, InternalInvariantError
from .joinmeet import joinmeet_report
from .poset import Poset, build_poset, disjoint_chain_pairs, maximal_chains

CHECKS = (
    "report_consistency",  # report builds; internal cross-checks hold
    "rank_formula",  # free of rank |E| - (n + 1)
    "cycle_coefficients",  # no cycle passes a tree edge twice: entries in {-1, 0, 1}
    "pure_iff_gorenstein",  # torsion number 0 exactly for pure posets
    "chain_divisibility",  # d divides |a - b| for disjoint maximal chains
)


def random_poset(rng: random.Random, max_n: int) -> Poset:
    """Random DAG by edge probability, canonicalized through build_poset.

    The element order is shuffled before edges are drawn so the stable
    relabeling is actually exercised.
    """
    n = rng.randint(0, max_n)
    names = [f"e{i}" for i in range(n)]
    density = rng.choice((0.0, 0.1, 0.2, 0.35, 0.5, 0.75))
    order = rng.sample(range(n), n)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((names[order[i]], names[order[j]]))
    return build_poset(names, relations)


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

    def record(self, check: str, ok: bool, index: int, poset: Poset, message: str = ""):
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


def run_sweep(count: int, max_n: int, seed: int) -> SweepSummary:
    """Evaluate every property on ``count`` seeded random posets."""
    if count < 1:
        raise InputError("sweep count must be at least 1")
    if not 0 <= max_n <= 10:
        raise InputError("sweep max_n must be between 0 and 10")
    rng = random.Random(seed)
    summary = SweepSummary(count=count, max_n=max_n, seed=seed)
    for index in range(count):
        poset = random_poset(rng, max_n)
        try:
            report = joinmeet_report(poset)
        except InternalInvariantError as exc:
            summary.record("report_consistency", False, index, poset, str(exc))
            continue
        summary.record("report_consistency", True, index, poset)

        expected_rank = report.num_height_one_primes - (poset.n + 1)
        summary.record(
            "rank_formula",
            report.group.free_rank == expected_rank and not report.group.torsion_factors,
            index,
            poset,
            f"got {report.group}, expected free rank {expected_rank}",
        )

        summary.record(
            "cycle_coefficients",
            all(len({v for v, _ in cycle}) == len(cycle) for cycle in report.cycles),
            index,
            poset,
            "coefficient outside {-1, 0, 1}",
        )

        summary.record(
            "pure_iff_gorenstein",
            (report.torsion_number == 0) == report.pure,
            index,
            poset,
            f"d={report.torsion_number}, pure={report.pure}",
        )

        d = report.torsion_number
        pairs = disjoint_chain_pairs(maximal_chains(poset))
        gaps = (abs(len(first) - len(second)) for first, second in pairs)
        # the first gap that d fails to divide, where d = 0 divides only 0
        bad_gap = next((gap for gap in gaps if (gap % d if d else gap)), None)
        summary.record(
            "chain_divisibility",
            bad_gap is None,
            index,
            poset,
            f"d={d} does not divide chain gap {bad_gap}" if bad_gap is not None else "",
        )
    return summary
