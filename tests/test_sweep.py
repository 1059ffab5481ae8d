import dataclasses
import json
import random

import pytest

import divclass.sweep as sweep_module
from divclass import InputError, build_poset, two_chains_poset
from divclass.cli import main
from divclass.errors import InternalInvariantError
from divclass.sweep import draw_relations, poset_document, random_poset, run_sweep

from oracles import per_sample_sweep


def test_random_poset_deterministic():
    first = [random_poset(random.Random(5), 6) for _ in range(10)]
    second = [random_poset(random.Random(5), 6) for _ in range(10)]
    assert first == second


def test_poset_document_rebuilds():
    p = random_poset(random.Random(17), 7)
    doc = poset_document(p)
    assert build_poset(doc["elements"], doc["relations"]) == p


def test_run_sweep_all_green():
    summary = run_sweep(count=200, max_n=7, seed=42)
    assert summary.all_passed
    doc = summary.as_document()
    assert doc["seed"] == 42
    assert doc["checks"]["report_consistency"] == {"pass": 200, "fail": 0}
    assert doc["checks"]["chain_divisibility"]["pass"] == 200
    assert doc["failures"] == []


def test_run_sweep_same_seed_same_summary():
    first = run_sweep(count=50, max_n=5, seed=7).as_document()
    second = run_sweep(count=50, max_n=5, seed=7).as_document()
    assert first == second


def test_run_sweep_parameter_validation():
    with pytest.raises(InputError):
        run_sweep(count=0, max_n=5, seed=1)
    with pytest.raises(InputError):
        run_sweep(count=1, max_n=11, seed=1)


def test_run_sweep_records_failures(monkeypatch):
    import divclass.sweep as sweep_module
    from divclass.errors import InternalInvariantError

    def broken(_):
        raise InternalInvariantError("forced failure")

    monkeypatch.setattr(sweep_module, "joinmeet_report", broken)
    summary = run_sweep(count=3, max_n=4, seed=2)
    assert not summary.all_passed
    assert len(summary.failures) == 3
    failure = summary.failures[0]
    assert failure["check"] == "report_consistency"
    assert "elements" in failure["poset"]


@pytest.mark.parametrize("count, max_n, seed", [(200, 7, 42), (3000, 10, 1), (1000, 10, 5)])
def test_run_sweep_matches_per_sample_evaluation(count, max_n, seed):
    reference = per_sample_sweep(count, max_n, seed).as_document()
    assert run_sweep(count, max_n, seed).as_document() == reference


def samples(count, max_n, seed):
    """The posets that run_sweep(count, max_n, seed) draws, in order."""
    rng = random.Random(seed)
    return [random_poset(rng, max_n) for _ in range(count)]


def test_each_distinct_structure_is_evaluated_once(monkeypatch):
    seen = []
    original = sweep_module.joinmeet_report

    def counting(poset):
        seen.append((poset.n, poset.covers))
        return original(poset)

    monkeypatch.setattr(sweep_module, "joinmeet_report", counting)
    assert run_sweep(3000, 10, 1).all_passed
    distinct = {(p.n, p.covers) for p in samples(3000, 10, 1)}
    assert len(seen) == len(set(seen)) == len(distinct) == 1169


def test_each_distinct_draw_is_built_once(monkeypatch):
    built = []
    original_build = sweep_module.build_poset

    def counting_build(*args):
        built.append(args)
        return original_build(*args)

    monkeypatch.setattr(sweep_module, "build_poset", counting_build)
    assert run_sweep(3000, 10, 1).all_passed
    rng = random.Random(1)
    draws = [draw_relations(rng, 10) for _ in range(3000)]
    # one build per distinct draw, in the order the draws first appear
    assert len(built) == len(set(draws)) == 1467
    names = [f"e{i}" for i in range(10)]
    assert built == [
        (names[:n], [(names[a], names[b]) for a, b in relations]) for n, relations in dict.fromkeys(draws)
    ]


def test_forced_failure_reaches_every_sample_of_its_structure(monkeypatch):
    # the three-element chain: ten samples, relabelled five ways
    target = (3, frozenset({(0, 1), (1, 2)}))
    posets = samples(300, 4, 3)
    hits = [index for index, p in enumerate(posets) if (p.n, p.covers) == target]
    assert len(hits) == 10
    # some hits repeat an earlier draw, whose poset is rebuilt to be quoted
    rng = random.Random(3)
    draws = [draw_relations(rng, 4) for _ in range(300)]
    assert len({draws[index] for index in hits}) < 10
    original = sweep_module.joinmeet_report

    def broken(poset):
        if (poset.n, poset.covers) == target:
            raise InternalInvariantError("forced failure")
        return original(poset)

    monkeypatch.setattr(sweep_module, "joinmeet_report", broken)
    summary = run_sweep(300, 4, 3)
    assert [f["index"] for f in summary.failures] == hits
    for failure in summary.failures:
        assert failure["check"] == "report_consistency"
        assert failure["message"] == "forced failure"
        assert failure["poset"] == poset_document(posets[failure["index"]])
    assert len({str(failure["poset"]) for failure in summary.failures}) == 5
    doc = summary.as_document()
    assert doc["checks"]["report_consistency"] == {"pass": 300 - len(hits), "fail": len(hits)}
    for check in sweep_module.CHECKS[1:]:
        assert doc["checks"][check] == {"pass": 300 - len(hits), "fail": 0}
    assert doc == per_sample_sweep(300, 4, 3).as_document()


def test_wrong_torsion_number_fails_the_sweep_checks(monkeypatch, capsys):
    # d raised by 1 on two structures: the pure three-element chain then reads
    # d = 1, and two chains of 3 and 1 elements read d = 3, which does not
    # divide their length gap 2; joinmeet_report itself still builds
    chain = (3, frozenset({(0, 1), (1, 2)}))
    two_chains = two_chains_poset(2, 0)
    targets = {chain, (two_chains.n, two_chains.covers)}
    posets = samples(100, 4, 6)
    original = sweep_module.joinmeet_report

    def wrong_d(poset):
        report = original(poset)
        if (poset.n, poset.covers) in targets:
            return dataclasses.replace(report, torsion_number=report.torsion_number + 1)
        return report

    monkeypatch.setattr(sweep_module, "joinmeet_report", wrong_d)
    summary = run_sweep(100, 4, 6)
    assert not summary.all_passed
    assert summary.failures == [
        {
            "index": 70,
            "check": "chain_divisibility",
            "message": "d=3 does not divide chain gap 2",
            "poset": poset_document(posets[70]),
        },
        {
            "index": 74,
            "check": "pure_iff_gorenstein",
            "message": "d=1, pure=True",
            "poset": poset_document(posets[74]),
        },
    ]
    # each failure's document replays the structure that failed
    replayed = [build_poset(f["poset"]["elements"], f["poset"]["relations"]) for f in summary.failures]
    assert [(q.n, q.covers) for q in replayed] == [(two_chains.n, two_chains.covers), chain]
    assert summary.as_document() == per_sample_sweep(100, 4, 6).as_document()
    assert main(["sweep", "--count", "100", "--max-n", "4", "--seed", "6"]) == 2
    assert json.loads(capsys.readouterr().out)["all_passed"] is False


@pytest.mark.parametrize("count, max_n", [(2.5, 3), ("3", 3), (2, 3.5), (2, "3")])
def test_run_sweep_arguments_must_be_integers(count, max_n):
    with pytest.raises(InputError, match="must be an integer"):
        run_sweep(count, max_n, 1)



@pytest.mark.parametrize("seed", ["x", 1.5])
def test_run_sweep_seed_must_be_an_integer(seed):
    # the summary used to echo a seed that is not an integer
    with pytest.raises(InputError, match="sweep seed must be an integer"):
        run_sweep(3, 3, seed)
