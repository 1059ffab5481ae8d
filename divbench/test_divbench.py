"""Self-tests of the benchmark.

    python3 -m pytest -q divbench/test_divbench.py

The last tests run the benchmark itself on sweep-small and take about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# Every metric the benchmark was specified with, and its unit.  fail_ratio
# is printed on the summary line and carried as its complement pass_ratio;
# wall_s likewise, and carried scaled to a reference speed as scaled_wall_s.
SPECIFIED_END_TO_END = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "1"}
SPECIFIED_PER_LAYER = {
    "exact_linalg.smith.s": "s",
    "exact_linalg.transform_product.s": "s",
    "exact_linalg.max_entry_bits": "bits",
    "exact_linalg.eliminated_cells": "count",
    "exact_linalg.smith_cache_hit_ratio": "1",
    "abelian.structure.s": "s",
    "abelian.torsion_number.s": "s",
    "abelian.is_zero_class.s": "s",
    "joinmeet.report.s": "s",
    "joinmeet.verify_column_relations.s": "s",
    "joinmeet.tree_route.s": "s",
    "joinmeet.hasse_edges": "count",
    "semigroup.cone_report.s": "s",
    "poset.build_poset.s": "s",
    "poset.maximal_chains.s": "s",
    "poset.chains": "count",
    "sweep.run_sweep.s": "s",
    "sweep.samples": "count",
    "cli.parse.s": "s",
    "cli.render.s": "s",
    "cli.output_bytes": "bytes",
    "setup.networkx_import.s": "s",
    "trace.overhead.s": "s",
    **{f"{layer}.self.s": "s" for layer in
       ("cli", "sweep", "poset", "joinmeet", "semigroup", "abelian", "exact_linalg")},
}


def documents(workload, seed):
    return [(r.id, r.argv, r.stdin) for r in inputs.build(workload, seed)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_documents(workload):
    assert documents(workload, 5) == documents(workload, 5)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_documents(workload):
    first, second = documents(workload, 5), documents(workload, 6)
    assert [d[0] for d in first] == [d[0] for d in second]
    # the named families (grid, Veronese, Segre-Veronese) do not depend on the seed
    seeded = [(a, b) for a, b in zip(first, second) if a[0].startswith(("poset-", "dense-", "sweep"))]
    assert seeded and all(a != b for a, b in seeded)


def test_covers_and_purity_from_generator():
    # a < b < d, a < c < d, plus the implied a < d: a pure diamond
    covers = inputs.covers_of(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    assert covers == {(0, 1), (1, 3), (0, 2), (2, 3)}
    assert inputs.poset_facts(4, covers) == {"n": 4, "edges": 6, "covers": 4, "pure": True}
    # a < b < c next to a lone d: not pure
    assert inputs.poset_facts(4, {(0, 1), (1, 2)})["pure"] is False


def run_in_process(ring):
    sys.path.insert(0, worker.SRC)
    from divclass import cli

    return worker.run_ring(cli.main, {"id": ring.id, "argv": ring.argv, "stdin": ring.stdin})


@pytest.fixture(scope="module")
def family_results():
    rings = [
        inputs.veronese_ring("veronese", *inputs.VERONESE),
        inputs.segre_veronese_ring("segre", *inputs.SEGRE_VERONESE),
        inputs.grid_ring("grid", *inputs.GRID),
    ]
    return [(ring, run_in_process(ring)) for ring in rings]


def test_closed_forms_pass(family_results):
    for ring, result in family_results:
        assert checks.check_ring(result, ring.expect) == (1, 0, []), ring.id


def test_perturbed_torsion_number_is_a_failure(family_results):
    for ring, result in family_results:
        if "torsion_number" in ring.expect:
            expect = dict(ring.expect, torsion_number=ring.expect["torsion_number"] + 1)
            attempted, failed, problems = checks.check_ring(result, expect)
            assert (attempted, failed) == (1, 1), ring.id
            assert any("torsion number" in p for p in problems)


def test_changed_output_or_exit_code_is_a_failure(family_results):
    ring, result = family_results[0]
    good = checks.digest(result["stdout"])
    assert checks.check_ring(result, ring.expect, good)[1] == 0
    edited = dict(result, stdout=result["stdout"].replace('"rank": 0', '"rank": 0 '))
    assert checks.check_ring(edited, ring.expect, good)[1] == 1
    assert checks.check_ring(dict(result, code=2), ring.expect)[1] == 1
    assert checks.check_ring(dict(result, stdout="oops"), ring.expect)[1] == 1


def test_failed_sweep_samples_are_counted():
    expect = {"kind": "sweep", "count": 3, "max_n": 4, "seed": 9}
    doc = {
        "mode": "sweep", "count": 3, "max_n": 4, "seed": 9,
        "checks": {"rank_formula": {"pass": 2, "fail": 1}},
        "failures": [{"index": 1, "check": "rank_formula"}],
        "all_passed": False,
    }
    result = {"code": 2, "stdout": json.dumps(doc), "stderr": ""}
    assert checks.check_ring(result, expect)[:2] == (3, 1)
    doc.update(checks={"rank_formula": {"pass": 3, "fail": 0}}, failures=[], all_passed=True)
    assert checks.check_ring(dict(result, code=0, stdout=json.dumps(doc)), expect) == (3, 0, [])


def benchmark(tmp_cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(tmp_cwd, "divbench", "run.py"), *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def record_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_specified_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == SPECIFIED_END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **SPECIFIED_PER_LAYER, "trace.untraced_wall.s": "s"}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert run.END_TO_END_UNITS == SPECIFIED_END_TO_END
    assert SPECIFIED_PER_LAYER.items() <= run.PER_LAYER_UNITS.items()


def test_end_to_end_record():
    proc = benchmark(ROOT, "--workload", "sweep-small", "--seed", "3", "--seconds", "1", "--trace", "0")
    record = record_of(proc)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert {k: v["unit"] for k, v in record["metrics"].items()} == SPECIFIED_END_TO_END
    assert "fail_ratio=0\n" in proc.stdout


def test_traced_record_and_counts_repeat():
    args = ("--workload", "sweep-small", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = record_of(benchmark(ROOT, *args)), record_of(benchmark(ROOT, *args))
    assert first["correct"] and second["correct"]
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert SPECIFIED_PER_LAYER.items() <= units.items()
    for name in run.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["sweep.samples"]["value"] == inputs.SWEEP_COUNT
    assert first["metrics"]["poset.chains"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "divbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = benchmark(str(tmp_path), "--workload", "cone-dense", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
