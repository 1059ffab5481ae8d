"""Seeded end-to-end and per-layer benchmark for divclass.

    python3 divbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's ring list is generated
from the seed (``inputs.py``) and fed, one ring at a time, to
``divclass.cli.main`` in a fresh interpreter per pass (``worker.py``); passes
repeat until S seconds are used, and every pass's outputs are checked
(``checks.py``).  The last line of stdout is one JSON record.

--trace 0 reports the end-to-end metrics:
  scaled_wall_s
               time of one pass over the ring list through cli.main, at a
               fixed reference speed of the machine: the sum over rings of
               each ring's median time across passes (wall_s, printed on
               the summary line), times CAL_REF_S over the median time of
               a fresh interpreter importing networkx alone (CAL_CODE),
               which is timed between the passes like set-up.  The speed
               of a shared host can halve from one minute to the next and
               moves both times alike; the ratio cancels the drift, and no
               change to the program moves the divisor.
  setup_s      median time for a fresh interpreter to import divclass.cli and
               build its parser, over at least SETUP_SAMPLES cold starts
  peak_rss_mb  median peak resident memory of a pass's process
  pass_ratio   1 - failed/attempted; a ring fails on a nonzero exit code or
               on output that fails a check (the fail ratio, kept as its
               complement so the metric never reads 0)

--trace 1 alternates untraced and traced passes and reports per-layer
times, counts and self times (``tracer.py``), the networkx share of set-up,
and the tracing overhead.  Spans of the last traced pass are written to
``.divbench/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".divbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 10
SETUP_PER_PASS = 2
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60
SETUP_CODE = "import divclass.cli as cli; cli.build_parser()"
# The calibration imports a library the program uses, never the program: a
# cold start of this kind slowed with the program in every drift seen on
# the 2-vCPU host the benchmark was written on (setup_s against wall_s over
# 10 runs: correlation 0.86 on poset-wide, 0.94 on sweep-small), while a
# pure-Python compute loop did not follow it.
CAL_CODE = "import networkx"
CAL_PER_PASS = 2
# About the time of CAL_CODE on that host; only a scale, so that
# scaled_wall_s reads in seconds there.
CAL_REF_S = 0.30

END_TO_END_UNITS = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "1"}

PER_LAYER_UNITS = {
    "exact_linalg.smith.s": "s",
    "exact_linalg.transform_product.s": "s",
    "exact_linalg.max_entry_bits": "bits",
    "exact_linalg.eliminated_cells": "count",
    "exact_linalg.smith_cache_hit_ratio": "1",
    "exact_linalg.self.s": "s",
    "abelian.structure.s": "s",
    "abelian.torsion_number.s": "s",
    "abelian.is_zero_class.s": "s",
    "abelian.self.s": "s",
    "joinmeet.report.s": "s",
    "joinmeet.verify_column_relations.s": "s",
    "joinmeet.tree_route.s": "s",
    "joinmeet.hasse_edges": "count",
    "joinmeet.self.s": "s",
    "semigroup.cone_report.s": "s",
    "semigroup.self.s": "s",
    "poset.build_poset.s": "s",
    "poset.maximal_chains.s": "s",
    "poset.chains": "count",
    "poset.self.s": "s",
    "sweep.run_sweep.s": "s",
    "sweep.samples": "count",
    "sweep.self.s": "s",
    "cli.parse.s": "s",
    "cli.render.s": "s",
    "cli.output_bytes": "bytes",
    "cli.self.s": "s",
    "setup.networkx_import.s": "s",
    "trace.overhead.s": "s",
    "trace.untraced_wall.s": "s",
}

# Counts repeat exactly from pass to pass; a difference is a defect.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit != "s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(code: str = SETUP_CODE, env: dict = None) -> float:
    """Wall time of one fresh interpreter running ``code``: by default
    importing divclass and building the parser.

    ``wait()`` without a timeout blocks in waitpid and returns when the
    child ends; with a timeout it polls in steps of up to 50 ms, which
    would quantize the measurement.  A timer enforces the limit instead.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env or child_env(),
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def networkx_import_seconds() -> float:
    """Cumulative import time of networkx during set-up, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE], cwd=ROOT,
                          env=child_env(), check=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "networkx":
            return int(fields[1]) / 1e6
    return 0.0


def write_rings(rings, path):
    """The documents a worker sends to the program; the expectations stay here."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([{"id": r.id, "argv": r.argv, "stdin": r.stdin} for r in rings], handle)


def run_pass(rings_path: str, spans_path: str = None) -> dict:
    """One worker process over all rings, traced when spans_path is given.

    Returns None if the worker died or timed out.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"), rings_path]
    if spans_path:
        argv += ["1", spans_path]
    else:
        argv.append("0")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(layer: dict) -> dict:
    inclusive, self_time, counts = layer["inclusive"], layer["self"], layer["counts"]
    cache = layer["cache"]
    lookups = cache["hits"] + cache["misses"] if cache else 0
    values = {
        "exact_linalg.smith.s": inclusive.get("exact_linalg.smith", 0.0),
        "exact_linalg.transform_product.s": layer["transform_product_s"],
        "exact_linalg.max_entry_bits": layer["max_entry_bits"],
        "exact_linalg.eliminated_cells": counts["exact_linalg.eliminated_cells"],
        # 0 when the program has no Smith cache left to report on
        "exact_linalg.smith_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "abelian.structure.s": inclusive.get("abelian.structure", 0.0),
        "abelian.torsion_number.s": inclusive.get("abelian.torsion_number", 0.0),
        "abelian.is_zero_class.s": inclusive.get("abelian.is_zero_class", 0.0),
        "joinmeet.report.s": inclusive.get("joinmeet.report", 0.0),
        "joinmeet.verify_column_relations.s": inclusive.get("joinmeet.verify_column_relations", 0.0),
        "joinmeet.tree_route.s": inclusive.get("joinmeet.choose_tree", 0.0)
        + inclusive.get("joinmeet.class_expressions", 0.0),
        "joinmeet.hasse_edges": counts["joinmeet.hasse_edges"],
        "semigroup.cone_report.s": inclusive.get("semigroup.cone_report", 0.0),
        "poset.build_poset.s": inclusive.get("poset.build_poset", 0.0),
        "poset.maximal_chains.s": inclusive.get("poset.maximal_chains", 0.0),
        "poset.chains": counts["poset.chains"],
        "sweep.run_sweep.s": inclusive.get("sweep.run_sweep", 0.0),
        "sweep.samples": counts["sweep.samples"],
        "cli.parse.s": inclusive.get("cli.parse", 0.0),
        "cli.render.s": inclusive.get("cli.render", 0.0),
        "cli.output_bytes": layer["output_bytes"],
    }
    for name, seconds in self_time.items():
        values[f"{name}.self.s"] = seconds
    return values


def ring_median_wall(passes: list) -> float:
    """Sum over rings of each ring's median time across passes.

    Taking the median ring by ring, rather than of whole passes, keeps a
    few seconds of slowness on a shared machine from moving the result.
    """
    per_ring = zip(*([r["seconds"] for r in p["rings"]] for p in passes))
    return sum(statistics.median(times) for times in per_ring)


def median_metrics(samples: list) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divclass", "cli.py")):
        print(f"no divclass sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # one spans file per workload, so repeated runs do not pile up files
    spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl")
    rings_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.{os.getpid()}.rings.json")
    rings = inputs.build(args.workload, args.seed)
    write_rings(rings, rings_path)
    digests = {}
    if args.seed == DEFAULT_SEED:
        digests = checks.load_expected()["digests"][args.workload]
    try:
        return measure(args, rings, rings_path, spans_path, digests)
    finally:
        os.remove(rings_path)


def measure(args, rings, rings_path, spans_path, digests) -> int:
    start = perf_counter()
    tally = {"attempted": 0, "failed": 0}
    problems = []

    def check_pass(record):
        if record is None:
            n = sum(r.expect["count"] if r.expect["kind"] == "sweep" else 1 for r in rings)
            tally["attempted"] += n
            tally["failed"] += n
            problems.append("worker failed")
            return
        for ring, result in zip(rings, record["rings"]):
            a, f, found = checks.check_ring(result, ring.expect, digests.get(ring.id))
            tally["attempted"] += a
            tally["failed"] += f
            problems.extend(f"{ring.id}: {p}" for p in found)

    def rounds(minimum):
        """Yield round numbers while time is left, and at least ``minimum`` times."""
        durations = []
        while len(durations) < minimum or (
            perf_counter() - start + statistics.median(durations) <= args.seconds
        ):
            t0 = perf_counter()
            yield len(durations)
            durations.append(perf_counter() - t0)

    if args.trace == 0:
        values, detail = end_to_end(rounds, rings_path, check_pass)
        units = END_TO_END_UNITS
    else:
        values, detail = per_layer(rounds, rings_path, spans_path, check_pass, problems)
        units = PER_LAYER_UNITS
    if values is None:
        print(f"no usable pass: {problems[:3]}", file=sys.stderr)
        return 1
    attempted, failed = tally["attempted"], tally["failed"]
    if args.trace == 0:
        values["pass_ratio"] = 1.0 - failed / attempted

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {detail} "
          f"rings={len(rings)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g}")
    for name in units:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def calibration_seconds() -> float:
    # without the checkout's src on the path: nothing of the program runs
    return setup_seconds(CAL_CODE, dict(os.environ))


def end_to_end(rounds, rings_path, check_pass):
    # Set-up and calibration samples are spread between the passes so that
    # all three see the same phases of a shared machine's speed.
    setup, calibration, passes = [], [], []
    for _ in rounds(MIN_PASSES):
        setup.extend(setup_seconds() for _ in range(SETUP_PER_PASS))
        calibration.extend(calibration_seconds() for _ in range(CAL_PER_PASS))
        record = run_pass(rings_path)
        check_pass(record)
        if record is not None:
            passes.append(record)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())
        calibration.append(calibration_seconds())
    if not passes:
        return None, None
    wall = ring_median_wall(passes)
    cal = statistics.median(calibration)
    values = {
        "scaled_wall_s": wall * CAL_REF_S / cal,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, (f"passes={len(passes)} setup_samples={len(setup)} "
                    f"cal_samples={len(calibration)} wall_s={wall:.6g} cal_s={cal:.6g}")


def per_layer(rounds, rings_path, spans_path, check_pass, problems):
    networkx_s = statistics.median(networkx_import_seconds() for _ in range(IMPORTTIME_SAMPLES))
    traced, untraced = [], []
    # traced, untraced, traced, ...: two traced passes at least, so that
    # their counts can be compared, and one untraced for the overhead
    for index in rounds(3):
        trace = index % 2 == 0
        record = run_pass(rings_path, spans_path if trace else None)
        check_pass(record)
        if record is None:
            continue
        if not trace:
            untraced.append(record)
            continue
        traced.append(record)
        if record["layer"]["bad_products"]:
            problems.append(f"{record['layer']['bad_products']} decompositions fail U @ A @ V == D")
    if not traced or not untraced:
        return None, None
    layers = [layer_metrics(p["layer"]) for p in traced]
    for name in COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            problems.append(f"count {name} differs between passes: {[layer[name] for layer in layers]}")
    values = median_metrics(layers)
    untraced_wall = ring_median_wall(untraced)
    values["setup.networkx_import.s"] = networkx_s
    values["trace.untraced_wall.s"] = untraced_wall
    values["trace.overhead.s"] = ring_median_wall(traced) - untraced_wall
    return values, f"traced_passes={len(traced)} untraced_passes={len(untraced)} spans={spans_path}"


if __name__ == "__main__":
    sys.exit(main())
