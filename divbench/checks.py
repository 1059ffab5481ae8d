"""Output checks that do not trust the run.

For the default seed each ring's stdout must match, byte for byte, the
output recorded at the seed commit (kept as SHA-256 digests in
``expected.json``).  For every seed the outputs must also pass checks
written here from the generated inputs alone: the rank formula and the
purity criterion in poset mode, the rational rank in cone mode, and the
closed forms of the grid, Veronese and Segre-Veronese rings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _poset_problems(doc, expect) -> list:
    problems = []
    edges, n = expect["edges"], expect["n"]
    if doc.get("mode") != "poset":
        return [f"mode {doc.get('mode')!r}"]
    if doc["num_height_one_primes"] != edges:
        problems.append(f"{doc['num_height_one_primes']} height-one primes, expected {edges}")
    if doc["rank"] != edges - (n + 1) or doc["invariant_factors"]:
        problems.append(f"group Z^{doc['rank']} + {doc['invariant_factors']}, expected free of rank {edges - n - 1}")
    if doc["pure"] is not expect["pure"]:
        problems.append(f"pure={doc['pure']}, expected {expect['pure']}")
    d = int(doc["torsion_number"])
    if (d == 0) is not expect["pure"]:
        problems.append(f"torsion number {d} but pure={expect['pure']}")
    if doc["gorenstein"] is not (d == 0):
        problems.append(f"gorenstein={doc['gorenstein']} with torsion number {d}")
    coords = (doc.get("canonical_class") or {}).get("coords")
    if coords is None or math.gcd(*(abs(int(c)) for c in coords)) != d:
        problems.append("canonical coordinates do not have gcd equal to the torsion number")
    if sorted(doc["input"]["relations"]) != expect["cover_pairs"]:
        problems.append("echoed cover relations differ from the transitive reduction")
    if "rank" in expect and doc["rank"] != expect["rank"]:
        problems.append(f"rank {doc['rank']}, closed form {expect['rank']}")
    if "torsion_number" in expect and d != expect["torsion_number"]:
        problems.append(f"torsion number {d}, closed form {expect['torsion_number']}")
    return problems


def _cone_problems(doc, expect) -> list:
    problems = []
    if doc.get("mode") != "cone":
        return [f"mode {doc.get('mode')!r}"]
    r = expect["forms"]
    if doc["num_height_one_primes"] != r:
        problems.append(f"{doc['num_height_one_primes']} height-one primes, expected {r}")
    if doc["rank"] != r - expect["rational_rank"]:
        problems.append(f"free rank {doc['rank']}, expected {r - expect['rational_rank']}")
    factors = [int(f) for f in doc["invariant_factors"]]
    if any(f <= 1 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        problems.append(f"invariant factors {factors} are not a divisibility chain above 1")
    d = int(doc["torsion_number"])
    if doc["gorenstein"] is not (d == 0):
        problems.append(f"gorenstein={doc['gorenstein']} with torsion number {d}")
    canonical = doc["canonical_class"]
    if (canonical is None) is not bool(factors):
        problems.append("canonical coordinates given exactly when the group is not free")
    elif canonical is not None and math.gcd(*(abs(int(c)) for c in canonical["coords"])) != d:
        problems.append("canonical coordinates do not have gcd equal to the torsion number")
    for key in ("rank", "invariant_factors", "gorenstein"):
        if key in expect and doc[key] != expect[key]:
            problems.append(f"{key} {doc[key]!r}, closed form {expect[key]!r}")
    if "torsion_number" in expect and d != expect["torsion_number"]:
        problems.append(f"torsion number {d}, closed form {expect['torsion_number']}")
    return problems


def _sweep_failed(doc, expect) -> tuple:
    """(failed samples, problems) for a sweep document."""
    count = expect["count"]
    if doc.get("mode") != "sweep":
        return count, [f"mode {doc.get('mode')!r}"]
    echo = {k: doc.get(k) for k in ("count", "max_n", "seed")}
    if echo != {k: expect[k] for k in ("count", "max_n", "seed")}:
        return count, [f"sweep parameters echoed as {echo}"]
    checks = doc.get("checks") or {}
    failed_checks = {name: c for name, c in checks.items() if c["fail"]}
    wrong_counts = [name for name, c in checks.items() if c["pass"] + c["fail"] != count]
    if not checks or wrong_counts:
        return count, [f"checks not run on every sample: {wrong_counts or 'none recorded'}"]
    failed = len({f["index"] for f in doc["failures"]})
    problems = [f"failed sweep checks {failed_checks}"] if failed_checks or failed else []
    if doc["all_passed"] is not (not problems):
        problems.append(f"all_passed={doc['all_passed']}")
        failed = max(failed, 1)
    return failed, problems


def check_ring(result, expect, expected_digest=None) -> tuple:
    """(attempted, failed, problems) for one ring's exit code and stdout.

    A sweep ring counts each sample; any other ring counts once.
    """
    attempted = expect["count"] if expect["kind"] == "sweep" else 1
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}: {result['stderr'].strip()[-300:]}")
    if expected_digest is not None and digest(result["stdout"]) != expected_digest:
        problems.append("stdout differs from the output recorded for the default seed")
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return attempted, attempted, problems + ["stdout is not JSON"]
    failed = 0
    try:
        if expect["kind"] == "sweep":
            failed, found = _sweep_failed(doc, expect)
        elif expect["kind"] == "poset":
            found = _poset_problems(doc, expect)
        else:
            found = _cone_problems(doc, expect)
    except (KeyError, TypeError, ValueError) as exc:
        found = [f"malformed output: {exc!r}"]
    problems += found
    # Failed sweep samples are counted one by one; any other problem fails
    # the whole ring.
    return attempted, (failed or attempted) if problems else 0, problems
