"""Record the expected stdout digests for the default seed.

    python3 divbench/record_expected.py

Runs one untraced pass of every workload at ``run.DEFAULT_SEED`` and writes
the SHA-256 of each ring's stdout to ``expected.json``.  Only rings that
exit 0 and pass the independent checks are recorded.  Run it on the commit
whose outputs are the reference; later commits must reproduce them byte for
byte.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import inputs
import run


def main() -> int:
    digests = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in inputs.WORKLOADS:
        rings = inputs.build(workload, run.DEFAULT_SEED)
        rings_path = os.path.join(run.OUT_DIR, f"{workload}.record.rings.json")
        run.write_rings(rings, rings_path)
        try:
            record = run.run_pass(rings_path)
        finally:
            os.remove(rings_path)
        if record is None:
            return 1
        digests[workload] = {}
        for ring, result in zip(rings, record["rings"]):
            _, failed, problems = checks.check_ring(result, ring.expect)
            if failed:
                print(f"{workload} {ring.id}: {problems}", file=sys.stderr)
                return 1
            digests[workload][ring.id] = checks.digest(result["stdout"])
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": run.DEFAULT_SEED, "digests": digests}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
