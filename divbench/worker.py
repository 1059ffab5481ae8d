"""One pass over a workload's rings in a fresh interpreter.

    python3 worker.py RINGS_JSON TRACE [SPANS_OUT]

Imports divclass from the checkout's ``src``, feeds every ring to
``divclass.cli.main`` (stdin and stdout redirected in memory), and prints
one JSON object: each ring's exit code, stdout and time, the peak resident
memory, and with TRACE=1 the per-layer summary.  A fresh
process per pass matters: the program keeps a process-wide Smith-form
cache, so a second pass in one process would time cache hits.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def bit_length_max(matrix) -> int:
    return max(
        (abs(e).bit_length() for i in range(matrix.rows) for e in matrix.row(i)),
        default=0,
    )


def run_ring(main, ring, call=None):
    """Run one command line; a crash is recorded as exit code 3, never raised."""
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(ring["stdin"])
    sys.stdout = out = io.StringIO()
    sys.stderr = err = io.StringIO()
    start = perf_counter()
    try:
        code = call("cli.main", main, ring["argv"]) if call else main(ring["argv"])
    except Exception:  # a crash is a failed ring; the pass goes on
        code = 3
        err.write(traceback.format_exc())
    elapsed = perf_counter() - start
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    return {"id": ring["id"], "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "seconds": elapsed}


def traced_extras(tracer) -> dict:
    """Check and measure the new Smith decompositions of the ring just run.

    ``U @ A @ V`` is recomputed with the program's own product, outside any
    span, so it neither inflates the layer times nor goes unchecked.
    """
    seconds = 0.0
    bits = 0
    bad = 0
    for matrix, snf in tracer.new_decompositions:
        start = perf_counter()
        product = snf.U @ matrix @ snf.V
        seconds += perf_counter() - start
        if product != snf.D:
            bad += 1
        bits = max(bits, bit_length_max(snf.U), bit_length_max(snf.D), bit_length_max(snf.V))
    tracer.new_decompositions.clear()
    return {"seconds": seconds, "bits": bits, "bad": bad}


def main(argv) -> int:
    rings_path, trace = argv[1], argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, SRC)
    import divclass
    from divclass import cli, exact_linalg

    if not os.path.abspath(divclass.__file__).startswith(SRC + os.sep):
        print(f"divclass imported from {divclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(rings_path, encoding="utf-8") as handle:
        rings = json.load(handle)

    results = []
    layer = None
    if not trace:
        for ring in rings:
            results.append(run_ring(cli.main, ring))
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(divclass)
        product_s, max_bits, bad_products = 0.0, 0, 0
        for index, ring in enumerate(rings):
            tracer.start_document(index)
            results.append(run_ring(cli.main, ring, tracer.span))
            extras = traced_extras(tracer)
            product_s += extras["seconds"]
            max_bits = max(max_bits, extras["bits"])
            bad_products += extras["bad"]
        summary = tracing.summarize(tracer.spans)
        cache = getattr(exact_linalg, "_smith_cached", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        layer = {
            **summary,
            "counts": dict(tracer.counts),
            "transform_product_s": product_s,
            "max_entry_bits": max_bits,
            "bad_products": bad_products,
            "cache": None if info is None else {"hits": info.hits, "misses": info.misses},
            "output_bytes": sum(len(r["stdout"].encode()) for r in results),
        }
        if spans_path:
            tracer.write(spans_path)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "peak_rss_mb": peak_kib / 1024.0,
        "rings": results,
        "layer": layer,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
