"""Spans around the calls into each layer of divclass, recorded from outside.

``Tracer.install`` replaces the public functions listed in ``LAYER_CALLS``
with timing wrappers in every divclass module namespace that holds them
(modules import each other's functions by name, so patching the defining
module alone would miss most calls).  Spans are kept in memory as
``[name, start, end, parent, ring, outermost]`` and written out at the end.
Nothing in the program changes; a name that no longer exists is skipped and
its metric reads 0.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

# (module, function, span name).  Span names are "<layer>.<call>", the layer
# being the module, so self time can be summed per layer.  Besides the calls
# the metrics name, every module-level function called from another layer
# is wrapped, so that its time is not counted as its caller's self time.
# IntMatrix methods are not wrapped: their time counts toward the caller.
LAYER_CALLS = (
    ("cli", "parse_input_document", "cli.parse"),
    ("cli", "render", "cli.render"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("poset", "build_poset", "poset.build_poset"),
    ("poset", "bound", "poset.bound"),
    ("poset", "is_pure", "poset.is_pure"),
    ("poset", "maximal_chains", "poset.maximal_chains"),
    ("joinmeet", "joinmeet_report", "joinmeet.report"),
    ("joinmeet", "choose_tree", "joinmeet.choose_tree"),
    ("joinmeet", "class_expressions", "joinmeet.class_expressions"),
    ("joinmeet", "verify_column_relations", "joinmeet.verify_column_relations"),
    ("semigroup", "cone_report", "semigroup.cone_report"),
    ("abelian", "structure", "abelian.structure"),
    ("abelian", "torsion_number", "abelian.torsion_number"),
    ("abelian", "is_zero_class", "abelian.is_zero_class"),
    ("exact_linalg", "smith_normal_form", "exact_linalg.smith"),
    ("exact_linalg", "rank", "exact_linalg.rank"),
    ("exact_linalg", "minor_gcd", "exact_linalg.minor_gcd"),
    ("exact_linalg", "solve_integer", "exact_linalg.solve_integer"),
)

LAYERS = ("cli", "sweep", "poset", "joinmeet", "semigroup", "abelian", "exact_linalg")

NAME, START, END, PARENT, RING, OUTERMOST = range(6)


class Tracer:
    """Records spans and the counts taken at the same call boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self.document = 0
        self._reports = 0
        self.ring = "0:0"
        # Smith decompositions seen for the first time (cache hits return an
        # object already seen); checked and measured after each ring.
        self.new_decompositions = []
        self._seen = {}
        self.counts = {
            "joinmeet.hasse_edges": 0,
            "poset.chains": 0,
            "sweep.samples": 0,
            "exact_linalg.eliminated_cells": 0,
        }

    def start_document(self, index: int):
        self.document = index
        self._reports = 0
        self.ring = f"{index}:0"

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        parent = self._stack[-1] if self._stack else None
        outermost = not self._active.get(name)
        record = [name, 0.0, 0.0, parent, self.ring, outermost]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self._active[name] = self._active.get(name, 0) + 1
        record[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name in ("joinmeet.report", "semigroup.cone_report"):
                tracer.ring = f"{tracer.document}:{tracer._reports}"
                tracer._reports += 1
            result = tracer.span(name, fn, *args, **kwargs)
            tracer._count(name, args or tuple(kwargs.values()), result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "joinmeet.report":
            self.counts["joinmeet.hasse_edges"] += result.num_height_one_primes
        elif name == "poset.maximal_chains":
            self.counts["poset.chains"] += len(result)
        elif name == "sweep.run_sweep":
            self.counts["sweep.samples"] += result.count
        elif name == "exact_linalg.smith" and id(result) not in self._seen:
            matrix = args[0]
            self._seen[id(result)] = result  # keeps the id from being reused
            self.counts["exact_linalg.eliminated_cells"] += matrix.rows * matrix.cols
            self.new_decompositions.append((matrix, result))

    def install(self, package):
        """Wrap LAYER_CALLS in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [m for k, m in sys.modules.items() if k == prefix or k.startswith(prefix + ".")]
        for module_name, attr, span_name in LAYER_CALLS:
            owner = sys.modules.get(f"{prefix}.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        # JSON decoding inside cli.main belongs to cli.parse as well.
        cli = sys.modules.get(f"{prefix}.cli")
        if cli is not None and getattr(cli, "json", None) is not None:
            real = cli.json
            cli.json = types.SimpleNamespace(
                loads=self._wrap("cli.parse", real.loads),
                dumps=real.dumps,
                JSONDecodeError=real.JSONDecodeError,
            )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, ring, outermost) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "ring": ring}
                    )
                    + "\n"
                )


def summarize(spans) -> dict:
    """Inclusive time per span name (outermost calls only) and self time per layer.

    A span's self time is its duration minus the time its direct children
    cover; spans nest strictly on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    inclusive = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        if span[OUTERMOST]:
            inclusive[span[NAME]] = inclusive.get(span[NAME], 0.0) + duration
        layer = span[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i]
    return {"inclusive": inclusive, "self": layer_self}
