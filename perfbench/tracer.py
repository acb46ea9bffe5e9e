"""Spans around calls into the public functions of each wgc module.

Each listed function is replaced, for the duration of a ``with Tracer()``
block, in every loaded ``wgc`` namespace that binds it by name (for example
``sd_girth`` is bound in both ``wgc.hypergraphs`` and ``wgc.blockcodes``), so
nested calls are recorded under the right parent.  Spans are kept in memory
as [name, start, end, parent index] and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# The layers are wgc's modules; these are the entry points timed in each.
LAYERS = {
    "gf2": ["canonical_form", "permutation_equivalent", "kernel_basis", "row_reduce",
            "minimal_basic", "nullspace_basis", "rank", "tailbite",
            "rank_over_rational_field"],
    "hypergraphs": ["girth", "sd_girth"],
    "blockcodes": ["min_distance", "block_distance", "product_distance_bound",
                   "build_woven_block"],
    "convcodes": ["free_distance", "block_distance_conv", "rate_half_subcodes",
                  "tb_encoder_code"],
    "woven": ["build_woven_conv", "generator_report", "minimal_generator",
              "expanded_generator", "distance_bounds", "witness_search",
              "orbit_multiplicity", "encode_stream", "permutation_sweep",
              "equivalent_permutation_pairs"],
    "bounds": ["emit_curves", "woven_vg_bound"],
    "verify": ["run_heawood_verification"],
    "cli": ["main"],
}

# Values read from return values, per call: name -> (counter, extractor)
RESULT_COUNTERS = {
    "woven.witness_search": {"exact": lambda r: int(r.exact),
                             "nodes_expanded": lambda r: r.nodes_expanded},
    "blockcodes.min_distance": {"exact": lambda r: int(r.exact)},
}


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name: str, fn):
        extract = RESULT_COUNTERS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            counts = self.counts.setdefault(name, {})
            for counter, get in extract.items():
                counts[counter] = counts.get(counter, 0) + get(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        importlib.import_module("wgc.cli")
        importlib.import_module("wgc.verify")
        self.missing = []
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "wgc" or key.startswith("wgc."))]
        for name in layer_names():
            mod, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"wgc.{mod}"), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Calls are sequential, so children of one span never overlap and the
        sum of their durations is the time they cover.
        """
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time) for every listed function."""
        totals = {name: (0, 0.0) for name in layer_names()}
        for (name, *_), own in zip(self.spans, self.self_times()):
            if name in totals:
                calls, busy = totals[name]
                totals[name] = (calls + 1, busy + own)
        return totals
