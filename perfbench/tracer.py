"""Layer tracing from outside the package.

Wrappers are installed by name on module and class attributes of
`enriques_gw`, so the package itself carries no tracing code.  Every
call through a wrapper is aggregated as (count, busy, self) per
(boundary, parent boundary); boundaries marked coarse additionally keep
one span per call, held in memory and returned once at the end.  A
boundary that the package no longer has is skipped and listed in
`missing`; its metrics then read 0 and the run says so in a note.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

MAX_SPANS = 20000

# (boundary name, module, attribute path, coarse, counter)
BOUNDARIES = [
    ("lattice.short_vectors", "lattice", "_short_vector_array", False, "lru"),
    ("lattice.decompositions", "lattice", "enumerate_decompositions", False, "len"),
    ("lattice.box_oracle", "lattice", "decompositions_box_oracle", True, "len"),
    ("gw_engine.invariant_record", "gw_engine", "invariant_record", True, None),
    ("gw_engine.genus2_core", "gw_engine", "genus2_core", True, None),
    ("sweeps.orbit_labels", "sweeps", "coset_orbit_labels", False, "lru"),
    ("sweeps.eval", "sweeps", "FiberSweepEngine._eval", False, None),
    ("sweeps.scan_cell", "sweeps", "FiberSweepEngine._scan_cell", False, "cells"),
    ("sweeps.class_value", "sweeps", "FiberSweepEngine.class_value", False, None),
    ("sweeps.agreement", "sweeps", "decomposition_agreement", True, None),
    ("sweeps.agreement.oracle", "sweeps", "_grouped_oracle_records", True, None),
    ("sweeps.agreement.optimized", "sweeps", "_optimized_records", True, None),
    ("sweeps.box_table", "sweeps", "genus1_box_table", True, None),
    ("qseries.sigma_pow", "qseries", "sigma_pow", False, None),
    ("cli.emit", "cli", "_emit_rows", True, None),
    ("cli.rows", "cli", "_table_rows", False, "gen"),
]

ROOT = "cli.main"


class Tracer:
    """Span stack plus per-(name, parent) aggregates."""

    def __init__(self):
        self.stack = []          # frames: [name, start, child_seconds]
        self.depth = {}          # name -> open frames, so busy counts outermost calls
        self.agg = {}            # (name, parent) -> [calls, busy_s, self_s]
        self.counts = {}         # name -> {counter: value}
        self.spans = []          # coarse spans: (name, parent, start, end)
        self.dropped_spans = 0
        self.missing = []

    def enter(self, name):
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self, coarse=False):
        end = perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else None
        if parent is not None:
            self.stack[-1][2] += dur
        self.depth[name] -= 1
        row = self.agg.setdefault((name, parent), [0, 0.0, 0.0])
        row[0] += 1
        if self.depth[name] == 0:
            row[1] += dur
        row[2] += dur - child
        if coarse:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, parent, start, end))
            else:
                self.dropped_spans += 1

    def count(self, name, key, n):
        c = self.counts.setdefault(name, {})
        c[key] = c.get(key, 0) + n

    def call(self, name, fn, coarse=False):
        """Run fn() as one span (used for the root)."""
        self.enter(name)
        try:
            return fn()
        finally:
            self.exit(coarse)

    def totals(self):
        """name -> {calls, busy_s, self_s, **counters}, summed over parents."""
        out = {}
        for (name, _), (calls, busy, self_s) in self.agg.items():
            t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["busy_s"] += busy
            t["self_s"] += self_s
        for name, c in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}).update(c)
        return out

    def report(self):
        return {
            "totals": self.totals(),
            "by_parent": [[n, p, c, b, s] for (n, p), (c, b, s) in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "missing": self.missing,
        }


def _wrap_function(tracer, name, fn, coarse, counter):
    cache_info = getattr(fn, "cache_info", None)

    if counter == "gen":
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(coarse)
                tracer.count(name, "count", 1)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = cache_info().misses if cache_info is not None else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(coarse)
        if counter == "lru":
            missed = before is None or cache_info().misses > before
            if missed:
                tracer.count(name, "misses", 1)
                tracer.count(name, "vectors", len(result))
        elif counter == "len":
            tracer.count(name, "pairs", len(result))
        elif counter == "cells" and result is not None:
            tracer.count(name, "candidates", len(result[0]))
        return result
    return wrapper


def install(tracer, package="enriques_gw"):
    """Replace every boundary attribute by its traced wrapper.

    A module-level function is replaced in every loaded module of the
    package that binds the same object (names imported with `from .x
    import f` are separate bindings).  Methods are replaced on the class.
    """
    importlib.import_module(package + ".cli")
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    for name, mod_name, attr, coarse, counter in BOUNDARIES:
        mod = sys.modules.get("%s.%s" % (package, mod_name))
        owner_name, _, leaf = attr.rpartition(".")
        owner = mod
        if mod is not None and owner_name:
            owner = getattr(mod, owner_name, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None or not callable(original):
            tracer.missing.append(name)
            continue
        if owner_name:
            fn = inspect.getattr_static(owner, leaf)
            setattr(owner, leaf, _wrap_function(tracer, name, fn, coarse, counter))
            continue
        wrapped = _wrap_function(tracer, name, original, coarse, counter)
        for m in modules:
            if getattr(m, leaf, None) is original:
                setattr(m, leaf, wrapped)
