"""Span tracing around symmkit's public functions, and the per-layer metrics built from it.

The tracer wraps, from outside the library, every public function of each
symmkit module plus ``Grid.centers``, ``SetMap.__call__`` and
``PLContraction.__call__``.  A wrapper replaces the function under every
name that binds it in any symmkit module (``experiments`` imports
``polarize`` by name, for instance), so calls between modules are seen too.
Spans ``(op, name, start, end, parent)`` stay in memory until the run ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from collections import Counter, defaultdict


# the library's layers; ``errors`` holds only exception types
LAYERS = ("geometry", "contractions", "polygons", "rearrange", "chordmaps", "harness", "experiments", "gridio", "cli")
METHODS = (("geometry", "Grid", "centers"), ("chordmaps", "SetMap", "__call__"), ("contractions", "PLContraction", "__call__"))

GENERATORS = (
    "random_blob_function", "random_blob_set", "random_convex_polygon", "random_symmetric_polygon",
    "random_convex_raster", "nested_convex_rasters", "nested_blob_sets", "symmetric_raster",
    "centered_cylinder_raster", "quantized_cone", "two_disk_symmetric_set", "trial_rng",
)


def _count_polygon(tracer, args, kwargs, result):
    tracer.counts["harness.polygons_returned"] += 1


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["gridio.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


HOOKS = {
    "harness.random_convex_polygon": _count_polygon,
    "harness.random_symmetric_polygon": _count_polygon,
    "gridio.read_grid_function": _count_bytes,
    "gridio.write_grid_function": _count_bytes,
}
MEMORY = {"harness.modulus_profile"}


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.peak_bytes = Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        memory = name in MEMORY
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)
                if memory:
                    self.peak_bytes[name] = max(self.peak_bytes[name], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of every layer of an imported ``symmkit``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapped)
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def root(self, op, fn, *args):
        """Run ``fn(*args)`` as op ``op`` under a root span named ``perfbench.op``."""
        self.op = op
        return self._wrap("perfbench.op", fn)(*args)

    def self_times(self):
        """Per span name: (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        for (_, name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start - covered
            calls[name] += 1
        return total, calls

    def write(self, path):
        """Spans as CSV: op, name, start and end in microseconds, parent row."""
        with open(path, "w") as fh:
            fh.write("op,name,start_us,end_us,parent\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent}\n")


def layer_metrics(tracer, ops, threads, converge_counts, overhead_ms):
    """The per-layer metrics of a traced run: ``{name: (value, unit)}``, per traced op."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts

    def ms(*names):
        return 1e3 * sum(self_s[n] for n in names) / ops

    def per_op(*names):
        return sum(calls[n] for n in names) / ops

    def layer_ms(layer):
        return 1e3 * sum(t for n, t in self_s.items() if n.split(".", 1)[0] == layer) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    reflect = ("geometry.reflect_grid_function", "geometry.reflect_grid_set", "geometry.reflect_point")
    generate = tuple(f"harness.{n}" for n in GENERATORS)
    checks = tuple(f"harness.{n}" for n in (
        "check_equimeasurable", "check_monotonic", "check_lp_contracting",
        "check_modulus_reducing", "check_setmap_properties",
    ))
    set_maps = ("chordmaps.SetMap.__call__", "chordmaps.shake_set", "chordmaps.cog_reflect", "chordmaps.near_swap")
    reads = ("gridio.read_grid_function", "gridio.read_grid_set", "gridio.read_polygon",
             "gridio.read_contraction", "gridio.read_region")
    writes = ("gridio.write_grid_function", "gridio.write_grid_set", "gridio.write_polygon",
              "gridio.write_contraction", "gridio.write_region")
    m = {
        "geometry.self_ms": (layer_ms("geometry"), "ms"),
        "geometry.reflect_ms": (ms(*reflect), "ms"),
        "geometry.reflect_calls": (per_op(*reflect), "count"),
        "geometry.plus_mask_ms": (ms("geometry.plus_mask"), "ms"),
        "geometry.centers_ms": (ms("geometry.Grid.centers"), "ms"),
        "geometry.centers_calls": (per_op("geometry.Grid.centers"), "count"),
        "geometry.distribution_ms": (ms("geometry.distribution"), "ms"),
        "geometry.distribution_calls": (per_op("geometry.distribution"), "count"),
        "geometry.raster_ms": (ms("geometry.disk_raster", "geometry.box_raster"), "ms"),
        "rearrange.self_ms": (layer_ms("rearrange"), "ms"),
        "rearrange.polarize_ms": (ms("rearrange.polarize"), "ms"),
        "rearrange.polarize_calls": (per_op("rearrange.polarize"), "count"),
        "rearrange.polarize_set_ms": (ms("rearrange.polarize_set"), "ms"),
        "rearrange.steiner_ms": (ms("rearrange.steiner_symmetrize_function", "rearrange.steiner_symmetrize_set"), "ms"),
        "harness.self_ms": (layer_ms("harness"), "ms"),
        "harness.modulus_profile_ms": (ms("harness.modulus_profile"), "ms"),
        "harness.modulus_profile_calls": (per_op("harness.modulus_profile"), "count"),
        "harness.modulus_profile_peak_mb": (tracer.peak_bytes["harness.modulus_profile"] / 2**20, "MB"),
        "harness.generate_ms": (ms(*generate), "ms"),
        "harness.generate_accept_ratio": (
            ratio(counts["harness.polygons_returned"], calls["polygons.convex_hull"]), "ratio"),
        "harness.check_ms": (ms(*checks), "ms"),
        "harness.trials": (per_op("harness.trial_rng"), "count"),
        "polygons.self_ms": (layer_ms("polygons"), "ms"),
        "polygons.chords_at_ms": (ms("polygons.chords_at"), "ms"),
        "polygons.chords_at_calls": (per_op("polygons.chords_at"), "count"),
        "contractions.self_ms": (layer_ms("contractions"), "ms"),
        "contractions.eval_ms": (ms("contractions.PLContraction.__call__"), "ms"),
        "contractions.eval_calls": (per_op("contractions.PLContraction.__call__"), "count"),
        "chordmaps.self_ms": (layer_ms("chordmaps"), "ms"),
        "chordmaps.chord_move_polygon_ms": (ms("chordmaps.chord_move_polygon"), "ms"),
        "chordmaps.setmap_ms": (ms(*set_maps), "ms"),
        "chordmaps.setmap_calls": (per_op("chordmaps.SetMap.__call__"), "count"),
        "experiments.self_ms": (layer_ms("experiments"), "ms"),
        "experiments.threads": (threads, "count"),
        "experiments.converge_changed_ratio": (
            ratio(converge_counts["changed"], converge_counts["rows"]), "ratio"),
        "gridio.self_ms": (layer_ms("gridio"), "ms"),
        "gridio.read_ms": (ms(*reads), "ms"),
        "gridio.write_ms": (ms(*writes), "ms"),
        "gridio.bytes": (counts["gridio.bytes"] / ops, "B"),
        "cli.self_ms": (layer_ms("cli"), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (tracer.errors[layer] / ops, "count")
    m["perfbench.trace_overhead_ms"] = (overhead_ms, "ms")
    m["perfbench.spans_per_op"] = (len(tracer.spans) / ops, "count")
    return m
