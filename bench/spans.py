"""Span tracing for the traced run: wrappers around the package's public
functions, installed only for that run.

Each wrapped call records a span (name, start, end, parent span, job id)
in memory. A function is patched on its defining module or class and in
every package module that imported the name. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "quantumgraphs"

#: (module, attribute on that module, metric name) for every wrapped function
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "bounds_report", "cli.bounds_report"),
] + [("serialize", f, "serialize." + f) for f in (
    "load_any_graph", "load_classical_graph", "load_json", "save", "dumps",
    "quantum_graph_to_obj", "quantum_graph_from_obj", "certificate_to_obj",
    "certificate_from_obj")] + [
    ("opspace", "orthonormalize", "opspace.orthonormalize"),
    ("opspace", "OperatorSubspace.tensor", "opspace.tensor"),
    ("opspace", "OperatorSubspace.perp", "opspace.perp"),
    ("opspace", "OperatorSubspace.max_residual", "opspace.max_residual"),
    ("opspace", "projection_meet", "opspace.projection_meet"),
    ("opspace", "permute_systems", "opspace.permute_systems"),
] + [("qgraph", f, "qgraph." + f) for f in (
    "BlockAlgebra.basis", "BlockAlgebra.commutant", "BlockAlgebra.tensor",
    "verify_quantum_graph", "from_classical", "conjugate_graph")] + [
    ("products", "product", "products.product"),
    ("products", "classical_crosscheck", "products.classical_crosscheck"),
] + [("coloring", f, "coloring." + f) for f in (
    "verify_coloring", "verify_bfold", "verify_homomorphism", "reduce_bfold",
    "combine_bfold", "scale_bfold", "lexicographic_coloring", "strong_coloring",
    "categorical_lift")] + [("classical", f, "classical." + f) for f in (
    "chromatic_exact", "bfold_exact", "max_independent_set", "classical_product",
    "graph_homomorphism", "parse_dimacs")]

MODULES = ["cli", "serialize", "opspace", "qgraph", "products", "coloring", "classical"]

COUNTS = [("opspace.max_residual.matrices", "count"),
          ("opspace.max_residual.flop", "flop_computed"),
          ("serialize.bytes_read", "B"), ("serialize.bytes_written", "B")]

JOB = "job"


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for _, _, name in TRACED:
        out += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    for mod in MODULES:
        out += [(mod + ".self_s", "s", "lower"), (mod + ".errors", "count", "lower")]
    out += [(name, unit, "lower") for name, unit in COUNTS]
    return out


class Tracer:
    """Spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = [JOB]
        self.module_of = [None]
        self.spans = []
        self.stack = []
        self.job = -1
        self.errors = Counter()
        self.counts = Counter()
        self._undo = []

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        extra = {"opspace.max_residual": self._count_residual,
                 "serialize.save": self._count_written}
        for name in ("load_any_graph", "load_classical_graph", "load_json"):
            extra["serialize." + name] = self._count_read
        for modname, attr, metric in TRACED:
            owner = mods[PACKAGE + "." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, metric, modname, extra.get(metric)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, metric, modname, extra.get(metric))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def _patch(self, obj, key, wrapper):
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, wrapper)

    def _wrap(self, orig, metric, module, count):
        nid = len(self.names)
        self.names.append(metric)
        self.module_of.append(module)
        spans, stack, errors = self.spans, self.stack, self.errors

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if count is not None:
                count(args, kwargs)
            return result
        return wrapper

    # -- counters (taken after the span closes) -----------------------------

    def _count_residual(self, args, kwargs):
        space = args[0]
        stack = args[1] if len(args) > 1 else kwargs["stack"]
        n2 = space.ambient_dim ** 2
        m = np.size(stack) // n2
        self.counts["opspace.max_residual.matrices"] += m
        self.counts["opspace.max_residual.flop"] += 16 * m * n2 * space.dim

    def _count_read(self, args, kwargs):
        self.counts["serialize.bytes_read"] += os.path.getsize(args[0])

    def _count_written(self, args, kwargs):
        self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    # -- jobs ----------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run ``fn`` under a root span for the job."""
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (0, start, end, -1, job_id)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Calls and self time per function and module, the counts, and the
        job time that no layer span covers."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            calls[nid] += 1
            self_s[nid] += end - start - child[i]
        out = {}
        mod_self = Counter()
        for nid, name in enumerate(self.names[1:], start=1):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_s[nid]
            mod_self[self.module_of[nid]] += self_s[nid]
        for mod in MODULES:
            out[mod + ".self_s"] = mod_self[mod]
            out[mod + ".errors"] = self.errors[mod]
        for name, _ in COUNTS:
            out[name] = self.counts[name]
        job_s = sum(end - start for nid, start, end, _, _ in self.spans if nid == 0)
        return out, job_s, self_s[0]

    def write(self, path):
        with open(path, "w") as fh:
            for nid, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
