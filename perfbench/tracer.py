"""Span recorder for the traced run.

It wraps, from outside the library, every public module-level function of
the steinerlab modules named in LAYERS, plus the elimination core's `rref`
as seen through `backend._core`.  Each call becomes a span (name, start,
end, parent span, case id) kept in memory; `summary()` turns the spans into
per-layer self times and counts, and `dump()` writes them out.

A layer's self time is the time its spans cover minus the time their child
spans cover.  The core span also excludes the time spent hashing its input
for the duplicate count.  The wrappers' own cost lands in the caller's self
time; the traced pass minus an untraced pass of the same cases measures it.
The library runs single-threaded with no queues, so no span ever waits.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "strata", "pwcurves", "subspace", "steiner", "multilin",
          "exactalg", "backend")

# rows x cols thresholds: tiny < 4096 <= small < 65536 <= medium < 10**6
BUCKETS = (("tiny", 4096), ("small", 65536), ("medium", 10**6),
           ("large", None))


def bucket_of(cells):
    for name, limit in BUCKETS:
        if limit is None or cells < limit:
            return name


class Tracer:
    def __init__(self):
        self.names = []        # span name per span
        self.spans = []        # [start, end, parent, case, excluded]
        self.info = {}         # span index -> details recorded by a hook
        self.stack = []
        self.case = -1
        self.seen = set()      # core inputs already eliminated in this case
        self.largest = {}      # bucket -> [cells, input copy, rank, full]
        self.wrapped = []      # span names of every wrapped function
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        from steinerlab import backend

        mods = [sys.modules[f"steinerlab.{m}"] for m in LAYERS]
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                hook = _HOOKS.get(name)
                wrapper = self._wrap(fn, name, post=hook)
                self.wrapped.append(name)
                # modules import each other's functions by name, so patch
                # every namespace holding this function object
                for other in mods:
                    for oattr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patch(other, oattr, wrapper)
        core = backend._core
        self._patch(core, "rref", self._wrap(core.rref, "core.rref",
                                             pre=_core_pre, post=_core_post))
        self.wrapped.append("core.rref")

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _patch(self, mod, attr, new):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _wrap(self, fn, name, pre=None, post=None):
        names, spans, info, stack = self.names, self.spans, self.info, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [0.0, 0.0, stack[-1] if stack else -1, tracer.case, 0.0]
            names.append(name)
            spans.append(rec)
            stack.append(idx)
            rec[0] = perf_counter()
            try:
                if pre is not None:
                    info[idx] = pre(tracer, args)
                    rec[4] = perf_counter() - rec[0]
                out = fn(*args, **kwargs)
            finally:
                rec[1] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, idx, args, out)
            return out

        return wrapper

    def begin_case(self, case_id):
        self.case = case_id
        self.seen.clear()

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: self time and call count per layer and per
        wrapped function, plus the counters the hooks collected."""
        n = len(self.spans)
        child = [0.0] * n
        for start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = {}, {}, {}
        for name in self.wrapped:
            calls[name] = 0
            self_s[name] = total_s[name] = 0.0
        for idx, (start, end, _, _, excl) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += end - start - child[idx] - excl
            total_s[name] += end - start
        out = {}
        for name in self.wrapped:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        for layer in LAYERS + ("core",):
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)

        core = {b: {"calls": 0, "cells": 0, "self_s": 0.0, "flop": 0}
                for b, _ in BUCKETS}
        full = dup = 0
        cert_degrees = attempts = md_cells = 0
        for idx, name in enumerate(self.names):
            if name == "core.rref":
                rows, cols, is_full, is_dup, rank = self.info[idx]
                start, end, _, _, excl = self.spans[idx]
                c = core[bucket_of(rows * cols)]
                c["calls"] += 1
                c["cells"] += rows * cols
                c["self_s"] += end - start - child[idx] - excl
                c["flop"] += 2 * rows * cols * rank
                full += is_full
                dup += is_dup
            elif name == "steiner.surjectivity_certificate":
                cert_degrees += self.info.get(idx, 0)
            elif name == "pwcurves.sample_pw":
                attempts += self.info.get(idx, 0)
            elif name == "steiner.assemble_md":
                md_cells += self.info.get(idx, 0)
        for b, c in core.items():
            out[f"core.calls.{b}"] = c["calls"]
            out[f"core.cells.{b}"] = c["cells"]
            out[f"core.self_s.{b}"] = c["self_s"]
        large = core["large"]
        out["core.gflops.large"] = (
            large["flop"] / large["self_s"] / 1e9 if large["self_s"] else 0.0)
        ncore = calls["core.rref"]
        out["core.full_calls"] = full
        out["core.dup_frac"] = dup / ncore if ncore else 0.0
        out["steiner.assemble_md.cells"] = md_cells
        out["steiner.cert.degrees"] = cert_degrees
        out["pwcurves.sample_pw.attempts"] = attempts
        nsample = calls["pwcurves.sample_pw"]
        out["pwcurves.sample_pw.yield"] = nsample / attempts if attempts else 0.0
        out["trace.spans"] = n
        return out

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": [[self.names[i]] + s[:4]
                                 for i, s in enumerate(self.spans)]}, fh)


# -- hooks --------------------------------------------------------------------


def _core_pre(tracer, args):
    a, p = args[0], args[1]
    full = bool(args[2]) if len(args) > 2 else True
    rows, cols = a.shape
    key = (a.shape, int(p), hashlib.blake2b(a.data).digest())
    dup = key in tracer.seen
    tracer.seen.add(key)
    b = bucket_of(rows * cols)
    if rows * cols > tracer.largest.get(b, (0,))[0]:
        # the core reduces in place, so copy before the call; the rank is
        # filled in after it
        tracer.largest[b] = [rows * cols, a.copy(), None, full]
    return [rows, cols, full, dup, None]


def _core_post(tracer, idx, args, out):
    rec = tracer.info[idx]
    rec[4] = int(out[0])
    held = tracer.largest[bucket_of(rec[0] * rec[1])]
    if held[2] is None:
        held[2] = rec[4]


def _cert_post(tracer, idx, args, out):
    tracer.info[idx] = len(out.checked)


def _sample_post(tracer, idx, args, out):
    tracer.info[idx] = out.attempts


def _md_post(tracer, idx, args, out):
    tracer.info[idx] = out.shape[0] * out.shape[1]


_HOOKS = {
    "steiner.surjectivity_certificate": _cert_post,
    "pwcurves.sample_pw": _sample_post,
    "steiner.assemble_md": _md_post,
}
