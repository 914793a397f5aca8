"""Core-only probe: time the elimination core alone on real inputs.

The traced run keeps, for each size bucket, a copy of the largest matrix
the workload actually handed to the core.  The probe eliminates each again,
straight through `backend._core.rref` with no wrapper, and reports the
median and quartiles of the repeats.  A probe whose rank differs from the
rank the traced call returned is a failure.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

MIN_REPEATS = 5
MAX_REPEATS = 200
MIN_SECONDS = 0.5


def probe(core, largest, buckets, p):
    """`largest` maps bucket -> (cells, matrix, rank, full); returns
    (metrics, details, problems).  A bucket the workload never reached
    reports zeros."""
    metrics, details, problems = {}, {}, []
    for bucket in buckets:
        if bucket not in largest:
            for q in ("s_p25", "s_p50", "s_p75", "cells"):
                metrics[f"probe.{bucket}.{q}"] = 0
            continue
        cells, matrix, rank, full = largest[bucket]
        times = []
        got = None
        while len(times) < MIN_REPEATS or (
                sum(times) < MIN_SECONDS and len(times) < MAX_REPEATS):
            work = np.array(matrix, dtype=np.int64, order="C")
            t0 = perf_counter()
            got, _ = core.rref(work, p, full)
            times.append(perf_counter() - t0)
        if got != rank:
            problems.append(f"probe {bucket} {matrix.shape}: rank {got}, "
                            f"traced call gave {rank}")
        q1, q2, q3 = statistics.quantiles(times, n=4)
        metrics[f"probe.{bucket}.s_p25"] = q1
        metrics[f"probe.{bucket}.s_p50"] = q2
        metrics[f"probe.{bucket}.s_p75"] = q3
        metrics[f"probe.{bucket}.cells"] = cells
        details[bucket] = {"shape": list(matrix.shape), "rank": rank,
                           "full": full, "repeats": len(times)}
    return metrics, details, problems
