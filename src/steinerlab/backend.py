"""The F_p elimination core behind every rank, reduced form and kernel.

`_core` is the blocked numpy elimination in _gfcore_py: a left-looking
sweep over 128-column panels that applies each finished panel's update to
a later panel only when it gets there, so a rank-only elimination stops
as soon as the rank reaches the row count.  Inside a panel with more than
PANEL rows left below the pivot, the columns are halved recursively down to
16-column leaves, so most of the within-panel update is matrix products
too; smaller systems run the per-column loop.  Deferring or batching an
update changes when it is applied, not its size: each pivot adds less than
p**2 to an entry before the entry is next reduced, so sums stay below
(rank + PANEL) * p**2 as in a right-looking, column-at-a-time sweep.  Its
contract: rref(a, p, True) reduces an int64 C-contiguous array in place to
its reduced row echelon form and returns (rank, pivot columns), with
first-nonzero pivoting so the reduced form is canonical; rref(a, p, False)
returns the same (rank, pivot columns) and only reads `a`, so `rank` hands
it the caller's array when that is already int64.  Every elimination
goes through the attribute call `_core.rref(...)`, so a profiler can wrap
that one attribute.
"""

from __future__ import annotations

import numpy as np

from . import _gfcore_py as _core

# Accumulated values during elimination stay below (#pivots + panel + 2) * p^2,
# and the core works in float64.
_LIMIT = 2**53


def backend_name():
    return "python"


def _check_capacity(n, m, p):
    if (min(n, m) + 130) * p * p >= _LIMIT:
        raise ValueError(
            f"matrix of shape ({n}, {m}) too large for exact elimination "
            f"mod {p}"
        )


def _prep(a, p, copy=True):
    """`a` as a C-contiguous int64 array the core may take; a fresh copy
    unless `copy` is false.  The core reduces it mod p itself."""
    arr = (np.array if copy else np.asarray)(a, dtype=np.int64, order="C")
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    _check_capacity(arr.shape[0], arr.shape[1], p)
    return arr


def rank(a, p):
    # a rank-only core call only reads its input, so no copy is needed
    arr = _prep(a, p, copy=False)
    r, _ = _core.rref(arr, p, False)
    return r


def rref(a, p):
    """Return (R, rank, pivots) with R the reduced row echelon form of a."""
    arr = _prep(a, p)
    r, piv = _core.rref(arr, p, True)
    return arr, r, list(piv)


def nullspace(a, p):
    """Right kernel of a mod p, as columns of an int64 matrix.

    Built from the reduced echelon form, so the basis is canonical: column j
    of the result corresponds to the j-th free column, carries a 1 there, and
    is supported only on pivot and earlier free coordinates.
    """
    a = np.asarray(a, dtype=np.int64)
    m = a.shape[1]
    R, r, pivots = rref(a, p)
    pivset = set(pivots)
    free = [j for j in range(m) if j not in pivset]
    basis = np.zeros((m, len(free)), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[fc, idx] = 1
        for i, pc in enumerate(pivots):
            v = int(R[i, fc])
            if v:
                basis[pc, idx] = p - v
    return basis


def matmul_mod(a, b, p):
    """Exact (a @ b) mod p using float64 BLAS, chunking the inner dimension
    when sums could reach 2**53."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    inner = a.shape[-1]
    if inner == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    step = max(1, (2**53 - 1) // (p * p))
    if inner <= step:
        return (np.mod(a.astype(np.float64) @ b.astype(np.float64), p)).astype(
            np.int64
        )
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k0 in range(0, inner, step):
        k1 = min(k0 + step, inner)
        part = a[:, k0:k1].astype(np.float64) @ b[k0:k1, :].astype(np.float64)
        out = (out + part.astype(np.int64)) % p
    return out
