"""The F_p elimination core behind every rank, reduced form and kernel.

`_core` is the numpy elimination in _gfcore_py.  A matrix of at most 128
columns, full or rank-only, takes one Gauss-Jordan sweep.  A wider one
takes the same sweep one 128-column panel at a time, and the rows below
and above each panel's pivots take one matrix product each; a rank-only
elimination stops as soon as the rank reaches the row count.  Each pivot
adds less than p**2 to an entry before the entry is next reduced, so sums
stay below (rank + PANEL) * p**2 as in a column-at-a-time sweep.  Its
contract: rref(a, p, True) reduces an int64 C-contiguous array in place to
its reduced row echelon form and returns (rank, pivot columns), with
first-nonzero pivoting so the reduced form is canonical; rref(a, p, False)
returns the same (rank, pivot columns) and only reads `a`, so `rank` hands
it the caller's array when that is already int64.  Every elimination of a single matrix goes through the attribute
call `_core.rref(...)`, so a profiler can wrap that one attribute.  The one
other entry into the core is the rank-only sweep over a stack of same-shape
matrices, `_core._stack_ranks`, on the float64 values that
exactalg.ranks_at computes straight into its work stack.  The capacity
guard that keeps all these sums exact lives with the core, as
_core._check_capacity.
"""

from __future__ import annotations

import numpy as np

from . import _gfcore_py as _core


def backend_name():
    return "python"


def _prep(a, p, copy=True):
    """`a` as a C-contiguous int64 array the core may take; a fresh copy
    unless `copy` is false.  The core reduces it mod p itself."""
    arr = (np.array if copy else np.asarray)(a, dtype=np.int64, order="C")
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    _core._check_capacity(arr.shape[0], arr.shape[1], p)
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
    """Right kernel of a mod p, as a k x m int64 matrix with one basis
    vector per row.

    Built from the reduced echelon form, so the basis is canonical: row j
    of the result corresponds to the j-th free column, carries a 1 there, and
    is supported only on pivot and earlier free coordinates.
    """
    return _kernel_of_rref(*rref(a, p), p)


def _kernel_of_rref(R, r, pivots, p):
    """nullspace's basis, read off a reduced echelon form R of rank r."""
    m = R.shape[1]
    is_free = np.ones(m, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), m), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ((p - R[:r, free]) % p).T
    return basis
