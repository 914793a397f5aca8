"""Blocked numpy row-reduction over F_p: the elimination core (see backend).

Arithmetic runs in float64, which is exact for integers below 2**53.  The
caller guarantees (min(n, m) + panel) * p**2 < 2**53, so sums of products of
reduced residues never lose precision.  The downward sweep is blocked: pivots
are found one column at a time inside a panel, but the trailing columns are
updated with a single matrix product per panel, which is what makes this
usable on matrices with a few thousand rows.
"""

from __future__ import annotations

import numpy as np

PANEL = 128


def _forward(F, p):
    """Downward sweep on float64 matrix F (entries reduced on entry).

    Leaves F in echelon form with normalized, fully reduced pivot rows and
    exact zeros below them.  Returns (rank, pivots).
    """
    n, m = F.shape
    cur = 0
    pivots = []
    c0 = 0
    while c0 < m and cur < n:
        c1 = min(c0 + PANEL, m)
        cur0 = cur
        L = np.zeros((n - cur0, c1 - c0))
        invs = []
        for lc in range(c0, c1):
            if cur == n:
                break
            colv = np.mod(F[cur:, lc], p)
            F[cur:, lc] = colv
            nz = np.nonzero(colv)[0]
            if nz.size == 0:
                continue
            r = cur + int(nz[0])
            if r != cur:
                F[[cur, r], :] = F[[r, cur], :]
                L[[cur - cur0, r - cur0], :] = L[[r - cur0, cur - cur0], :]
            inv = float(pow(int(F[cur, lc]), -1, p))
            # normalize the pivot row across the panel; trailing columns are
            # handled in the triangular pass below
            F[cur, lc:c1] = np.mod(np.mod(F[cur, lc:c1], p) * inv, p)
            k = cur - cur0
            fcol = np.mod(F[cur + 1:, lc], p)
            L[cur + 1 - cur0:, k] = fcol
            F[cur + 1:, lc + 1:c1] -= np.outer(fcol, F[cur, lc + 1:c1])
            F[cur + 1:, lc] = 0.0
            invs.append(inv)
            pivots.append(lc)
            cur += 1
        k = cur - cur0
        if k and c1 < m:
            T = F[:, c1:]
            Tp = T[cur0:cur0 + k, :]
            # pivot rows first: each still needs the eliminations from the
            # panel's earlier pivots, then its own normalization
            for i in range(k):
                if i:
                    Tp[i] -= L[i, :i] @ Tp[:i]
                Tp[i] = np.mod(np.mod(Tp[i], p) * invs[i], p)
            if cur0 + k < n:
                T[cur0 + k:, :] -= L[k:, :k] @ Tp
        c0 = c1
    # rows that never produced a pivot are exact zeros by now; make sure no
    # float junk survives in the zero block
    if cur < n:
        F[cur:, :] = 0.0
    return cur, pivots


def _back_eliminate(F, p, rank, pivots):
    """Clear the entries above every pivot, panel by panel from the right.

    Rows are fully reduced on entry, so one matrix product per panel keeps
    every intermediate value below (PANEL + 1) * p**2."""
    j1 = rank
    while j1 > 0:
        j0 = max(0, j1 - PANEL)
        cstart = pivots[j0]
        # panel rows against each other, bottom-up; rows below i are already
        # clean, so a single combination per row suffices
        for i in range(j1 - 2, j0 - 1, -1):
            coef = F[i, pivots[i + 1:j1]]
            if np.any(coef):
                F[i, cstart:] = np.mod(
                    F[i, cstart:] - coef @ F[i + 1:j1, cstart:], p
                )
        if j0 > 0:
            A = F[:j0, pivots[j0:j1]]
            F[:j0, cstart:] = np.mod(
                F[:j0, cstart:] - A @ F[j0:j1, cstart:], p
            )
        j1 = j0


def rref(a, p, full=True):
    """Reduce int64 array `a` in place mod p; return (rank, pivots)."""
    n, m = a.shape
    if n == 0 or m == 0:
        return 0, []
    F = np.mod(a, p).astype(np.float64)
    rank, pivots = _forward(F, p)
    if full and rank > 1:
        _back_eliminate(F, p, rank, np.asarray(pivots, dtype=np.intp))
    a[:, :] = F.astype(np.int64)
    return rank, pivots
