"""Numpy row-reduction over F_p: the elimination core (see backend).

Arithmetic runs in float64, which is exact for integers below 2**53.  The
caller checks with _check_capacity that (rank + panel) * p**2 < 2**53, so
sums of products of reduced residues never lose precision; reduction mod p
is delayed until after each matrix product, as in FFLAS-FFPACK.

A matrix of at most PANEL columns, of any height, full or rank-only, takes
one Gauss-Jordan sweep: each step clears its pivot columns above and below
their pivots, and the form is reduced once, by the caller that reads it.
A step takes two pivots where the next 2 x 2 block is invertible mod p,
inverted in closed form and cleared by one rank-2 update, so that two
pivots cost about the numpy calls of one (block pivoting with delayed
reduction, as in FFLAS-FFPACK), and one pivot otherwise.  A row meets each
pivot once, so its entries stay below p + rank * p**2.

A wider matrix is swept one 128-column panel at a time (block elimination
with delayed reduction, Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
The panel's active rows, reduced, take the same Gauss-Jordan sweep, which
finds the panel's k pivots and the rows they come from; those rows move up
to the first active rows.  With B the k x k block of the pivot rows at the
pivot columns, inverted by one sweep of [B | id], the pivot rows' right
part Y becomes Z = B^-1 Y, and the rows below take one product of their
entries at the pivot columns with Z.  A full run writes the panel's
reduced rows R in place and clears the rows above by one product against
[R | Z]; a rank-only run stops once the rank reaches the row count, before
that panel's inverse.  Each product takes less than k * p**2 from an entry
of reduced factors, and an entry is reduced whenever it is read as a
factor, so every entry stays below p + rank * p**2.

`_stack_ranks` is the rank-only sweep over a stack of same-shape matrices
that exactalg.ranks_at fills.  Small matrices spend most of a single run
in numpy's per-call overhead, so the stack is swept with every matrix at
once, BLOCK columns at a time.  A block factors only its square head, by
a fraction-free Gauss-Jordan sweep with one common scale per matrix, so
that one inversion of the scales, by Montgomery's batch inversion (Math.
Comp. 48, 1987), one pow for the stack, gives the inverse of the head's
pivot block.  The rows below then take the Schur complement in one
batched product, as in the panels above.  The head stops at the first
column where some matrix's first active entry is 0 mod p, after the
pivots found so far take their product.  There a matrix with a nonzero
entry below swaps that row up, and the next block starts at the column;
a matrix with none has no pivot there and leaves the stack, its block
right of the column ranked by _sweep_panels unless it is 0 mod p.  As in
the core, an entry is reduced only when it is read, as part of a head, a
stopped column or a leaving block, or as a factor of a product; each
pivot subtracts less than p**2 from it, so it stays below
4 * p**2 + min(n, m) * p**2 and the same _check_capacity bound covers it.

Blocks and products are reduced by _reduce, x - floor(x / p) * p in four
numpy passes, exact while |x| + p < 2**53; the single columns and rows of
the sweeps by %.
"""

from __future__ import annotations

import numpy as np

PANEL = 128
# columns of the head the stacked rank sweep factors at once
BLOCK = 8

# float64 holds every integer below 2**53 exactly
_LIMIT = 2**53


def _check_capacity(n, m, p):
    """Reject a shape whose elimination mod p could leave float64's exact
    range: accumulated values stay below (min(n, m) + PANEL + 2) * p**2."""
    if (min(n, m) + PANEL + 2) * p * p >= _LIMIT:
        raise ValueError(
            f"matrix of shape ({n}, {m}) too large for exact elimination "
            f"mod {p}"
        )


def _reduce(x, p):
    """x mod p, entrywise, as a new array, for a float64 array of integers
    with |x| + p < 2**53; several times cheaper than np.mod on float64.

    It is x - floor(x / p) * p, and exact.  Write x = q * p + r with
    0 <= r < p.  The division is correctly rounded, so fl(x / p) lies within
    |x| / p * 2**-53 < 1 / p of x / p.  If r = 0, x / p = q is an integer
    below 2**53 and fl(x / p) = q.  Otherwise q + 1 is at least 1 / p above
    x / p, so q <= fl(x / p) < q + 1.  Either way the floor is q, the
    product q * p = x - r has |x - r| < |x| + p < 2**53 and is exact, and
    so is the difference r."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def _inverses(v, p):
    """Inverses mod p of the float64 vector v of residues, with 0 for 0,
    by Montgomery's batch inversion: one pow for the whole vector and three
    products mod p per entry, in place of a pow per entry."""
    vals = v.astype(np.int64).tolist()
    pre = []
    acc = 1
    for x in vals:
        pre.append(acc)
        acc = acc * (x or 1) % p
    acc = pow(acc, -1, p)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        if vals[i]:
            # acc is the inverse of the product of vals[:i + 1]
            out[i] = acc * pre[i] % p
            acc = acc * vals[i] % p
    return np.array(out, dtype=np.float64)


def _gauss_jordan(F, p):
    """Reduced row echelon form of the float64 residues F, in one column
    sweep; returns (rank, pivots, order, R) and only reads F.  Row i of R
    descends from row order[i] of F, which a swap moved there, so the rank
    rows order[:rank] span the rows of F; R is not yet reduced mod p, and
    the caller that reads it reduces it.

    The sweep runs on G = F^T, so that a column of F and the target of an
    update are contiguous.  A step at row cur and column lc reads the
    residues of columns lc and lc + 1.  Where the 2 x 2 block B they hold
    on rows cur and cur + 1 is invertible mod p, both columns pivot: B is
    inverted in closed form, with one pow, the two pivot rows become
    B^-1 times their residues, reduced, and both columns are cleared above
    and below in one rank-2 update of every other row.  Otherwise the step
    takes column lc alone: its first nonzero residue from row cur down,
    swapped up to cur, is the pivot, the pivot row is normalized and fully
    reduced, and the column is cleared in one rank-1 update.  The reduced
    form is unique, so it does not depend on which steps take two pivots.
    A row meets each pivot once, and a block step adds less than 2 * p**2
    for its two, so entries of R stay below p + rank * p**2; a cleared
    column holds multiples of p, and so does every entry left of a row's
    next pivot and every row below the rank."""
    n, m = F.shape
    G = F.T.copy()
    order = np.arange(n)
    cur = 0
    lc = 0
    pivots = []
    while lc < m and cur < n:
        cols = G[lc:lc + 2] % p
        det = 0
        if lc + 1 < m and cur + 1 < n:
            (a, b), (c, d) = cols[:, cur:cur + 2].tolist()
            det = int(a * d - b * c) % p
        if det:
            inv = pow(det, -1, p)
            # the pivot rows, as the columns of G, times B^-T
            Bt = np.array([[d * inv % p, -b * inv % p],
                           [-c * inv % p, a * inv % p]])
            X = G[lc:, cur:cur + 2] % p @ Bt % p
            G[lc:, cur:cur + 2] = X
            cols[:, cur:cur + 2] = 0.0
            G[lc:] -= X @ cols
            pivots += [lc, lc + 1]
            cur += 2
            lc += 2
            continue
        colv = cols[0]
        if not colv[cur]:
            nz = np.flatnonzero(colv[cur:])
            if nz.size == 0:
                lc += 1
                continue
            r = cur + int(nz[0])
            G[lc:, [cur, r]] = G[lc:, [r, cur]]
            order[[cur, r]] = order[[r, cur]]
            colv[[cur, r]] = colv[[r, cur]]
        row = G[lc:, cur]
        row %= p
        row *= pow(int(colv[cur]), -1, p)
        row %= p
        colv[cur] = 0.0
        G[lc:] -= row[:, None] * colv
        pivots.append(lc)
        cur += 1
        lc += 1
    return cur, pivots, order, G.T


def _sweep_panels(F, p, full):
    """Sweep the float64 residues F one PANEL-column panel at a time;
    returns (rank, pivots).  With `full`, the first rank rows of F are left
    holding the reduced row echelon form, not yet reduced mod p; otherwise
    F is left unspecified.

    Rows from cur down are active.  A panel whose active rows are 0 mod p
    is skipped; otherwise their residues P take one Gauss-Jordan sweep,
    which finds k pivots and the rows S of P they come from.  The rows that
    moved are copied into place across the columns right of the panel, S
    first.  There, with B the k x k block of P on S at the pivot columns,
    the pivot rows Y become Z = B^-1 Y, reduced, and every row below
    subtracts its residues at the pivot columns times Z: its panel part is
    that combination of the pivot rows, so it reaches 0.  A full run then
    writes the pivot rows' reduced panel part R, clears their entries left
    of the panel, and clears the pivot columns in the rows above by one
    product against [R | Z]."""
    n, m = F.shape
    cur = 0
    pivots = []
    for c0 in range(0, m, PANEL):
        c1 = min(c0 + PANEL, m)
        P = _reduce(F[cur:, c0:c1], p)
        if not P.any():
            continue
        k, piv, order, R = _gauss_jordan(P, p)
        pivots += [c0 + j for j in piv]
        top = cur + k
        # a rank-only run that reached the row count reads no column again
        if top == n and not full:
            break
        moved = np.flatnonzero(order != np.arange(len(order)))
        F[cur + moved, c1:] = F[cur + order[moved], c1:]
        if c1 < m:
            # the panel's residues at its pivot columns, rows in R's order
            C = P[:, piv][order]
            B = np.hstack([C[:k], np.eye(k)])
            inv = _reduce(_gauss_jordan(B, p)[3][:, k:], p)
            Z = F[cur:top, c1:]
            Z[:] = _reduce(inv @ _reduce(Z, p), p)
            F[top:, c1:] -= C[k:] @ Z
        if full:
            F[cur:top, :c0] = 0.0
            F[cur:top, c0:c1] = _reduce(R[:k], p)
            A = _reduce(F[:cur, c0:c1][:, piv], p)
            F[:cur, c0:] -= A @ F[cur:top, c0:]
        cur = top
        if cur == n:
            break
    return len(pivots), pivots


def rref(a, p, full=True):
    """Reduce int64 array `a` mod p; return (rank, pivots).

    With `full`, `a` is overwritten in place by its reduced row echelon
    form.  Without it only (rank, pivots) is computed and `a` is only read.
    A matrix of at most PANEL columns takes one Gauss-Jordan sweep either
    way, and a wider one one sweep per panel."""
    n, m = a.shape
    # the residues go straight into the float64 work array: one pass, and
    # no reduced int64 copy next to it
    F = np.empty((n, m))
    np.remainder(a, p, out=F, casting="unsafe")
    if m <= PANEL:
        rank, pivots, _, F = _gauss_jordan(F, p)
    else:
        rank, pivots = _sweep_panels(F, p, full)
    if full:
        a[:rank] = _reduce(F[:rank], p)
        a[rank:] = 0
    return rank, pivots


def _stack_ranks(F, p):
    """Ranks mod p of the matrices of the (T, n, m) float64 stack F, n >= m,
    as a list of T ints.  Its entries are integers of absolute value below
    4 * p**2; F is overwritten.

    At column j every matrix in the stack has its j pivot rows above row
    j and its active rows from j down, and the sweep runs in blocks of
    K = BLOCK columns.  The block's head A = F[j:j+K, j:j+K], reduced,
    goes into H = [A | id] with the scale S = 1.  Step k reads
    pi = H[k, k] and stops at the first k where some matrix has pi = 0;
    otherwise every row i != k of H becomes pi H[i] - H[i, k] H[k], row k
    becomes S H[k], and S becomes S pi.  So H is E [A | id] for some E
    whose rows below k are those of elimination without swaps, times the
    nonzero pi so far, and pi = 0 exactly where that elimination meets a
    first active entry 0.  After k steps the first k columns of H
    are S id, and E's first k rows combine only A's first k rows, so
    H[:k, K:K+k] is S times the inverse of A_k, the head's leading k x k
    block, and one batch inversion of S gives A_k^-1.  A step writes only
    the K columns that a later step or the inverse reads: the head's right
    of k, and the identity's first k + 1, whose column K + k is still S on
    row k and 0 elsewhere.  The rows below the pivots take the Schur
    complement, F[j+k:, j+k:] -= F[j+k:, j:j+k] (A_k^-1 F[j:j+k, j+k:]),
    both factors reduced, which subtracts less than k p**2 from an entry.

    Where the head stopped, at column j, a matrix whose entry at (j, j)
    is 0 mod p swaps its first active row that is not 0 there with row j,
    across columns j onward, and stays.  A matrix with no such row has no
    pivot in column j and leaves the stack, with rank j plus that of its
    rows from j down right of the column: 0 for a block that is 0 mod p,
    otherwise by _sweep_panels.  Every matrix left has a nonzero entry at
    (j, j), so the next block takes a pivot, and the loop ends; a matrix
    that pivots at every column has rank m."""
    T, n, m = F.shape
    ranks = np.full(T, m)
    live = np.arange(T)
    j = 0
    while j < m and live.size:
        K = min(BLOCK, m - j)
        H = np.zeros((len(live), K, 2 * K))
        H[:, :, :K] = _reduce(F[:, j:j + K, j:j + K], p)
        S = np.ones(len(live))
        k = 0
        while k < K:
            piv = H[:, k, k]
            if not piv.all():
                break
            # every row but k clears its column k and is scaled by piv; row
            # k is scaled by S, so each row's scale stays S * piv
            H[:, k, K + k] = S
            c = H[:, :, k].copy()
            c[:, k] = piv - S
            X = H[:, :, k + 1:K + k + 1]
            X[:] = _reduce(
                piv[:, None, None] * X - c[:, :, None] * X[:, None, k], p)
            S = S * piv % p
            k += 1
        if k and j + k < m:
            # H[:, :k, K:K + k] is S times the inverse of the head's
            # leading k x k block; the rows below take the Schur complement
            # in one product
            inv = _reduce(H[:, :k, K:K + k] * _inverses(S, p)[:, None, None],
                          p)
            U = _reduce(inv @ _reduce(F[:, j:j + k, j + k:], p), p)
            F[:, j + k:, j + k:] -= _reduce(F[:, j + k:, j:j + k], p) @ U
        j += k
        if k == K:
            continue
        # the head stopped at column j: a member whose entry there is 0
        # swaps up its first row with a nonzero one, and a member with none
        # leaves
        nz = _reduce(F[:, j:, j], p) != 0
        has = nz.any(1)
        t = np.flatnonzero(has & ~nz[:, 0])
        if t.size:
            r = j + nz[t].argmax(1)
            F[t, j, j:], F[t, r, j:] = F[t, r, j:], F[t, j, j:]
        if not has.all():
            # its rank is j plus that of its rows from j down, right of the
            # column; a block that is 0 mod p, or has no column, adds nothing
            gone = live[~has]
            ranks[gone] = j
            if j + 1 < m:
                R = _reduce(F[~has, j:, j + 1:], p)
                for i in np.flatnonzero(R.any((1, 2))):
                    ranks[gone[i]] += _sweep_panels(R[i], p, False)[0]
            F, live = F[has], live[has]
    return ranks.tolist()
