"""Blocked numpy row-reduction over F_p: the elimination core (see backend).

Arithmetic runs in float64, which is exact for integers below 2**53.  The
caller checks with _check_capacity that (rank + panel) * p**2 < 2**53, so
sums of products of reduced residues never lose precision; reduction mod p
is delayed until after each matrix product, as in FFLAS-FFPACK.

A matrix that fits one panel, n, m <= PANEL, full or rank-only, takes one
Gauss-Jordan sweep: each step clears its pivot columns above and below
their pivots, and the whole matrix is reduced once at the end.  A step
takes two pivots where the next 2 x 2 block is invertible mod p, inverted
in closed form and cleared by one rank-2 update, so that two pivots cost
about the numpy calls of one (block pivoting with delayed reduction, as in
FFLAS-FFPACK), and one pivot otherwise.  A row meets each pivot once, so
its entries stay below p + rank * p**2.

A taller or wider matrix takes the blocked, right-looking downward sweep
over 128-column panels with first-nonzero pivoting.  A panel that finds
pivots brings every column to its right up to date at once, one
PANEL-wide block at a time, by _update: the block's pivot rows are solved
by W, the inverse of the panel's triangular factor, and the rows below
them take one product with the panel's multipliers.  A rank-only run that
reaches rank = rows skips that update and stops, since no column can pivot
any more.  A full run ends with _back_eliminate, which clears above the
pivots.

Inside a panel the pivots are found by recursive halving (recursive LU, as
in Toledo 1997 and the PLUQ of FFLAS-FFPACK): factor the left half, bring
the right half up to date by the same _update step as a finished panel,
then factor the right half.  Leaves of 16 columns, and blocks with at most
PANEL rows left below the current pivot, run the column loop.  Each pivot
adds less than p**2 to an entry before the entry is next reduced, so the
(rank + panel) * p**2 bound holds.  The column loop reads the residue
below the current pivot row: when it is nonzero, the row is its own
first-nonzero pivot; only a zero residue costs a search and a row swap.
The pivot row is normalized and the rows below it updated in place.

`_stack_ranks` is the rank-only sweep over a stack of same-shape matrices
that exactalg.ranks_at fills.  Small matrices spend most of a blocked run
in numpy's per-call overhead, so the stack is swept with every matrix at
once.  While every matrix pivots on its first active row, as a generic
stack does, the sweep takes BLOCK columns at a time and factors only the
block's square head, by a fraction-free Gauss-Jordan sweep with one
common scale per matrix, so that one inversion of the scales per block
gives the inverse of the head's pivot block.  The rows below then take
the Schur complement in one batched product: block elimination with
delayed reduction, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).  At the first column where some matrix's first active entry
is 0 mod p, the head stops, the pivots found so far take their product,
and from there the sweep goes column by column: one broadcast rank-1
update per column over the rows still active, each matrix with its own
first-nonzero pivot row.  A block's scales, and a column's pivots, are
inverted together by Montgomery's batch inversion (Math. Comp. 48, 1987),
one pow for the stack.  As in the core, an entry is reduced only when it
is read, as part of a head, a pivot column or pivot row, or as a factor of
a product; each pivot subtracts less than p**2 from it, so it stays below
4 * p**2 + min(n, m) * p**2 and the same _check_capacity bound covers it.

Blocks and products are reduced by _reduce, x - floor(x / p) * p in four
numpy passes, exact while |x| + p < 2**53; the single columns and rows of
the column loops by %.
"""

from __future__ import annotations

import numpy as np

PANEL = 128
LEAF = 16
# columns of the head the stacked rank sweep factors at once while no
# matrix swaps
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


def _tri_inverse(low, invs, p):
    """Inverse mod p of the k x k lower-triangular factor whose diagonal
    inverses are `invs` and whose strictly lower part is that of `low`.

    Doubles the inverted diagonal blocks level by level,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [C^-1 (-B) A^-1, C^-1]], with every
    block pair of one level in one batched product."""
    k = len(invs)
    size = 1 << (k - 1).bit_length()
    N = np.zeros((size, size))
    N[:k, :k] = np.tril(p - low, -1)
    W = np.eye(size)
    W[np.arange(k), np.arange(k)] = invs
    s = 1
    while s < size:
        nb = size // (2 * s)
        d = np.arange(nb)
        Nb = N.reshape(nb, 2 * s, nb, 2 * s)
        Wb = W.reshape(nb, 2 * s, nb, 2 * s)
        X = _reduce(Wb[d, s:, d, s:] @ Nb[d, s:, d, :s], p)
        Wb[d, s:, d, :s] = _reduce(X @ Wb[d, :s, d, :s], p)
        s *= 2
    return W[:k, :k]


def _update(C, L, cur, top, W, p):
    """Bring the column block C (a view into the matrix) up to date with the
    pivots of rows cur:top, whose triangular factor has the inverse W.

    The pivot rows become W @ X, normalized and fully reduced; the rows
    below them take one product with those pivots' multipliers in L."""
    X = C[cur:top]
    X[:] = _reduce(W @ _reduce(X, p), p)
    C[top:] -= L[top:, cur:top] @ X


def _factor(F, L, cur, c0, c1, p, invs, pivots):
    """Find the pivots of columns c0:c1 of F from row `cur` down, with the
    rows and columns of the block up to date on entry; return the new row
    count `cur`.

    While more than PANEL rows remain below `cur`, the block is halved: the
    left half is factored, the right half is brought up to date by _update
    with the left half's pivots, and then factored in turn.  Leaves of at
    most LEAF columns, and every block with at most PANEL rows left, run the
    column loop: first-nonzero pivot, rank-1 update of the block; a leaf
    whose block below `cur` is exactly zero has no pivot and nothing to
    clear, so it returns at once.  The pivot is row `cur` whenever the
    residue of its entry is nonzero; only otherwise is the column searched
    and the first row with a nonzero residue swapped up to `cur`.
    """
    n = F.shape[0]
    if c1 - c0 > LEAF and n - cur > PANEL:
        mid = c0 + (c1 - c0) // 2
        k0 = len(invs)
        top = _factor(F, L, cur, c0, mid, p, invs, pivots)
        if top > cur:
            _update(F[:, mid:c1], L, cur, top,
                    _tri_inverse(L[cur:top, cur:top], invs[k0:], p), p)
        return _factor(F, L, top, mid, c1, p, invs, pivots)
    if not F[cur:, c0:c1].any():
        return cur
    for lc in range(c0, c1):
        if cur == n:
            break
        colv = F[cur:, lc] % p
        # read as a residue: an unreduced entry can be a nonzero multiple
        # of p, which is no pivot
        if not colv[0]:
            nz = np.nonzero(colv)[0]
            if nz.size == 0:
                F[cur:, lc] = 0.0
                continue
            r = int(nz[0])
            # entries left of lc are zero in both rows, and so are the
            # multipliers from pivot cur on; only this panel's multipliers,
            # from its first pivot row cur - len(invs) on, are read again
            F[[cur, cur + r], lc:] = F[[cur + r, cur], lc:]
            k0 = cur - len(invs)
            L[[cur, cur + r], k0:cur] = L[[cur + r, cur], k0:cur]
            colv[[0, r]] = colv[[r, 0]]
        inv = float(pow(int(colv[0]), -1, p))
        # normalize the pivot row across the block, in place; columns to
        # its right get the normalization through W
        row = F[cur, lc:c1]
        row %= p
        row *= inv
        row %= p
        L[cur + 1:, cur] = colv[1:]
        F[cur + 1:, lc + 1:c1] -= colv[1:, None] * row[1:]
        F[cur + 1:, lc] = 0.0
        invs.append(inv)
        pivots.append(lc)
        cur += 1
    return cur


def _forward(F, p, full):
    """Downward sweep on float64 matrix F (entries reduced on entry).

    Returns (rank, pivots).  Each panel is factored by _factor and, if it
    found pivots, updates every column to its right before the next panel
    starts; a rank-only run that has reached the row count skips that
    update and stops.  With `full`, leaves F in echelon form with
    normalized, fully reduced pivot rows and exact zeros below them;
    otherwise F is left unspecified.
    """
    n, m = F.shape
    # L[r, t]: multiplier of row r for the t-th pivot (r > t); row swaps move
    # it along with the row, so a panel's update reads each row's own
    # multipliers
    L = np.zeros((n, min(n, m)))
    cur = 0
    pivots = []
    for c0 in range(0, m, PANEL):
        if cur == n:
            break
        c1 = min(c0 + PANEL, m)
        cur0 = cur
        invs = []
        cur = _factor(F, L, cur, c0, c1, p, invs, pivots)
        # a rank-only run that reached the row count reads no column again
        if cur > cur0 and c1 < m and (cur < n or full):
            W = _tri_inverse(L[cur0:cur, cur0:cur], invs, p)
            for b in range(c1, m, PANEL):
                _update(F[:, b:b + PANEL], L, cur0, cur, W, p)
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
            if coef.any():
                row = F[i, cstart:]
                row -= coef @ F[i + 1:j1, cstart:]
                row %= p
        if j0 > 0:
            A = F[:j0, pivots[j0:j1]]
            F[:j0, cstart:] = _reduce(F[:j0, cstart:] - A @ F[j0:j1, cstart:],
                                      p)
        j1 = j0


def _gauss_jordan(F, p):
    """Reduced row echelon form of F in place, in one column sweep; returns
    (rank, pivots).  rref runs it on every matrix with n, m <= PANEL.

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
    for its two, so entries stay below p + rank * p**2 until the one
    reduction at the end; a cleared column holds multiples of p until
    then, and so does every entry left of a row's next pivot."""
    n, m = F.shape
    G = np.ascontiguousarray(F.T)
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
    F[:] = _reduce(G.T, p)
    return cur, pivots


def rref(a, p, full=True):
    """Reduce int64 array `a` mod p; return (rank, pivots).

    With `full`, `a` is overwritten in place by its reduced row echelon
    form.  Without it only (rank, pivots) is computed and `a` is only read.
    A matrix that fits one panel takes one Gauss-Jordan sweep either way;
    a larger one takes the blocked downward sweep, and the upward one when
    `full`."""
    n, m = a.shape
    if n == 0 or m == 0:
        return 0, []
    # the residues go straight into the float64 work array: one pass, and
    # no reduced int64 copy next to it
    F = np.empty((n, m))
    np.remainder(a, p, out=F, casting="unsafe")
    if n <= PANEL and m <= PANEL:
        rank, pivots = _gauss_jordan(F, p)
    else:
        rank, pivots = _forward(F, p, full)
        if full and rank > 1:
            _back_eliminate(F, p, rank, np.asarray(pivots, dtype=np.intp))
    if full:
        a[:, :] = F
    return rank, pivots


def _stack_ranks(F, p):
    """Ranks mod p of the matrices of the (T, n, m) float64 stack F, n >= m,
    as a list of T ints.  Its entries are integers of absolute value below
    4 * p**2; F is overwritten.

    Matrix t keeps its pivot count in cur[t], its pivot rows above cur[t]
    and its active rows from cur[t] down.  While every matrix pivots on its
    first active row, all have cur[t] = j at column j, and the sweep runs
    in blocks of K = BLOCK columns.  The block's head A = F[j:j+K, j:j+K],
    reduced, goes into H = [A | id] with the scale S = 1.  Step k reads
    pi = H[k, k] and stops at the first k where some matrix has pi = 0;
    otherwise every row i != k of H becomes pi H[i] - H[i, k] H[k], row k
    becomes S H[k], and S becomes S pi.  So H is E [A | id] for some E
    whose rows below k are those of elimination without swaps, times the
    nonzero pi so far, and pi = 0 exactly where the per-column step would
    meet a first active entry 0.  After k steps the first k columns of H
    are S id, and E's first k rows combine only A's first k rows, so
    H[:k, K:K+k] is S times the inverse of A_k, the head's leading k x k
    block, and one batch inversion of S gives A_k^-1.  A step writes only
    the K columns that a later step or the inverse reads: the head's right
    of k, and the identity's first k + 1, whose column K + k is still S on
    row k and 0 elsewhere.  The rows below the pivots take the Schur
    complement, F[j+k:, j+k:] -= F[j+k:, j:j+k] (A_k^-1 F[j:j+k, j+k:]),
    both factors reduced, which subtracts less than k p**2 from an entry.
    Where the head stopped, the per-column step runs from column j + k to
    the end.

    The per-column step: `lo` is the smallest cur, and the rows above it are
    finished in every matrix.  Every matrix takes the first nonzero active
    entry of the column as its pivot, swaps it up to cur[t], and subtracts
    multiples of its normalized pivot row from the active rows below it.  A
    step adds at most one pivot, so at column j every
    cur[t] <= j <= m - 1 < n: row cur[t] is active in every matrix, and its
    entry in column j is 0 where matrix t has no pivot."""
    T, n, m = F.shape
    if T == 0 or m == 0:
        return [0] * T
    j = 0
    while j < m:
        K = min(BLOCK, m - j)
        H = np.zeros((T, K, 2 * K))
        H[:, :, :K] = _reduce(F[:, j:j + K, j:j + K], p)
        S = np.ones(T)
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
        if k < K:
            break
    cur = np.full(T, j)
    t = np.arange(T)
    rows = np.arange(n)
    for j in range(j, m):
        lo = int(cur.min())
        off = cur - lo
        col = _reduce(F[:, lo:, j], p)
        # a finished row of matrix t is never a pivot or updated again
        col[rows[:n - lo] < off[:, None]] = 0.0
        nz = col != 0
        r = nz.argmax(1)
        has = nz[t, r]
        sw = np.flatnonzero(has & (r != off))
        if sw.size:
            i, k = off[sw], r[sw]
            F[sw, lo + i, j + 1:], F[sw, lo + k, j + 1:] = (
                F[sw, lo + k, j + 1:], F[sw, lo + i, j + 1:])
            col[sw, i], col[sw, k] = col[sw, k], col[sw, i]
        # a column where no member pivots has nothing to clear
        if j + 1 < m and has.any():
            # the pivot entry is 0 exactly where there is none, and so is
            # its inverse
            inv = _inverses(col[t, off], p)
            prow = _reduce(_reduce(F[t, lo + off, j + 1:], p) * inv[:, None],
                           p)
            col[t, off] = 0.0
            F[:, lo:, j + 1:] -= col[:, :, None] * prow[:, None, :]
        cur += has
    return cur.tolist()
