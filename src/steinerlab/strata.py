"""Jordan-type enumeration, the two reference stratification tables, and the
constructive search for rank-0 covectors.

The 4x4 table classifies pencils through the Jordan form of a 4x4 matrix C:
each row carries the stratum dimension O (orbit dimension plus one parameter
per distinct eigenvalue) and the solution dimension S of the linear system
"CX symmetric in symmetric X".  The 3x4 table does the same for pairs (C0, c)
with C0 a 3x3 matrix and c a 3-vector, where the system reads
"C0 X0 + c x^t symmetric".

Reference columns reproduce a published table; two entries disagree with the
recomputation and are reported with flags instead of being silently adopted
(see the table builders).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import exactalg, subspace
from .seeding import derive_rng


@dataclass(frozen=True, order=True)
class JordanType:
    """Multiset of partitions, one per distinct eigenvalue; canonical form
    keeps each partition sorted descending and the list of partitions sorted
    descending."""

    partitions: tuple

    def __post_init__(self):
        canon = tuple(
            sorted((tuple(sorted(p, reverse=True)) for p in self.partitions),
                   reverse=True)
        )
        object.__setattr__(self, "partitions", canon)

    @property
    def n(self):
        return sum(sum(p) for p in self.partitions)

    @property
    def num_eigenvalues(self):
        return len(self.partitions)

    @property
    def label(self):
        return "|".join("".join(str(b) for b in p) for p in self.partitions)

    def representative(self, p):
        """Block-diagonal matrix with eigenvalues 1, 2, ... and upper
        bidiagonal Jordan blocks."""
        n = self.n
        C = np.zeros((n, n), dtype=np.int64)
        pos = 0
        for eig, part in enumerate(self.partitions, start=1):
            for size in part:
                for i in range(size):
                    C[pos + i, pos + i] = eig % p
                    if i + 1 < size:
                        C[pos + i, pos + i + 1] = 1
                pos += size
        return C


def _partitions_of(n):
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def enumerate_jordan4():
    """The 14 Jordan types of a 4x4 matrix, in the reference row order:
    ascending centralizer dimension, then descending eigenvalue count, then
    partition order."""
    return sorted(
        {JordanType(c) for sizes in _partitions_of(4)
         for c in itertools.product(*map(_partitions_of, sizes))},
        key=lambda t: (centralizer_dim(t), -t.num_eigenvalues, t.partitions),
    )


def centralizer_dim(t):
    """Sum over eigenvalues of sum_{i,j} min(b_i, b_j) over block sizes."""
    total = 0
    for part in t.partitions:
        for bi in part:
            for bj in part:
                total += min(bi, bj)
    return total


def stratum_dim(t):
    """n^2 - centralizer + number of distinct eigenvalues."""
    n = t.n
    return n * n - centralizer_dim(t) + t.num_eigenvalues


# ---------------------------------------------------------------------------
# solution dimensions


def _antisym_rows(T):
    """Rows T[u, v] - T[v, u] for u < v of a tensor T[u, v, coordinate]."""
    u, v = np.triu_indices(T.shape[0], 1)
    return T[u, v] - T[v, u]


def _cx_rows(C):
    """Coefficient rows of CX - (CX)^T = 0 in the upper-triangle coordinates
    x_ij (i <= j, row-major: MONO_PQ's order) of a symmetric 4 x 4 X."""
    E = subspace._tensor(np.eye(10, dtype=np.int64), 1)[:, 0]  # E[c] = dX/dx_c
    return _antisym_rows(np.einsum("uk,ckv->uvc", C, E))


def solution_dim_4x4(C, p):
    """dim {X symmetric 4x4 : CX symmetric} = 10 - rank of the 6-equation
    system in X's upper-triangle coordinates."""
    return 10 - exactalg.rank(_cx_rows(C), p)


def solution_dim_3x4(C0, c, p):
    """Rank r of the 3-equation system "C0 X0 + c x^t symmetric" on symmetric
    4x4 X = [[X0, x], [x^t, xi]], and S = 10 - r.

    With C = [[C0, c], [0, 0]], (CX)_uv = (C0 X0)_uv + c_u x_v for u, v < 3,
    so the system is the rows of _cx_rows(C) at the pairs u < v < 3, in X's
    upper-triangle coordinates (xi appears in no equation)."""
    C = np.zeros((4, 4), dtype=np.int64)
    C[:3] = np.column_stack([C0, np.reshape(c, 3)])
    r = exactalg.rank(_cx_rows(C)[np.triu_indices(4, 1)[1] < 3], p)
    return r, 10 - r


# ---------------------------------------------------------------------------
# reference tables


@dataclass(frozen=True)
class StrataRow:
    label: str
    O_ref: int
    O_computed: int
    S_ref: int
    S_computed: int
    flags: tuple = field(default_factory=tuple)

    @property
    def O_match(self):
        return self.O_ref == self.O_computed

    @property
    def S_match(self):
        return self.S_ref == self.S_computed


# reference O and S columns, in the row order of enumerate_jordan4
_JORDAN4_REF = {
    "1|1|1|1": (16, 4),
    "2|1|1": (14, 4),
    "2|2": (14, 4),
    "3|1": (14, 4),
    "4": (13, 4),
    "11|1|1": (13, 5),
    "2|11": (12, 5),
    "21|1": (12, 5),
    "31": (11, 5),
    "11|11": (10, 6),
    "22": (9, 7),
    "111|1": (8, 7),
    "211": (7, 7),
    "1111": (1, 10),
}


def jordan4_table(p):
    """The 14-row stratification table with recomputed O and S columns.

    Two rows are flagged: the reference O for "2|1|1" is one less than the
    orbit-dimension formula gives, and the reference S for "22" is one more
    than the solution dimension 10 - rank of its symmetry system (rank 4,
    so S = 6); the recomputed values carry the flags o_ref_mismatch /
    s_ref_mismatch rather than being adjusted.
    """
    rows = []
    for t in enumerate_jordan4():
        label = t.label
        O_ref, S_ref = _JORDAN4_REF[label]
        O_comp = stratum_dim(t)
        S_comp = solution_dim_4x4(t.representative(p), p)
        flags = []
        if O_comp != O_ref:
            flags.append("o_ref_mismatch")
        if S_comp != S_ref:
            flags.append("s_ref_mismatch")
        rows.append(StrataRow(label, O_ref, O_comp, S_ref, S_comp, tuple(flags)))
    return rows


@dataclass(frozen=True)
class PairStrataRow:
    label: str          # Jordan type of C0
    c_class: str        # description of the c-vector class
    r_ref: int
    r_computed: int
    S_ref: int
    S_computed: int
    O_computed: int     # informational stratum dimension of the (C0, c) class
    O_ref_display: str  # the reference column as printed (may be a bound)
    flags: tuple = field(default_factory=tuple)


# (partitions of C0's Jordan type, c_class, c, r_ref, S_ref, dimension of
# the c-class, O_ref_display); C0 is the representative of the Jordan type
_JORDAN3X4_ROWS = [
    (((1,), (1,), (1,)), "generic", (1, 1, 1), 3, 7, 3, "12"),
    (((1, 1), (1,)), "c in the simple eigenspace", (0, 0, 1), 2, 8, 1, "7"),
    (((1, 1), (1,)), "other c", (1, 0, 0), 3, 7, 3, "<12"),
    (((1, 1, 1),), "c nonzero", (0, 0, 1), 2, 8, 3, "7"),
    (((1, 1, 1),), "c zero", (0, 0, 0), 0, 10, 0, "-"),
    (((2,), (1,)), "generic", (1, 1, 1), 3, 7, 3, "<12"),
    (((2, 1),), "c in the big block's eigenline", (1, 0, 0), 2, 8, 1, "6"),
    (((2, 1),), "other c", (0, 0, 1), 3, 7, 3, "<12"),
    (((3,),), "generic", (1, 1, 1), 3, 7, 3, "<12"),
]


def jordan3x4_table(p):
    """The 9-row pair table: (r, S) recomputed from explicit representatives.

    The O column mixes strata of different kinds in the reference, so it is
    recomputed as the stratum dimension of C0's Jordan type (9 - centralizer
    + eigenvalue count) plus the c-class dimension and reported as
    informational only; the degenerate scalar row with c = 0 has r = 0 (the
    pair map is not onto) and is flagged.
    """
    rows = []
    for parts, c_class, c, r_ref, S_ref, c_dim, O_disp in _JORDAN3X4_ROWS:
        jt = JordanType(parts)
        O_comp = stratum_dim(jt) + c_dim
        C0 = jt.representative(p)
        r, S = solution_dim_3x4(C0, c, p)
        flags = []
        if r == 0:
            flags.append("pair_map_not_onto")
        if r != r_ref or S != S_ref:
            flags.append("ref_mismatch")
        rows.append(
            PairStrataRow(jt.label, c_class, r_ref, r, S_ref, S, O_comp,
                          O_disp, tuple(flags))
        )
    return rows


# ---------------------------------------------------------------------------
# rank-0 covectors


def find_rank0(sl):
    """Search for a covector g cutting a hyperplane of the slice sl (Z, or
    Z' on a hyperplane) with Z-rank (resp. (Z,H)-rank) zero.

    The symmetry constraints on the coefficient family c are linear: solve
    them, then return the first kernel basis vector's induced covector that
    is independent of the quotient's rows.  Every candidate is reduced at
    once by sl.residue against the slice's reduced echelon form, which the
    quotient's rank check already computed: the residue vanishes exactly
    when the candidate lies in the row span.
    If every basis vector induces a dependent covector the span does too,
    and None is honest.
    """
    a, f, p = sl.a, sl.f, sl.prime
    n, t = sl.n, sl.t
    # unknowns c[P, r, s] for P in 1..n, r in 1..4, flattened row-major;
    # Y_j[pp, qq] = sum_{r,s} c[pp,r,s] t[s,j,qq,r] is symmetric in
    # pp, qq <= n, with Y[pp, qq, j, P, r, s] = delta(pp, P) t[s, j, qq, r]
    Y = np.einsum("uP,sjqr->uqjPrs", np.eye(n, dtype=np.int64), t[:, :, :n])
    system = _antisym_rows(Y).reshape(n * (n - 1) // 2 * a, -1)
    kernel = exactalg.kernel_basis(system, p)
    k = len(kernel)
    # induced covectors g[j, (p, q)] = sum_{r,s} c[p,r,s] t[s,j,q,r], one per
    # kernel vector, read on the slice's coordinates; the symmetry system
    # makes the (p,q) and (q,p) readings agree
    C = kernel.reshape(k, n, 4, f)
    G = np.mod(subspace._coords(np.einsum("kprs,sjqr->kjpq", C, t), sl.pq), p)
    hits = np.flatnonzero(sl.residue(G).any(axis=1))
    return G[hits[0]] if hits.size else None


def rank_distribution(phi, frame=None, codim=1, trials=50, seed=0):
    """Histogram of Z-ranks (frame None) or (Z,H)-ranks of random
    codimension-`codim` subspaces of Z (resp. Z')."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = phi.prime
    sl = subspace.zslice(phi, frame)
    hist = {}
    for trial in range(trials):
        rng = derive_rng(seed, 7, trial)
        extra = [rng.integers(0, p, size=sl.rows.shape[1], dtype=np.int64)
                 for _ in range(codim)]
        r = subspace.z_rank(sl, extra)
        hist[r] = hist.get(r, 0) + 1
    return hist
