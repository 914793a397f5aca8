"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays, rows × cols, row-major.  `rank`, `rref`,
`kernel_basis`, `split`, `cokernel_dim` and `matmul_mod` take any int64
entries (on a shape within the core's capacity guard), reduce them mod p and
return residues in [0, p).  Every rank, kernel and cokernel in the package
reduces to the routines here.  A single matrix goes to the blocked
elimination core in backend.  A matrix of linear forms on P^3 is a
(4, r, c) array whose entry [k] is the coefficient of x_(k+1);
`evaluate_linear` reads it at points, and `ranks_at` ranks its values at
many points, a chunk at a time: one float64 product of the chunk's points
by the forms fills the work stack of the core's rank-only sweep over
same-shape matrices (_core._stack_ranks) with no reduced copy between.

The field is one prime p, which every routine takes as an argument; the
command line's default is 32003.  Genericity statements checked by sampling
hold over F_p up to failure probability O(dim/p), and exact arithmetic keeps
every reported rank a theorem about the sampled instance rather than a
numerical estimate.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import _gfcore_py as _core
from . import backend

# the command line's default prime; no library routine defaults to it
DEFAULT_PRIME = 32003

# the elimination core accumulates sums of products of residues; this cap
# keeps them exact (see _gfcore_py._check_capacity)
MAX_PRIME = 1 << 20

# points `ranks_at` evaluates and sweeps at once, so its float64 work stack
# and the temporaries of its updates are at most this many matrices deep
STACK = 64


def validate_prime(p):
    """Check that p is usable as the field characteristic.

    Requires a prime with 3 < p < 2**20.  The lower bound avoids degenerate
    small characteristic (divisions by 2 and 3 occur in Euler characteristic
    bookkeeping and genericity needs room); the upper bound is the exactness
    cap of the elimination core.
    """
    p = int(p)
    if p <= 3:
        raise ValueError(f"prime must exceed 3, got {p}")
    if p >= MAX_PRIME:
        raise ValueError(f"prime must be below 2**20, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"{p} is not prime (divisible by {d})")
        d += 1
    return p


def rank(M, p):
    return backend.rank(M, p)


def evaluate_linear(forms, x, p):
    """Evaluate a (4, r, c) array of linear forms at a point x of F_p^4:
    sum_k x_k forms[k] mod p.  A (T, 4) array of points gives the (T, r, c)
    stack of the values at each; with the rows of a change of coordinates Q
    as the points, it gives the forms in the new coordinates."""
    return np.mod(np.einsum("...k,kij->...ij", x, forms), p)


def ranks_at(forms, points, p):
    """Ranks mod p of a (4, n, m) array of linear forms at each of an
    iterable of points, as a list.

    The capacity is checked on the forms' shape before any point is read;
    then the points are read STACK at a time, and each chunk's values are
    one float64 product of its points by the forms, residues by residues,
    so every value is a sum of four products below p**2, exact, and lands
    unreduced in the stacked sweep's work stack.  A rank is also the rank
    of the transpose, so wide forms are evaluated transposed.  Work memory
    does not grow with the number of points.  A single matrix is faster
    through `rank`."""
    forms = np.asarray(forms, dtype=np.int64)
    if forms.ndim != 3 or len(forms) != 4:
        raise ValueError("expected a (4, n, m) array of linear forms")
    _core._check_capacity(forms.shape[1], forms.shape[2], p)
    if forms.shape[2] > forms.shape[1]:
        forms = forms.transpose(0, 2, 1)
    shape = forms.shape[1:]
    flat = (forms % p).reshape(4, -1).astype(np.float64)
    out, points = [], iter(points)
    while chunk := list(islice(points, STACK)):
        xs = (np.array(chunk, dtype=np.int64) % p).astype(np.float64)
        out += _core._stack_ranks((xs @ flat).reshape(len(xs), *shape), p)
    return out


def rref(M, p):
    """Reduced row echelon form: returns (R, rank, pivot columns)."""
    return backend.rref(M, p)


def kernel_basis(M, p):
    """Basis of {v : M v = 0}, as a k x n int64 matrix with one basis vector
    per row (k = 0 when M is injective).

    The basis is canonical (read off the reduced echelon form), so repeated
    calls give identical rows.
    """
    return backend.nullspace(M, p)


def split(M, p):
    """For an a x n matrix M of rank a, the invertible n x n QG = [Q | G]
    with M Q = id and G the columns of kernel_basis(M), from one
    elimination of [M | id]; None when n < a or rank M < a.  A square M
    gives Q = M^-1 and an empty G."""
    a, n = M.shape
    R, _, piv = rref(np.hstack([M, np.eye(a, dtype=np.int64)]), p)
    if n < a or piv[-1] >= n:  # or a pivot in the id block: rank M < a
        return None
    # every pivot lies left of the id block, so R[:, :n] is M's rref
    QG = np.zeros((n, n), dtype=np.int64)
    QG[piv, :a] = R[:, n:]
    QG[:, a:] = backend._kernel_of_rref(R[:, :n], a, piv, p).T
    return QG


def cokernel_dim(M, p):
    return len(M) - backend.rank(M, p)


def matmul_mod(A, B, p):
    """Exact (A @ B) mod p using float64 BLAS, chunking the inner dimension
    when sums could reach 2**53.  Like @, it also multiplies stacks of
    matrices, (..., n, k) by (..., k, m)."""
    if p * p >= 2**53:
        raise ValueError(f"prime {p} too large for exact products")
    A, B = _residues(A, p), _residues(B, p)
    step = (2**53 - 1) // (p * p)
    # one pass at least, so inner dimension 0 gives zeros of the product's
    # shape; a chunk's sum plus the residue carried in stays below
    # 2**53 - p, where the core's _reduce is exact
    for k0 in range(0, max(A.shape[-1], 1), step):
        acc = (A[..., k0:k0 + step].astype(np.float64)
               @ B[..., k0:k0 + step, :].astype(np.float64))
        if k0:
            acc += out
        out = _core._reduce(acc, p)
    return out.astype(np.int64)


def _residues(A, p):
    """A as int64 residues mod p, reduced only when some entry lies outside
    [0, p): most callers pass residues already.  Read as unsigned, a
    negative entry is at least 2**63, so one max finds both kinds."""
    A = np.asarray(A, dtype=np.int64)
    if A.size and A.view(np.uint64).max() >= p:
        A = A % p
    return A


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


# ---------------------------------------------------------------------------
# plain-text interchange
#
# A matrix block is a line "rows cols p", then one line of space-separated
# residues per row.  The tagged formats put a line "tag d1 d2 p" in front of
# four d1 x d2 matrix blocks over the same prime: the coefficient matrices
# of x1..x4 in a matrix of linear forms.


def _read_header(fh, tag=None):
    """Parse "[tag] d1 d2 p"; returns (d1, d2, p) with p a valid prime."""
    fields = fh.readline().split()
    lead = [] if tag is None else [tag]
    bad = ValueError(f"bad {tag or 'matrix'} header: {fields!r}")
    if len(fields) != len(lead) + 3 or fields[:len(lead)] != lead:
        raise bad
    try:
        d1, d2, p = (int(x) for x in fields[len(lead):])
    except ValueError:
        raise bad from None
    if d1 < 0 or d2 < 0:
        raise bad
    return d1, d2, validate_prime(p)


def write_matrix(fh, M, p):
    M = np.mod(np.asarray(M, dtype=np.int64), p)
    fh.write(f"{M.shape[0]} {M.shape[1]} {p}\n")
    for row in M:
        fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_matrix(fh):
    """Read one matrix block; returns (matrix, p).  Entries may be any
    integers that fit int64, negative ones included; they are reduced mod p."""
    n, m, p = _read_header(fh)
    rows = []
    for i in range(n):
        line = fh.readline()
        if not line:
            raise ValueError(f"file ends after {i} of {n} matrix rows")
        vals = line.split()
        if len(vals) != m:
            raise ValueError(f"expected {m} entries per row, got {len(vals)}")
        try:
            rows.append(np.array([int(v) for v in vals], dtype=np.int64))
        except (ValueError, OverflowError):
            raise ValueError(
                f"row {i}: expected {m} integers that fit int64") from None
    M = np.array(rows, dtype=np.int64).reshape(n, m)
    return np.mod(M, p), p


def write_blocks(fh, tag, forms, p):
    """Write a (4, d1, d2) array of linear forms: the header
    "tag d1 d2 p", then each forms[k] as a matrix block."""
    fh.write(f"{tag} {forms.shape[1]} {forms.shape[2]} {p}\n")
    for M in forms:
        write_matrix(fh, M, p)


def read_blocks(fh, tag):
    """Read a "tag d1 d2 p" header and four matrix blocks, each d1 x d2
    over the header's prime.  Returns (forms, p), forms a (4, d1, d2)
    array."""
    d1, d2, p = _read_header(fh, tag)
    blocks = []
    for _ in range(4):
        M, mp = read_matrix(fh)
        if mp != p or M.shape != (d1, d2):
            raise ValueError(
                f"{tag} block of shape {M.shape} mod {mp} does not match the "
                f"header (shape {(d1, d2)} mod {p})"
            )
        blocks.append(M)
    return np.stack(blocks), p
