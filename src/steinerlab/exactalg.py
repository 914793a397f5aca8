"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays holding residues in [0, p); rows × cols shape,
row-major.  Every rank, kernel and cokernel in the package reduces to the
routines here, which in turn call the elimination core in backend.

The field is a single configurable prime, default 32003.  Genericity
statements checked by sampling hold over F_p up to failure probability
O(dim/p), and exact arithmetic keeps every reported rank a theorem about the
sampled instance rather than a numerical estimate.
"""

from __future__ import annotations

import numpy as np

from . import backend

DEFAULT_PRIME = 32003

# the elimination core accumulates sums of products of residues; this cap
# keeps them exact (see _gfcore_py._check_capacity)
MAX_PRIME = 1 << 20


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


def as_matrix(rows, p=DEFAULT_PRIME):
    """Normalize nested-list or array input to an int64 residue matrix."""
    M = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    return np.mod(M, p)


def rank(M, p=DEFAULT_PRIME):
    return backend.rank(M, p)


def rref(M, p=DEFAULT_PRIME):
    """Reduced row echelon form: returns (R, rank, pivot columns)."""
    return backend.rref(M, p)


def kernel_basis(M, p=DEFAULT_PRIME):
    """Basis of {v : M v = 0}, as a k x n int64 matrix with one basis vector
    per row (k = 0 when M is injective).

    The basis is canonical (read off the reduced echelon form), so repeated
    calls give identical rows.
    """
    return np.ascontiguousarray(backend.nullspace(M, p).T)


def cokernel_dim(M, p=DEFAULT_PRIME):
    M = np.asarray(M, dtype=np.int64)
    return M.shape[0] - backend.rank(M, p)


def corank(M, p=DEFAULT_PRIME):
    """min(dim kernel, dim cokernel)."""
    M = np.asarray(M, dtype=np.int64)
    r = backend.rank(M, p)
    return min(M.shape[1] - r, M.shape[0] - r)


def matmul_mod(A, B, p=DEFAULT_PRIME):
    """Exact (A @ B) mod p using float64 BLAS, chunking the inner dimension
    when sums could reach 2**53."""
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    inner = A.shape[-1]
    step = max(1, (2**53 - 1) // (p * p))
    if inner <= step:
        return (np.mod(A.astype(np.float64) @ B.astype(np.float64), p)).astype(
            np.int64
        )
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k0 in range(0, inner, step):
        k1 = min(k0 + step, inner)
        part = A[:, k0:k1].astype(np.float64) @ B[k0:k1, :].astype(np.float64)
        out = (out + part.astype(np.int64)) % p
    return out


def random_matrix(rng, rows, cols, p=DEFAULT_PRIME):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


# ---------------------------------------------------------------------------
# plain-text interchange
#
# A matrix block is a line "rows cols p", then one line of space-separated
# residues per row.  The tagged formats put a line "tag d1 d2 p" in front of
# a fixed number of d1 x d2 matrix blocks over the same prime.


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


def write_matrix(fh, M, p=DEFAULT_PRIME):
    M = as_matrix(M, p)
    fh.write(f"{M.shape[0]} {M.shape[1]} {p}\n")
    for row in M:
        fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_matrix(fh):
    """Read one matrix block; returns (matrix, p)."""
    n, m, p = _read_header(fh)
    rows = []
    for _ in range(n):
        vals = fh.readline().split()
        if len(vals) != m:
            raise ValueError(f"expected {m} entries per row, got {len(vals)}")
        rows.append([int(v) for v in vals])
    M = np.array(rows, dtype=np.int64).reshape(n, m)
    return np.mod(M, p), p


def write_blocks(fh, tag, d1, d2, blocks, p=DEFAULT_PRIME):
    """Write the header "tag d1 d2 p", then each block as a matrix block."""
    fh.write(f"{tag} {d1} {d2} {p}\n")
    for M in blocks:
        write_matrix(fh, M, p)


def read_blocks(fh, tag, count):
    """Read a "tag d1 d2 p" header and `count` matrix blocks.

    Every block must be d1 x d2 over the header's prime.  Returns
    (d1, d2, p, blocks)."""
    d1, d2, p = _read_header(fh, tag)
    blocks = []
    for _ in range(count):
        M, mp = read_matrix(fh)
        if mp != p or M.shape != (d1, d2):
            raise ValueError(
                f"{tag} block of shape {M.shape} mod {mp} does not match the "
                f"header (shape {(d1, d2)} mod {p})"
            )
        blocks.append(M)
    return d1, d2, p, blocks
