"""Presentations m: B -> A(x)V by four scalar matrices, their degree-d
multiplication maps m(d): B(x)S^dV -> A(x)S^{d+1}V, and cohomology tables of
the kernel bundle E_m on projective 3-space.

The exact sequence 0 -> E_m -> B(x)O -> A(x)O(1) -> 0 turns sheaf cohomology
into graded linear algebra: for twists k >= 0, h0(E_m(k)) is the kernel
dimension of m(k) and h1 its cokernel dimension, h2 vanishes, and h3 closes
the Euler characteristic.  Local freeness of E_m is certified by finite-degree
surjectivity, which propagates upward in degree.

A single degree can also be certified onto without eliminating m(d): split
its rows and columns by x1-degree and check the part on the hyperplane
x1 = 0 together with M1, the methode d'Horace (Hirschowitz, Manuscripta
Math. 50, 1985); see horace_surjective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactalg
from .multilin import dim_sym, mono_basis, transform_presentation


class NotLocallyFree(Exception):
    """No surjectivity certificate within the degree cap; the cokernel sheaf
    may have positive-dimensional support and the table would be meaningless.

    Carries the list of (degree, cokernel_dim) pairs actually checked.
    """

    def __init__(self, checked):
        self.checked = list(checked)
        detail = ", ".join(f"d={d}: coker {c}" for d, c in self.checked)
        super().__init__(f"no surjective m(d) found ({detail})")


@dataclass(frozen=True)
class SteinerPresentation:
    a: int
    b: int
    Ms: tuple  # four a x b int64 arrays, coefficient of x_k
    prime: int = exactalg.DEFAULT_PRIME

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("dimensions a, b must be positive")
        if len(self.Ms) != 4:
            raise ValueError("need exactly four coefficient matrices")
        for M in self.Ms:
            if M.shape != (self.a, self.b):
                raise ValueError("coefficient matrices must all be a x b")

    @classmethod
    def from_matrices(cls, Ms, p=exactalg.DEFAULT_PRIME):
        mats = tuple(exactalg.as_matrix(M, p) for M in Ms)
        return cls(mats[0].shape[0], mats[0].shape[1], mats, p)

    @classmethod
    def random(cls, rng, a, b, p=exactalg.DEFAULT_PRIME):
        Ms = tuple(exactalg.random_matrix(rng, a, b, p) for _ in range(4))
        return cls(a, b, Ms, p)

    @classmethod
    def from_columns(cls, cols, a, p=exactalg.DEFAULT_PRIME):
        """Build from the 4a x b matrix of columns in A(x)V coordinates
        (row j*4 + (k-1)), as produced by columns()."""
        cols = np.mod(np.asarray(cols, dtype=np.int64), p)
        if cols.ndim != 2 or cols.shape[0] != 4 * a:
            raise ValueError("columns must form a 4a x b matrix over A(x)V")
        Ms = tuple(np.ascontiguousarray(cols[k::4]) for k in range(4))
        return cls(a, cols.shape[1], Ms, p)

    def columns(self):
        """The b columns of m as vectors in A(x)V coordinates."""
        out = np.zeros((4 * self.a, self.b), dtype=np.int64)
        for k in range(4):
            out[k::4, :] = self.Ms[k]
        return out

    def in_frame(self, frame):
        """The presentation written in the coordinates of a hyperplane
        frame, where H = {x4 = 0}."""
        Ms = transform_presentation(self.Ms, frame.Pinv, frame.prime)
        return SteinerPresentation(self.a, self.b, Ms, self.prime)

    def transpose(self):
        """The presentation with matrices M_k^T and the roles of A, B
        swapped (used for the Serre-dual route)."""
        Ms = tuple(np.ascontiguousarray(M.T) for M in self.Ms)
        return SteinerPresentation(self.b, self.a, Ms, self.prime)


def presentation_in_span(basis, b, rng, p=exactalg.DEFAULT_PRIME):
    """Presentation whose b columns are random combinations of the rows of
    `basis`, a k x 4a kernel basis in A(x)V coordinates.

    Draws one k x b coefficient matrix from rng."""
    coeff = rng.integers(0, p, size=(len(basis), b), dtype=np.int64)
    return SteinerPresentation.from_columns(
        exactalg.matmul_mod(basis.T, coeff, p), basis.shape[1] // 4, p
    )


def _scatter_md(m, cols, rows):
    """The block of m(d) from the column monomials `cols` (degree d) to the
    row monomials `rows` (degree d + 1), in the layout of assemble_md:
    column (i, mu) carries M_k[:, i] to the rows (j, mu*x_k) for each k with
    mu*x_k among `rows`."""
    D0, D1 = len(cols), len(rows)
    pos = {mono: r for r, mono in enumerate(rows)}
    out = np.zeros((m.a * D1, m.b * D0), dtype=np.int64)
    for ci, mono in enumerate(cols):
        for k in range(4):
            e = list(mono)
            e[k] += 1
            tgt = pos.get(tuple(e))
            if tgt is not None:
                out[tgt::D1, ci::D0] += m.Ms[k]
    return out


def assemble_md(m, d):
    """Matrix of m(d), shape a*C(d+4,3) x b*C(d+3,3).

    Column (i, mu) carries M_k[:, i] scattered to rows (j, mu*x_k); the row
    block layout is (index in A) * dim S^{d+1}V + monomial index.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    return _scatter_md(m, mono_basis(d), mono_basis(d + 1))


def corank_md(m, d):
    """min(kernel, cokernel) dimension of m(d)."""
    return exactalg.corank(assemble_md(m, d), m.prime)


def cokernel_dim_md(m, d):
    return exactalg.cokernel_dim(assemble_md(m, d), m.prime)


def horace_surjective(m, d):
    """True when the x1-split of m(d) certifies it surjective, else None.

    Group the rows and columns of m(d) by their x1-exponent e, and let
    W = span(x2, x3, x4).  Column group e, B(x)x1^e S^{d-e}W, maps to row
    group e by m'(d-e), the degree-(d-e) map of (M2, M3, M4), that is m on
    the hyperplane x1 = 0, and to row group e+1 by M1(x)id.  So

        m(d) = [[m'(d), 0], [C, m(d-1).x1]]

    and the stack [m'(d); M1(x)id] of column group 0 against row groups 0
    and 1 decides it: when the stack has full row rank, m(d) is onto.  Row
    group 1 meets column group 0 only through M1(x)id, so a full-rank stack
    forces rank M1 = a.  Then the rows of groups 2..d+1 against column
    groups 1..d form a block upper-bidiagonal matrix with diagonal blocks
    M1(x)id, which is onto, and the stack reaches what is left in row groups
    0 and 1.  This is the methode d'Horace, a trace on a hyperplane plus a
    residual (Hirschowitz, "La methode d'Horace pour l'interpolation a
    plusieurs variables", Manuscripta Math. 50, 1985).  The condition is
    exact but only sufficient: None says nothing about m(d), and
    cokernel_dim_md decides.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cols = tuple(mu for mu in mono_basis(d) if mu[0] == 0)
    rows = tuple(nu for nu in mono_basis(d + 1) if nu[0] <= 1)
    stack = _scatter_md(m, cols, rows)
    return True if exactalg.rank(stack, m.prime) == stack.shape[0] else None


@dataclass(frozen=True)
class SurjectivityCertificate:
    d0: int | None  # smallest checked degree with m(d0) surjective
    checked: tuple = field(default_factory=tuple)  # (d, cokernel_dim) pairs

    @property
    def found(self):
        return self.d0 is not None


def surjectivity_certificate(m, d_max=5):
    """Search d = 1..d_max for surjective m(d).

    Surjectivity propagates upward (the image of m(d+1) contains
    image(m(d)).V), so the first hit certifies all larger degrees and the
    local freeness of E_m.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    checked = []
    for d in range(1, d_max + 1):
        c = cokernel_dim_md(m, d)
        checked.append((d, c))
        if c == 0:
            return SurjectivityCertificate(d, tuple(checked))
    return SurjectivityCertificate(None, tuple(checked))


def chi3(t):
    """chi of O_{P^3}(t): (t+1)(t+2)(t+3)/6, exact for any integer t."""
    num = (t + 1) * (t + 2) * (t + 3)
    assert num % 6 == 0
    return num // 6


def euler_char(a, b, k):
    """chi(E_m(k)) = b*chi3(k) - a*chi3(k+1)."""
    return b * chi3(k) - a * chi3(k + 1)


@dataclass(frozen=True)
class CohomologyTable:
    a: int
    b: int
    k_min: int
    k_max: int
    rows: tuple  # (k, h0, h1, h2, h3, chi)

    def row(self, k):
        if not self.k_min <= k <= self.k_max:
            raise KeyError(f"twist {k} outside [{self.k_min}, {self.k_max}]")
        return self.rows[k - self.k_min]

    def as_dicts(self):
        return [
            {"k": k, "h0": h0, "h1": h1, "h2": h2, "h3": h3, "chi": chi}
            for (k, h0, h1, h2, h3, chi) in self.rows
        ]


def cohomology_table(m, k_min=-6, k_max=4, cert=None):
    """Cohomology of E_m(k) for k in [k_min, k_max].

    `cert` is the surjectivity certificate of m; when omitted it is computed
    up to the default degree cap.  Raises NotLocallyFree when it found no
    surjective degree.  The certificate has already eliminated m(k) for
    1 <= k <= d0, so those ranks are read from its ladder; for k above d0
    the rank of m(k) is known by propagation without assembling it.
    """
    if cert is None:
        cert = surjectivity_certificate(m)
    if not cert.found:
        raise NotLocallyFree(cert.checked)
    coker = dict(cert.checked)
    a, b, p = m.a, m.b, m.prime
    rows = []
    for k in range(k_min, k_max + 1):
        chi = euler_char(a, b, k)
        if k >= 0:
            ncols = b * dim_sym(k)
            nrows = a * dim_sym(k + 1)
            if k >= cert.d0:
                r = nrows  # surjective by propagation
            elif k in coker:
                r = nrows - coker[k]
            else:
                r = exactalg.rank(assemble_md(m, k), p)
            h0 = ncols - r
            h1 = nrows - r
        else:
            h0 = 0
            h1 = a * dim_sym(k + 1)
        h2 = 0
        h3 = h0 - h1 + h2 - chi
        assert h3 >= 0
        rows.append((k, h0, h1, h2, h3, chi))
    return CohomologyTable(a, b, k_min, k_max, tuple(rows))


def dual_h0(m, j):
    """h0 of the Serre-dual bundle twisted by j, via the transposed
    presentation t with matrices M_k^T:

        b*C(j+3,3) - a*C(j+2,3) + dim ker t(j-1).
    """
    if j < 0:
        raise ValueError(f"twist must be nonnegative, got {j}")
    a, b, p = m.a, m.b, m.prime
    base = b * dim_sym(j) - a * dim_sym(j - 1)
    if j == 0:
        return base
    t = m.transpose()
    td = assemble_md(t, j - 1)
    kdim = td.shape[1] - exactalg.rank(td, p)
    return base + kdim


# ---------------------------------------------------------------------------
# interchange


def write_presentation(fh, m):
    exactalg.write_blocks(fh, "steiner", m.a, m.b, m.Ms, m.prime)


def read_presentation(fh):
    a, b, p, Ms = exactalg.read_blocks(fh, "steiner", 4)
    return SteinerPresentation(a, b, tuple(Ms), p)
