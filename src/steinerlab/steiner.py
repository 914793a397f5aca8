"""Presentations m: B -> A(x)V by four scalar matrices, their degree-d
multiplication maps m(d): B(x)S^dV -> A(x)S^{d+1}V, and cohomology tables of
the kernel bundle E_m on projective 3-space.

The exact sequence 0 -> E_m -> B(x)O -> A(x)O(1) -> 0 turns sheaf cohomology
into graded linear algebra: for twists k >= 0, h0(E_m(k)) is the kernel
dimension of m(k) and h1 its cokernel dimension, h2 vanishes, and h3 closes
the Euler characteristic.  Local freeness of E_m is certified by finite-degree
surjectivity, which propagates upward in degree.

Whether m(d) is onto is decided by cokernel_dim_md, which first tries to
certify it without eliminating m(d).  Split the rows and columns of m(d) by
x1-degree, the methode d'Horace (Hirschowitz, Manuscripta Math. 50, 1985):
m(d) is onto when rank M1 = a and the degree-d map on the plane x1 = 0 of
m restricted to B' = ker M1 is onto.  That map is an a x (b - a) Steiner
map in three variables, and B' is computed once per presentation; see
horace_surjective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exactalg
from .multilin import dim_sym, mono_basis


class NotLocallyFree(ValueError):
    """No surjectivity certificate within the degree cap; the cokernel sheaf
    may have positive-dimensional support and the table would be meaningless.

    Carries the list of (degree, cokernel_dim) pairs actually checked.
    """

    def __init__(self, checked):
        self.checked = list(checked)
        detail = ", ".join(f"d={d}: coker {c}" for d, c in self.checked)
        super().__init__(f"no surjective m(d) found ({detail})")


# the default degree cap of the surjectivity certificate and the default
# twist window of a cohomology table
D_MAX = 5
K_MIN, K_MAX = -6, 4


@dataclass(frozen=True)
class SteinerPresentation:
    """m = sum_k x_k M_k, stored as one (4, a, b) int64 array Ms whose
    Ms[k] is the coefficient of x_(k+1)."""

    Ms: np.ndarray
    prime: int

    def __post_init__(self):
        object.__setattr__(self, "Ms", np.asarray(self.Ms, dtype=np.int64))
        if self.Ms.ndim != 3 or len(self.Ms) != 4 or 0 in self.Ms.shape:
            raise ValueError("coefficients must form a (4, a, b) array "
                             "with a, b positive")

    @property
    def a(self):
        return self.Ms.shape[1]

    @property
    def b(self):
        return self.Ms.shape[2]

    @classmethod
    def random(cls, rng, a, b, p):
        Ms = exactalg.random_matrix(rng, 4 * a, b, p)
        return cls(Ms.reshape(4, a, b), p)

    @classmethod
    def from_columns(cls, cols, a, p):
        """Build from the 4a x b matrix of columns in A(x)V coordinates
        (row j*4 + (k-1)), as produced by columns()."""
        cols = np.mod(np.asarray(cols, dtype=np.int64), p)
        if cols.ndim != 2 or cols.shape[0] != 4 * a:
            raise ValueError("columns must form a 4a x b matrix over A(x)V")
        return cls(np.ascontiguousarray(
            cols.reshape(a, 4, cols.shape[1]).transpose(1, 0, 2)), p)

    def columns(self):
        """The b columns of m as vectors in A(x)V coordinates."""
        return self.Ms.transpose(1, 0, 2).reshape(4 * self.a, self.b)

    def in_frame(self, frame):
        """The presentation written in the coordinates of a hyperplane
        frame, where H = {x4 = 0}: M'_l = sum_k Pinv[l, k] M_k, the
        coefficient of v_l, is m's forms evaluated at row l of Pinv."""
        return SteinerPresentation(
            exactalg.evaluate_linear(self.Ms, frame.Pinv, frame.prime),
            self.prime)

    def transpose(self):
        """The presentation with matrices M_k^T and the roles of A, B
        swapped (used for the Serre-dual route)."""
        return SteinerPresentation(
            np.ascontiguousarray(self.Ms.transpose(0, 2, 1)), self.prime)

    @functools.cached_property
    def x1_residual(self):
        """m restricted to B' = ker M1, an a x (b - a) presentation whose
        first matrix is 0, or None when b <= a or rank M1 < a.

        Its columns are those of m times a kernel basis of M1, so it costs
        one elimination of the a x b matrix M1, once per presentation."""
        if self.b <= self.a:
            return None
        K = exactalg.kernel_basis(self.Ms[0], self.prime)
        if len(K) != self.b - self.a:
            return None
        cols = exactalg.matmul_mod(self.columns(), K.T, self.prime)
        return SteinerPresentation.from_columns(cols, self.a, self.prime)


def presentation_in_span(basis, b, rng, p):
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
    """dim coker m(d): 0 when horace_surjective certifies m(d), else the
    cokernel of the dense m(d)."""
    if horace_surjective(m, d):
        return 0
    return exactalg.cokernel_dim(assemble_md(m, d), m.prime)


def horace_surjective(m, d):
    """True when the x1-split of m(d) certifies it surjective, else None.

    Group the rows and columns of m(d) by their x1-exponent e, and let
    W = span(x2, x3, x4).  Column group e, B(x)x1^e S^{d-e}W, maps to row
    group e by m'(d-e), the degree-(d-e) map of (M2, M3, M4), that is m on
    the hyperplane x1 = 0, and to row group e+1 by M1(x)id.  Below column
    group 0 the rows of groups 2..d+1 against column groups 1..d form a
    block upper-bidiagonal matrix with diagonal blocks M1(x)id, so m(d) is
    onto when the stack [X; Y] = [m'(d); M1(x)id] of column group 0 against
    row groups 0 and 1 has full row rank.  This is the methode d'Horace, a
    trace on a hyperplane plus a residual (Hirschowitz, "La methode
    d'Horace pour l'interpolation a plusieurs variables", Manuscripta
    Math. 50, 1985).

    The stack is never formed: [X; Y] has full row rank iff Y is onto and
    X maps ker Y onto X's rows.  (=>: Y is a block of rows of it, and
    (x, 0) = [X; Y]v puts v in ker Y with Xv = x.  <=: reach y by some v0,
    then correct by w in ker Y with Xw = x - Xv0.)  Y is onto iff
    rank M1 = a, and ker Y = ker M1 (x) S^dW, so the test is the full row
    rank of the degree-d map on P^2 of the residual m.x1_residual, an
    a*C(d+3,2) x (b-a)*C(d+2,2) matrix.  Unless it is strictly wider than
    tall, None is returned before any elimination.  The condition is exact
    but only sufficient: None says nothing about m(d).
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cols = tuple(mu for mu in mono_basis(d) if mu[0] == 0)
    rows = tuple(nu for nu in mono_basis(d + 1) if nu[0] == 0)
    if (m.b - m.a) * len(cols) <= m.a * len(rows):
        return None
    res = m.x1_residual
    if res is None:
        return None
    plane = _scatter_md(res, cols, rows)
    return True if exactalg.rank(plane, m.prime) == plane.shape[0] else None


@dataclass(frozen=True)
class SurjectivityCertificate:
    checked: tuple  # (d, cokernel_dim) pairs, d = 1, 2, ..., never empty

    @property
    def d0(self):
        """The surjective degree the ladder stopped at, else None."""
        if self.checked[-1][1] == 0:
            return self.checked[-1][0]
        return None

    @property
    def found(self):
        return self.d0 is not None


def surjectivity_certificate(m, d_max=D_MAX):
    """Search d = 1..d_max for surjective m(d), each degree by
    cokernel_dim_md, so a degree the x1-split certifies is recorded as
    (d, 0) without eliminating m(d).

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
            break
    return SurjectivityCertificate(tuple(checked))


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
    rows: tuple  # (k, h0, h1, h2, h3, chi), k through a nonempty window

    @property
    def k_min(self):
        return self.rows[0][0]

    @property
    def k_max(self):
        return self.rows[-1][0]

    def row(self, k):
        if not self.k_min <= k <= self.k_max:
            raise KeyError(f"twist {k} outside [{self.k_min}, {self.k_max}]")
        return self.rows[k - self.k_min]

    def as_dicts(self):
        return [
            {"k": k, "h0": h0, "h1": h1, "h2": h2, "h3": h3, "chi": chi}
            for (k, h0, h1, h2, h3, chi) in self.rows
        ]


def cohomology_table(m, k_min=K_MIN, k_max=K_MAX, cert=None):
    """Cohomology of E_m(k) for k in [k_min, k_max].

    `cert` is the surjectivity certificate of m; when omitted it is computed
    up to the default degree cap.  Raises NotLocallyFree when it found no
    surjective degree.  The certificate has already eliminated m(k) for
    1 <= k <= d0, so those ranks are read from its ladder; for k above d0
    the rank of m(k) is known by propagation without assembling it.
    """
    if k_min > k_max:
        raise ValueError(f"empty twist window [{k_min}, {k_max}]")
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
    return CohomologyTable(tuple(rows))


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
    exactalg.write_blocks(fh, "steiner", m.Ms, m.prime)


def read_presentation(fh):
    return SteinerPresentation(*exactalg.read_blocks(fh, "steiner"))
