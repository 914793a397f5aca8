"""Presentations m: B -> A(x)V by four scalar matrices, their degree-d
multiplication maps m(d): B(x)S^dV -> A(x)S^{d+1}V, and cohomology tables of
the kernel bundle E_m on projective 3-space.

The exact sequence 0 -> E_m -> B(x)O -> A(x)O(1) -> 0 turns sheaf cohomology
into graded linear algebra: for twists k >= 0, h0(E_m(k)) is the kernel
dimension of m(k) and h1 its cokernel dimension, h2 vanishes, and h3 closes
the Euler characteristic.  Local freeness of E_m is certified by finite-degree
surjectivity, which propagates upward in degree.

The certificate reads the cokernels of m(d) off their annihilators, never
off a dense m(d) with d >= 1.  Let Ann_d be the annihilator of Im m(d) in
(A(x)S^{d+1}V)^*, of dimension dim coker m(d), and let x_k _| psi be
contraction, (x_k _| psi)(alpha (x) nu) = psi(alpha (x) x_k nu).  As m is
S-linear and S^d = V.S^{d-1}, Im m(d) = V.Im m(d-1), so

    Ann_d = {psi : x_k _| psi in Ann_{d-1} for k = 1..4}.

Four psi_k come from one psi iff x_j _| psi_k = x_k _| psi_j for all j < k,
and then psi is unique: the dual Koszul complex of x1..x4 is exact in every
characteristic.  At a monomial beta these equations ask that the values
psi_k(beta / x_k), over the x_k dividing beta, be equal, so the pairs whose
x_j is the first variable dividing beta suffice.  In the dual monomial
basis contraction moves the value at x_k nu to nu, a gather with no
coefficient, so no degree is divided by and the ladder is exact at every
accepted prime.  This is Macaulay's inverse system (The Algebraic Theory of
Modular Systems, 1916), built one degree at a time as in Mourrain
("Isolated points, duality and residues", J. Pure Appl. Algebra 117-118,
1997); see surjectivity_certificate.

horace_surjective, the x1-split of m(d) (methode d'Horace, Hirschowitz,
Manuscripta Math. 50, 1985), is the independent route of the direct check
in pwcurves.h1_ic_vanishing.  It reduces m(d) to P_d, the degree-d map on
the plane x1 = 0 of m restricted to ker M1, then eliminates the rows of P_d
divisible by x2 exactly through a unipotent block of columns, which leaves
an a*(d+2)-row Schur complement S_d on A(x)k[x3, x4]_{d+1} (90 x 360 at
(a, b) = (10, 30), where P_d is 450 x 720).  A third split, by x3 on that
P^1, certifies S_d from an a-row system when M3 restricted to
ker M1 cap ker M2 (of dimension b - 2a) has rank a, as on every sampled
curve with b = 3a.  Otherwise, as at (20, 59), P_d is onto once some P_e
with e <= d is, so S_e is ranked for e = 0, 1, ... until one has full row
rank: S_2, 80 x 114, where S_16 is 360 x 2907.  m1_kernel eliminates the
rows of m(1) divisible by x1 or x2 through the same two splits, which
SteinerPresentation.splits computes once per presentation, and leaves a
3a x (4b - 7a) system: 60 x 100 at (20, 60).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import exactalg
from .multilin import dim_sym, mono_basis


class NotLocallyFree(ValueError):
    """No surjectivity certificate within the degree cap; the cokernel sheaf
    may have positive-dimensional support and the table would be meaningless.

    Carries the list of (degree, cokernel dimension) pairs actually checked.
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

    @functools.cached_property
    def splits(self):
        """The x1 and x2 splits of m that horace_surjective and m1_kernel
        share, computed once per presentation: None when either split is,
        else (QG1, P, N, QG2, XZYT).

        QG1 = [Q1 | K1] is exactalg.split of M1 (M1 Q1 = id_A, K1 a kernel
        basis), and M_j QG1 = [P_j | N_j] for j = 2, 3, 4, so (P_j) is a
        (3, a, a) and (N_j) a (3, a, b - a) array: N_j is M_j restricted to
        B' = ker M1.  QG2 = [Q2 | K2] is exactalg.split of N2, and
        XZYT = [N3; N4] QG2, a 2a x (b - a) matrix."""
        a, p = self.a, self.prime
        QG1 = exactalg.split(self.Ms[0], p)
        if QG1 is None:
            return None
        PN = exactalg.matmul_mod(self.Ms[1:].reshape(3 * a, self.b), QG1, p)
        P, N = np.split(PN.reshape(3, a, self.b), [a], axis=2)
        QG2 = exactalg.split(N[0], p)
        if QG2 is None:
            return None
        return QG1, P, N, QG2, exactalg.matmul_mod(
            N[1:].reshape(2 * a, -1), QG2, p)


def presentation_in_span(basis, b, rng, p):
    """Presentation whose b columns are random combinations of the rows of
    `basis`, a k x 4a kernel basis in A(x)V coordinates.

    Draws one k x b coefficient matrix from rng."""
    coeff = rng.integers(0, p, size=(len(basis), b), dtype=np.int64)
    k, width = basis.shape
    rows = basis.T.reshape(width // 4, 4, k).transpose(1, 0, 2)
    return SteinerPresentation(exactalg.matmul_mod(rows, coeff, p), p)


@functools.lru_cache(maxsize=None)
def _lift(d):
    """(4, dim S^dV) array: entry [k, i] is the index of x_(k+1) mu_i in
    mono_basis(d + 1), mu_i the i-th monomial of degree d."""
    pos = {mono: r for r, mono in enumerate(mono_basis(d + 1))}
    return np.array([[pos[mu[:k] + (mu[k] + 1,) + mu[k + 1:]]
                      for mu in mono_basis(d)] for k in range(4)])


@functools.lru_cache(maxsize=None)
def _tail(d, k):
    """Indices in mono_basis(d) of the monomials free of x_1..x_k."""
    return np.flatnonzero(~np.array(mono_basis(d))[:, :k].any(axis=1))


def _scatter_md(m, d, cols, rows):
    """The block of m(d) from the degree-d monomials `cols` to the degree
    d + 1 monomials `rows` (index arrays into mono_basis): column (i, mu)
    carries M_k[:, i] to the rows (j, x_k mu) with x_k mu among `rows`."""
    at = np.full(dim_sym(d + 1), -1)
    at[rows] = np.arange(len(rows))
    tgt = at[_lift(d)[:, cols]]
    out = np.zeros((m.a, len(rows), m.b, len(cols)), dtype=np.int64)
    for k in range(4):
        ci = np.flatnonzero(tgt[k] >= 0)
        out[:, tgt[k, ci], :, ci] = m.Ms[k]
    return out.reshape(m.a * len(rows), m.b * len(cols))


def assemble_md(m, d):
    """Matrix of m(d), shape a*C(d+4,3) x b*C(d+3,3).

    Column (i, mu) carries M_k[:, i] scattered to rows (j, mu*x_k); the row
    block layout is (index in A) * dim S^{d+1}V + monomial index.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    return _scatter_md(m, d, np.arange(dim_sym(d)), np.arange(dim_sym(d + 1)))


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
    rank M1 = a, and ker Y = ker M1 (x) S^dW, so the test is that P_d, the
    degree-d map on P^2 of m restricted to B' = ker M1, that is of the
    (N2, N3, N4) of m.splits, an a*C(d+3,2) x (b-a)*C(d+2,2) matrix, is
    onto.

    P_d is never formed either.  Its rows A(x)x2^(d+1) are reached only
    from B'(x)x2^d, through N2, so P_d is not onto when rank N2 < a.
    Otherwise, with [Q | G] = QG2 of m.splits (N2 Q = id_A), a column
    alpha (x) mu of Q(x)S^dW goes to the row alpha (x) x2 mu plus terms of
    lower x2-degree, so these columns against the a*C(d+2,2) rows divisible
    by x2 form a unipotent block, and rank P_d = a*C(d+2,2) + rank S_d, S_d
    the image of ker N2 (x) S^dW modulo those columns, read on
    A(x)k[x3, x4]_{d+1} (_x2_schur): a*(d+2) x w*C(d+2,2) with w = b - 2a,
    90 x 360 at (10, 30) and d = 7, where P_d is 450 x 720.

    S_d is not formed either when it splits a third time, by x3 on the P^1
    of x3, x4.  The columns of ker N2 (x) S^dW free of x2 map to
    x3^j x4^k (x3 Y + x4 T), with Y = N3 G and T = N4 G the a x w blocks
    of XZYT.  When rank Y = a, let [Q_Y | K_Y] = exactalg.split(Y) and
    M = -T Q_Y, an a x a matrix.  The (d+1)*a columns of Q_Y (x) S^dW free
    of x2 map to x3^j x4^k (x3 - x4 M) alpha, independent by their distinct
    leading powers of x3, and they span the kernel of
    pi(x3^j x4^k (x) alpha) = M^j alpha, a map from A(x)k[x3, x4]_{d+1}
    onto A.  So S_d has full row rank iff pi maps its image onto A.  For
    d >= 2 that image holds columns that pi sends to T K_Y (pi(U_0) =
    M Y + T is 0 on Q_Y), to V_1 = pi(U_1) and to M V_1, U_i the i-th
    column block of _x2_residuals, so S_d has full row rank when the a-row
    [T K_Y | V_1 | M V_1] has rank a, as it has on every sampled curve.

    Otherwise S_d is ranked at the first onto degree.  P_d sends
    beta (x) mu to mu P_0(beta), so Im P_(e+1) = W Im P_e, and P_e onto
    makes P_(e+1) onto; with rank P_e = a*C(e+2,2) + rank S_e, S_d has
    full row rank iff S_e does for some e <= d.  S_e for e = 0..d is
    ranked in turn, skipping those taller than wide, until one has full
    row rank: at (20, 59), where Y is 20 x 19, that is S_2, 80 x 114,
    where S_16 is 360 x 2907.  The condition is exact but only
    sufficient: None (m.splits is None, or S_e is short of full row rank,
    always when taller than wide, at every e <= d, as at (4, 10) and
    d = 2) says nothing about m(d).
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if m.splits is None:
        return None
    a, p, XZYT = m.a, m.prime, m.splits[-1]
    Y, T = XZYT[:, a:].reshape(2, a, -1)
    QK = exactalg.split(Y, p)
    if QK is not None and d >= 2:
        mm = functools.partial(exactalg.matmul_mod, p=p)
        M = -mm(T, QK[:, :a]) % p
        # V_1 = sum_t M^(2-t) U_1[:, t], by Horner
        *_, U = _x2_residuals(a, XZYT, 1, p)
        V = U[:, 0]
        for t in (1, 2):
            V = (mm(M, V) + U[:, t]) % p
        if exactalg.rank(np.hstack([mm(T, QK[:, a:]), V, mm(M, V)]),
                         p) == a:
            return True
    for e in range(d + 1):
        if a * (e + 2) <= Y.shape[1] * comb(e + 2, 2):
            S = _x2_schur(a, XZYT, e, p)
            if exactalg.rank(S, p) == len(S):
                return True
    return None


def _x2_residuals(a, XZYT, d, p):
    """U_0, ..., U_d of _x2_schur, from XZYT = [N3; N4] [Q | G] of
    m.splits, a 2a x (a + w) matrix: U_i is an (a, i+2, w) array whose
    [:, t] is the coefficient of x3^(i+1-t) x4^t."""
    w = XZYT.shape[1] - a
    XZ, U = XZYT[:, :a], XZYT[:, a:].reshape(2, a, w).transpose(1, 0, 2)
    for i in range(d + 1):
        if i:
            XU = exactalg.matmul_mod(XZ, U.reshape(a, -1), p).reshape(
                2, a, i + 1, w)
            U = np.zeros((a, i + 2, w), dtype=np.int64)
            U[:, :-1] -= XU[0]
            U[:, 1:] -= XU[1]
            U %= p
        yield U


def _x2_schur(a, XZYT, d, p):
    """S_d of horace_surjective from XZYT = [N3; N4] [Q | G] of m.splits,
    a 2a x (a + w) matrix, as an a*(d+2) x w*C(d+2,2) matrix.

    Modulo the columns of Q(x)S^dW
    alpha (x) x2 nu = -(x3 X + x4 Z) alpha (x) nu, X = N3 Q and Z = N4 Q,
    so the column gamma (x) x2^i x3^j x4^k of ker N2 (x) S^dW,
    whose image is x2^i x3^j x4^k (x3 Y + x4 T) gamma with Y = N3 G and
    T = N4 G, is x3^j x4^k U_i gamma, where U_0 = x3 Y + x4 T and
    U_(i+1) = -(x3 X + x4 Z) U_i (_x2_residuals).  The rows of S_d are
    (exponent of x4, alpha): a column x2^i x3^j x4^k first reaches the
    rows of x4-exponent k, so this order, unlike (alpha, exponent of x4),
    meets each pivot of the first-nonzero elimination at its own row, with
    no row swap.  A rank does not depend on the order of the rows.
    horace_surjective ranks S_e, for e = 0, 1, ..., only where its x3
    split does not certify S_d."""
    w = XZYT.shape[1] - a
    S = np.zeros((d + 2, a, comb(d + 2, 2), w), dtype=np.int64)
    col = 0
    for i, U in enumerate(_x2_residuals(a, XZYT, d, p)):
        for k in range(d - i + 1):
            S[k:k + i + 2, :, col] = U.transpose(1, 0, 2)
            col += 1
    return S.reshape(a * (d + 2), -1)


def m1_kernel(m):
    """ker m(1) as a (4, k, b) array Ns of linear forms, like a
    presentation's, kernel vector r being sum_j x_j (x) Ns[j, r]: read off
    m.splits, the x1 and x2 splits that horace_surjective uses, or off the
    dense m(1) when m.splits is None.  k is dim ker m(1), whatever its
    value; callers compare it with the one they expect.  At any point x,
    every row of Ns(x) lies in ker M(x); for a curve sample k is
    c = b - a + 1, and at a generic point Ns(x) has rank c - 1.

    With (QG1, P, N, QG2, XZYT) = m.splits, QG1 = [Q1 | K1] and
    QG2 = [Q2 | K2], the rows x1 x_j of m(1) v = 0 give v1 = K1 u and
    v_j = K1 w_j - Q1 N_j u, and the rows x2 x_j give w_j = Q2 s_j + K2 y_j,
    s2 = P2 N2 u, s_j = (P2 N_j + P_j N2) u - N_j w2.
    The rows x3^2, x3 x4, x4^2 are left, a 3a x (4b - 7a) system R in
    z = (u, y2, y3, y4) (60 x 100 at (a, b) = (20, 60), where m(1) is
    200 x 240), and z -> v is injective, so ker R lifts to a basis."""
    p = m.prime
    if m.splits is None:
        K = exactalg.kernel_basis(assemble_md(m, 1), p)
        return K.reshape(-1, m.b, 4).transpose(2, 0, 1)
    mm = functools.partial(exactalg.matmul_mod, p=p)
    QG1, P, N, QG2, XZYT = m.splits
    a, b, n, z = m.a, m.b, m.b - m.a, 4 * m.b - 7 * m.a
    # PN[j, :, k] = P_(j+2) N_(k+2), and F its sums P_j N_k + P_k N_j
    PN = mm(P.reshape(3 * a, a), np.hstack(N)).reshape(3, a, 3, n)
    F = PN + PN.transpose(2, 1, 0, 3)
    # w_(j+2) = QG2 C[j] z
    C = np.zeros((3, n, z), dtype=np.int64)
    C[:, a:, n:] = np.eye(z - n, dtype=np.int64).reshape(3, n - a, z - n)
    C[:, :a, :n] = PN[0, :, 0], F[0, :, 1], F[0, :, 2]
    C[1:, :a] -= mm(XZYT, C[0]).reshape(2, a, z)
    # H[j, :, k] = N_(j+3) w_(k+3), and R the rows x3^2, x3 x4, x4^2
    H = mm(XZYT, np.hstack(C[1:])).reshape(2, a, 2, z)
    R = np.stack([H[0, :, 0], H[0, :, 1] + H[1, :, 0], H[1, :, 1]])
    R[:, :, :n] -= PN[1, :, 1], F[1, :, 2], PN[2, :, 2]
    Kz = exactalg.kernel_basis(R.reshape(3 * a, z), p)
    # v[j] holds the coordinates in QG1 of v_(j+1), (0, u) or (-N_j u, w_j),
    # a column per kernel vector
    k, u = len(Kz), Kz[:, :n].T
    v = np.zeros((4, b, k), dtype=np.int64)
    v[0, a:] = u
    v[1:, :a] = -mm(N.reshape(3 * a, n), u).reshape(3, a, k)
    Cz = mm(C.reshape(3 * n, z), Kz.T).reshape(3, n, k)
    v[1:, a:] = mm(QG2, np.hstack(Cz)).reshape(n, 3, k).transpose(1, 0, 2)
    return mm(QG1, np.hstack(v)).reshape(b, 4, k).transpose(1, 2, 0)


@dataclass(frozen=True)
class SurjectivityCertificate:
    checked: tuple  # (d, dim coker m(d)) pairs, d = 1, 2, ..., never empty
    coker0: int  # dim coker m(0) = h1(E_m), rung 0 of the ladder

    @property
    def d0(self):
        """The surjective degree the ladder stopped at, else None."""
        d, coker = self.checked[-1]
        return d if coker == 0 else None

    @property
    def found(self):
        return self.d0 is not None


def surjectivity_certificate(m, d_max=D_MAX):
    """Search d = 1..d_max for surjective m(d) by the inverse-system ladder
    of the module docstring, and record dim coker m(0) = h1(E_m) as coker0.

    Rung 0 is a basis phi_1..phi_c of Ann_0, the left kernel of m(0) (the
    only m(d) assembled), as a (c, a, 4) array in the row layout of
    assemble_md, with its unit positions P_i, the kernel's free columns:
    phi_i is 1 at P_i where every other phi_l is 0, so a psi in Ann_{d-1}
    is sum_i psi(P_i) phi_i.  Rung d writes each x_k _| psi in Ann_{d-1}
    so, and solves for the values of psi at the distinct positions x_k P_i
    (at most 4c of them, and at most the a*C(d+4,3) rows of m(d)) by the
    equations of the module docstring at first variables:
    x_j _| psi_k = x_k _| psi_j on the monomials free of x_1..x_(j-1), for
    j < k.  The kernel dimension of this system G_d is dim coker m(d).
    Each kernel vector is rebuilt on A(x)S^{d+1}V by writing psi_j at the
    monomials whose first variable is x_j, and its free column is its unit
    position on the next rung.

    Surjectivity propagates upward (the image of m(d+1) contains
    image(m(d)).V), so the first hit certifies all larger degrees and the
    local freeness of E_m.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    a, p = m.a, m.prime
    K = exactalg.kernel_basis(assemble_md(m, 0).T, p)
    ann, Q, coker0, checked = K.reshape(-1, a, 4), np.arange(4 * a), len(K), []
    for d in range(1, d_max + 1):
        # ann is Ann_{d-1} on A(x)S^dV and K its values at the positions Q;
        # the last nonzero of a row of K, a 1, marks the row's unit position
        free = K.shape[1] - 1 - np.argmax(K[:, ::-1] != 0, axis=1)
        c, (alpha, mu) = len(ann), np.divmod(Q[free], dim_sym(d))
        # q[k, i] is the unknown psi(x_k P_i), Q[q[k, i]] its position
        Q, q = np.unique(alpha * dim_sym(d + 1) + _lift(d)[:, mu],
                         return_inverse=True)
        q = q.reshape(4, c)
        # phi[:, mu] holds the phi_i(alpha (x) mu) as an (a, len(mu), c) array
        phi, down, G = ann.transpose(1, 2, 0), _lift(d - 1), []
        for j, k in itertools.combinations(range(4), 2):
            nu = _tail(d - 1, j)
            g = np.zeros((a * len(nu), len(Q)), dtype=np.int64)
            g[:, q[k]] = phi[:, down[j, nu]].reshape(len(g), c)
            g[:, q[j]] -= phi[:, down[k, nu]].reshape(len(g), c)
            G.append(g)
        G = np.vstack(G)
        # a pair equation at a unit position can read the same unknown on
        # both sides, and leave a zero row
        K = exactalg.kernel_basis(G[G.any(axis=1)], p)
        checked.append((d, len(K)))
        if not len(K) or d == d_max:
            break
        ann = np.zeros((len(K), a, dim_sym(d + 1)), dtype=np.int64)
        for j in range(4):
            nu = _tail(d, j)
            ann[:, :, _lift(d)[j, nu]] = exactalg.matmul_mod(
                K[:, q[j]], phi[:, nu].reshape(-1, c).T, p
            ).reshape(len(K), a, len(nu))
    return SurjectivityCertificate(tuple(checked), coker0)


def chi3(t):
    """chi of O_{P^3}(t): (t+1)(t+2)(t+3)/6, exact for any integer t."""
    return (t + 1) * (t + 2) * (t + 3) // 6


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


def cohomology_table(m, k_min, k_max, cert):
    """Cohomology of E_m(k) for k in [k_min, k_max].

    `cert` is the surjectivity certificate of m.  Raises NotLocallyFree when
    it found no surjective degree.  The certificate's ladder holds the
    cokernel of m(k) for 0 <= k <= d0, so those ranks are read from it; for
    k above d0 the rank of m(k) is known by propagation without assembling
    it.
    """
    if k_min > k_max:
        raise ValueError(f"empty twist window [{k_min}, {k_max}]")
    if not cert.found:
        raise NotLocallyFree(cert.checked)
    coker = {0: cert.coker0, **dict(cert.checked)}
    a, b = m.a, m.b
    rows = []
    for k in range(k_min, k_max + 1):
        chi = euler_char(a, b, k)
        if k >= 0:
            # m(k) is onto from d0 up, by propagation
            h1 = 0 if k >= cert.d0 else coker[k]
            h0 = b * dim_sym(k) - a * dim_sym(k + 1) + h1
        else:
            h0 = 0
            h1 = a * dim_sym(k + 1)
        h2 = 0
        h3 = h0 - h1 + h2 - chi
        assert h3 >= 0
        rows.append((k, h0, h1, h2, h3, chi))
    return CohomologyTable(tuple(rows))


# ---------------------------------------------------------------------------
# interchange


def write_presentation(fh, m):
    exactalg.write_blocks(fh, "steiner", m.Ms, m.prime)


def read_presentation(fh):
    return SteinerPresentation(*exactalg.read_blocks(fh, "steiner"))
