"""Covector families on A(x)S^2V, their transported linear maps, and the rank
invariants attached to a codimension-f subspace Z and its hyperplane slices.

A quotient Phi: A(x)S^2V ->> F of dimension f is stored as the coefficient
tensor t[s,j,p,q] = Phi_s(alpha_j (x) x_p x_q), symmetric in (p,q) with no
factor-of-2 bookkeeping: values on monomials, not on symmetrized tensors.
Matrices of covectors and coefficient tensors convert into each other
through the layout of multilin (MONO_PQ, HV_MONO_INDICES): one gather reads
a tensor's coordinates on A(x)S^2V or on A(x)H.V, and one scatter writes
them back.

gstar(Phi): A(x)V -> V^at(x)F is the 4f x 4a matrix with entry t[s,j,p,q]
at row (s,p), column (j,q).  Its rank is the V*-rank of Z = ker Phi, and
Phi vanishes on the image of m(1) exactly when gstar(Phi) kills every
column of m.

Rank invariants are taken on a slice, built by zslice: Z itself, or, for a
hyperplane H of V, Z' = Z cap A(x)H.V in the frame where H = {x4 = 0} (the
trace on a hyperplane of the methode d'Horace).  The slice carries the
tensor in its coordinates, the quotient's rows on the ten (resp. nine)
coordinates of A(x)S^2V (resp. A(x)H.V), its number n of frame directions
(4, resp. 3), and the V*-rank of Z and the reduced echelon form of the
rows, each computed at most once.  A subspace T cut out of the slice by
extra covectors has one stacked system fstar_ZT, gstar in slice coordinates
over the rows p < n of the extras; its rank excess over the V*-rank,
z_rank, is the Z-rank of T on Z and its (Z,H)-rank on Z'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exactalg
from .multilin import (
    HV_MONO_INDICES,
    MONO_PQ,
    HyperplaneFrame,
    mono_basis,
    random_frame,
    transform_fform_tensor,
)
from .seeding import derive_rng
from .steiner import (
    SteinerPresentation,
    _scatter_md,
    assemble_md,
    presentation_in_span,
)


class NonTransverse(ValueError):
    """Z fails to meet A(x)H.V in the expected codimension f."""


class SamplingFailed(ValueError):
    """A random draw missed a generic property on every allowed attempt."""


# block positions (p's, q's) of the coordinates of A(x)S^2V and of A(x)H.V
_S2V = np.array(MONO_PQ).T
_HV = _S2V[:, list(HV_MONO_INDICES)]
# the nine degree-2 monomials spanning H.V, in basis order
_HV_MONOS = tuple(mono_basis(2)[i] for i in HV_MONO_INDICES)


def _coords(t, pq=_S2V):
    """Gather: the k x (a * #coordinates) matrix of a coefficient tensor
    t[s, j, p, q] on the coordinates pq, entry t[s, j, p_i, q_i] at row s,
    column (j, i)."""
    return t[:, :, pq[0], pq[1]].reshape(t.shape[0], t.shape[1] * pq.shape[1])


def _tensor(mat, a, pq=_S2V):
    """Scatter, the inverse of _coords: the symmetric coefficient tensor of
    a matrix of covectors on the coordinates pq, zero off them."""
    k = mat.shape[0]
    t = np.zeros((k, a, 4, 4), dtype=np.int64)
    vals = mat.reshape(k, a, pq.shape[1])
    t[:, :, pq[0], pq[1]] = vals
    t[:, :, pq[1], pq[0]] = vals
    return t


def _block_rows(t, n=4):
    """The nk x 4a matrix of a coefficient tensor t[s, j, p, q] with
    entry t[s, j, p, q] at row (s, p), p < n, and column (j, q)."""
    k, a = t.shape[:2]
    G = t[:, :, :n].transpose(0, 2, 1, 3).reshape(n * k, 4 * a)
    return np.ascontiguousarray(G)


@dataclass(frozen=True)
class FFormQuotient:
    t: np.ndarray  # shape (f, a, 4, 4), symmetric in the last two axes
    prime: int

    def __post_init__(self):
        if self.t.ndim != 4 or self.t.shape[2:] != (4, 4):
            raise ValueError("coefficient tensor must have shape (f, a, 4, 4)")
        if not np.array_equal(self.t, self.t.transpose(0, 1, 3, 2)):
            raise ValueError("coefficient tensor must be symmetric in (p, q)")

    @property
    def f(self):
        return self.t.shape[0]

    @property
    def a(self):
        return self.t.shape[1]

    @classmethod
    def random(cls, rng, a, f, p):
        for _ in range(8):
            raw = rng.integers(0, p, size=(f, a, 4, 4), dtype=np.int64)
            t = np.mod(raw + raw.transpose(0, 1, 3, 2), p)
            q = cls(t, p)
            if q.echelon[1] == f:
                return q
        raise SamplingFailed(
            f"no rank-{f} quotient of A(x)S^2V with a={a} in 8 draws")

    def phi_matrix(self):
        """f x 10a matrix on the monomial basis of A(x)S^2V."""
        return _coords(self.t)

    @cached_property
    def echelon(self):
        """(R, rank, pivots), the reduced echelon form of phi_matrix,
        computed at most once."""
        return exactalg.rref(self.phi_matrix(), self.prime)


def gstar(phi):
    return _block_rows(phi.t)


def vstar_rank(phi):
    return exactalg.rank(gstar(phi), phi.prime)


def witness_z(a, f, p):
    """Deterministic quotient with maximal V*-rank 4f: a coordinate
    surjection A -> F tensored with a nondegenerate symmetric form on V,
    so t[s,j,p,q] = [s == j][p == q]."""
    if f > a:
        raise ValueError(f"witness needs f <= a, got f={f} > a={a}")
    t = np.zeros((f, a, 4, 4), dtype=np.int64)
    for s in range(f):
        for pp in range(4):
            t[s, s, pp, pp] = 1
    return FFormQuotient(t, p)


def zstar_basis(phi):
    """Kernel basis of gstar, i.e. the subspace Z* of A(x)V: a
    (4a - vstar_rank) x 4a matrix, one basis vector per row."""
    return exactalg.kernel_basis(gstar(phi), phi.prime)


# ---------------------------------------------------------------------------
# the slice of Z that rank invariants are taken on


@dataclass(frozen=True)
class ZSlice:
    """Z = ker Phi, or its hyperplane slice Z' = Z cap A(x)H.V carried in
    the frame where H = {x4 = 0}; build it with zslice.

    t is the coefficient tensor in slice coordinates and frame the
    hyperplane frame of Z' (None on Z); the rest is read off these.
    """

    phi: FFormQuotient
    t: np.ndarray
    frame: HyperplaneFrame | None = None

    @property
    def n(self):
        """The number of frame directions: 4, or 3 on H."""
        return 4 if self.frame is None else 3

    @property
    def pq(self):
        """The slice's coordinates' block positions: _S2V, or _HV on Z'."""
        return _S2V if self.frame is None else _HV

    @cached_property
    def rows(self):
        """The quotient's rows on the slice's coordinates."""
        return _coords(self.t, self.pq)

    @cached_property
    def vstar(self):
        """The V*-rank of Z, computed at most once per slice."""
        return vstar_rank(self.phi)

    @cached_property
    def echelon(self):
        """(R, rank, pivots), the reduced echelon form of rows, computed at
        most once; on Z the rows are phi's own, so it is phi.echelon."""
        if self.frame is None:
            return self.phi.echelon
        return exactalg.rref(self.rows, self.phi.prime)


def zslice(phi, frame=None):
    """The slice Z of phi, or Z' for the hyperplane of `frame`; raises
    NonTransverse when dim Z' exceeds 9a - f (rank of Phi_H below f)."""
    if frame is None:
        return ZSlice(phi, phi.t)
    sl = ZSlice(phi, transform_fform_tensor(phi.t, frame), frame)
    r = sl.echelon[1]
    if r < phi.f:
        raise NonTransverse(
            f"dim Z' = {9 * phi.a - r} exceeds 9a - f = {9 * phi.a - phi.f}")
    return sl


def _extra_rows(sl, extra):
    """The extra covectors as a matrix on the slice's coordinates, mod p."""
    mat = np.asarray(extra, dtype=np.int64)
    return np.mod(mat.reshape(len(extra), sl.rows.shape[1]), sl.phi.prime)


def _system(sl, extra):
    """fstar_ZT for the matrix of extra covectors, unchecked."""
    bottom = _block_rows(_tensor(extra, sl.phi.a, sl.pq), sl.n)
    return np.vstack([_block_rows(sl.t), bottom])


def fstar_ZT(sl, extra=()):
    """Stacked matrix (4f + n e) x 4a for the subspace T of the slice cut by
    e extra covectors on its coordinates (empty extra means T is the slice).

    Top block: gstar in slice coordinates.  Bottom block: row (s, p) for
    p < n and column (j, q) holding extra covector s on alpha_j (x) v_p v_q.
    The quotient's own rows would add nothing: on Z they are the top block,
    on Z' its rows p < 3.  Rejects extras dependent on the quotient's rows;
    with no extras, reads the rows' independence off sl.echelon.
    """
    extra = _extra_rows(sl, extra)
    if len(extra):
        u = np.vstack([sl.rows, extra])
        independent = exactalg.rank(u, sl.phi.prime) == len(u)
    else:
        independent = sl.echelon[1] == sl.phi.f
    if not independent:
        raise ValueError("extra covectors are dependent on the quotient's rows")
    return _system(sl, extra)


def z_rank(sl, extra=()):
    """Rank excess of the subspace T of the slice cut by extra covectors
    over Z: the Z-rank of T on Z, its (Z,H)-rank on Z'."""
    return exactalg.rank(fstar_ZT(sl, extra), sl.phi.prime) - sl.vstar


# ---------------------------------------------------------------------------
# transported equation systems


def mh1(mf):
    """Matrix of m_H(1): B(x)H -> A(x)H.V, shape 9a x 3b, for a presentation
    mf in the coordinates of a frame (m.in_frame(frame)), where H = {x4 = 0}.

    The block of m(1) from the columns x1, x2, x3 to the nine rows of H.V,
    that is m(1) without its columns with a v4 factor and the x4^2 row of
    each A-block."""
    return _scatter_md(mf, mono_basis(1)[:3], _HV_MONOS)


def transport_check(m, sl, extra=()):
    """Evaluate both sides of the transport equivalence on the slice sl of a
    quotient Phi (built by zslice); returns (lhs, rhs).

    lhs states the conditions on multiplication maps: the quotient
    [Phi; extra] kills the image of m(1) or, on the slice of a frame, Phi
    kills it and [Phi_H; extra] kills the image of m_H(1).  rhs states that
    the stacked system of the slice kills every column of m, in slice
    coordinates.  The two are equivalent; tests assert lhs == rhs on random
    and constructed instances.
    """
    p = m.prime
    # no independence check: a dependent extra covector is a valid instance
    extra = _extra_rows(sl, extra)
    u = np.vstack([sl.rows, extra])
    if sl.frame is None:
        lhs = not exactalg.matmul_mod(u, assemble_md(m, 1), p).any()
    else:
        lhs = not exactalg.matmul_mod(sl.phi.phi_matrix(),
                                      assemble_md(m, 1), p).any()
        m = m.in_frame(sl.frame)
        mh = mh1(m)
        lhs = lhs and not exactalg.matmul_mod(u, mh, p).any()
    rhs = not exactalg.matmul_mod(_system(sl, extra), m.columns(), p).any()
    return lhs, rhs


def transport_trial(variant, trial, seed, p):
    """One transport-equivalence instance of `variant` ("full", "hyper" or
    "combined"); returns True when both sides of the check agree.  Every
    third trial is a constructed positive, the rest are random (almost
    surely negative)."""
    rng = derive_rng(seed, 13, {"full": 0, "hyper": 1, "combined": 2}[variant],
                     trial)
    a = 2 + trial % 3
    f = 1 + (trial % 2 if a > 2 else 0)
    b = 2 * a
    phi = FFormQuotient.random(rng, a, f, p)
    frame = random_frame(rng, p) if variant != "full" else None
    extra = []
    if variant == "combined":
        extra = [rng.integers(0, p, size=9 * a, dtype=np.int64)]
    sl = zslice(phi, frame)
    if trial % 3 == 0:
        kern = exactalg.kernel_basis(fstar_ZT(sl, extra), p)
        m = presentation_in_span(kern, b, rng, p)
        if frame is not None:
            m = SteinerPresentation(
                exactalg.evaluate_linear(m.Ms, frame.P, p), p)
    else:
        m = SteinerPresentation.random(rng, a, b, p)
    lhs, rhs = transport_check(m, sl, extra)
    return lhs == rhs

