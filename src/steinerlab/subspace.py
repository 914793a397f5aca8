"""Covector families on A(x)S^2V, their transported linear maps, and the rank
invariants attached to a codimension-f subspace Z and its hyperplane slices.

A quotient Phi: A(x)S^2V ->> F of dimension f is stored as the coefficient
tensor t[s,j,p,q] = Phi_s(alpha_j (x) x_p x_q), symmetric in (p,q) with no
factor-of-2 bookkeeping: values on monomials, not on symmetrized tensors.
Matrices of covectors and coefficient tensors convert into each other
through the layout of multilin (MONO_PQ, HV_MONO_INDICES): one gather reads
a tensor's coordinates on A(x)S^2V or on A(x)H.V, and one scatter writes
them back.  Three maps are derived from the tensor:

* gstar(Phi): A(x)V -> V^at(x)F, the 4f x 4a matrix with entry t[s,j,p,q] at
  row (s,p), column (j,q).  Its rank is the V*-rank of Z = ker Phi, and
  Phi vanishes on the image of m(1) exactly when gstar(Phi) kills every
  column of m.
* the restriction Phi_H to A(x)H.V for a hyperplane H of V, computed in the
  frame where H = {x4 = 0}.
* fstar_ZT: the stack of gstar (in frame coordinates) with the H-column
  slices of the quotient cutting T inside Z' = Z cap A(x)H.V; its rank excess
  over the V*-rank is the (Z,H)-rank of T.

A subspace T cut out of Z (or of Z') by extra covectors is presented by the
quotient's rows with the extra covectors appended, built in one place for
the full-space and the hyperplane systems alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactalg
from .multilin import (
    HV_MONO_INDICES,
    MONO_PQ,
    HyperplaneFrame,
    random_frame,
    transform_fform_tensor,
    transform_presentation,
)
from .seeding import derive_rng
from .steiner import SteinerPresentation, assemble_md, presentation_in_span


class NonTransverse(Exception):
    """Z fails to meet A(x)H.V in the expected codimension f."""


class SamplingFailed(Exception):
    """A random draw missed a generic property on every allowed attempt."""


# block positions (p's, q's) of the coordinates of A(x)S^2V and of A(x)H.V
_S2V = np.array(MONO_PQ).T
_HV = _S2V[:, list(HV_MONO_INDICES)]


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


def _stack(rows, extra, p):
    """The quotient's rows with the extra covectors appended, mod p."""
    if not len(extra):
        return rows
    extra = np.mod(np.asarray(extra, dtype=np.int64).reshape(len(extra), -1), p)
    return np.vstack([rows, extra])


@dataclass(frozen=True)
class FFormQuotient:
    a: int
    f: int
    t: np.ndarray  # shape (f, a, 4, 4), symmetric in the last two axes
    prime: int = exactalg.DEFAULT_PRIME

    def __post_init__(self):
        if self.t.shape != (self.f, self.a, 4, 4):
            raise ValueError("coefficient tensor must have shape (f, a, 4, 4)")
        if not np.array_equal(self.t, self.t.transpose(0, 1, 3, 2)):
            raise ValueError("coefficient tensor must be symmetric in (p, q)")

    @classmethod
    def from_tensor(cls, t, p=exactalg.DEFAULT_PRIME):
        t = np.mod(np.asarray(t, dtype=np.int64), p)
        q = cls(t.shape[1], t.shape[0], t, p)
        if q.f and exactalg.rank(q.phi_matrix(), p) != q.f:
            raise ValueError("quotient covectors are linearly dependent")
        return q

    @classmethod
    def from_phi_matrix(cls, mat, a, p=exactalg.DEFAULT_PRIME):
        """Inverse of phi_matrix: rows are covectors on A(x)S^2V."""
        mat = np.mod(np.asarray(mat, dtype=np.int64), p)
        f = mat.shape[0]
        if mat.shape != (f, 10 * a):
            raise ValueError("phi matrix must be f x 10a")
        return cls.from_tensor(_tensor(mat, a), p)

    @classmethod
    def random(cls, rng, a, f, p=exactalg.DEFAULT_PRIME):
        for _ in range(8):
            raw = rng.integers(0, p, size=(f, a, 4, 4), dtype=np.int64)
            t = np.mod(raw + raw.transpose(0, 1, 3, 2), p)
            q = cls(a, f, t, p)
            if f == 0 or exactalg.rank(q.phi_matrix(), p) == f:
                return q
        raise SamplingFailed(
            f"no rank-{f} quotient of A(x)S^2V with a={a} in 8 draws")

    def phi_matrix(self):
        """f x 10a matrix on the monomial basis of A(x)S^2V."""
        return _coords(self.t)


def gstar(phi):
    return _block_rows(phi.t)


def vstar_rank(phi):
    if phi.f == 0:
        return 0
    return exactalg.rank(gstar(phi), phi.prime)


def witness_z(a, f, p=exactalg.DEFAULT_PRIME):
    """Deterministic quotient with maximal V*-rank 4f: a coordinate
    surjection A -> F tensored with a nondegenerate symmetric form on V,
    so t[s,j,p,q] = [s == j][p == q]."""
    if f > a:
        raise ValueError(f"witness needs f <= a, got f={f} > a={a}")
    t = np.zeros((f, a, 4, 4), dtype=np.int64)
    for s in range(f):
        for pp in range(4):
            t[s, s, pp, pp] = 1
    return FFormQuotient(a, f, t, p)


def zstar_basis(phi):
    """Kernel basis of gstar, i.e. the subspace Z* of A(x)V; list of
    4a-vectors of length 4a - vstar_rank."""
    if phi.f == 0:
        return [v for v in np.eye(4 * phi.a, dtype=np.int64)]
    return exactalg.kernel_basis(gstar(phi), phi.prime)


def stack_quotient(phi, extra):
    """Quotient presenting the subspace of Z cut by extra covectors on
    A(x)S^2V.  Rejects covectors that are dependent modulo Phi's rows."""
    stacked = _stack(phi.phi_matrix(), extra, phi.prime)
    try:
        return FFormQuotient.from_phi_matrix(stacked, phi.a, phi.prime)
    except ValueError:
        # Phi's rows are independent, so the stack fails only on the extras
        raise ValueError("extra covectors are dependent on Z") from None


def z_rank(phi, extra):
    """V*-rank excess of the subspace T = Z cap ker(extra) over Z."""
    bigger = stack_quotient(phi, extra)
    return vstar_rank(bigger) - vstar_rank(phi)


# ---------------------------------------------------------------------------
# hyperplane slices


@dataclass(frozen=True)
class HSliceZ:
    """Z' = Z cap A(x)H.V, carried in the frame normalizing H to {x4=0}.

    phi_h is the f x 9a matrix of the restricted quotient on the coordinates
    of A(x)H.V; tframe is the full coefficient tensor in frame coordinates.
    """

    phi: FFormQuotient
    frame: HyperplaneFrame
    tframe: np.ndarray
    phi_h: np.ndarray

    @property
    def a(self):
        return self.phi.a

    @property
    def f(self):
        return self.phi.f

    def zprime_dim(self):
        return 9 * self.a - exactalg.rank(self.phi_h, self.phi.prime)


def restrict_to_H(phi, frame):
    """Slice Z by A(x)H.V; raises NonTransverse when the intersection is too
    big (rank of the restricted quotient below f)."""
    tframe = transform_fform_tensor(phi.t, frame)
    phi_h = _coords(tframe, _HV)
    if phi.f:
        r = exactalg.rank(phi_h, phi.prime)
        if r < phi.f:
            raise NonTransverse(
                f"dim Z' = {9 * phi.a - r} exceeds 9a - f = {9 * phi.a - phi.f}"
            )
    return HSliceZ(phi, frame, tframe, phi_h)


def _fstar(hslice, u):
    """fstar_ZT for the quotient u = [Phi_H; extra] of T, unchecked."""
    bottom = _block_rows(_tensor(u, hslice.a, _HV), 3)
    return np.vstack([_block_rows(hslice.tframe), bottom])


def fstar_ZT(hslice, extra=()):
    """Stacked matrix (4f + 3(f+e)) x 4a for the subspace T of Z' cut by e
    extra covectors on A(x)H.V (empty extra means T = Z').

    Top block: gstar in frame coordinates.  Bottom block: the H-column
    matrix of the full quotient [Phi_H; extra] of T, row (s, p) for p in
    1..3 and column (j, q) holding its value on alpha_j (x) v_p v_q."""
    p = hslice.phi.prime
    u = _stack(hslice.phi_h, extra, p)
    if exactalg.rank(u, p) != len(u):
        raise ValueError("extra covectors are dependent on Z'")
    return _fstar(hslice, u)


def zh_rank(hslice, extra=()):
    """rank of fstar_ZT minus the V*-rank of Z."""
    M = fstar_ZT(hslice, extra)
    return exactalg.rank(M, hslice.phi.prime) - vstar_rank(hslice.phi)


# ---------------------------------------------------------------------------
# transported equation systems


def mh1(m, frame):
    """Matrix of m_H(1): B(x)H -> A(x)H.V, shape 9a x 3b.

    Assembled from the frame-transformed presentation by deleting the
    columns with a v4 factor and the x4^2 row of each A-block."""
    Ms = transform_presentation(m.Ms, frame.Pinv, frame.prime)
    mf = SteinerPresentation(m.a, m.b, Ms, m.prime)
    full = assemble_md(mf, 1).reshape(m.a, 10, m.b, 4)
    mh = full[:, list(HV_MONO_INDICES), :, :3]
    return np.ascontiguousarray(mh.reshape(9 * m.a, 3 * m.b))


def transport_check(m, phi, frame=None, extra=()):
    """Evaluate both sides of the transport equivalence; returns (lhs, rhs).

    lhs states the conditions on multiplication maps: Phi kills the image of
    m(1), and, when a frame is given, the quotient [Phi_H; extra] kills the
    image of m_H(1).  rhs states that the transported stacked system kills
    every column of m.  The two are equivalent; tests assert lhs == rhs on
    random and constructed instances.
    """
    p = m.prime
    m1 = assemble_md(m, 1)
    lhs = not exactalg.matmul_mod(phi.phi_matrix(), m1, p).any()
    if frame is None:
        rhs = not exactalg.matmul_mod(gstar(phi), m.columns(), p).any()
        return lhs, rhs
    hslice = restrict_to_H(phi, frame)
    # no independence check: a dependent extra covector is a valid instance
    u = _stack(hslice.phi_h, extra, p)
    mh = mh1(m, frame)
    lhs = lhs and not exactalg.matmul_mod(u, mh, p).any()
    stacked = _fstar(hslice, u)
    cols_frame = SteinerPresentation(
        m.a, m.b, transform_presentation(m.Ms, frame.Pinv, frame.prime), p
    ).columns()
    rhs = not exactalg.matmul_mod(stacked, cols_frame, p).any()
    return lhs, rhs


def transport_trial(variant, trial, seed, p=exactalg.DEFAULT_PRIME):
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
    positive = trial % 3 == 0
    if variant == "full":
        if positive:
            m = presentation_in_span(zstar_basis(phi), b, rng, p)
        else:
            m = SteinerPresentation.random(rng, a, b, p)
        lhs, rhs = transport_check(m, phi)
        return lhs == rhs
    hslice = restrict_to_H(phi, frame)
    if variant == "combined":
        extra = [rng.integers(0, p, size=9 * a, dtype=np.int64)]
    if positive:
        kern = exactalg.kernel_basis(fstar_ZT(hslice, extra), p)
        mf = presentation_in_span(kern, b, rng, p)
        m = SteinerPresentation(
            a, b, transform_presentation(mf.Ms, frame.P, p), p)
    else:
        m = SteinerPresentation.random(rng, a, b, p)
    lhs, rhs = transport_check(m, phi, frame, extra)
    return lhs == rhs


# ---------------------------------------------------------------------------
# interchange


def write_fform(fh, phi):
    exactalg.write_blocks(fh, "fform", phi.a, phi.f, [phi.phi_matrix()],
                          phi.prime)


def read_fform(fh):
    a, _, p, (mat,) = exactalg.read_blocks(
        fh, "fform", 1, shape=lambda a, f: (f, 10 * a))
    return FFormQuotient.from_phi_matrix(mat, a, p)
