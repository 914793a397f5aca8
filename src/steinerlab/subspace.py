"""Covector families on A(x)S^2V, their transported linear maps, and the rank
invariants attached to a codimension-f subspace Z and its hyperplane slices.

A quotient Phi: A(x)S^2V ->> F of dimension f is stored as the coefficient
tensor t[s,j,p,q] = Phi_s(alpha_j (x) x_p x_q), symmetric in (p,q) with no
factor-of-2 bookkeeping: values on monomials, not on symmetrized tensors.
Three maps are derived from it:

* gstar(Phi): A(x)V -> V^at(x)F, the 4f x 4a matrix with entry t[s,j,p,q] at
  row (s,p), column (j,q).  Its rank is the V*-rank of Z = ker Phi, and
  Phi vanishes on the image of m(1) exactly when gstar(Phi) kills every
  column of m.
* the restriction Phi_H to A(x)H.V for a hyperplane H of V, computed in the
  frame where H = {x4 = 0}.
* fstar_ZT: the stack of gstar (in frame coordinates) with the H-column
  slices of the quotient cutting T inside Z' = Z cap A(x)H.V; its rank excess
  over the V*-rank is the (Z,H)-rank of T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactalg
from .multilin import (
    HV_MONO_INDICES,
    HyperplaneFrame,
    mono_basis,
    pair_index,
    random_frame,
    transform_fform_tensor,
    transform_presentation,
)
from .seeding import derive_rng
from .steiner import SteinerPresentation, assemble_md, presentation_in_span


class NonTransverse(Exception):
    """Z fails to meet A(x)H.V in the expected codimension f."""


def _mono_to_pair(i):
    e = mono_basis(2)[i]
    nz = [k + 1 for k, c in enumerate(e) for _ in range(c)]
    return nz[0], nz[1]


_PAIRS = tuple(_mono_to_pair(i) for i in range(10))


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
    def from_tensor(cls, t, p=exactalg.DEFAULT_PRIME, check_rank=True):
        t = np.mod(np.asarray(t, dtype=np.int64), p)
        q = cls(t.shape[1], t.shape[0], t, p)
        if check_rank and q.f and exactalg.rank(q.phi_matrix(), p) != q.f:
            raise ValueError("quotient matrix does not have full rank f")
        return q

    @classmethod
    def from_phi_matrix(cls, mat, a, p=exactalg.DEFAULT_PRIME, check_rank=True):
        """Inverse of phi_matrix: rows are covectors on A(x)S^2V."""
        mat = np.mod(np.asarray(mat, dtype=np.int64), p)
        f = mat.shape[0]
        if mat.shape != (f, 10 * a):
            raise ValueError("phi matrix must be f x 10a")
        t = np.zeros((f, a, 4, 4), dtype=np.int64)
        for i, (pp, qq) in enumerate(_PAIRS):
            t[:, :, pp - 1, qq - 1] = mat[:, i::10]
            t[:, :, qq - 1, pp - 1] = mat[:, i::10]
        return cls.from_tensor(t, p, check_rank)

    @classmethod
    def random(cls, rng, a, f, p=exactalg.DEFAULT_PRIME):
        for _ in range(8):
            raw = rng.integers(0, p, size=(f, a, 4, 4), dtype=np.int64)
            t = np.mod(raw + raw.transpose(0, 1, 3, 2), p)
            q = cls(a, f, t, p)
            if f == 0 or exactalg.rank(q.phi_matrix(), p) == f:
                return q
        raise RuntimeError(f"could not sample a rank-{f} quotient")

    def phi_matrix(self):
        """f x 10a matrix on the monomial basis of A(x)S^2V."""
        out = np.zeros((self.f, 10 * self.a), dtype=np.int64)
        for i, (pp, qq) in enumerate(_PAIRS):
            out[:, i::10] = self.t[:, :, pp - 1, qq - 1]
        return out


def gstar(phi):
    G = phi.t.transpose(0, 2, 1, 3).reshape(4 * phi.f, 4 * phi.a)
    return np.ascontiguousarray(G)


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
    extra = [np.asarray(g, dtype=np.int64) % phi.prime for g in extra]
    e = len(extra)
    base = phi.phi_matrix()
    stacked = np.vstack([base] + [g.reshape(1, -1) for g in extra]) if e else base
    if exactalg.rank(stacked, phi.prime) != phi.f + e:
        raise ValueError("extra covectors are dependent on Z")
    return FFormQuotient.from_phi_matrix(stacked, phi.a, phi.prime, check_rank=False)


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


def _restrict_rows(mat_10a, a):
    """Drop the x4^2 column of every A-block: 10a coordinates -> 9a."""
    cols = [j * 10 + i for j in range(a) for i in HV_MONO_INDICES]
    return mat_10a[:, cols]


def restrict_to_H(phi, frame):
    """Slice Z by A(x)H.V; raises NonTransverse when the intersection is too
    big (rank of the restricted quotient below f)."""
    tframe = transform_fform_tensor(phi.t, frame)
    full = FFormQuotient(phi.a, phi.f, tframe, phi.prime).phi_matrix()
    phi_h = _restrict_rows(full, phi.a)
    if phi.f:
        r = exactalg.rank(phi_h, phi.prime)
        if r < phi.f:
            raise NonTransverse(
                f"dim Z' = {9 * phi.a - r} exceeds 9a - f = {9 * phi.a - phi.f}"
            )
    return HSliceZ(phi, frame, tframe, phi_h)


def _hcols_matrix(u_rows, a, p):
    """The 3e x 4a matrix of an e-row covector family on A(x)H.V: row (s,p)
    for p in 1..3, entry at column (j,q) equal to the value on
    alpha_j (x) v_p v_q."""
    e = u_rows.shape[0]
    out = np.zeros((3 * e, 4 * a), dtype=np.int64)
    for s in range(e):
        for pp in range(1, 4):
            for qq in range(1, 5):
                i = pair_index(pp, qq)
                hv_pos = HV_MONO_INDICES.index(i)
                col_of = u_rows[s, hv_pos::9]
                out[s * 3 + (pp - 1), (qq - 1)::4] = col_of
    return out


def fstar_ZT(hslice, extra=()):
    """Stacked matrix (4f + 3(f+e)) x 4a for the subspace T of Z' cut by e
    extra covectors on A(x)H.V (empty extra means T = Z').

    Top block: gstar in frame coordinates.  Bottom block: the H-column
    matrix of the full quotient [Phi_H; extra] of T."""
    p = hslice.phi.prime
    a, f = hslice.a, hslice.f
    extra = [np.asarray(g, dtype=np.int64) % p for g in extra]
    e = len(extra)
    u = np.vstack([hslice.phi_h] + [g.reshape(1, -1) for g in extra]) if e else hslice.phi_h
    if exactalg.rank(u, p) != f + e:
        raise ValueError("extra covectors are dependent on Z'")
    top = FFormQuotient(a, f, hslice.tframe, p)
    return np.vstack([gstar(top), _hcols_matrix(u, a, p)])


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
    full = assemble_md(mf, 1)
    rows = [j * 10 + i for j in range(m.a) for i in HV_MONO_INDICES]
    cols = [i * 4 + l for i in range(m.b) for l in (0, 1, 2)]
    return np.ascontiguousarray(full[np.ix_(rows, cols)])


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
    extra = [np.asarray(g, dtype=np.int64) % p for g in extra]
    u = (
        np.vstack([hslice.phi_h] + [g.reshape(1, -1) for g in extra])
        if extra
        else hslice.phi_h
    )
    mh = mh1(m, frame)
    lhs = lhs and not exactalg.matmul_mod(u, mh, p).any()
    top = FFormQuotient(m.a, phi.f, hslice.tframe, p)
    stacked = np.vstack([gstar(top), _hcols_matrix(u, m.a, p)])
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
