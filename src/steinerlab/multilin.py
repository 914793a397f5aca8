"""Monomial bases of symmetric powers of a 4-dimensional space, their
indexing, and hyperplane frames.

All matrix indexings in the package rely on one global convention:

* monomials of degree d are ordered graded-lexicographically, descending,
  so (d,0,0,0) comes first and (0,0,0,d) last; the basis has C(d+3,3)
  elements;
* a tensor-product space A (x) S^dV is indexed by
  (index in A) * dim S^dV + (monomial index);
* a covector on A (x) S^2V is also read as a coefficient tensor
  t[j, p, q], symmetric in (p, q), whose coordinate at (j, x_p x_q) is the
  block entry MONO_PQ gives; every module reads A (x) S^2V and its
  hyperplane part A (x) H.V through MONO_PQ and HV_MONO_INDICES.

A hyperplane H of V is carried by a nonzero covector h together with an
invertible change of basis P whose first three columns span ker h.  In the
new coordinates H is {x4 = 0} and the 9-dimensional product space H.V inside
S^2V is spanned by all degree-2 monomials except x4^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import exactalg


def dim_sym(d):
    """dim S^dV for dim V = 4."""
    if d < 0:
        return 0
    return comb(d + 3, 3)


@lru_cache(maxsize=None)
def mono_basis(d):
    """All exponent 4-tuples of total degree d, graded-lex descending."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    out = []
    for e1 in range(d, -1, -1):
        for e2 in range(d - e1, -1, -1):
            for e3 in range(d - e1 - e2, -1, -1):
                out.append((e1, e2, e3, d - e1 - e2 - e3))
    assert len(out) == dim_sym(d)
    return tuple(out)


# x4^2 is the one degree-2 monomial outside H.V in the normalized frame; all
# nine others, in basis order, index the coordinates of A (x) H.V
HV_MONO_INDICES = tuple(i for i in range(10) if mono_basis(2)[i] != (0, 0, 0, 2))

# the (p, q) position, 0-based with p <= q, of each degree-2 monomial
# x_{p+1} x_{q+1} in a symmetric 4 x 4 block, in basis order: the coordinate
# of A (x) S^2V at (j, i) reads entry (j, *MONO_PQ[i]) of a coefficient
# tensor t[..., j, p, q], and A (x) H.V keeps the HV_MONO_INDICES among them
MONO_PQ = tuple(
    tuple(k for k, c in enumerate(e) for _ in range(c)) for e in mono_basis(2)
)


@dataclass(frozen=True)
class HyperplaneFrame:
    """A hyperplane H = ker h of V with a basis adapted to it.

    P's columns are v1, v2, v3, v4 with v1..v3 spanning H; coordinates in the
    v-basis make H the locus {x4 = 0}.  Pinv converts standard coordinates to
    frame coordinates.
    """

    P: np.ndarray
    Pinv: np.ndarray
    prime: int

    @classmethod
    def from_covector(cls, h, p=exactalg.DEFAULT_PRIME):
        """The frame of ker h, in closed form.

        With j the first nonzero entry of h and f running over the other
        three indices in order, v_i = e_f - (h_f / h_j) e_j is the canonical
        kernel basis of the row h (the one its reduced echelon form gives)
        and v4 = e_j.  The inverse has row e_f^T for each v_i and last row
        h / h_j: it sends v_i to e_i because h(v_i) = 0, and e_j to e_4.
        """
        hvec = np.mod(np.asarray(h, dtype=np.int64).reshape(4), p)
        if not hvec.any():
            raise ValueError("hyperplane covector must be nonzero")
        j = int(np.flatnonzero(hvec)[0])
        hj_inv = pow(int(hvec[j]), -1, p)
        P = np.zeros((4, 4), dtype=np.int64)
        Pinv = np.zeros((4, 4), dtype=np.int64)
        for i, f in enumerate(k for k in range(4) if k != j):
            P[f, i] = 1
            P[j, i] = -int(hvec[f]) * hj_inv % p
            Pinv[i, f] = 1
        P[j, 3] = 1
        Pinv[3] = hvec * hj_inv % p
        return cls(P, Pinv, p)


def random_covector(rng, p=exactalg.DEFAULT_PRIME):
    """A nonzero covector h on V, drawn as rng.integers(0, p, 4) until one
    is nonzero."""
    while True:
        h = rng.integers(0, p, size=4, dtype=np.int64)
        if h.any():
            return h


def random_frame(rng, p=exactalg.DEFAULT_PRIME):
    return HyperplaneFrame.from_covector(random_covector(rng, p), p)


def transform_presentation(Ms, Q, p=exactalg.DEFAULT_PRIME):
    """Rewrite the (4, a, b) coefficient array of m under the change of
    coordinates Q on V: M'_l = sum_k Q[l,k] M_k.

    With Q = frame.Pinv this gives m in frame coordinates: if
    m(e_i) = sum_k M_k[j,i] alpha_j (x) x_k, then M'_l is the coefficient of
    v_l.  Q = frame.P goes back from frame to standard coordinates.
    """
    out = np.einsum("lk,kab->lab", np.asarray(Q, dtype=np.int64),
                    np.asarray(Ms, dtype=np.int64))
    return np.mod(out, p)


def transform_fform_tensor(t, frame):
    """Rewrite a coefficient tensor t[s,j,p,q] in frame coordinates:
    t'[s,j,p,q] = sum_{k,l} P[k,p] P[l,q] t[s,j,k,l]."""
    p = frame.prime
    t = np.asarray(t, dtype=np.int64)
    out = np.einsum("kp,lq,sjkl->sjpq", frame.P, frame.P, t)
    return np.mod(out, p)
