"""Monomial bookkeeping for symmetric powers of a 4-variable space, and
hyperplane coordinate frames."""

import numpy as np
import pytest
from test_exactalg import inv_matrix

from steinerlab import exactalg
from steinerlab.multilin import (
    HV_MONO_INDICES,
    MONO_PQ,
    HyperplaneFrame,
    dim_sym,
    mono_basis,
    random_frame,
    transform_fform_tensor,
    transform_presentation,
)

P = exactalg.DEFAULT_PRIME


def pair_index(p, q):
    """Index of x_p x_q (1-based p, q) in the degree-2 basis; the oracle
    other test modules import for the monomial layout."""
    e = [0, 0, 0, 0]
    e[p - 1] += 1
    e[q - 1] += 1
    return mono_basis(2).index(tuple(e))


def test_dim_sym():
    assert [dim_sym(d) for d in range(6)] == [1, 4, 10, 20, 35, 56]


def test_mono_basis_order_degree2():
    basis = mono_basis(2)
    assert len(basis) == 10
    assert basis[0] == (2, 0, 0, 0)
    assert basis[-1] == (0, 0, 0, 2)
    assert basis.index((0, 0, 0, 2)) == 9
    # graded lex, descending: exponent tuples strictly decrease
    for i in range(9):
        assert basis[i] > basis[i + 1]


def test_mono_basis_generic_degree():
    for d in (0, 1, 3, 4):
        basis = mono_basis(d)
        assert len(basis) == dim_sym(d)
        assert all(sum(m) == d for m in basis)
        assert len(set(basis)) == len(basis)


def test_pair_index():
    basis = mono_basis(2)
    for p in range(1, 5):
        for q in range(1, 5):
            assert pair_index(p, q) == pair_index(q, p)
            mono = [0, 0, 0, 0]
            mono[p - 1] += 1
            mono[q - 1] += 1
            assert basis[pair_index(p, q)] == tuple(mono)


def test_hv_mono_indices():
    assert HV_MONO_INDICES == tuple(range(9))


def test_mono_pq_agrees_with_pair_index():
    assert len(MONO_PQ) == 10
    for p in range(1, 5):
        for q in range(p, 5):
            assert MONO_PQ[pair_index(p, q)] == (p - 1, q - 1)


def test_frame_from_covector(rng):
    for _ in range(10):
        h = rng.integers(0, P, size=4, dtype=np.int64)
        if not h.any():
            continue
        fr = HyperplaneFrame.from_covector(h, P)
        PM = fr.P
        assert exactalg.rank(PM, P) == 4
        assert np.array_equal(
            exactalg.matmul_mod(PM, fr.Pinv, P), np.eye(4, dtype=np.int64)
        )
        # the first three columns span the kernel of h
        hits = exactalg.matmul_mod(h.reshape(1, 4), PM[:, :3], P)
        assert not hits.any()



def _eliminated_frame(h, p):
    """P from the kernel basis of the row h, e_j appended, and its inverse
    by elimination."""
    hvec = np.mod(np.asarray(h, dtype=np.int64), p)
    j = int(np.flatnonzero(hvec)[0])
    P_ = np.zeros((4, 4), dtype=np.int64)
    for i, v in enumerate(exactalg.kernel_basis(hvec.reshape(1, 4), p)):
        P_[:, i] = v
    P_[j, 3] = 1
    return P_, inv_matrix(P_, p)


@pytest.mark.parametrize("p", [5, 7, 11, 32003, 1048573])
def test_frame_closed_form_matches_elimination(rng, p):
    for j in range(4):
        for _ in range(25):
            h = rng.integers(0, p, size=4, dtype=np.int64)
            h[:j] = 0
            h[j] = rng.integers(1, p)
            fr = HyperplaneFrame.from_covector(h, p)
            P_, Pinv = _eliminated_frame(h, p)
            assert np.array_equal(fr.P, P_)
            assert np.array_equal(fr.Pinv, Pinv)


def test_frame_rejects_zero_covector():
    with pytest.raises(ValueError):
        HyperplaneFrame.from_covector([0, 0, 0, 0], P)


def test_frame_x4_is_identity():
    fr = HyperplaneFrame.from_covector((0, 0, 0, 1))
    assert np.array_equal(fr.P, np.eye(4, dtype=np.int64))
    assert np.array_equal(fr.Pinv, np.eye(4, dtype=np.int64))


def test_presentation_transform_round_trip(rng):
    fr = random_frame(rng, P)
    Ms = [rng.integers(0, P, size=(3, 7), dtype=np.int64) for _ in range(4)]
    there = transform_presentation(Ms, fr.Pinv, P)
    out = transform_presentation(there, fr.P, P)
    for M, M2 in zip(Ms, out):
        assert np.array_equal(M, M2)
    back = transform_presentation(Ms, fr.P, P)
    out = transform_presentation(back, fr.Pinv, P)
    for M, M2 in zip(Ms, out):
        assert np.array_equal(M, M2)


def test_presentation_transform_x4_identity(rng):
    Ms = [rng.integers(0, P, size=(2, 5), dtype=np.int64) for _ in range(4)]
    fr = HyperplaneFrame.from_covector((0, 0, 0, 1))
    out = transform_presentation(Ms, fr.Pinv, P)
    for M, M2 in zip(Ms, out):
        assert np.array_equal(M, M2)


def test_fform_tensor_transform(rng):
    fr = random_frame(rng, P)
    raw = rng.integers(0, P, size=(2, 3, 4, 4), dtype=np.int64)
    t = np.mod(raw + raw.transpose(0, 1, 3, 2), P)
    out = transform_fform_tensor(t, fr)
    assert out.shape == t.shape
    assert np.array_equal(out, np.mod(out.transpose(0, 1, 3, 2), P))
    x4 = HyperplaneFrame.from_covector((0, 0, 0, 1))
    assert np.array_equal(transform_fform_tensor(t, x4), t)
