"""F-form quotients of A(x)S^2V, the induced map on A(x)V, rank invariants
of subspaces, hyperplane restriction, and the transport of annihilation
conditions between the two pictures."""

import numpy as np
import pytest
from test_multilin import pair_index

from steinerlab import exactalg, subspace
from steinerlab.multilin import (
    HV_MONO_INDICES,
    MONO_PQ,
    HyperplaneFrame,
    random_frame,
)
from steinerlab.steiner import (
    SteinerPresentation,
    assemble_md,
    presentation_in_span,
)
from steinerlab.strata import find_rank0
from steinerlab.subspace import (
    FFormQuotient,
    NonTransverse,
    ZSlice,
    fstar_ZT,
    gstar,
    mh1,
    transport_check,
    transport_trial,
    vstar_rank,
    witness_z,
    z_rank,
    zslice,
    zstar_basis,
)

P = exactalg.DEFAULT_PRIME


def _diag_quadric(diag):
    t = np.zeros((1, 1, 4, 4), dtype=np.int64)
    t[0, 0] = np.diag(np.asarray(diag, dtype=np.int64))
    return FFormQuotient(t, P)


def test_quadric_gram():
    phi = _diag_quadric([1, 1, 1, 1])
    G = gstar(phi)
    assert G.shape == (4, 4)
    assert np.array_equal(G, np.eye(4, dtype=np.int64))
    assert vstar_rank(phi) == 4


def test_degenerate_quadric_rank():
    phi = _diag_quadric([1, 1, 0, 0])
    assert vstar_rank(phi) == 2
    zs = zstar_basis(phi)
    assert len(zs) == 2
    for v in zs:
        assert not exactalg.matmul_mod(gstar(phi), v.reshape(-1, 1), P).any()


def test_symmetry_validation():
    t = np.zeros((1, 1, 4, 4), dtype=np.int64)
    t[0, 0, 0, 1] = 1
    with pytest.raises(ValueError):
        FFormQuotient(t, P)


def test_from_tensor_rank_check():
    t = np.zeros((2, 1, 4, 4), dtype=np.int64)
    t[0, 0] = np.eye(4, dtype=np.int64)
    t[1, 0] = np.eye(4, dtype=np.int64)
    # the dataclass constructor checks only shape and symmetry, not that
    # the covectors are independent
    q = FFormQuotient(t, P)
    assert (q.a, q.f) == (1, 2)


def test_zero_row_quotient_round_trip(rng):
    # f = 0: no covectors, but the layout still has 10a (resp. 9a) columns
    phi = FFormQuotient.random(rng, 3, 0, P)
    mat = phi.phi_matrix()
    assert mat.shape == (0, 30)
    hs = zslice(phi, random_frame(rng, P))
    assert hs.rows.shape == (0, 27)
    assert fstar_ZT(hs).shape == (0, 12)
    assert z_rank(hs) == 0
    # the general path on 0-row matrices: Z* is all of A(x)V, and no
    # covector has a rank-0 symmetry witness
    assert np.array_equal(zstar_basis(phi), np.eye(12, dtype=np.int64))
    empty = FFormQuotient(np.zeros((0, 2, 4, 4), dtype=np.int64), P)
    assert np.array_equal(zstar_basis(empty), np.eye(8, dtype=np.int64))
    assert vstar_rank(phi) == 0
    assert find_rank0(zslice(phi)) is None
    assert find_rank0(hs) is None


def test_phi_matrix_layout(rng):
    # coordinate (j, x_p x_q) of A(x)S^2V sits at column j * 10 + pair index
    phi = FFormQuotient.random(rng, 3, 2, P)
    mat = phi.phi_matrix()
    assert mat.shape == (2, 30)
    for s in range(2):
        for j in range(3):
            for p in range(1, 5):
                for q in range(p, 5):
                    assert mat[s, j * 10 + pair_index(p, q)] == \
                        phi.t[s, j, p - 1, q - 1]


def test_witness_vstar_rank_small_grid():
    for a in range(1, 5):
        for f in range(1, a + 1):
            phi = witness_z(a, f, P)
            assert vstar_rank(phi) == 4 * f
            assert gstar(phi).shape == (4 * f, 4 * a)


def test_random_vstar_rank_is_maximal(rng):
    for a, f in [(2, 1), (4, 2), (6, 3)]:
        phi = FFormQuotient.random(rng, a, f, P)
        assert vstar_rank(phi) == 4 * f


def test_zstar_and_subspace_dims(rng):
    phi = FFormQuotient.random(rng, 3, 1, P)
    zs = zstar_basis(phi)
    assert len(zs) == 12 - 4


def test_z_rank_generic_hyperplane():
    rng = np.random.default_rng(42)
    phi = FFormQuotient.random(rng, 6, 2, P)
    g = rng.integers(0, P, size=60, dtype=np.int64)
    assert z_rank(zslice(phi), [g]) == 4


def test_z_rank_monotone_bounded(rng):
    sl = zslice(FFormQuotient.random(rng, 5, 1, P))
    prev = 0
    extras = []
    for _ in range(3):
        extras.append(rng.integers(0, P, size=50, dtype=np.int64))
        cur = z_rank(sl, extras)
        assert prev <= cur <= prev + 4
        prev = cur


def test_stack_quotient_rejects_dependent(rng):
    phi = FFormQuotient.random(rng, 3, 2, P)
    row = phi.phi_matrix()[0]
    with pytest.raises(ValueError,
                       match="extra covectors are dependent on the quotient"):
        z_rank(zslice(phi), [row])


def test_restrict_to_h_generic(rng):
    phi = FFormQuotient.random(rng, 4, 1, P)
    frame = random_frame(rng, P)
    hs = zslice(phi, frame)
    assert isinstance(hs, ZSlice)
    assert (hs.n, hs.rows.shape) == (3, (1, 36))
    # dim Z' = 9a - rank Phi_H = 9a - f
    assert exactalg.rank(hs.rows, P) == 1


def test_restrict_to_h_drops_x4_squared(rng):
    # Phi_H is the frame quotient on A(x)S^2V without each block's x4^2
    phi = FFormQuotient.random(rng, 3, 2, P)
    hs = zslice(phi, random_frame(rng, P))
    full = FFormQuotient(hs.t, P).phi_matrix()
    cols = [j * 10 + i for j in range(3) for i in HV_MONO_INDICES]
    assert np.array_equal(hs.rows, full[:, cols])


def test_restrict_to_h_transversality():
    # the quadric x4^2 restricts to zero on the hyperplane x4 = 0
    phi = _diag_quadric([0, 0, 0, 1])
    with pytest.raises(NonTransverse):
        zslice(phi, HyperplaneFrame.from_covector((0, 0, 0, 1), P))


def test_zh_rank_examples():
    rng = np.random.default_rng(7)
    phi = FFormQuotient.random(rng, 4, 1, P)
    frame = random_frame(rng, P)
    hs = zslice(phi, frame)
    g = rng.integers(0, P, size=36, dtype=np.int64)
    assert z_rank(hs, [g]) == 3

    phi5 = FFormQuotient.random(rng, 5, 1, P)
    hs5 = zslice(phi5, random_frame(rng, P))
    gs = [rng.integers(0, P, size=45, dtype=np.int64) for _ in range(2)]
    assert z_rank(hs5, gs) == 6


def test_zh_rank_of_zprime_itself(rng):
    # T = Z' adds no covector beyond Phi_H, so the excess rank is zero
    phi = FFormQuotient.random(rng, 4, 2, P)
    hs = zslice(phi, random_frame(rng, P))
    assert z_rank(hs) == 0


def test_fstar_shape_and_dependent_extras(rng):
    phi = FFormQuotient.random(rng, 4, 1, P)
    hs = zslice(phi, random_frame(rng, P))
    M = fstar_ZT(hs, [rng.integers(0, P, size=36, dtype=np.int64)])
    # 4f rows of gstar in frame coordinates, 3e rows for the e extras
    assert M.shape == (4 * 1 + 3 * 1, 16)
    with pytest.raises(ValueError):
        fstar_ZT(hs, [hs.rows[0]])



def test_fstar_without_extras_reads_the_slice_echelon(rng, monkeypatch):
    # the rows' rank comes from the cached echelon form, not a new rank
    phi = FFormQuotient.random(rng, 3, 2, P)
    sl, hs = zslice(phi), zslice(phi, random_frame(rng, P))

    def no_rank(*args):
        raise AssertionError("rows ranked again")

    monkeypatch.setattr(exactalg, "rank", no_rank)
    assert fstar_ZT(sl).shape == (8, 12)
    assert fstar_ZT(hs).shape == (8, 12)
    # dependent quotient rows are still rejected
    t = np.concatenate([phi.t[:1], phi.t[:1]])
    with pytest.raises(ValueError):
        fstar_ZT(zslice(FFormQuotient(t, P)))


@pytest.mark.parametrize("variant", ["full", "hyper", "combined"])
def test_transport_trial_builds_one_slice(variant, monkeypatch):
    built = []
    orig = subspace.zslice

    def record(*args):
        built.append(args)
        return orig(*args)

    monkeypatch.setattr(subspace, "zslice", record)
    for trial in range(3):
        assert transport_trial(variant, trial, seed=1, p=P)
    assert len(built) == 3


def hcols_by_loops(u_rows, a):
    """The H-column matrix of an e-row covector family on A(x)H.V written
    out entry by entry: row (s, p) for p in 1..3, column (j, q) holding the
    value on alpha_j (x) v_p v_q.  The reference for fstar_ZT's bottom
    block on Z'."""
    e = u_rows.shape[0]
    out = np.zeros((3 * e, 4 * a), dtype=np.int64)
    for s in range(e):
        for pp in range(1, 4):
            for qq in range(1, 5):
                hv_pos = HV_MONO_INDICES.index(pair_index(pp, qq))
                out[s * 3 + (pp - 1), (qq - 1)::4] = u_rows[s, hv_pos::9]
    return out


def test_fstar_blocks_match_loop_reference(rng):
    for trial in range(12):
        a, f = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        e = trial % 3
        phi = FFormQuotient.random(rng, a, f, P)
        hs = zslice(phi, random_frame(rng, P))
        extra = [rng.integers(0, P, size=9 * a, dtype=np.int64)
                 for _ in range(e)]
        M = fstar_ZT(hs, extra)
        assert M.shape == (4 * f + 3 * e, 4 * a)
        top = gstar(FFormQuotient(hs.t, P))
        assert np.array_equal(M[:4 * f], top)
        if e:
            assert np.array_equal(M[4 * f:],
                                  hcols_by_loops(np.vstack(extra), a))
        # the dropped rows, Phi_H's H-columns, are the top block's p <= 3
        # rows
        drop = hcols_by_loops(hs.rows, a).reshape(f, 3, 4 * a)
        assert np.array_equal(drop, top.reshape(f, 4, 4 * a)[:, :3])


def stacked_by_loops(t, u, a, framed):
    """The stacked system as built before the quotient's own rows were
    dropped from it: gstar of the tensor t over the rows p < n of the whole
    quotient u = [rows; extra] of T, n = 3 on A(x)H.V and 4 on A(x)S^2V,
    written out entry by entry."""
    n = 3 if framed else 4
    coords = [MONO_PQ[i] for i in (HV_MONO_INDICES if framed else range(10))]
    k = len(coords)
    bottom = np.zeros((n * len(u), 4 * a), dtype=np.int64)
    for s in range(len(u)):
        for i, (pp, qq) in enumerate(coords):
            for j in range(a):
                if pp < n:
                    bottom[s * n + pp, j * 4 + qq] = u[s, j * k + i]
                if qq < n:
                    bottom[s * n + qq, j * 4 + pp] = u[s, j * k + i]
    return np.vstack([gstar(FFormQuotient(t, P)), bottom])


def test_fstar_matches_stacked_reference(rng):
    # dropping the quotient's own rows changes neither the rank nor the
    # canonical kernel basis, on Z and on Z'
    for trial in range(24):
        a, f = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        e, framed = trial % 3, bool(trial % 2)
        phi = FFormQuotient.random(rng, a, f, P)
        sl = zslice(phi, random_frame(rng, P) if framed else None)
        width = 9 * a if framed else 10 * a
        extra = [rng.integers(0, P, size=width, dtype=np.int64)
                 for _ in range(e)]
        M = fstar_ZT(sl, extra)
        u = np.vstack([sl.rows] + [g.reshape(1, -1) for g in extra])
        ref = stacked_by_loops(sl.t, u, a, framed)
        assert M.shape == (4 * f + (3 if framed else 4) * e, 4 * a)
        assert exactalg.rank(M, P) == exactalg.rank(ref, P)
        got, want = (exactalg.kernel_basis(X, P) for X in (M, ref))
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_mh1_x4_frame_is_deletion(rng):
    m = SteinerPresentation.random(rng, 2, 5, P)
    mh = mh1(m.in_frame(HyperplaneFrame.from_covector((0, 0, 0, 1), P)))
    full = assemble_md(m, 1)
    rows = [j * 10 + i for j in range(2) for i in range(9)]
    cols = [i * 4 + l for i in range(5) for l in (0, 1, 2)]
    assert np.array_equal(mh, full[np.ix_(rows, cols)])
    assert mh.shape == (18, 15)


def test_transport_full_constructed_positive(rng):
    a, f, b = 3, 1, 5
    phi = FFormQuotient.random(rng, a, f, P)
    m = presentation_in_span(zstar_basis(phi), b, rng, P)
    assert transport_check(m, zslice(phi)) == (True, True)


def test_transport_full_random_negative(rng):
    phi = FFormQuotient.random(rng, 3, 1, P)
    m = SteinerPresentation.random(rng, 3, 5, P)
    lhs, rhs = transport_check(m, zslice(phi))
    assert lhs == rhs
    assert not lhs


def test_transport_framed_positive(rng):
    a, f, b = 3, 1, 4
    phi = FFormQuotient.random(rng, a, f, P)
    frame = random_frame(rng, P)
    hs = zslice(phi, frame)
    extra = [rng.integers(0, P, size=9 * a, dtype=np.int64)]
    stacked = fstar_ZT(hs, extra)
    kern = exactalg.kernel_basis(stacked, P)
    assert len(kern)
    mf = presentation_in_span(kern, b, rng, P)
    m = SteinerPresentation(exactalg.evaluate_linear(mf.Ms, frame.P, P), P)
    assert transport_check(m, hs, extra) == (True, True)
    # and without the extra covector the equivalence still holds
    lhs, rhs = transport_check(m, hs)
    assert lhs == rhs


def test_transport_framed_random_negative(rng):
    phi = FFormQuotient.random(rng, 3, 1, P)
    frame = random_frame(rng, P)
    m = SteinerPresentation.random(rng, 3, 5, P)
    lhs, rhs = transport_check(m, zslice(phi, frame))
    assert lhs == rhs
    assert not lhs

