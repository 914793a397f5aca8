"""Presentations of kernel bundles, their degree-d multiplication maps, and
the cohomology bookkeeping built on top of them."""

import dataclasses
import io
from math import comb

import numpy as np
import pytest
from test_backends import oracle_rref

from steinerlab import exactalg, pwcurves, steiner, subspace
from steinerlab.multilin import dim_sym, mono_basis
from steinerlab.steiner import (
    NotLocallyFree,
    SteinerPresentation,
    assemble_md,
    chi3,
    cohomology_table,
    euler_char,
    horace_surjective,
    read_presentation,
    surjectivity_certificate,
    write_presentation,
)

P = exactalg.DEFAULT_PRIME


def _coker(M, p):
    """dim coker M, from the dense rank (a test oracle)."""
    return len(M) - exactalg.rank(M, p)


def test_chi3():
    assert [chi3(t) for t in range(5)] == [1, 4, 10, 20, 35]
    assert chi3(-1) == chi3(-2) == chi3(-3) == 0
    assert chi3(-4) == -1
    assert chi3(-5) == -4


def test_euler_char():
    # kernel bundle of a generic 1x4 presentation: chi(k) = 4*chi3(k) - chi3(k+1)
    assert euler_char(1, 4, 0) == 0
    assert euler_char(1, 4, 1) == 6
    assert euler_char(1, 4, -1) == -1
    assert euler_char(3, 8, 1) == 8 * chi3(1) - 3 * chi3(2)


def test_assemble_shapes(rng):
    m = SteinerPresentation.random(rng, 2, 7, P)
    for d in range(4):
        A = assemble_md(m, d)
        assert A.shape == (2 * dim_sym(d + 1), 7 * dim_sym(d))
    # degree 0: row (j, x_k) of the stack sits at index j*4 + (k-1)
    A0 = assemble_md(m, 0)
    for k in range(4):
        assert np.array_equal(A0[k::4, :], m.Ms[k])
    # degree 2, against a loop over the layout: column (i, mu) holds
    # M_k[:, i] at the rows (j, mu*x_k) and nothing else
    D0, D1 = dim_sym(2), dim_sym(3)
    ref = np.zeros((2 * D1, 7 * D0), dtype=np.int64)
    for ci, mu in enumerate(mono_basis(2)):
        for k in range(4):
            lifted = list(mu)
            lifted[k] += 1
            r = mono_basis(3).index(tuple(lifted))
            for j in range(2):
                for i in range(7):
                    ref[j * D1 + r, i * D0 + ci] = m.Ms[k][j, i]
    assert np.array_equal(assemble_md(m, 2), ref)


def test_single_column_rank():
    # one generic column: m(1) is 10 x 4 of rank 4
    rng = np.random.default_rng(5)
    m = SteinerPresentation.random(rng, 1, 1, P)
    A = assemble_md(m, 1)
    assert A.shape == (10, 4)
    assert exactalg.rank(A, P) == 4


def test_generic_1_4(rng):
    m = SteinerPresentation.random(rng, 1, 4, P)
    A = assemble_md(m, 1)
    assert A.shape == (10, 16)
    assert exactalg.rank(A, P) == 10
    cert = surjectivity_certificate(m, 5)
    assert cert.found and cert.d0 == 1
    # once surjective, stays surjective
    for d in (1, 2, 3):
        assert _coker(assemble_md(m, d), P) == 0


def test_zero_presentation():
    m = SteinerPresentation(np.zeros((4, 2, 5), dtype=np.int64), P)
    assert _coker(assemble_md(m, 0), P) == 2 * dim_sym(1)
    cert = surjectivity_certificate(m, 3)
    assert not cert.found
    assert list(cert.checked) == [(1, 2 * dim_sym(2)), (2, 2 * dim_sym(3)),
                                  (3, 2 * dim_sym(4))]
    with pytest.raises(NotLocallyFree):
        cohomology_table(m, -2, 2, cert)


def test_columns_round_trip(rng):
    m = SteinerPresentation.random(rng, 3, 5, P)
    cols = m.columns()
    assert cols.shape == (12, 5)
    # entry (j*4 + k, i) is M_k[j, i]
    for k in range(4):
        assert np.array_equal(cols[k::4, :], m.Ms[k])


def test_cohomology_table_1_4(rng):
    m = SteinerPresentation.random(rng, 1, 4, P)
    tab = cohomology_table(m, -6, 4, surjectivity_certificate(m))
    # kernel bundle of a generic 1x4 presentation: rank 3, c1 = -1
    h0 = {k: tab.row(k)[1] for k in range(-6, 5)}
    h1 = {k: tab.row(k)[2] for k in range(-6, 5)}
    assert h0[0] == 0 and h1[0] == 0
    assert h0[1] == 6 and h1[1] == 0
    for k, h0k, h1k, h2k, h3k, chik in tab.rows:
        assert h0k - h1k + h2k - h3k == chik
        assert chik == euler_char(1, 4, k)
        assert h2k == 0
        assert min(h0k, h1k, h2k, h3k) >= 0


def _dual_h0(m, j):
    """h0 of the Serre-dual bundle twisted by j, j >= 0, via the transposed
    presentation t with matrices M_k^T (a test oracle):

        b*C(j+3,3) - a*C(j+2,3) + dim ker t(j-1).
    """
    a, b, p = m.a, m.b, m.prime
    base = b * dim_sym(j) - a * dim_sym(j - 1)
    if j == 0:
        return base
    td = assemble_md(SteinerPresentation(m.Ms.transpose(0, 2, 1), p), j - 1)
    return base + td.shape[1] - exactalg.rank(td, p)


def test_dual_h0_example(rng):
    m = SteinerPresentation.random(rng, 1, 4, P)
    assert _dual_h0(m, 1) == 15
    assert _dual_h0(m, 0) == 4


def test_serre_duality_cross_check(rng):
    m = SteinerPresentation.random(rng, 2, 6, P)
    tab = cohomology_table(m, -6, -4, surjectivity_certificate(m))
    for k in range(-6, -3):
        assert tab.row(k)[4] == _dual_h0(m, -k - 4)


def test_cohomology_rows_well_formed(rng):
    m = SteinerPresentation.random(rng, 2, 5, P)
    cert = surjectivity_certificate(m)
    tab = cohomology_table(m, -3, 3, cert)
    assert [r[0] for r in tab.rows] == list(range(-3, 4))
    dicts = tab.as_dicts()
    assert dicts[0].keys() == {"k", "h0", "h1", "h2", "h3", "chi"}
    with pytest.raises(KeyError):
        tab.row(99)
    # the window, k_min and k_max, is read off the rows, so it is never empty
    assert (tab.k_min, tab.k_max) == (-3, 3)
    with pytest.raises(ValueError):
        cohomology_table(m, 3, 2, cert)


def test_propagation_matches_direct_rank(rng):
    # rows at twists >= d0 may be filled by the closed form; the direct
    # kernel/cokernel of m(k) must give the same numbers
    m = SteinerPresentation.random(rng, 2, 6, P)
    cert = surjectivity_certificate(m, 5)
    tab = cohomology_table(m, cert.d0, cert.d0 + 2, cert)
    for k in range(cert.d0, cert.d0 + 3):
        A = assemble_md(m, k)
        r = exactalg.rank(A, P)
        h0 = A.shape[1] - r
        h1 = A.shape[0] - r
        assert tab.row(k)[1] == h0
        assert tab.row(k)[2] == h1


def test_md_rank_matches_oracle():
    # from m(3) on the rank reaches the row count before the last panel,
    # so the rank-only sweep skips that panel's update and stops there
    m = pwcurves.sample_pw(3, 8, 1, seed=0, p=P).m
    for d in range(6):
        A = assemble_md(m, d)
        assert exactalg.rank(A, P) == oracle_rref(A, P)[1]


def test_horace_certificates_have_full_dense_rank():
    # each `verify curve` sample (A, 3A, 1): every m(d) the x1-split
    # certifies up to the critical degree A - 3 has dense rank equal to its
    # row count, and the critical degree itself is certified
    for A in (7, 8, 9, 10):
        m = pwcurves.sample_pw(A, 3 * A, 1, seed=0, p=P).m
        certified = [d for d in range(A - 2) if horace_surjective(m, d)]
        assert A - 3 in certified
        for d in certified:
            assert _coker(assemble_md(m, d), P) == 0


def _deficient(rng, a, b, p):
    """A random a x b matrix of rank below a (a >= 1)."""
    M = exactalg.random_matrix(rng, a, b, p)
    M[-1] = 0 if a == 1 else M[0]
    return M


@pytest.mark.parametrize("p", [5, 7, P])
def test_horace_never_certifies_a_cokernel(p):
    # the dense rank is the oracle.  The draws mix generic presentations,
    # ones with a deficient M1, and ones inside the kernel Z* of a random
    # quotient, whose m(1) has a cokernel while its split stack is square
    # or wide; small primes make deficient draws common
    rng = np.random.default_rng(p)
    certified = cokernels = wide_cokernels = 0
    for trial in range(120):
        kind = trial % 3
        if kind == 2:
            a = int(rng.integers(4, 6))
            phi = subspace.FFormQuotient.random(rng, a, 1, p)
            zs = subspace.zstar_basis(phi)
            m = steiner.presentation_in_span(zs, 3 * a, rng, p)
            d = 1
        else:
            a = int(rng.integers(1, 4))
            b = int(rng.integers(a, 4 * a + 1))
            d = int(rng.integers(0, 4))
            m = SteinerPresentation.random(rng, a, b, p)
            if kind == 1:
                m = SteinerPresentation(
                    np.concatenate([[_deficient(rng, a, b, p)], m.Ms[1:]]),
                    p)
        cert = horace_surjective(m, d)
        coker = _coker(assemble_md(m, d), p)
        assert cert in (True, None)
        if cert:
            assert coker == 0, (trial, a, m.b, d)
            certified += 1
        elif coker:
            cokernels += 1
            wide_cokernels += m.b >= a * (1 + (d + 3) / (d + 1))
    assert certified and cokernels and wide_cokernels


def test_horace_needs_m1_of_full_rank(rng):
    # at (3, 8) the plane map of m(2) is 30 x 30 and onto, so the split
    # certifies m(2) from its square S_d; at d = 3 it is 45 x 50
    m = pwcurves.sample_pw(3, 8, 1, seed=0, p=P).m
    assert "splits" not in vars(m)
    assert horace_surjective(m, 2) is True
    assert "splits" in vars(m)
    assert horace_surjective(m, 3) is True
    low = SteinerPresentation(
        np.concatenate([[_deficient(rng, 3, 8, P)], m.Ms[1:]]), P)
    assert horace_surjective(low, 3) is None
    assert low.splits is None


def _stack(m, d):
    """The x1-split as first stated: column group 0 of m(d) against row
    groups 0 and 1, that is m'(d) on the plane x1 = 0 over M1(x)id."""
    rows = [i for i, nu in enumerate(mono_basis(d + 1)) if nu[0] <= 1]
    return steiner._scatter_md(m, d, steiner._tail(d, 1), np.array(rows))


@pytest.mark.parametrize("p", [5, 7, P])
def test_kernel_form_matches_the_stack(p):
    # the stack of the split is the oracle: whatever its shape, the kernel
    # form certifies exactly when the stack has full row rank, and every
    # certificate has a dense m(d) that is onto.  The draws are generic, or
    # have b <= a, M1 = 0, M1 of rank below a, some M_k = 0 (k >= 2), or
    # M2 of rank below a on ker M1, where the split returns None before it
    # forms any matrix of S^dW
    rng = np.random.default_rng(1000 + p)
    kinds = ("generic", "b<=a", "M1=0", "M1 deficient", "Mk=0",
             "M2 deficient on ker M1")
    seen = {(kind, verdict): 0 for kind in kinds for verdict in (True, None)}
    stack_full = stack_short = early_none = 0
    for trial in range(180):
        kind = kinds[trial % len(kinds)]
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, a + 1) if kind == "b<=a"
                else rng.integers(a + 1, 4 * a + 2))
        d = int(rng.integers(0, 4))
        Ms = SteinerPresentation.random(rng, a, b, p).Ms
        if kind == "M1=0":
            Ms[0] = 0
        elif kind == "M1 deficient":
            Ms[0] = _deficient(rng, a, b, p)
        elif kind == "Mk=0":
            Ms[int(rng.integers(1, 4))] = 0
        elif kind == "M2 deficient on ker M1":
            # on ker M1 the last row of M2 repeats the first (or is 0)
            Ms[1, -1] = (Ms[1, 0] if a > 1 else 0) + exactalg.matmul_mod(
                exactalg.random_matrix(rng, 1, a, p), Ms[0], p)[0]
        m = SteinerPresentation(Ms, p)
        cert = horace_surjective(m, d)
        assert cert in (True, None)
        seen[kind, cert] += 1
        stack = _stack(m, d)
        full = exactalg.rank(stack, p) == stack.shape[0]
        assert cert is (True if full else None), (trial, kind, a, b, d)
        stack_full += full
        stack_short += not full
        early_none += kind == "M2 deficient on ker M1"
        if cert:
            assert _coker(assemble_md(m, d), p) == 0
            # and the ladder finds m(d), or a degree below it, onto
            ladder = surjectivity_certificate(m, max(d, 1))
            assert 0 in [ladder.coker0, *dict(ladder.checked).values()][:d + 1]
    # with M_k = 0 no row x_k^(d+1) of m(d) is reached, so neither the
    # split nor the dense m(d) can be onto; with M2 deficient on ker M1 the
    # rows x2^(d+1) of the plane map are not all reached
    assert seen["generic", True]
    assert not any(seen[kind, True] for kind in kinds[1:])
    assert stack_full and stack_short and early_none


def _plane_map(m, d):
    """The dense degree-d map on the plane x1 = 0 of m, that is of
    (M2, M3, M4): a*C(d+3,2) x b*C(d+2,2)."""
    return steiner._scatter_md(m, d, steiner._tail(d, 1),
                               steiner._tail(d + 1, 1))


def _plane_schur(plane, QG2, a, d, p):
    """P_rest,G - P_rest,Q (P_x2,Q)^-1 P_x2,G of the dense plane map P_d
    in the columns [Q | G] = QG2, its rows split into those divisible by x2
    and the rest, laid out as _x2_schur lays out S_d: rows (exponent of x4,
    alpha), columns (x2^i x3^j x4^k for i = 0..d, k = 0..d-i, gamma).
    Asserts that the x2 block P_x2,Q is invertible."""
    n = len(QG2)
    rows = [mono_basis(d + 1)[r] for r in steiner._tail(d + 1, 1)]
    cols = [mono_basis(d)[c] for c in steiner._tail(d, 1)]
    x2 = [r for r, e in enumerate(rows) if e[1]]
    rest = sorted((r for r, e in enumerate(rows) if not e[1]),
                  key=lambda r: rows[r][3])
    order = [cols.index((0, i, d - i - k, k))
             for i in range(d + 1) for k in range(d - i + 1)]
    # column (c, mu) of P_d QG2 is sum_beta QG2[beta, c] P_d[:, (beta, mu)]
    PC = np.einsum("arbm,bc->arcm",
                   plane.reshape(a, len(rows), n, len(cols)), QG2) % p
    PC = PC[..., order].transpose(0, 1, 3, 2)

    # rows (monomial, alpha); the order of the x2 rows does not change
    # (P_x2,Q)^-1 P_x2,G
    def block(r, c):
        return PC[:, r][..., c].swapaxes(0, 1).reshape(len(r) * a, -1)

    q = block(x2, slice(0, a))
    R, _, piv = exactalg.rref(np.hstack([q, block(x2, slice(a, n))]), p)
    assert list(piv) == list(range(len(q)))
    return (block(rest, slice(a, n)) - exactalg.matmul_mod(
        block(rest, slice(0, a)), R[:, len(q):], p)) % p


# the draws of residuals (0, N2, N3, N4): generic, or with N2 of rank
# below a, N3 = N2, N4 = 0, two equal columns, or columns in a random
# a-dimensional subspace of A(x)V
_RESIDUAL_KINDS = ("generic", "N2 deficient", "N3=N2", "N4=0",
                   "equal columns", "subspace")


def _residual(rng, kind, a, n, p):
    """A (4, a, n) residual (0, N2, N3, N4) of the given kind, and the
    splits of m = [id | 0] x1 + sum_j [0 | N_j] x_j, whose M1 splits as the
    identity and whose restriction to ker M1 is the residual."""
    if kind == "subspace":
        basis = exactalg.random_matrix(rng, a, 4 * a, p)
        Ms = steiner.presentation_in_span(basis, n, rng, p).Ms
    else:
        Ms = SteinerPresentation.random(rng, a, n, p).Ms
    Ms[0] = 0
    if kind == "N2 deficient":
        Ms[1] = _deficient(rng, a, n, p)
    elif kind == "N3=N2":
        Ms[2] = Ms[1]
    elif kind == "N4=0":
        Ms[3] = 0
    elif kind == "equal columns":
        Ms[:, :, -1] = Ms[:, :, 0]
    full = np.zeros((4, a, a + n), dtype=np.int64)
    full[0, :, :a] = np.eye(a, dtype=np.int64)
    full[1:, :, a:] = Ms[1:]
    return Ms, SteinerPresentation(full, p).splits


@pytest.mark.parametrize("p", [5, 7, 11, P, 1048573])
def test_x2_schur_complement_is_exact(p):
    # the dense plane map P_d of a residual (0, N2, N3, N4) is the oracle:
    # when rank N2 = a, S_d is entry for entry its Schur complement on the
    # rows free of x2 in the columns QG2 (_plane_schur), and
    # rank P_d = a*C(d+2,2) + rank S_d; when rank N2 < a, the splits are
    # None and P_d is not onto.  The residual is m restricted to ker M1
    # for the m of _residual
    rng = np.random.default_rng(2000 + p)
    kinds = _RESIDUAL_KINDS
    onto = short = deficient = 0
    for trial in range(120):
        kind = kinds[trial % len(kinds)]
        a = int(rng.integers(1, 5))
        n = int(rng.integers(a + 1, 4 * a + 2))
        d = trial // len(kinds) % 5
        Ms, splits = _residual(rng, kind, a, n, p)
        plane = _plane_map(SteinerPresentation(Ms, p), d)
        rank = exactalg.rank(plane, p)
        case = (trial, kind, a, n, d)
        if exactalg.rank(Ms[1], p) < a:
            assert splits is None and rank < len(plane), case
            deficient += 1
            continue
        QG1, _, N, QG2, XZYT = splits
        assert np.array_equal(QG1, np.eye(a + n)), case
        assert np.array_equal(N, Ms[1:]), case
        S = steiner._x2_schur(a, XZYT, d, p)
        assert S.shape == (a * (d + 2), (n - a) * comb(d + 2, 2)), case
        assert np.array_equal(S, _plane_schur(plane, QG2, a, d, p)), case
        assert rank == a * comb(d + 2, 2) + exactalg.rank(S, p), case
        onto += rank == len(plane)
        short += rank < len(plane)
    assert onto and short and deficient


@pytest.mark.parametrize("p", [5, 7, 11, P, 1048573])
def test_x2_schur_full_rank_propagates_upward(p):
    # P_e sends beta (x) mu to mu P_0(beta), so Im P_(e+1) = W Im P_e and
    # P_(e+1) is onto once P_e is; as S_e has full row rank iff P_e is
    # onto, horace_surjective may stop at the first such e.  Over the
    # draws of test_x2_schur_complement_is_exact, S_e for e = 0..5 is
    # short of full row rank up to some e and of full row rank from there
    # on, and some draws turn full past e = 0 while others never do
    rng = np.random.default_rng(3000 + p)
    turned = never = 0
    for trial in range(60):
        kind = _RESIDUAL_KINDS[trial % len(_RESIDUAL_KINDS)]
        a = int(rng.integers(1, 5))
        n = int(rng.integers(a + 1, 4 * a + 2))
        _, splits = _residual(rng, kind, a, n, p)
        if splits is None:
            continue
        full = []
        for e in range(6):
            S = steiner._x2_schur(a, splits[-1], e, p)
            full.append(exactalg.rank(S, p) == len(S))
        assert full == sorted(full), (trial, kind, a, n, full)
        turned += full[-1] and not full[0]
        never += not full[-1]
    assert turned and never


def _presentation_with(XZYT, p):
    """The presentation whose m.splits ends in the given 2a x n XZYT:
    M1 = [id | 0 | 0], M2 = [0 | id | 0] and [M3; M4] = [0 | XZYT], so
    both splits are identities and [N3; N4] = XZYT."""
    a, n = len(XZYT) // 2, XZYT.shape[1]
    Ms = np.zeros((4, a, a + n), dtype=np.int64)
    Ms[0, :, :a] = Ms[1, :, a:2 * a] = np.eye(a, dtype=np.int64)
    Ms[2:, :, a:] = XZYT.reshape(2, a, n)
    return SteinerPresentation(Ms, p)


@pytest.mark.parametrize("p", [5, 7, 11, P, 1048573])
def test_x3_split_decides_as_the_schur_complement(p, monkeypatch):
    # the rank of _x2_schur's S_d is the oracle: horace_surjective answers
    # True exactly when S_d has full row rank.  It ranks no S_e when its
    # x3 split answers, which needs rank Y = a (so w >= a, with
    # [X Y; Z T] = XZYT, Y and T a x w) and d >= 2, and otherwise ranks
    # S_e at ascending e <= d, skipping those taller than wide, up to the
    # first of full row rank.  The draws are generic with w = a or w > a
    # (where K_Y is not empty), or have Y deficient, T = Y, X = Z = 0 or T
    # of rank one, with w from a - 1 to 3a outside the first two kinds,
    # and d = 0..6
    rng = np.random.default_rng(4000 + p)
    kinds = ("w = a", "w > a", "Y deficient", "T = Y", "X = Z = 0",
             "T rank one")
    ranked, x2_schur = [], steiner._x2_schur

    def record(a, XZYT, d, p):
        ranked.append(d)
        return x2_schur(a, XZYT, d, p)

    monkeypatch.setattr(steiner, "_x2_schur", record)
    seen = {(split, verdict): 0 for split in (True, False)
            for verdict in (True, None)}
    shortcut = 0
    for trial in range(126):
        kind = kinds[trial % len(kinds)]
        a = int(rng.integers(1, 5))
        w = (a if kind == "w = a" else int(rng.integers(a + 1, 3 * a + 1))
             if kind == "w > a" else int(rng.integers(a - 1, 3 * a + 1)))
        d = trial // len(kinds) % 7
        XZYT = exactalg.random_matrix(rng, 2 * a, a + w, p)
        Y, T = XZYT[:a, a:], XZYT[a:, a:]
        if kind == "Y deficient":
            Y[:] = _deficient(rng, a, w, p)
        elif kind == "T = Y":
            T[:] = Y
        elif kind == "X = Z = 0":
            XZYT[:, :a] = 0
        elif kind == "T rank one":
            T[:] = np.outer(exactalg.random_matrix(rng, a, 1, p),
                            exactalg.random_matrix(rng, 1, w, p)) % p
        m = _presentation_with(XZYT, p)
        assert np.array_equal(m.splits[-1], XZYT)
        S = x2_schur(a, XZYT, d, p)
        want = True if exactalg.rank(S, p) == len(S) else None
        case = (trial, kind, a, w, d)
        ranked.clear()
        assert horace_surjective(m, d) is want, case
        split = w >= a and exactalg.rank(Y, p) == a
        if split and d >= 2 and not ranked:
            assert want, case
            shortcut += 1
        else:
            loop = []
            for e in range(d + 1):
                if a * (e + 2) <= w * comb(e + 2, 2):
                    loop.append(e)
                    S = x2_schur(a, XZYT, e, p)
                    if exactalg.rank(S, p) == len(S):
                        break
            assert ranked == loop, case
        seen[split, want] += 1
    assert all(seen.values()) and shortcut, (seen, shortcut)


@pytest.mark.parametrize("p", [5, 7, 11, P, 1048573])
def test_x3_shortcut_answers_on_its_k_y_columns(p, monkeypatch):
    # with X = Z = 0 the residuals U_i, i >= 1, vanish, so V_1 = 0 and the
    # shortcut's [T K_Y | V_1 | M V_1] has rank a only through T K_Y; the
    # draws have w >= 2a, so K_Y has w - a >= a columns, and
    # rank T K_Y = a.  There horace_surjective answers True, as the rank of
    # S_d says, without ranking any S_e
    rng = np.random.default_rng(5000 + p)

    def unranked(*args):
        raise AssertionError("the x3 shortcut did not answer")

    answered = 0
    for trial in range(40):
        a = int(rng.integers(1, 5))
        w = int(rng.integers(2 * a, 3 * a + 1))
        d = 2 + trial % 4
        XZYT = exactalg.random_matrix(rng, 2 * a, a + w, p)
        XZYT[:, :a] = 0
        Y, T = XZYT[:a, a:], XZYT[a:, a:]
        QK = exactalg.split(Y, p)
        if QK is None or exactalg.rank(
                exactalg.matmul_mod(T, QK[:, a:], p), p) < a:
            continue
        S = steiner._x2_schur(a, XZYT, d, p)
        assert exactalg.rank(S, p) == len(S), (trial, a, w, d)
        with monkeypatch.context() as mp:
            mp.setattr(steiner, "_x2_schur", unranked)
            assert horace_surjective(_presentation_with(XZYT, p), d) is True
        answered += 1
    assert answered >= 20, answered


def test_residual_computed_once_per_presentation(monkeypatch):
    # the ladder assembles m(0) alone and eliminates its transpose, 21 x 28
    # at (7, 21), then G_1 (33 x 19, its 42 pair equations less the 9
    # zero ones) and G_2 (140 x 4); the direct check of
    # m(s - 3) = m(4) then splits M1 ([M1 | id] is 7 x 28), N2 (7 x 21) and
    # the square Y = N3 K2 (7 x 14), and ranks only [T K_Y | V_1 | M V_1]
    # (7 x 14) of the a-row system its x3 split leaves, so neither the
    # 42 x 105 S_4 nor any dense m(d) above m(0) is built; the section
    # matrix reuses the first two splits, and the 14 x 14 product
    # [N3; N4] [Q2 | K2] made with them, and eliminates only the 21 x 35
    # system they leave of m(1)
    s = pwcurves.sample_pw(7, 21, 1, seed=0, p=P)
    m = SteinerPresentation(s.m.Ms, s.prime)
    kernels, splits, degrees, products, ranks = [], [], [], [], []
    kernel_basis, rref = exactalg.kernel_basis, exactalg.rref
    assemble, matmul_mod = steiner.assemble_md, exactalg.matmul_mod
    rank = exactalg.rank

    def count_kernel(M, p):
        kernels.append(M.shape)
        return kernel_basis(M, p)

    def count_rref(M, p):
        splits.append(M.shape)
        return rref(M, p)

    def count_md(m, d):
        degrees.append(d)
        return assemble(m, d)

    def count_product(A, B, p):
        products.append((np.shape(A), np.shape(B)))
        return matmul_mod(A, B, p)

    def count_rank(M, p):
        ranks.append(np.shape(M))
        return rank(M, p)

    monkeypatch.setattr(exactalg, "kernel_basis", count_kernel)
    monkeypatch.setattr(exactalg, "rref", count_rref)
    monkeypatch.setattr(exactalg, "rank", count_rank)
    monkeypatch.setattr(exactalg, "matmul_mod", count_product)
    monkeypatch.setattr(steiner, "assemble_md", count_md)
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == s.cert.checked == ((1, 1), (2, 0))
    sample = dataclasses.replace(s, m=m, cert=cert)
    assert pwcurves.h1_ic_vanishing(sample) is True
    assert kernels == [(21, 28), (33, 19), (140, 4)]
    assert splits == [(7, 28), (7, 21), (7, 14)]
    assert ranks == [(7, 14)]
    assert steiner.m1_kernel(sample.m).shape == (4, 15, 21)
    assert kernels[3:] == [(21, 35)]
    assert splits == [(7, 28), (7, 21), (7, 14)]
    assert products.count(((14, 14), (14, 14))) == 1
    assert degrees == [0]


@pytest.mark.parametrize("p", [5, 7, 11, P, 1048573])
def test_m1_kernel_matches_the_dense_kernel(p, monkeypatch):
    # kernel_basis(m(1)) is the oracle: the split route gives as many rows,
    # each in ker m(1), spanning the same space.  The draws are generic,
    # have M1 of rank below a, N2 = M2 K1 of rank below a on ker M1,
    # N3 = N2, N4 = 0, two equal columns, or columns in a random
    # a-dimensional subspace of A(x)V, with b - a > a or not; the dense
    # path runs exactly when a split is None, as it must for the two
    # deficient kinds
    rng = np.random.default_rng(3000 + p)
    kinds = ("generic", "M1 deficient", "N2 deficient", "N3=N2", "N4=0",
             "equal columns", "subspace")
    dense, assemble = [], steiner.assemble_md

    def record(m, d):
        dense.append(d)
        return assemble(m, d)

    monkeypatch.setattr(steiner, "assemble_md", record)
    split = 0
    for trial in range(70):
        kind = kinds[trial % len(kinds)]
        a = int(rng.integers(1, 5))
        b = int(rng.integers(a + 1, 4 * a + 3))
        if kind == "subspace":
            basis = exactalg.random_matrix(rng, a, 4 * a, p)
            Ms = steiner.presentation_in_span(basis, b, rng, p).Ms
        else:
            Ms = SteinerPresentation.random(rng, a, b, p).Ms
        mix = exactalg.random_matrix(rng, a, a, p)
        if kind == "M1 deficient":
            Ms[0] = _deficient(rng, a, b, p)
        elif kind == "N2 deficient":
            Ms[1] = exactalg.matmul_mod(mix, Ms[0], p) + _deficient(
                rng, a, b, p)
        elif kind == "N3=N2":
            Ms[2] = Ms[1]
        elif kind == "N4=0":
            Ms[3] = exactalg.matmul_mod(mix, Ms[0], p)
        elif kind == "equal columns":
            Ms[:, :, -1] = Ms[:, :, 0]
        m = SteinerPresentation(Ms, p)
        m1 = assemble(m, 1)
        want = exactalg.kernel_basis(m1, p)
        dense.clear()
        Ns = steiner.m1_kernel(m)
        K = Ns.transpose(1, 2, 0).reshape(Ns.shape[1], 4 * b)
        case = (trial, kind, a, b)
        assert K.shape == want.shape, case
        assert not exactalg.matmul_mod(m1, K.T, p).any(), case
        assert exactalg.rank(np.vstack([K, want]), p) == len(K), case
        fell_back = m.splits is None
        assert dense == ([1] if fell_back else []), case
        assert fell_back or kind not in kinds[1:3], case
        split += not fell_back
    assert split


def test_horace_needs_more_than_the_hyperplane():
    # (a, b, d) = (1, 3, 0): m'(0), the map of (M2, M3, M4), is the 3 x 3
    # identity and onto, but m(0) is 4 x 3 and cannot be
    Ms = [np.array([[1, 2, 3]])] + [np.eye(3, dtype=np.int64)[[k]]
                                     for k in range(3)]
    m = SteinerPresentation(Ms, P)
    assert exactalg.rank(assemble_md(m, 0)[[1, 2, 3]], P) == 3
    assert surjectivity_certificate(m, 1).coker0 == 1
    assert horace_surjective(m, 0) is None
    with pytest.raises(ValueError):
        horace_surjective(m, -1)


def test_cohomology_table_reads_certificate():
    m = pwcurves.sample_pw(3, 8, 1, seed=0, p=P).m
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == ((1, 1), (2, 0))
    tab = cohomology_table(m, -1, cert.d0, cert)
    for d, coker in cert.checked:
        assert tab.row(d)[2] == coker
    with pytest.raises(NotLocallyFree):
        cohomology_table(m, -1, 2, surjectivity_certificate(m, 1))


def _dense_ladder(m, d_max):
    """dim coker m(0), and the (d, dim coker m(d)) of d = 1..d_max up to the
    first surjective m(d), each from the dense m(d)."""
    rungs = []
    for d in range(1, d_max + 1):
        rungs.append((d, _coker(assemble_md(m, d), m.prime)))
        if not rungs[-1][1]:
            break
    return _coker(assemble_md(m, 0), m.prime), tuple(rungs)


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_ladder_matches_dense_cokernels(p):
    # rung 0 and every rung of the inverse-system ladder against the dense
    # m(d), on generic draws, draws with one M_k = 0 and draws with two
    # equal columns; small primes make rank drops among the generic ones
    rng = np.random.default_rng(2000 + p)
    kinds = ("generic", "Mk=0", "equal columns")
    full_ladders = late_hits = 0
    for trial in range(48):
        kind = kinds[trial % 3]
        a = int(rng.integers(1, 4))
        b = int(rng.integers(2 * a, 3 * a + 4))
        Ms = SteinerPresentation.random(rng, a, b, p).Ms
        if kind == "Mk=0":
            Ms[int(rng.integers(0, 4))] = 0
        elif kind == "equal columns":
            Ms[:, :, -1] = Ms[:, :, 0]
        m = SteinerPresentation(Ms, p)
        cert = surjectivity_certificate(m, 4)
        assert (cert.coker0, cert.checked) == _dense_ladder(m, 4), (trial, a, b)
        full_ladders += not cert.found
        late_hits += cert.found and cert.d0 >= 2
    assert full_ladders and late_hits


@pytest.mark.parametrize("p", [5, P])
def test_ladder_on_loaded_degenerate_presentations(monkeypatch, p):
    # zero presentations and columns in a subspace of A(x)V, whose rungs
    # carry large cokernels: the ladder still matches the dense m(d), and
    # each G_d has at most dim A(x)S^{d+1}V columns, the rows of m(d), so
    # it never asks the core for more than the dense route would
    rng = np.random.default_rng(3000 + p)
    shapes = []
    kernel_basis = exactalg.kernel_basis

    def record(M, q):
        shapes.append(M.shape)
        return kernel_basis(M, q)

    for a, b, r in ((1, 3, 0), (2, 6, 0), (3, 9, 2), (3, 8, 6), (4, 12, 9)):
        basis = exactalg.random_matrix(rng, r, 4 * a, p)
        m = steiner.presentation_in_span(basis, b, rng, p)
        monkeypatch.setattr(exactalg, "kernel_basis", record)
        shapes.clear()
        cert = surjectivity_certificate(m, 4)
        monkeypatch.undo()
        assert (cert.coker0, cert.checked) == _dense_ladder(m, 4), (a, b, r)
        assert len(shapes) == 1 + len(cert.checked)
        for d, (_, cols) in enumerate(shapes[1:], start=1):
            assert cols <= a * dim_sym(d + 1)


def test_ladder_certifies_where_the_split_cannot():
    # at (4, 10) the split's plane map of m(2) is 40 x 36, taller than
    # wide, so horace_surjective says nothing; the ladder finds m(2) onto
    m = pwcurves.sample_pw(4, 10, 1, seed=0, p=P).m
    assert horace_surjective(m, 2) is None
    assert horace_surjective(m, 3) is True
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == ((1, 1), (2, 0)) and cert.coker0 == 6
    assert _coker(assemble_md(m, 2), P) == 0


def test_loaded_presentation_without_x4_is_not_locally_free():
    # with M_4 = 0 no row x4^(d+1) of m(d) is reached: a (10, 30, 1) sample
    # written out with its fourth block zeroed and read back has coker a
    # at every rung up to the cap, and its table is refused
    Ms = pwcurves.sample_pw(10, 30, 1, seed=0, p=P).m.Ms.copy()
    Ms[3] = 0
    buf = io.StringIO()
    write_presentation(buf, SteinerPresentation(Ms, P))
    m = read_presentation(io.StringIO(buf.getvalue()))
    with pytest.raises(NotLocallyFree) as exc:
        cohomology_table(m, steiner.K_MIN, steiner.K_MAX,
                         surjectivity_certificate(m))
    assert exc.value.checked == [(d, 10) for d in range(1, 6)]


def test_bad_shapes_rejected():
    # a presentation is four a x b matrices with a, b >= 1
    for shape in ((3, 2, 3), (5, 2, 3), (4, 0, 3), (4, 2, 0), (4, 6)):
        with pytest.raises(ValueError):
            SteinerPresentation(np.zeros(shape, dtype=np.int64), P)
    with pytest.raises(ValueError):
        SteinerPresentation([np.zeros((2, 3), dtype=np.int64)] * 3
                            + [np.zeros((3, 3), dtype=np.int64)], P)
    m = SteinerPresentation(np.zeros((4, 2, 3), dtype=np.int64), P)
    assert (m.a, m.b) == (2, 3)
    # a quotient's coefficient tensor is f x a x 4 x 4
    for shape in ((1, 2, 4, 3), (1, 2, 3, 3), (2, 4, 4), (1, 2, 4, 4, 1)):
        with pytest.raises(ValueError):
            subspace.FFormQuotient(np.zeros(shape, dtype=np.int64), P)
    phi = subspace.FFormQuotient(np.zeros((1, 2, 4, 4), dtype=np.int64), P)
    assert (phi.f, phi.a) == (1, 2)


def test_presentation_interchange(rng):
    m = SteinerPresentation.random(rng, 2, 5, P)
    buf = io.StringIO()
    write_presentation(buf, m)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"steiner 2 5 {P}"
    m2 = read_presentation(io.StringIO(text))
    assert (m2.a, m2.b, m2.prime) == (2, 5, P)
    for M, M2 in zip(m.Ms, m2.Ms):
        assert np.array_equal(M, M2)
