"""Presentations of kernel bundles, their degree-d multiplication maps, and
the cohomology bookkeeping built on top of them."""

import io

import numpy as np
import pytest
from test_backends import oracle_rref

from steinerlab import exactalg, pwcurves, steiner, subspace
from steinerlab.multilin import dim_sym, mono_basis
from steinerlab.steiner import (
    CohomologyTable,
    NotLocallyFree,
    SteinerPresentation,
    assemble_md,
    chi3,
    cohomology_table,
    cokernel_dim_md,
    corank_md,
    dual_h0,
    euler_char,
    horace_surjective,
    read_presentation,
    surjectivity_certificate,
    write_presentation,
)

P = exactalg.DEFAULT_PRIME


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
        assert corank_md(m, d) == 0


def test_zero_presentation():
    m = SteinerPresentation.from_matrices(
        [np.zeros((2, 5), dtype=np.int64)] * 4, P
    )
    assert corank_md(m, 0) == min(5, 8)
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
    m2 = SteinerPresentation.from_columns(cols, 3, P)
    for M, M2 in zip(m.Ms, m2.Ms):
        assert np.array_equal(M, M2)
    # only a 4a x b matrix is accepted
    with pytest.raises(ValueError):
        SteinerPresentation.from_columns(cols[:-1], 3, P)


def test_transpose(rng):
    m = SteinerPresentation.random(rng, 2, 6, P)
    mt = m.transpose()
    assert (mt.a, mt.b) == (6, 2)
    for M, Mt in zip(m.Ms, mt.Ms):
        assert np.array_equal(M.T, Mt)


def test_cohomology_table_1_4(rng):
    m = SteinerPresentation.random(rng, 1, 4, P)
    tab = cohomology_table(m, -6, 4)
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


def test_dual_h0_example(rng):
    m = SteinerPresentation.random(rng, 1, 4, P)
    assert dual_h0(m, 1) == 15
    assert dual_h0(m, 0) == 4


def test_serre_duality_cross_check(rng):
    m = SteinerPresentation.random(rng, 2, 6, P)
    tab = cohomology_table(m, -6, -4)
    for k in range(-6, -3):
        assert tab.row(k)[4] == dual_h0(m, -k - 4)


def test_cohomology_rows_well_formed(rng):
    m = SteinerPresentation.random(rng, 2, 5, P)
    tab = cohomology_table(m, -3, 3)
    assert [r[0] for r in tab.rows] == list(range(-3, 4))
    dicts = tab.as_dicts()
    assert dicts[0].keys() == {"k", "h0", "h1", "h2", "h3", "chi"}
    with pytest.raises(KeyError):
        tab.row(99)


def test_propagation_matches_direct_rank(rng):
    # rows at twists >= d0 may be filled by the closed form; the direct
    # kernel/cokernel of m(k) must give the same numbers
    m = SteinerPresentation.random(rng, 2, 6, P)
    cert = surjectivity_certificate(m, 5)
    tab = cohomology_table(m, cert.d0, cert.d0 + 2)
    for k in range(cert.d0, cert.d0 + 3):
        A = assemble_md(m, k)
        r = exactalg.rank(A, P)
        h0 = A.shape[1] - r
        h1 = A.shape[0] - r
        assert tab.row(k)[1] == h0
        assert tab.row(k)[2] == h1


def test_md_rank_matches_oracle():
    # from m(3) on the rank reaches the row count before the last panel,
    # so the rank-only sweep stops early there
    m = pwcurves.sample_pw(3, 8, 1, seed=0).m
    for d in range(6):
        A = assemble_md(m, d)
        assert exactalg.rank(A, P) == oracle_rref(A, P)[1]


def test_horace_certificates_have_full_dense_rank():
    # each `verify curve` sample (A, 3A, 1): every m(d) the x1-split
    # certifies up to the critical degree A - 3 has dense rank equal to its
    # row count, and the critical degree itself is certified
    for A in (7, 8, 9, 10):
        m = pwcurves.sample_pw(A, 3 * A, 1, seed=0).m
        certified = [d for d in range(A - 2) if horace_surjective(m, d)]
        assert A - 3 in certified
        for d in certified:
            assert cokernel_dim_md(m, d) == 0


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
                    a, b, (_deficient(rng, a, b, p),) + m.Ms[1:], p)
        cert = horace_surjective(m, d)
        coker = cokernel_dim_md(m, d)
        assert cert in (True, None)
        if cert:
            assert coker == 0, (trial, a, m.b, d)
            certified += 1
        elif coker:
            cokernels += 1
            wide_cokernels += m.b >= a * (1 + (d + 3) / (d + 1))
    assert certified and cokernels and wide_cokernels


def test_horace_needs_m1_of_full_rank(rng):
    m = pwcurves.sample_pw(3, 8, 1, seed=0).m
    assert horace_surjective(m, 2) is True
    low = SteinerPresentation(3, 8, (_deficient(rng, 3, 8, P),) + m.Ms[1:], P)
    assert horace_surjective(low, 2) is None


def test_horace_needs_more_than_the_hyperplane():
    # (a, b, d) = (1, 3, 0): m'(0), the map of (M2, M3, M4), is the 3 x 3
    # identity and onto, but m(0) is 4 x 3 and cannot be
    Ms = [np.array([[1, 2, 3]])] + [np.eye(3, dtype=np.int64)[[k]]
                                     for k in range(3)]
    m = SteinerPresentation.from_matrices(Ms, P)
    assert exactalg.rank(assemble_md(m, 0)[[1, 2, 3]], P) == 3
    assert cokernel_dim_md(m, 0) == 1
    assert horace_surjective(m, 0) is None
    with pytest.raises(ValueError):
        horace_surjective(m, -1)


def test_cohomology_table_reads_certificate():
    m = pwcurves.sample_pw(3, 8, 1, seed=0).m
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == ((1, 1), (2, 0))
    tab = cohomology_table(m, -1, cert.d0, cert)
    assert tab == cohomology_table(m, -1, cert.d0)
    for d, coker in cert.checked:
        assert tab.row(d)[2] == coker
    with pytest.raises(NotLocallyFree):
        cohomology_table(m, -1, 2, surjectivity_certificate(m, 1))


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        SteinerPresentation.from_matrices(
            [np.zeros((2, 3), dtype=np.int64)] * 3, P
        )
    with pytest.raises(ValueError):
        SteinerPresentation.from_matrices(
            [np.zeros((2, 3), dtype=np.int64)] * 3
            + [np.zeros((3, 3), dtype=np.int64)], P
        )


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
