"""Presentations of kernel bundles, their degree-d multiplication maps, and
the cohomology bookkeeping built on top of them."""

import io

import numpy as np
import pytest
from test_backends import oracle_rref

from steinerlab import exactalg, pwcurves, steiner
from steinerlab.multilin import dim_sym
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
    rank_md,
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
    assert rank_md(m, 1) == 10
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
    m3 = SteinerPresentation.from_columns([cols[:, i] for i in range(5)], 3, P)
    for M, M2, M3 in zip(m.Ms, m2.Ms, m3.Ms):
        assert np.array_equal(M, M2)
        assert np.array_equal(M, M3)


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
