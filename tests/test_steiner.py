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
    m = SteinerPresentation(np.zeros((4, 2, 5), dtype=np.int64), P)
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
    # the window, k_min and k_max, is read off the rows, so it is never empty
    assert (tab.k_min, tab.k_max) == (-3, 3)
    with pytest.raises(ValueError):
        cohomology_table(m, 3, 2)


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
            assert exactalg.cokernel_dim(assemble_md(m, d), P) == 0


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
        coker = exactalg.cokernel_dim(assemble_md(m, d), p)
        assert cert in (True, None)
        if cert:
            assert coker == 0, (trial, a, m.b, d)
            certified += 1
        elif coker:
            cokernels += 1
            wide_cokernels += m.b >= a * (1 + (d + 3) / (d + 1))
    assert certified and cokernels and wide_cokernels


def test_horace_needs_m1_of_full_rank(rng):
    # at (3, 8) the plane map of m(2) is 30 x 30, not wider than tall, so
    # it is not tried and ker M1 is not computed; at d = 3 it is 45 x 50
    m = pwcurves.sample_pw(3, 8, 1, seed=0, p=P).m
    assert horace_surjective(m, 2) is None
    assert "x1_residual" not in vars(m)
    assert horace_surjective(m, 3) is True
    low = SteinerPresentation(
        np.concatenate([[_deficient(rng, 3, 8, P)], m.Ms[1:]]), P)
    assert horace_surjective(low, 3) is None
    assert low.x1_residual is None


def _stack(m, d):
    """The x1-split as first stated: column group 0 of m(d) against row
    groups 0 and 1, that is m'(d) on the plane x1 = 0 over M1(x)id."""
    cols = tuple(mu for mu in mono_basis(d) if mu[0] == 0)
    rows = tuple(nu for nu in mono_basis(d + 1) if nu[0] <= 1)
    return steiner._scatter_md(m, cols, rows)


def _kernel_form_is_wide(m, d):
    # the plane map of m restricted to ker M1: a*C(d+3,2) x (b-a)*C(d+2,2)
    return (m.b - m.a) * comb(d + 2, 2) > m.a * comb(d + 3, 2)


@pytest.mark.parametrize("p", [5, 7, P])
def test_kernel_form_matches_the_stack(p):
    # the stack of the split is the oracle: where the kernel form is tried
    # it certifies exactly when the stack has full row rank, and every
    # certificate has a dense m(d) that is onto.  The draws are generic, or
    # have b <= a, M1 = 0, M1 of rank below a, or some M_k = 0 (k >= 2)
    rng = np.random.default_rng(1000 + p)
    kinds = ("generic", "b<=a", "M1=0", "M1 deficient", "Mk=0")
    seen = {(kind, verdict): 0 for kind in kinds for verdict in (True, None)}
    wide_stack_full = wide_stack_short = 0
    for trial in range(150):
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
        m = SteinerPresentation(Ms, p)
        cert = horace_surjective(m, d)
        assert cert in (True, None)
        seen[kind, cert] += 1
        stack = _stack(m, d)
        full = exactalg.rank(stack, p) == stack.shape[0]
        if _kernel_form_is_wide(m, d):
            assert cert is (True if full else None), (trial, kind, a, b, d)
            wide_stack_full += full
            wide_stack_short += not full
        else:
            assert cert is None
        if cert:
            assert exactalg.cokernel_dim(assemble_md(m, d), p) == 0
            assert cokernel_dim_md(m, d) == 0
    # with M_k = 0 no row x_k^(d+1) of m(d) is reached, so neither the
    # split nor the dense m(d) can be onto
    assert seen["generic", True]
    assert not any(seen[kind, True] for kind in kinds[1:])
    assert wide_stack_full and wide_stack_short


def test_residual_computed_once_per_presentation(monkeypatch):
    # a ladder that the split ends at d = 2 and the direct check of
    # m(s - 3) = m(4) share one kernel basis of M1 and no dense m(d) above
    # m(1), whose plane map (42 x 42 at (7, 21)) is not tried
    s = pwcurves.sample_pw(7, 21, 1, seed=0, p=P)
    m = SteinerPresentation(s.m.Ms, s.prime)
    kernels, degrees = [], []
    kernel_basis, assemble = exactalg.kernel_basis, steiner.assemble_md

    def count_kernel(M, p):
        kernels.append(M.shape)
        return kernel_basis(M, p)

    def count_md(m, d):
        degrees.append(d)
        return assemble(m, d)

    monkeypatch.setattr(exactalg, "kernel_basis", count_kernel)
    monkeypatch.setattr(steiner, "assemble_md", count_md)
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == s.cert.checked == ((1, 1), (2, 0))
    sample = dataclasses.replace(s, m=m, cert=cert)
    assert pwcurves.h1_ic_vanishing(sample, direct=True) is True
    assert kernels == [(7, 21)]
    assert degrees == [1]


def test_horace_needs_more_than_the_hyperplane():
    # (a, b, d) = (1, 3, 0): m'(0), the map of (M2, M3, M4), is the 3 x 3
    # identity and onto, but m(0) is 4 x 3 and cannot be
    Ms = [np.array([[1, 2, 3]])] + [np.eye(3, dtype=np.int64)[[k]]
                                     for k in range(3)]
    m = SteinerPresentation(Ms, P)
    assert exactalg.rank(assemble_md(m, 0)[[1, 2, 3]], P) == 3
    assert cokernel_dim_md(m, 0) == 1
    assert horace_surjective(m, 0) is None
    with pytest.raises(ValueError):
        horace_surjective(m, -1)


def test_cohomology_table_reads_certificate():
    m = pwcurves.sample_pw(3, 8, 1, seed=0, p=P).m
    cert = surjectivity_certificate(m, 5)
    assert cert.checked == ((1, 1), (2, 0))
    tab = cohomology_table(m, -1, cert.d0, cert)
    assert tab == cohomology_table(m, -1, cert.d0)
    for d, coker in cert.checked:
        assert tab.row(d)[2] == coker
    with pytest.raises(NotLocallyFree):
        cohomology_table(m, -1, 2, surjectivity_certificate(m, 1))


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
