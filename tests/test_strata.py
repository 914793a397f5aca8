"""Jordan stratification of 4x4 matrices, the two reference tables, the
rank-0 witness search, and sampled rank distributions.

The centralizer dimension has an independent oracle: the kernel dimension
of the commutation system X J = J X solved over F_p for a representative J.
"""

import numpy as np
import pytest
from test_exactalg import inv_matrix
from test_multilin import pair_index

from steinerlab import exactalg, subspace
from steinerlab.multilin import HV_MONO_INDICES, random_frame
from steinerlab.strata import (
    JordanType,
    centralizer_dim,
    enumerate_jordan4,
    find_rank0,
    jordan3x4_table,
    jordan4_table,
    rank_distribution,
    solution_dim_4x4,
    stratum_dim,
)

P = exactalg.DEFAULT_PRIME

EXPECTED_LABELS = [
    "1|1|1|1", "2|1|1", "2|2", "3|1", "4",
    "11|1|1", "2|11", "21|1", "31",
    "11|11", "22", "111|1", "211", "1111",
]


def commutant_dim(J, p):
    n = J.shape[0]
    I = np.eye(n, dtype=np.int64)
    M = np.mod(np.kron(J.T, I) - np.kron(I, J), p)
    return len(exactalg.kernel_basis(M, p))


def test_enumeration_count_and_order():
    types = enumerate_jordan4()
    assert len(types) == 14
    assert [t.label for t in types] == EXPECTED_LABELS


def test_canonical_form():
    t1 = JordanType([(1, 2), (1,)])
    t2 = JordanType([(1,), (2, 1)])
    assert t1 == t2
    assert t1.label == "21|1"


def test_centralizer_examples():
    by_label = {t.label: t for t in enumerate_jordan4()}
    assert centralizer_dim(by_label["1|1|1|1"]) == 4
    assert centralizer_dim(by_label["4"]) == 4
    assert centralizer_dim(by_label["22"]) == 8
    assert centralizer_dim(by_label["1111"]) == 16
    assert centralizer_dim(by_label["2|1|1"]) == 4


def test_centralizer_matches_commutant_oracle():
    for t in enumerate_jordan4():
        J = t.representative(P)
        assert J.shape == (4, 4)
        assert centralizer_dim(t) == commutant_dim(J, P)


def test_stratum_dim():
    by_label = {t.label: t for t in enumerate_jordan4()}
    assert stratum_dim(by_label["1|1|1|1"]) == 16
    assert stratum_dim(by_label["1111"]) == 1
    for t in enumerate_jordan4():
        assert stratum_dim(t) == 16 - centralizer_dim(t) + t.num_eigenvalues


def test_solution_dim_similarity_invariant(rng):
    types = enumerate_jordan4()
    by_label = {t.label: t for t in types}
    for t in (types[1], by_label["22"], types[9], types[12]):
        J = t.representative(P)
        base = solution_dim_4x4(J, P)
        for _ in range(20):
            while True:
                Q = exactalg.random_matrix(rng, 4, 4, P)
                if exactalg.rank(Q, P) == 4:
                    break
            C = exactalg.matmul_mod(
                exactalg.matmul_mod(Q, J, P), inv_matrix(Q, P), P
            )
            assert solution_dim_4x4(C, P) == base


def test_solution_dim_22_symbolic_cross_check():
    # independent construction of the defining system for the flagged row:
    # X symmetric, 10 unknowns x_{ij}, six equations (C X)_{ij} = (C X)_{ji};
    # sympy ranks the 6 x 10 coefficient matrix over the rationals
    import sympy

    J = JordanType([(2, 2)]).representative(P)
    xs = sympy.symbols("x0:10")
    X = sympy.zeros(4, 4)
    idx = 0
    for i in range(4):
        for j in range(i, 4):
            X[i, j] = X[j, i] = xs[idx]
            idx += 1
    G = sympy.Matrix(J.astype(int).tolist()) * X
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            expr = sympy.expand(G[i, j] - G[j, i])
            rows.append([expr.coeff(v) for v in xs])
    system = sympy.Matrix(rows)
    assert system.shape == (6, 10)
    assert 10 - system.rank() == 6
    assert solution_dim_4x4(J, P) == 6


def test_jordan4_table():
    rows = jordan4_table(P)
    assert [r.label for r in rows] == EXPECTED_LABELS
    assert [r.O_computed for r in rows] == [
        16, 15, 14, 14, 13, 13, 12, 12, 11, 10, 9, 8, 7, 1
    ]
    assert [r.S_computed for r in rows] == [
        4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 7, 7, 10
    ]
    flagged_o = [r.label for r in rows if "o_ref_mismatch" in r.flags]
    flagged_s = [r.label for r in rows if "s_ref_mismatch" in r.flags]
    assert flagged_o == ["2|1|1"]
    assert flagged_s == ["22"]
    for r in rows:
        if r.label == "2|1|1":
            assert (r.O_ref, r.O_computed) == (14, 15)
        elif r.label == "22":
            assert (r.S_ref, r.S_computed) == (7, 6)
        else:
            assert r.O_match and r.S_match


def test_jordan3x4_table():
    rows = jordan3x4_table(P)
    got = [(r.label, r.c_class, r.r_computed, r.S_computed) for r in rows]
    assert got == [
        ("1|1|1", "generic", 3, 7),
        ("11|1", "c in the simple eigenspace", 2, 8),
        ("11|1", "other c", 3, 7),
        ("111", "c nonzero", 2, 8),
        ("111", "c zero", 0, 10),
        ("2|1", "generic", 3, 7),
        ("21", "c in the big block's eigenline", 2, 8),
        ("21", "other c", 3, 7),
        ("3", "generic", 3, 7),
    ]
    for r in rows:
        assert r.r_ref == r.r_computed
        assert r.S_ref == r.S_computed
        assert "ref_mismatch" not in r.flags
    degenerate = [r for r in rows if "pair_map_not_onto" in r.flags]
    assert [r.c_class for r in degenerate] == ["c zero"]
    assert [r.O_computed for r in rows] == [12, 7, 9, 4, 1, 11, 6, 8, 10]
    assert [r.O_ref_display for r in rows] == [
        "12", "7", "<12", "7", "-", "<12", "6", "<12", "<12"
    ]


def test_find_rank0_full_context(rng):
    # witnesses exist exactly above the 5f > 2a threshold
    sl = subspace.zslice(subspace.FFormQuotient.random(rng, 2, 1, P))
    g = find_rank0(sl)
    assert g is not None
    assert subspace.z_rank(sl, [g]) == 0

    phi = subspace.FFormQuotient.random(rng, 3, 1, P)
    assert find_rank0(subspace.zslice(phi)) is None


def test_find_rank0_hyper_context(rng):
    phi = subspace.FFormQuotient.random(rng, 2, 1, P)
    hs = subspace.zslice(phi, random_frame(rng, P))
    g = find_rank0(hs)
    assert g is not None
    assert subspace.z_rank(hs, [g]) == 0

    phi = subspace.FFormQuotient.random(rng, 4, 1, P)
    assert find_rank0(subspace.zslice(phi, random_frame(rng, P))) is None


def test_find_rank0_small_a_large_f(rng):
    # a = 2, f = 3: far above both thresholds, both contexts must produce
    # verified witnesses
    phi = subspace.FFormQuotient.random(rng, 2, 3, P)
    sl = subspace.zslice(phi)
    g = find_rank0(sl)
    assert g is not None and subspace.z_rank(sl, [g]) == 0
    hs = subspace.zslice(phi, random_frame(rng, P))
    gh = find_rank0(hs)
    assert gh is not None and subspace.z_rank(hs, [gh]) == 0


def rank0_by_loops(phi, frame=None):
    """The rank-0 search written out entry by entry: the reference for the
    vectorized symmetry system and induced covectors in find_rank0."""
    a, f, p = phi.a, phi.f, phi.prime
    if frame is None:
        n, t, quotient, width, target = 4, phi.t, phi.phi_matrix(), 10, int
    else:
        hs = subspace.zslice(phi, frame)
        n, t, quotient = 3, hs.t, hs.rows
        width, target = 9, HV_MONO_INDICES.index

    def unk(pp, rr, s):
        return (pp * 4 + rr) * f + s

    rows = []
    for j in range(a):
        for pp in range(n):
            for qq in range(pp + 1, n):
                row = [0] * (n * 4 * f)
                for rr in range(4):
                    for s in range(f):
                        row[unk(pp, rr, s)] += int(t[s, j, qq, rr])
                        row[unk(qq, rr, s)] -= int(t[s, j, pp, rr])
                rows.append(row)
    system = np.mod(np.array(rows, dtype=np.int64), p)
    for c in exactalg.kernel_basis(system, p):
        g = np.zeros(width * a, dtype=np.int64)
        for j in range(a):
            for pp in range(n):
                for qq in range(pp, 4):
                    acc = sum(int(c[unk(pp, rr, s)]) * int(t[s, j, qq, rr])
                              for rr in range(4) for s in range(f))
                    g[j * width + target(pair_index(pp + 1, qq + 1))] = acc % p
        stacked = np.vstack([quotient, g])
        if exactalg.rank(stacked, p) > exactalg.rank(quotient, p):
            return g
    return None


def test_find_rank0_matches_loop_reference(rng):
    for trial in range(24):
        a, f = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        phi = subspace.FFormQuotient.random(rng, a, f, P)
        frame = random_frame(rng, P) if trial % 2 else None
        want = rank0_by_loops(phi, frame)
        got = find_rank0(subspace.zslice(phi, frame))
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def test_rank_distribution_masses():
    rng = np.random.default_rng(11)
    phi = subspace.FFormQuotient.random(rng, 6, 2, P)
    hist = rank_distribution(phi, codim=1, trials=20, seed=3)
    assert hist == {4: 20}

    phi4 = subspace.FFormQuotient.random(rng, 4, 1, P)
    fr = random_frame(rng, P)
    hist = rank_distribution(phi4, fr, codim=1, trials=20, seed=3)
    assert hist == {3: 20}

    phi5 = subspace.FFormQuotient.random(rng, 5, 1, P)
    fr5 = random_frame(rng, P)
    hist = rank_distribution(phi5, fr5, codim=2, trials=20, seed=3)
    assert hist == {6: 20}


def test_rank_distribution_deterministic():
    rng = np.random.default_rng(11)
    phi = subspace.FFormQuotient.random(rng, 6, 2, P)
    h1 = rank_distribution(phi, codim=1, trials=10, seed=5)
    h2 = rank_distribution(phi, codim=1, trials=10, seed=5)
    assert h1 == h2
