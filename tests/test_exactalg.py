"""Exact mod-p linear algebra, cross-checked against sympy's DomainMatrix.

sympy is slow but independently implemented, so it serves as the oracle for
rank and kernel dimension on small random matrices; the trivial cases
(identity, zero, proportional rows) are pinned by hand.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from steinerlab import _gfcore_py, exactalg

P = exactalg.DEFAULT_PRIME


def oracle_rank(M, p):
    M = np.asarray(M, dtype=np.int64)
    dom = GF(p)
    dm = DomainMatrix(
        [[dom(int(x)) for x in row] for row in M.tolist()], M.shape, dom
    )
    return dm.rank()


def oracle_nullity(M, p):
    M = np.asarray(M, dtype=np.int64)
    dom = GF(p)
    dm = DomainMatrix(
        [[dom(int(x)) for x in row] for row in M.tolist()], M.shape, dom
    )
    return dm.nullspace().shape[0]


def inv_matrix(M, p=P):
    """Inverse of a square matrix mod p, via elimination on [M | I]; the
    oracle other test modules import for changes of basis."""
    M = np.asarray(M, dtype=np.int64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("inv_matrix needs a square matrix")
    aug = np.hstack([np.mod(M, p), np.eye(n, dtype=np.int64)])
    R, _, pivots = exactalg.rref(aug, p)
    # [M | I] always has full row rank; M is invertible exactly when all n
    # pivots sit in the left block
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return R[:, n:].copy()


def test_prime_validation():
    assert exactalg.validate_prime(32003) == 32003
    assert exactalg.validate_prime(5) == 5
    assert exactalg.validate_prime(65537) == 65537
    for bad in (0, 1, 2, 3, 4, 15, 32004, 1 << 20, (1 << 20) + 7, -7):
        with pytest.raises(ValueError):
            exactalg.validate_prime(bad)


def test_identity_rank():
    for n in (1, 3, 8):
        assert exactalg.rank(np.eye(n, dtype=np.int64), P) == n


def test_zero_matrix():
    Z = np.zeros((4, 6), dtype=np.int64)
    assert exactalg.rank(Z, P) == 0
    assert len(exactalg.kernel_basis(Z, P)) == 6
    assert exactalg.cokernel_dim(Z, P) == 4
    assert exactalg.corank(Z, P) == 4


def test_proportional_rows():
    M = np.array([[1, 2, 3], [2, 4, 6], [5, 10, 15]], dtype=np.int64)
    assert exactalg.rank(M, P) == 1
    assert len(exactalg.kernel_basis(M, P)) == 2


def test_generic_tall_cokernel(rng):
    M = exactalg.random_matrix(rng, 5, 2, P)
    assert exactalg.rank(M, P) == 2
    assert exactalg.cokernel_dim(M, P) == 3
    assert exactalg.corank(M, P) == 0


def test_rank_against_oracle(rng):
    for trial in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(n, m) + 1))
        L = rng.integers(0, P, size=(n, r))
        R = rng.integers(0, P, size=(r, m))
        M = exactalg.matmul_mod(L, R, P)
        assert exactalg.rank(M, P) == oracle_rank(M, P)
        assert len(exactalg.kernel_basis(M, P)) == oracle_nullity(M, P)


def test_rank_transpose_invariance(rng):
    for _ in range(10):
        M = exactalg.random_matrix(rng, 7, 4, P)
        M[:, 3] = (M[:, 0] + M[:, 1]) % P
        assert exactalg.rank(M, P) == exactalg.rank(M.T, P)


def test_kernel_vectors_annihilate(rng):
    for _ in range(10):
        L = rng.integers(0, P, size=(6, 3))
        R = rng.integers(0, P, size=(3, 8))
        M = exactalg.matmul_mod(L, R, P)
        kb = exactalg.kernel_basis(M, P)
        assert exactalg.rank(M, P) + len(kb) == M.shape[1]
        for v in kb:
            assert not exactalg.matmul_mod(M, v.reshape(-1, 1), P).any()


def test_rref_idempotent_and_canonical(rng):
    M = exactalg.random_matrix(rng, 6, 9, P)
    M[4] = (3 * M[0] + 5 * M[1]) % P
    R1, r1, piv1 = exactalg.rref(M, P)
    R2, r2, piv2 = exactalg.rref(R1, P)
    assert r1 == r2 == 5
    assert piv1 == piv2
    assert np.array_equal(R1, R2)
    for i, pc in enumerate(piv1):
        col = np.zeros(6, dtype=np.int64)
        col[i] = 1
        assert np.array_equal(R1[:, pc], col)


def test_input_not_mutated(rng):
    M = exactalg.random_matrix(rng, 5, 5, P)
    before = M.copy()
    exactalg.rank(M, P)
    exactalg.rref(M, P)
    exactalg.kernel_basis(M, P)
    assert np.array_equal(M, before)


def test_matmul_mod_matches_object_arithmetic(rng):
    A = rng.integers(0, P, size=(4, 6))
    B = rng.integers(0, P, size=(6, 3))
    want = (A.astype(object) @ B.astype(object)) % P
    got = exactalg.matmul_mod(A, B, P)
    assert np.array_equal(got, want.astype(np.int64))


def test_matmul_mod_chunks_a_long_inner_dimension(rng):
    # at p = 1048573 a chunk is 8192 terms, the most whose sum of products
    # stays below 2**53; entries near p bring the 8193-term sums past it
    p = 1048573
    A = rng.integers(p - 8, p, size=(2, 8193))
    B = rng.integers(p - 8, p, size=(8193, 3))
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(exactalg.matmul_mod(A, B, p), want.astype(np.int64))


def test_inv_matrix(rng):
    for _ in range(5):
        while True:
            M = exactalg.random_matrix(rng, 4, 4, P)
            if exactalg.rank(M, P) == 4:
                break
        Minv = inv_matrix(M, P)
        assert np.array_equal(
            exactalg.matmul_mod(M, Minv, P), np.eye(4, dtype=np.int64)
        )
        assert np.array_equal(
            exactalg.matmul_mod(Minv, M, P), np.eye(4, dtype=np.int64)
        )


def test_inv_matrix_singular_raises():
    M = np.array([[1, 2], [2, 4]], dtype=np.int64)
    with pytest.raises(ValueError):
        inv_matrix(M, P)
    with pytest.raises(ValueError):
        inv_matrix(np.zeros((3, 3), dtype=np.int64), P)


def test_matrix_interchange_round_trip(rng):
    M = exactalg.random_matrix(rng, 3, 5, P)
    buf = io.StringIO()
    exactalg.write_matrix(buf, M, P)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"3 5 {P}"
    M2, p2 = exactalg.read_matrix(io.StringIO(text))
    assert p2 == P
    assert np.array_equal(M, M2)
    # entries outside [0, p) that fit int64 load reduced mod p
    M3, _ = exactalg.read_matrix(
        io.StringIO(f"1 3 {P}\n-1 {P + 2} {-2**63}\n"))
    assert M3.tolist() == [[P - 1, 2, -2**63 % P]]


def test_small_prime_field():
    # elimination must stay correct at the smallest admissible prime
    M = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [0, 1, 0, 1]], dtype=np.int64)
    assert exactalg.rank(M, 5) == oracle_rank(M, 5)
    kb = exactalg.kernel_basis(M, 5)
    assert len(kb) == 4 - oracle_rank(M, 5)
    for v in kb:
        assert not exactalg.matmul_mod(M, v.reshape(-1, 1), 5).any()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_rank_oracle_property(n, m, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, P, size=(n, m))
    if seed % 3 == 0 and n > 1:
        M[n - 1] = (2 * M[0]) % P
    assert exactalg.rank(M, P) == oracle_rank(M, P)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_product_bound_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, P, size=(5, 4))
    B = rng.integers(0, P, size=(4, 6))
    rAB = exactalg.rank(exactalg.matmul_mod(A, B, P), P)
    assert rAB <= min(exactalg.rank(A, P), exactalg.rank(B, P))


def _stack_with_varied_pivots(rng, p):
    """Eleven 7 x 9 matrices mod p, most rank-deficient, whose pivots sit on
    different rows from member to member, so the stacked sweep swaps
    different rows of each at each column."""
    S = rng.integers(0, p, size=(11, 7, 9))
    for t in range(1, 6):
        # rows above t vanish: the first pivot is on row t, and the rank
        # is at most 7 - t
        S[t, :t] = 0
    # zeros that move the pivot of column j to a row below the top active
    # one, differently in each member
    S[6, np.arange(7), np.arange(7)] = 0
    S[7, ::2, :4] = 0
    S[8] = (rng.integers(0, p, size=(7, 3)) @
            rng.integers(0, p, size=(3, 9))) % p
    S[9, 5] = (3 * S[9, 1] + S[9, 2]) % p
    S[9, 6] = S[9, 1]
    S[10] = p - 1
    return S


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
def test_ranks_match_rank_and_oracle(rng, p):
    S = _stack_with_varied_pivots(rng, p)
    got = _gfcore_py.ranks(S, p)
    assert got == [exactalg.rank(M, p) for M in S]
    assert got == [oracle_rank(M, p) for M in S]
    assert len(set(got)) > 3
    # one member alone, and the stack transposed
    assert _gfcore_py.ranks(S[8:9], p) == [got[8]]
    assert _gfcore_py.ranks(S.transpose(0, 2, 1), p) == got


def test_ranks_over_several_sweeps(rng):
    # forms whose value at x_k e_k has rank k + 1, at 0 rank 0 and at a
    # random point generically 5; 150 points take three sweeps, and their
    # ranks run through 0..5
    forms = np.stack([(rng.integers(0, 7, size=(5, k + 1)) @
                       rng.integers(0, 7, size=(k + 1, 6))) % 7
                      for k in range(4)])
    points = np.zeros((150, 4), dtype=np.int64)
    for t in range(150):
        if t % 6 == 5:
            points[t] = rng.integers(1, 7, size=4)
        elif t % 6:
            points[t, t % 6 - 1] = rng.integers(1, 7)
    got = exactalg.ranks_at(forms, iter(points), 7)
    values = exactalg.evaluate_linear(forms, points, 7)
    assert got == [exactalg.rank(M, 7) for M in values]
    assert set(got) == set(range(6))


def test_evaluate_linear_is_the_sum_of_the_forms():
    forms = np.arange(4 * 2 * 3, dtype=np.int64).reshape(4, 2, 3)
    x = np.array([1, 2, 0, 5])
    want = (forms[0] + 2 * forms[1] + 5 * forms[3]) % 11
    assert np.array_equal(exactalg.evaluate_linear(forms, x, 11), want)
    # a (T, 4) array of points gives the stack of the values at each
    xs = np.stack([x, np.eye(4, dtype=np.int64)[2]])
    assert np.array_equal(exactalg.evaluate_linear(forms, xs, 11),
                          [want, forms[2] % 11])


def test_ranks_empty_shapes():
    x = [1, 2, 3, 4]

    def zeros(*shape):
        return np.zeros(shape, dtype=np.int64)

    assert exactalg.ranks_at(zeros(4, 3, 4), [], P) == []
    assert exactalg.ranks_at(zeros(4, 0, 4), [x] * 3, P) == [0] * 3
    assert exactalg.ranks_at(zeros(4, 4, 0), [x] * 2, P) == [0] * 2
    assert exactalg.ranks_at(zeros(4, 4, 5), [x], P) == [0]
    for shape in ((4, 5), (3, 4, 5)):
        with pytest.raises(ValueError):
            exactalg.ranks_at(zeros(*shape), [x], P)


def _unread():
    raise AssertionError("a point was read")
    yield


def test_ranks_capacity_guard():
    # past the exactness bound the forms are refused as a single matrix is,
    # before any point is read or any work array is made
    big = 1073741789
    forms = np.ones((4, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError) as single:
        exactalg.rank(forms[0], big)
    with pytest.raises(ValueError) as stacked:
        exactalg.ranks_at(forms, _unread(), big)
    assert str(stacked.value) == str(single.value)
    huge = np.broadcast_to(np.int64(0), (4, 8100, 8100))
    with pytest.raises(ValueError, match="too large"):
        exactalg.ranks_at(huge, _unread(), 1048573)
