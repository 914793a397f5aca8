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

from steinerlab import _gfcore_py, exactalg, seeding
from steinerlab.multilin import random_covector
from steinerlab.seeding import derive_rng

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
    assert len(Z) - exactalg.rank(Z, P) == 4


def test_proportional_rows():
    M = np.array([[1, 2, 3], [2, 4, 6], [5, 10, 15]], dtype=np.int64)
    assert exactalg.rank(M, P) == 1
    assert len(exactalg.kernel_basis(M, P)) == 2


def test_generic_tall_cokernel(rng):
    M = exactalg.random_matrix(rng, 5, 2, P)
    assert exactalg.rank(M, P) == 2
    assert len(M) - exactalg.rank(M, P) == 3


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


def test_matmul_mod_reduces_a_full_chunk(rng):
    # 8192 products near p**2 bring an unchunked sum within 2**38 of
    # 2**53, the end of float64's exact integers; the negative entries of
    # A are reduced first
    p = 1048573
    A = rng.integers(p - 8, p, size=(2, 8192)) - p
    B = rng.integers(p - 8, p, size=(8192, 3))
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(exactalg.matmul_mod(A, B, p), want.astype(np.int64))


@pytest.mark.parametrize("p, inner", [(P, 6), (1048573, 8193), (P, 0)])
def test_matmul_mod_multiplies_stacks(rng, p, inner):
    # a stack is chunked as a single matrix is: at 1048573 a chunk is 8192
    # terms, so 8193 take two passes, and an inner dimension of 0 (a 0-row
    # quotient's residue) takes one that gives zeros of the product's
    # shape; entries in (-p, p) are reduced first
    A = rng.integers(-p + 1, p, size=(2, 3, inner))
    B = rng.integers(-p + 1, p, size=(2, inner, 2))
    want = [(a.astype(object) @ b.astype(object)) % p for a, b in zip(A, B)]
    assert np.array_equal(exactalg.matmul_mod(A, B, p),
                          np.array(want, dtype=np.int64))
    assert np.array_equal(exactalg.matmul_mod(A[0], B[0], p),
                          np.array(want[0], dtype=np.int64))


@pytest.mark.parametrize("p", [5, P, 1048573])
def test_matmul_mod_mixes_residues_with_unreduced_operands(rng, p):
    # an operand of residues is used as it is, one with an entry below 0
    # or at least p is reduced first (unreduced, p << 40 would take the
    # float64 products past 2**53 at the larger primes); every pairing,
    # single and stacked, and neither operand is changed
    res = rng.integers(0, p, size=(2, 3, 4))
    res[0, 0, 0], res[1, 2, 3] = 0, p - 1
    neg = res.copy()
    neg[0, 1, 2] -= p << 40
    neg[1, 1, 1] = -1
    big = res.copy()
    big[1, 0, 1] += p << 40
    big[0, 2, 0] += p
    for A in (res, neg, big):
        for B in (res, neg, big):
            Bt = B.transpose(0, 2, 1)
            before = A.copy(), Bt.copy()
            want = [(a.astype(object) @ b.astype(object)) % p
                    for a, b in zip(A, Bt)]
            got = exactalg.matmul_mod(A, Bt, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.array(want, dtype=np.int64))
            assert np.array_equal(exactalg.matmul_mod(A[1], Bt[1], p),
                                  np.array(want[1], dtype=np.int64))
            assert np.array_equal(A, before[0])
            assert np.array_equal(Bt, before[1])


def test_matmul_mod_rejects_a_prime_past_exact_products():
    # at p = 2**31 - 1 a single product of residues leaves float64's exact
    # integers, so no chunking can keep the product exact
    p = 2**31 - 1
    A = np.array([[p - 1, p - 2], [p - 3, p - 1]])
    with pytest.raises(ValueError, match="too large"):
        exactalg.matmul_mod(A, A, p)


def test_matmul_mod_is_exact_at_the_largest_admitted_prime(rng):
    # 94906249 is the largest prime with p**2 < 2**53: one product per
    # chunk, each within float64's exact integers
    p = 94906249
    A = rng.integers(p - 8, p, size=(3, 5))
    B = rng.integers(p - 8, p, size=(5, 2))
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(exactalg.matmul_mod(A, B, p), want.astype(np.int64))


@pytest.mark.parametrize("seed, key, p, draws", [
    (0, (3, 0), 5, [[0, 1, 3], [1, 0, 3, 4], [1, 0, 4, 4, 0]]),
    (7, (13, 2, 5), 32003,
     [[31382, 30858, 28338], [25173, 30235, 16608, 5701],
      [3901, 9522, 24224, 31587, 6595]]),
    (2026, (5, 1), 1048573,
     [[757768, 1016784, 989525], [698417, 119213, 525031, 98767],
      [326801, 260228, 294032, 581231, 165313]]),
], ids=["5", "32003", "1048573"])
def test_bounded_draws_are_pinned(seed, key, p, draws):
    # every sampled value, and so every pinned report digest, comes from
    # integers(0, p, dtype=int64) on derive_rng's stream; three consecutive
    # calls of odd and even sizes pin it as literal numbers
    rng = derive_rng(seed, *key)
    got = [rng.integers(0, p, size=len(want), dtype=np.int64).tolist()
           for want in draws]
    assert got == draws, (
        f"numpy {np.__version__} draws other bounded integers from "
        f"derive_rng({seed}, *{key}) at p = {p}: a change in "
        f"Generator.integers moves every sampled value and report digest")


def _assert_covectors_match(seed, ts, p):
    """seeding.random_covectors(seed, 5, ts, p) row by row against
    random_covector(derive_rng(seed, 5, t), p)."""
    got = seeding.random_covectors(seed, 5, ts, p)
    want = np.array([random_covector(derive_rng(seed, 5, t), p) for t in ts])
    bad = [t for t, g, w in zip(ts, got, want) if not np.array_equal(g, w)]
    assert got.shape == want.shape and not bad, (
        f"numpy {np.__version__}: random_covectors({seed}, 5, ts, {p}) is "
        f"not random_covector(derive_rng({seed}, 5, t), {p}) at t in "
        f"{bad[:5]}: the batch no longer follows SeedSequence, PCG64 or "
        f"Generator.integers")


def _spy_redraws(monkeypatch):
    """The keys of the rows random_covectors takes from derive_rng."""
    keys = []

    def spy(seed, *key):
        keys.append(key)
        return derive_rng(seed, *key)

    monkeypatch.setattr(seeding, "derive_rng", spy)
    return keys


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 3], ids=["0", "3", "2^40+3"])
def test_random_covectors_match_derive_rng(seed, p):
    # trial ranges that end on either side of the survey's chunks of STACK,
    # and one that starts inside them; 2**40 + 3 is a two-word seed
    for ts in (range(1), range(63), range(64), range(65), range(130),
               range(63, 130)):
        _assert_covectors_match(seed, ts, p)


def test_random_covectors_redraw_an_all_zero_row(monkeypatch):
    # at p = 5 the first four draws of derive_rng(0, 5, 79) are all 0, so
    # random_covector draws again, and the batch takes that row from it
    first = derive_rng(0, 5, 79).integers(0, 5, size=4, dtype=np.int64)
    assert not first.any(), f"numpy {np.__version__} draws {first}"
    keys = _spy_redraws(monkeypatch)
    _assert_covectors_match(0, range(130), 5)
    assert keys == [(5, 79)], (
        f"numpy {np.__version__}: rows {keys} redrawn, expected t = 79")


def test_random_covectors_redraw_a_lemire_rejection(monkeypatch):
    # at p = 1048573 a 32-bit draw u is rejected when (u * p) mod 2**32 is
    # below (2**32 - p) % p = 12288; one of the four draws of
    # derive_rng(961, 5, 31) is, so Generator.integers draws again
    p = 1048573
    raw = derive_rng(961, 5, 31).bit_generator.random_raw(2).tolist()
    halves = [x >> s & 0xFFFFFFFF for x in raw for s in (0, 32)]
    assert any(u * p % 2**32 < (2**32 - p) % p for u in halves), (
        f"numpy {np.__version__}: no rejected draw in {halves}")
    keys = _spy_redraws(monkeypatch)
    _assert_covectors_match(961, range(31, 33), p)
    assert keys == [(5, 31)], (
        f"numpy {np.__version__}: rows {keys} redrawn, expected t = 31")


def test_random_covectors_redraw_a_two_word_trial(monkeypatch):
    # a t of 2**32 or more enters SeedSequence as two words
    keys = _spy_redraws(monkeypatch)
    _assert_covectors_match(0, [2**32 + 1, 7], 7)
    assert keys == [(5, 2**32 + 1)], (
        f"numpy {np.__version__}: rows {keys} redrawn, expected 2**32 + 1")


@pytest.mark.parametrize("p", [5, P])
def test_split_inverts_and_spans_the_kernel(rng, p):
    # QG = [Q | G] is invertible with M Q = id and G the canonical kernel
    # basis, empty when M is square; a matrix of rank below its row count,
    # or narrower than tall, has no split
    for _ in range(20):
        a, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        M = exactalg.random_matrix(rng, a, n, p)
        QG = exactalg.split(M, p)
        if n < a or exactalg.rank(M, p) < a:
            assert QG is None
            continue
        assert exactalg.rank(QG, p) == n
        MQG = exactalg.matmul_mod(M, QG, p)
        assert np.array_equal(MQG[:, :a], np.eye(a, dtype=np.int64))
        assert not MQG[:, a:].any()
        assert np.array_equal(QG[:, a:].T, exactalg.kernel_basis(M, p))
    M = exactalg.random_matrix(rng, 3, 7, p)
    M[2] = M[0]
    assert exactalg.split(M, p) is None
    # a square M of full rank splits as its inverse
    M = np.array([[1, 2, 0], [0, 1, 3], [2, 0, 1]])  # det 13
    Q = exactalg.split(M, p)
    assert Q.shape == (3, 3)
    assert np.array_equal(exactalg.matmul_mod(M, Q, p), np.eye(3))
    assert np.array_equal(exactalg.matmul_mod(Q, M, p), np.eye(3))
    assert exactalg.split(M[:, [0, 1, 0]], p) is None


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
    # blocks without columns or without rows round-trip too
    for shape in ((5, 0), (0, 3)):
        buf = io.StringIO()
        exactalg.write_matrix(buf, np.zeros(shape, dtype=np.int64), P)
        M4, _ = exactalg.read_matrix(io.StringIO(buf.getvalue()))
        assert M4.shape == shape


@pytest.mark.parametrize("text", [f"5 0 {P}\n", f"2 3 {P}\n1 2 3\n"])
def test_read_matrix_rejects_missing_rows(text):
    # end of file is not an empty row, even in a block of 0 columns
    with pytest.raises(ValueError, match="ends after"):
        exactalg.read_matrix(io.StringIO(text))


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


def _ranks(S, p):
    """Ranks of the int64 stack S by the core's stacked sweep, fed as
    exactalg.ranks_at feeds it: reduced into float64, a wide stack
    transposed."""
    F = np.mod(S, p).astype(np.float64)
    wide = F.shape[2] > F.shape[1]
    return _gfcore_py._stack_ranks(
        np.ascontiguousarray(F.transpose(0, 2, 1)) if wide else F, p)


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
def test_ranks_match_rank_and_oracle(rng, p):
    S = _stack_with_varied_pivots(rng, p)
    got = _ranks(S, p)
    assert got == [exactalg.rank(M, p) for M in S]
    assert got == [oracle_rank(M, p) for M in S]
    assert len(set(got)) > 3
    # one member alone, and the stack transposed
    assert _ranks(S[8:9], p) == [got[8]]
    assert _ranks(S.transpose(0, 2, 1), p) == got


def _member(rng, kind, n, m, p):
    """An n x m matrix mod p of the given kind, with its rank.

    "full" and "short" put a k x k block, k = min(n, m), in the last k rows
    and columns: an invertible upper-triangular matrix with its rows in
    reverse, so the sweep swaps rows at most columns, and a square member
    reaches rank k only at its last column.  "short" makes the block's last
    column its first plus twice its second, one below full rank."""
    k = min(n, m)
    if kind == "zero":
        return np.zeros((n, m), dtype=np.int64), 0
    if kind == "rank1":
        M = np.outer(rng.integers(1, p, size=n), rng.integers(1, p, size=m))
        return M % p, 1
    U = np.triu(rng.integers(0, p, size=(k, k)), 1)
    U[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
    B = U[::-1].copy()
    if kind == "short":
        B[:, -1] = (B[:, 0] + 2 * B[:, 1] if k > 1 else 0) % p
    M = np.zeros((n, m), dtype=np.int64)
    M[n - k:, m - k:] = B
    return M, k - (kind == "short")


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
@pytest.mark.parametrize("n,m", [(6, 6), (1, 1), (8, 5), (5, 8)])
def test_ranks_square_tall_and_wide(rng, p, n, m):
    # square stacks as well as tall and wide ones; one member alone (T = 1)
    # of each kind, then 64 members of mixed kinds and 64 full-rank ones
    kinds = ["zero", "rank1", "full", "short"]
    for kind in kinds:
        M, want = _member(rng, kind, n, m, p)
        assert _ranks(M[None], p) == [want]
    for cycle in (kinds, ["full"]):
        members = [_member(rng, cycle[t % len(cycle)], n, m, p)
                   for t in range(64)]
        S = np.stack([M for M, _ in members])
        got = _ranks(S, p)
        assert got == [want for _, want in members]
        assert got == [exactalg.rank(M, p) for M in S]
        assert got == [oracle_rank(M, p) for M in S]


# While every member pivots on its first active row, the stacked sweep
# takes BLOCK columns at a time: it factors only the block's K x K head,
# inverts the head once, and brings the rows below up to date by one Schur
# product.  At the first column where some member's first active entry is
# 0 mod p the head stops and the pivots found so far take their product.
# There a member with a nonzero entry below swaps that row up and stays,
# a member with none leaves with its rank, and the next block starts at
# that column.  The stacks below are 40 x 25 after transposition, several
# blocks wide, with those stops placed on purpose.


def _stalls(M, p):
    """The columns at which the stacked sweep stops for M (n >= m) alone,
    as (swaps, leave): elimination pivots on the first active row with an
    entry nonzero mod p, `swaps` lists the columns where that is not the
    first active row, and `leave` is the first column with no pivot, or m
    if there is none."""
    A = np.mod(M, p)
    swaps = []
    for j in range(A.shape[1]):
        nz = np.flatnonzero(A[j:, j])
        if not nz.size:
            return swaps, j
        if nz[0]:
            swaps.append(j)
            A[[j, j + nz[0]]] = A[[j + nz[0], j]]
        f = A[j + 1:, j] * pow(int(A[j, j]), -1, p) % p
        A[j + 1:] = (A[j + 1:] - np.outer(f, A[j])) % p
    return swaps, A.shape[1]


def _uniform_stop(M, p):
    """The first column at which elimination of M (n >= m) without row
    swaps meets a zero pivot mod p, or m if it meets none: the first stop
    of _stalls, since the two eliminations agree up to it."""
    swaps, leave = _stalls(M, p)
    return min(swaps[:1] + [leave])


def _block_inversions(S, p):
    """The batch inversions of the stacked sweep over S, each as the number
    of members it inverts for, read off each member's own stops: a block
    runs from column j to the next stop of a member still in the stack, at
    most BLOCK columns, and inverts once if it takes a pivot and has a
    column right of it; at a stop, the members whose leave it is go."""
    K, m = _gfcore_py.BLOCK, S.shape[2]
    stalls = [_stalls(M, p) for M in S]
    live, out, j, lo = list(range(len(S))), [], 0, 0
    while j < m and live:
        stop = min(c for t in live for c in stalls[t][0] + [stalls[t][1]]
                   if c >= lo)
        k = min(stop - j, K)
        if k and j + k < m:
            out.append(len(live))
        j += k
        if j == stop < m:
            live = [t for t in live if stalls[t][1] != j]
            lo = j + 1
    return out


def _lu_member(rng, n, m, p, diag):
    """L U mod p, L a random n x r unit lower-trapezoidal matrix and U an
    r x m upper-trapezoidal one with diagonal `diag` (length r): so
    elimination without row swaps meets exactly the pivots `diag`, and then
    columns with no pivot when r < m."""
    r = len(diag)
    L = np.tril(rng.integers(0, p, size=(n, r)), -1)
    L[np.arange(r), np.arange(r)] = 1
    U = np.triu(rng.integers(0, p, size=(r, m)), 1)
    U[np.arange(r), np.arange(r)] = diag
    return (L @ U) % p


def _stopping_stack(rng, stop, n, m, p):
    """Nine n x m members whose uniform step stops at column `stop` (none
    when stop is None).  The stop comes from a member with no pivot in that
    column and one whose first active entry there is 0 with a nonzero entry
    below it; later come a member of rank stop + 2, another whose first
    active entry is 0 at stop + 5 and one of rank m - 1.  The rest, and
    every member when there is no stop, are of full rank, some with their
    entries moved by multiples of p."""

    def full():
        return _lu_member(rng, n, m, p, rng.integers(1, p, size=m))

    def no_pivot(j):
        diag = rng.integers(1, p, size=m)
        diag[j] = 0
        return _lu_member(rng, n, m, p, diag)

    def zero_first(j):
        # row j is a combination of the rows above plus a vector that is 0
        # up to column j, so its entry there is 0 once they have pivoted
        M = full()
        v = rng.integers(0, p, size=m)
        v[:j + 1] = 0
        M[j] = (rng.integers(0, p, size=j) @ M[:j] + v) % p
        return M

    members = [full() for _ in range(9)]
    if stop is not None:
        members[:5] = [no_pivot(stop), zero_first(stop),
                       _lu_member(rng, n, m, p, rng.integers(1, p, stop + 2)),
                       zero_first(stop + 5), no_pivot(m - 1)]
    for t in (2, 6, 8):
        members[t] = members[t] + p * rng.integers(-2, 3, size=(n, m))
    return np.stack(members)


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
@pytest.mark.parametrize("where", ["column_0", "in_block", "at_seam",
                                   "nowhere"])
def test_ranks_blocked_uniform_step_stops(rng, p, where):
    K = _gfcore_py.BLOCK
    n, m = 40, 25
    assert 2 * K + 5 < m - 1
    stop = {"column_0": 0, "in_block": K + 3, "at_seam": 2 * K,
            "nowhere": None}[where]
    S = _stopping_stack(rng, stop, n, m, p)
    assert min(_uniform_stop(M, p) for M in S) == (m if stop is None
                                                   else stop)
    want = [oracle_rank(M, p) for M in S]
    assert want == [exactalg.rank(M, p) for M in S]
    if stop is not None:
        assert want[2] == stop + 2 and want[4] == m - 1
    # tall, and wide: 25 x 40 members, swept transposed
    assert _ranks(S, p) == want
    wide = np.ascontiguousarray(S.transpose(0, 2, 1))
    assert _ranks(wide, p) == want


def _counting_inverses(monkeypatch):
    """Patch the core's batch inversion to count its calls."""
    calls, inverses = [], _gfcore_py._inverses

    def count(v, p):
        calls.append(len(v))
        return inverses(v, p)

    monkeypatch.setattr(_gfcore_py, "_inverses", count)
    return calls


def test_ranks_invert_once_per_block(rng, monkeypatch):
    # generic stacks of the mh survey's shapes, 50 members each.  At
    # (20, 60, 1) they are 60 x 41 of rank 40: the blocks at columns 0, 8,
    # .., 32 each invert their head once; the block at column 40 meets no
    # pivot, so every member leaves there with rank 40, and 5 batch
    # inversions in all, where one per pivot column would make 40.  At
    # (12, 36, 2) they are 36 x 26 of rank 24: the blocks at 0, 8 and 16
    # invert once each, and at column 24, where no member pivots, every
    # member leaves without another inversion
    T = 50
    calls = _counting_inverses(monkeypatch)
    for n, m, r, blocks in [(60, 41, 40, 5), (36, 26, 24, 3)]:
        S = np.stack([_lu_member(rng, n, m, P, rng.integers(1, P, size=r))
                      for _ in range(T)])
        calls.clear()
        assert _ranks(S, P) == [r] * T
        assert calls == [T] * blocks


@pytest.mark.parametrize("p", [5, 7, 1048573])
def test_ranks_head_stops_mid_block_in_one_member(rng, monkeypatch, p):
    # nine 40 x 25 members, all of which pivot on their first active row at
    # every column but one member at column K + 3, inside the second block's
    # head, where its first active entry is 0 and a row below has a
    # nonzero entry.  The first block inverts once, the second once for its
    # 3 pivots; that member swaps the row up and stays, so the block from
    # column K + 3 inverts once for its 8 pivots, and the last 6 columns
    # have none right of them: [9, 9, 9].  At a small prime that member's
    # own later stops can add blocks, so the pin is read off its stops
    K = _gfcore_py.BLOCK
    n, m, stop = 40, 25, K + 3
    members = [_lu_member(rng, n, m, p, rng.integers(1, p, size=m))
               for _ in range(9)]
    M = members[4]
    v = rng.integers(0, p, size=m)
    v[:stop + 1] = 0
    M[stop] = (rng.integers(0, p, size=stop) @ M[:stop] + v) % p
    S = np.stack(members)
    assert [_uniform_stop(M, p) for M in S] == [m] * 4 + [stop] + [m] * 4
    assert _stalls(M, p)[0][0] == stop
    calls = _counting_inverses(monkeypatch)
    want = [oracle_rank(M, p) for M in S]
    assert _ranks(S, p) == want
    assert calls == _block_inversions(S, p)
    if p == 1048573:
        assert calls == [9] * 3
    assert want == [exactalg.rank(M, p) for M in S]


def _row_j_alone(rng, n, m, p, j, c):
    """An n x m member (n >= m) with no pivot in column j, after pivots in
    columns 0 .. j - 1.  Once they are eliminated its active rows are a
    block N, 0 in column j, in which row j alone is nonzero in column c:
    so its rank is j + rank N, and rank N is one more than that of N
    without row j."""
    M = _lu_member(rng, n, m, p, rng.integers(1, p, size=j))
    N = np.zeros((n - j, m), dtype=np.int64)
    N[1:, j + 1:] = (rng.integers(0, p, size=(n - j - 1, 2)) @
                     rng.integers(0, p, size=(2, m - j - 1)))
    N[0, j + 1:] = rng.integers(0, p, size=m - j - 1)
    N[:, c] = 0
    N[0, c] = rng.integers(1, p)
    M[j:] += N
    return M % p


@pytest.mark.parametrize("p", [5, 7, 32003, 1048573])
def test_ranks_leaving_member_keeps_row_j(rng, p):
    # a member with no pivot at column j leaves with rank j plus that of
    # its active rows right of the column, from row j down: here row j
    # holds the only nonzero entry of column c, so a sweep that lost it
    # would be one short.  The stop falls inside a block and at its seam
    K = _gfcore_py.BLOCK
    n, m = 40, 25
    for j in (K + 3, 2 * K):
        members = [_lu_member(rng, n, m, p, rng.integers(1, p, size=m))
                   for _ in range(4)]
        members.insert(2, _row_j_alone(rng, n, m, p, j, m - 2))
        S = np.stack(members)
        assert _stalls(S[2], p) == ([], j)
        want = [oracle_rank(M, p) for M in S]
        assert want == [exactalg.rank(M, p) for M in S]
        assert _ranks(S, p) == want


def _counting_sweeps(monkeypatch):
    """Patch the core's single-matrix sweep to record the shape of each
    block it is called on."""
    calls, sweep = [], _gfcore_py._sweep_panels

    def count(F, p, full):
        calls.append(F.shape)
        return sweep(F, p, full)

    monkeypatch.setattr(_gfcore_py, "_sweep_panels", count)
    return calls


def test_ranks_sweep_only_a_nonzero_leaving_block(rng, monkeypatch):
    # a member leaves the stack at a column where it has no pivot, and
    # only a block right of that column that is nonzero mod p is swept,
    # once, by the single-matrix sweep.  A generic stack never leaves;
    # the survey shapes (60 x 41 of rank 40, 36 x 26 of rank 24) leave at
    # column 40 and 24 with nothing left to rank
    T = 50
    calls = _counting_sweeps(monkeypatch)
    for n, m, r in [(40, 25, 25), (60, 41, 40), (36, 26, 24)]:
        S = np.stack([_lu_member(rng, n, m, P, rng.integers(1, P, size=r))
                      for _ in range(T)])
        assert _ranks(S, P) == [r] * T
        assert calls == []
    # one generic member of 40 x 25 traded for one with no pivot at
    # column 11, of rank 24, and a nonzero block right of that column
    S = np.stack([_lu_member(rng, 40, 25, P, rng.integers(1, P, size=25))
                  for _ in range(T)])
    diag = rng.integers(1, P, size=25)
    diag[11] = 0
    S[1] = _lu_member(rng, 40, 25, P, diag)
    assert _ranks(S, P) == [25, 24] + [25] * (T - 2)
    assert calls == [(40 - 11, 25 - 12)]


def test_ranks_leaving_block_wider_than_a_panel(rng, monkeypatch):
    # two 300 x 260 members that leave at columns 3 and 5, each with a
    # block of more than PANEL columns right of its stop: one of rank 259,
    # one with row 5 alone nonzero in a column of the block's second panel
    p, n, m = 7, 300, 260
    diag = rng.integers(1, p, size=m)
    diag[3] = 0
    S = np.stack([_lu_member(rng, n, m, p, diag),
                  _row_j_alone(rng, n, m, p, 5, 200)])
    calls = _counting_sweeps(monkeypatch)
    got = _ranks(S, p)
    assert calls == [(n - 3, m - 4), (n - 5, m - 6)]
    assert min(w for _, w in calls) > _gfcore_py.PANEL
    assert got == [259, oracle_rank(S[1], p)]
    assert got == [exactalg.rank(M, p) for M in S]


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
    # any int64 entries: 3 * 2**62 overflows int64, and is 8281 mod 32003
    big = np.full((4, 1, 1), 2**62, dtype=np.int64)
    assert np.array_equal(
        exactalg.evaluate_linear(big, [3, 0, 0, 0], 32003), [[8281]])


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
