"""The elimination core against independent oracles.

Canonical reduced echelon forms feed serialization and reproducible reports,
so the float64 core must reproduce, bit for bit, what a textbook
Gauss-Jordan elimination in exact integer arithmetic gives, and agree with
sympy's rref over GF(p) wherever sympy is fast enough to run.
"""

import itertools

import numpy as np
import pytest
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from steinerlab import _gfcore_py, backend, exactalg

P = 32003


def oracle_rref(M, p):
    """Unblocked Gauss-Jordan over F_p in int64, one pivot at a time;
    returns (R, rank, pivots).  Every intermediate stays below p**2."""
    R = np.mod(np.array(M, dtype=np.int64), p)
    n, m = R.shape
    pivots = []
    for c in range(m):
        r = len(pivots)
        if r == n:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        col = R[:, c].copy()
        col[r] = 0
        R = np.mod(R - np.outer(col, R[r]), p)
        pivots.append(c)
    return R, len(pivots), pivots


def sympy_rref(M, p):
    dom = GF(p)
    dm = DomainMatrix(
        [[dom(int(x)) for x in row] for row in np.asarray(M).tolist()],
        M.shape, dom,
    )
    R, pivots = dm.rref()
    rows = [[int(x) % p for x in row] for row in R.to_Matrix().tolist()]
    return np.array(rows, dtype=np.int64).reshape(M.shape), list(pivots)


def _core(M, p, full):
    a = np.array(M, dtype=np.int64, order="C")
    r, piv = backend._core.rref(a, p, full)
    return a, r, list(piv)


def _check_against(M, p, R, pivots):
    """The core's rank-only and full runs both reproduce the oracle."""
    _, r, piv = _core(M, p, False)
    assert (r, piv) == (len(pivots), pivots)
    A, r, piv = _core(M, p, True)
    assert (r, piv) == (len(pivots), pivots)
    assert np.array_equal(A, R)


def test_core_matches_oracle_random(rng):
    shapes = [(1, 1), (7, 7), (13, 5), (5, 13), (40, 40)]
    for n, m in shapes:
        for trial in range(6):
            r = int(rng.integers(0, min(n, m) + 1))
            L = rng.integers(0, P, size=(n, r))
            R = rng.integers(0, P, size=(r, m))
            M = ((L.astype(object) @ R.astype(object)) % P).astype(np.int64)
            R0, rank0, piv0 = oracle_rref(M, P)
            assert rank0 <= r
            S, spiv = sympy_rref(M, P)
            assert spiv == piv0 and np.array_equal(S, R0)
            _check_against(M, P, R0, piv0)


def test_core_matches_oracle_panel_boundaries(rng):
    # the core eliminates in 128-column panels; straddle the seams (sympy
    # needs seconds per matrix at these sizes, so only the int64 oracle runs).
    # Every shape here is rank-deficient, so the sweep visits every panel;
    # (150, 500) does so across four panels, each updating all on its right.
    # (129, 127) and (260, 130) take one sweep of the whole matrix, tall;
    # in (140, 300) the second panel has 12 active rows, and in (300, 300)
    # the third has 44 for its 44 columns
    for n, m in [(129, 127), (127, 129), (130, 260), (260, 130), (256, 256),
                 (150, 500), (140, 300), (300, 300)]:
        M = rng.integers(0, P, size=(n, m)).astype(np.int64)
        M[n // 2] = (M[0] + M[1]) % P
        M[:, m // 2] = (M[:, 0] + 2 * M[:, 1]) % P
        R0, rank0, piv0 = oracle_rref(M, P)
        assert rank0 == min(n, m) - 1
        assert m // 2 not in piv0
        _check_against(M, P, R0, piv0)


@pytest.mark.parametrize("n, m", [(100, 400), (130, 520)])
def test_core_matches_oracle_full_row_rank_wide(rng, n, m):
    # the rank reaches the row count in the first panel: the rank-only run
    # stops there, and the full run still solves the pivot rows' part on
    # the panel's right by the inverse of their pivot block
    M = rng.integers(0, P, size=(n, m)).astype(np.int64)
    R0, rank0, piv0 = oracle_rref(M, P)
    assert rank0 == n and piv0[-1] < m - 128
    _check_against(M, P, R0, piv0)


def test_core_matches_oracle_late_row_swaps(rng):
    # A sparse 0/1 matrix whose row swaps come only after two panels are
    # finished.  Rows 0-9 pivot in panel 0 and rows 10-19 in panel 1.  Row
    # 20 + i is a copy of pivot row src[i] plus a single 1 in column
    # cols[i] >= 256, a column every pivot row leaves zero; so once the
    # updates of panels 0 and 1 have reduced it, it is that unit vector, and
    # the columns are in decreasing order, so panel 2 finds each pivot by a
    # row swap.  The rank reaches 30 there, and the full run still solves
    # the trailing columns of panel 2's pivot rows.  It guards the rows a
    # late panel moves and that panel's update of the rows above it.
    n, m = 30, 400
    M = np.zeros((n, m), dtype=np.int64)
    M[:10, 10:] = rng.random((10, m - 10)) < 0.1
    M[np.arange(10), np.arange(10)] = 1
    M[10:20, 138:] = rng.random((10, m - 138)) < 0.1
    M[np.arange(10, 20), np.arange(128, 138)] = 1
    cols = np.arange(370, 260, -11)
    M[:20, cols] = 0
    src = rng.integers(0, 20, size=10)
    M[20:] = M[src]
    M[np.arange(20, 30), cols] = 1
    R0, rank0, piv0 = oracle_rref(M, P)
    assert rank0 == n
    assert piv0[20:] == sorted(cols.tolist())
    _check_against(M, P, R0, piv0)


def test_panel_sweep_is_a_loop():
    # a 1 x 130,000 row spans 1,016 panels, and only the last one pivots:
    # a sweep that recursed over its panels would pass Python's recursion
    # limit
    m = 130_000
    M = np.zeros((1, m), dtype=np.int64)
    M[0, -1] = 7
    R, r, piv = exactalg.rref(M, P)
    assert (r, piv) == (1, [m - 1])
    assert R[0, -1] == 1 and not R[0, :-1].any()
    assert exactalg.rank(M, P) == 1


def test_core_matches_oracle_small_prime(rng):
    M = rng.integers(0, 5, size=(31, 47)).astype(np.int64)
    R0, piv0 = sympy_rref(M, 5)
    R1, _, piv1 = oracle_rref(M, 5)
    assert piv0 == piv1 and np.array_equal(R0, R1)
    _check_against(M, 5, R0, piv0)


# A matrix wider than PANEL = 128 columns is swept one panel at a time: the
# panel's active rows take one Gauss-Jordan sweep, and the rows below and
# above take one product each.  The tests below put zero, dependent and
# pivot-free columns inside panels and on the seam between two panels, on
# tall matrices whose rows below stay active in every panel.


def test_core_matches_oracle_leaf_and_half_seams(rng):
    # zero and dependent columns at 15-17 and 63-65 of the first two
    # panels, which their sweeps pass over, with 300 rows so that rows stay
    # below the pivots of both panels and take both products
    n, m = 300, 400
    M = rng.integers(0, P, size=(n, m)).astype(np.int64)
    for base in (0, 128):
        M[:, base + 15] = 0
        M[:, base + 16] = (M[:, 0] + 3 * M[:, base + 14]) % P
        M[:, base + 17] = (2 * M[:, base + 16] + M[:, 1]) % P
        M[:, base + 63] = 0
        M[:, base + 64] = (M[:, base + 62] + M[:, 2]) % P
        M[:, base + 65] = 0
    R0, rank0, piv0 = oracle_rref(M, P)
    for base in (0, 128):
        assert not {base + c for c in (15, 16, 17, 63, 64, 65)} & set(piv0)
    _check_against(M, P, R0, piv0)


@pytest.mark.parametrize("half", ["left", "right", "seam"])
def test_core_matches_oracle_half_without_pivot(rng, half):
    # one half of the first panel yields no pivot: zero columns on the left,
    # combinations of the left half's columns on the right; or a zero column
    # block across the seam of the first two panels, so that each of them
    # ends, or starts, with columns the sweep finds exactly zero
    n, m = 300, 320
    M = rng.integers(0, P, size=(n, m)).astype(np.int64)
    cols = {"left": range(0, 64), "right": range(64, 128),
            "seam": range(100, 160)}[half]
    if half == "right":
        M[:, 64:128] = (M[:, :64] @ rng.integers(0, 3, size=(64, 64))) % P
    else:
        M[:, cols] = 0
    R0, rank0, piv0 = oracle_rref(M, P)
    assert not set(cols) & set(piv0)
    _check_against(M, P, R0, piv0)


def test_core_matches_oracle_small_prime_halved(rng):
    # at p = 5 a panel's sweep meets many singular 2 x 2 blocks and row
    # swaps, and the pivot block of each panel is inverted at p = 5 too
    M = rng.integers(0, 5, size=(256, 300)).astype(np.int64)
    R0, rank0, piv0 = oracle_rref(M, 5)
    _check_against(M, 5, R0, piv0)


@pytest.mark.parametrize("kind", ["all_top", "near_top"])
def test_core_matches_oracle_near_capacity_prime(rng, kind):
    # entries p - 1 make every product as large as a residue product can be;
    # (300 + 130) * p**2 stays below 2**53 with room for the accumulation.
    # A repeated row and 40 columns past the square part leave free columns,
    # whose entries in the reduced form show any error of the sweep
    p = 1048573
    n, m = 300, 340
    _gfcore_py._check_capacity(n, m, p)
    if kind == "all_top":
        M = np.full((n, m), p - 1, dtype=np.int64)
        M[np.arange(n), np.arange(n)] = 0
        M[:, n:] = rng.integers(p - 2, p, size=(n, m - n))
    else:
        M = rng.integers(p - 4, p, size=(n, m)).astype(np.int64)
    M[n - 1] = M[0]
    R0, rank0, piv0 = oracle_rref(M, p)
    assert rank0 == n - 1
    _check_against(M, p, R0, piv0)


# rref runs one Gauss-Jordan sweep of the whole matrix when it has at most
# PANEL = 128 columns, whether full or rank-only, and one sweep per panel
# otherwise; the tests below straddle that choice.  _check_against runs the
# rank-only run first, then the full one.


def _sweeps(monkeypatch):
    """The shapes _gauss_jordan is called on from here on."""
    shapes, gj = [], _gfcore_py._gauss_jordan

    def spy(F, p):
        shapes.append(F.shape)
        return gj(F, p)

    monkeypatch.setattr(_gfcore_py, "_gauss_jordan", spy)
    return shapes


def _sweeps_of(n, m, pivots, full):
    """The shapes rref sweeps on an n x m matrix with these pivot columns:
    the whole matrix when m <= 128.  Otherwise each panel whose active rows
    hold a pivot, its n - r0 active rows below the r0 pivots of the panels
    before it; then, while columns remain on its right, the [B | id] of its
    k pivots, k x 2k, unless a rank-only run has reached the row count."""
    if m <= 128:
        return [(n, m)]
    shapes = []
    for c0 in range(0, m, 128):
        c1 = min(c0 + 128, m)
        r0, r1 = (sum(c < e for c in pivots) for e in (c0, c1))
        if r1 == r0:
            continue
        shapes.append((n - r0, c1 - c0))
        if c1 < m and (full or r1 < n):
            shapes.append((r1 - r0, 2 * (r1 - r0)))
    return shapes


def _deficient(rng, n, m, p):
    """An n x m matrix of rank min(n, m) - 3 mod p, its column 0 zero and
    its row 1 a copy of row 0; p times random entries, so rank 0, when
    min(n, m) = 1."""
    k = min(n, m)
    if k == 1:
        return p * rng.integers(-3, 4, size=(n, m))
    M = (rng.integers(0, p, size=(n, k - 3))
         @ rng.integers(0, p, size=(k - 3, m))) % p
    M[:, 0] = 0
    M[1] = M[0]
    return M


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_core_matches_oracle_at_the_gauss_jordan_seam(rng, monkeypatch, p):
    swept = _sweeps(monkeypatch)
    for n, m in [(128, 128), (128, 129), (129, 128), (1, 128), (128, 1)]:
        M = _deficient(rng, n, m, p)
        assert oracle_rref(M, p)[1] == max(min(n, m) - 3, 0)
        for A in [M] + ([_awkward(rng, M, p)] if min(n, m) > 3 else []):
            R0, rank0, piv0 = oracle_rref(A, p)
            swept.clear()
            _check_against(A, p, R0, piv0)
            # at most 128 columns take one sweep of the whole matrix, more
            # take one sweep per panel
            assert swept == (_sweeps_of(n, m, piv0, False)
                             + _sweeps_of(n, m, piv0, True))


@pytest.mark.parametrize("kind", ["all_top", "near_top"])
def test_gauss_jordan_near_capacity_prime(rng, monkeypatch, kind):
    # entries p - 1, as in the panel test above, on the largest square the
    # Gauss-Jordan sweep takes whole: the rows above each pivot accumulate
    # up to rank * p**2 before the one final reduction
    swept = _sweeps(monkeypatch)
    p, n = 1048573, 128
    if kind == "all_top":
        M = np.full((n, n), p - 1, dtype=np.int64)
        M[np.arange(n), np.arange(n)] = 0
    else:
        M = rng.integers(p - 4, p, size=(n, n)).astype(np.int64)
    M[n - 1] = M[0]
    R0, rank0, piv0 = oracle_rref(M, p)
    assert rank0 == n - 1
    _check_against(M, p, R0, piv0)
    assert swept == [(n, n)] * 2


def _staircase(rng, p, blocks, extra):
    """Blocks placed down the diagonal, each block's rows zero left of it
    and random right of it, then `extra` random columns.  Each block has
    full row rank, so the Gauss-Jordan sweep meets block k's entries as
    they are, on the rows and columns where the blocks before it end.
    Every entry is then moved by a random multiple of p."""
    n = sum(B.shape[0] for B in blocks)
    m = sum(B.shape[1] for B in blocks) + extra
    M = rng.integers(0, p, size=(n, m))
    r = c = 0
    for B in blocks:
        h, w = B.shape
        M[r:, c:c + w] = 0
        M[r:r + h, c:c + w] = B
        r, c = r + h, c + w
    return M + p * rng.integers(-2, 3, size=M.shape)


def _oracle_kernel(R, pivots, p):
    """The canonical kernel basis read off a reduced echelon form, entry by
    entry."""
    m = R.shape[1]
    free = [j for j in range(m) if j not in pivots]
    K = np.zeros((len(free), m), dtype=np.int64)
    for idx, fc in enumerate(free):
        K[idx, fc] = 1
        for i, pc in enumerate(pivots):
            K[idx, pc] = (p - R[i, fc]) % p
    return K


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_gauss_jordan_block_and_single_steps(rng, monkeypatch, p):
    # A step of the Gauss-Jordan sweep takes columns lc and lc + 1 at once
    # where their 2 x 2 block on rows cur and cur + 1 is invertible mod p,
    # and column lc alone otherwise.  The staircase meets, in order: an
    # invertible block with a zero corner where the single step would swap
    # ([[0, 1], [1, x]]), one with its other corner zero, a zero column, a
    # singular block whose first column pivots in place ([[1, 2], [3, 6]])
    # and one whose first column pivots by a swap from two rows down; its
    # rank 9 is odd and reaches n = 9 with 4 columns left.  Its copy with
    # two dependent rows appended has rank 9 below n = 11 and ends on its
    # last column, and the transposes run other paths on the same blocks
    swept = _sweeps(monkeypatch)
    x, y, z, u, s, t = rng.integers(1, p, size=6).tolist()
    blocks = [
        np.array([[0, 1], [1, x]]),
        np.array([[y, 0], [z, u]]),
        np.zeros((0, 1), dtype=np.int64),
        np.array([[1, 2, u], [3, 6, 3 * u + 1]]),
        np.array([[0, 1, s], [0, t, s * t + 1], [1, x, y]]),
    ]
    M = _staircase(rng, p, blocks, 4)
    D = np.vstack([M, M[0] + M[3], 2 * M[8]])
    for A in (M, D, M.T, D.T):
        R0, rank0, piv0 = oracle_rref(A, p)
        assert rank0 == 9
        swept.clear()
        _check_against(A, p, R0, piv0)
        assert swept == [A.shape] * 2
        assert exactalg.rank(A, p) == rank0
        assert np.array_equal(exactalg.kernel_basis(A, p),
                              _oracle_kernel(R0, piv0, p))
    assert oracle_rref(M, p)[2] == [0, 1, 2, 3, 5, 7, 8, 9, 10]


def test_gauss_jordan_takes_two_pivots_a_step(rng, monkeypatch):
    # a generic 60 x 80 of full row rank: every 2 x 2 block the sweep meets
    # is invertible, so its 60 pivots take 30 steps, one inverse each, in
    # the full run and in the rank-only run, which leaves M as it was
    M = rng.integers(0, P, size=(60, 80)).astype(np.int64)
    R0, rank0, piv0 = oracle_rref(M, P)
    assert piv0 == list(range(60))
    inverted = []

    def spy(x, e, p):
        inverted.append(x)
        return pow(x, e, p)

    monkeypatch.setattr(_gfcore_py, "pow", spy, raising=False)
    for full in (True, False):
        inverted.clear()
        A, r, piv = _core(M, P, full)
        assert (r, piv) == (rank0, piv0)
        assert np.array_equal(A, R0 if full else M)
        assert len(inverted) == 30


def test_shape_alone_picks_the_path(rng, monkeypatch):
    # full or rank-only, of full rank, deficient or zero, a matrix with
    # m <= PANEL columns, of any height, takes one sweep of the whole
    # matrix, and a wider one one sweep per panel that holds a pivot, plus
    # the inverse of that panel's pivot block
    swept = _sweeps(monkeypatch)
    for n, m in [(1, 1), (1, 128), (128, 1), (3, 10), (60, 80), (80, 60),
                 (127, 128), (128, 128), (129, 128), (300, 128), (128, 129),
                 (1, 129), (300, 260)]:
        for M in (rng.integers(0, P, size=(n, m)), _deficient(rng, n, m, P),
                  np.zeros((n, m), dtype=np.int64)):
            R0, rank0, piv0 = oracle_rref(M, P)
            swept.clear()
            _check_against(M, P, R0, piv0)
            assert swept == (_sweeps_of(n, m, piv0, False)
                             + _sweeps_of(n, m, piv0, True))
            if m <= 128:
                assert swept == [(n, m)] * 2
            else:
                assert (n, m) not in swept


def test_panel_sweep_inverts_each_pivot_block_once(rng, monkeypatch):
    # a panel's pivot rows are solved on its right by the inverse of their
    # k x k pivot block, from one sweep of [B | id]; a rank-only run that
    # reaches the row count stops before that panel's inverse, and a panel
    # with nothing on its right, or no pivot, needs none
    gj, inverted = _gfcore_py._gauss_jordan, []

    def spy(F, p):
        k = F.shape[0]
        if F.shape[1] == 2 * k and np.array_equal(F[:, k:], np.eye(k)):
            inverted.append(k)
        return gj(F, p)

    monkeypatch.setattr(_gfcore_py, "_gauss_jordan", spy)

    def low_rank(n, m, r):
        return (rng.integers(0, P, size=(n, r))
                @ rng.integers(0, P, size=(r, m))) % P

    # full row rank 100 x 400: the first panel holds every pivot.  A
    # 300 x 400 of rank 200 has its pivots in the first two panels, and the
    # last two are zero below them.  The generic 300 x 400 reaches its row
    # count in its third panel, with 16 columns on its right.  The
    # 160 x 234 of full row rank, shaped like S_2 at (40, 119), leaves 32
    # rows below its first panel, and its second panel is its last
    for M, rank_only, full in [
            (rng.integers(0, P, size=(100, 400)), [], [100]),
            (low_rank(300, 400, 200), [128, 72], [128, 72]),
            (rng.integers(0, P, size=(300, 400)), [128, 128], [128, 128, 44]),
            (rng.integers(0, P, size=(160, 234)), [128], [128])]:
        R0, rank0, piv0 = oracle_rref(M, P)
        for want, run in [(rank_only, False), (full, True)]:
            inverted.clear()
            A, r, piv = _core(M, P, run)
            assert (r, piv) == (rank0, piv0)
            assert np.array_equal(A, R0 if run else M)
            assert inverted == want


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_core_matches_oracle_pivots_far_below_the_panel_top(rng, monkeypatch,
                                                             p):
    # Rows 0-199 are zero in the first panel, so its pivots come from rows
    # 200-299, and rows 0-149 are zero in the second, so its pivots come
    # from rows 150-199 of the 200 left below the first panel's.  Each
    # panel moves its pivot rows up across every column on its right; the
    # third panel's pivots come from the 150 rows left, and 22 rows stay
    # below its pivots for the last, 16 columns wide
    gj, found = _gfcore_py._gauss_jordan, []

    def spy(F, p):
        out = gj(F, p)
        found.append((F.shape, out[0], out[2][:out[0]]))
        return out

    monkeypatch.setattr(_gfcore_py, "_gauss_jordan", spy)
    n, m = 300, 400
    M = rng.integers(0, p, size=(n, m)) + p * rng.integers(-2, 3, size=(n, m))
    M[:200, :128] = 0
    M[:150, 128:256] = 0
    R0, rank0, piv0 = oracle_rref(M, p)
    found.clear()
    _check_against(M, p, R0, piv0)
    panels = [f for f in found if f[0][1] <= 128][:2]
    assert panels[0][0] == (300, 128) and min(panels[0][2]) >= 200
    assert panels[1][0][1] == 128
    # its active rows are 0-199 of M, in the order the first panel left them
    k0 = panels[0][1]
    assert panels[1][0][0] == n - k0 and panels[1][1] >= 1
    if p > 7:
        assert (k0, panels[1][1], rank0) == (100, 50, 294)


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_reduce_is_exact_to_the_edge_of_its_range(rng, p):
    # _reduce(x, p) = x - floor(x / p) * p is exact while |x| + p < 2**53:
    # x = q * p + r for r in {0, 1, p - 1}, of both signs, up to
    # |x| = 2**53 - p - 1, against Python ints
    top = 2**53 - p - 1
    xs = []
    for r in (0, 1, p - 1):
        qmax = (top - r) // p
        qs = [0, 1, 2, qmax - 2, qmax - 1, qmax]
        qs += [2**e // p + d for e in range(20, 53) for d in (0, 1)]
        qs += rng.integers(0, qmax, size=30).tolist()
        xs += [s * (q * p + r) for q in qs for s in (1, -1)]
    assert max(map(abs, xs)) > top - p
    x = np.array(xs, dtype=np.float64)
    assert x.astype(object).tolist() == xs
    got = _gfcore_py._reduce(x, p)
    assert got.astype(object).tolist() == [v % p for v in xs]
    assert x.astype(object).tolist() == xs


def _sd_like(rng, a, d, w, p):
    """Block-bidiagonal rows shaped like steiner's S_d, alpha-major: row
    (alpha, e) for e = 0..d+1 meets the column blocks e - 1 and e of w
    columns each.  Returns the matrix and the (e, alpha) row order."""
    S = np.zeros((a, d + 2, d + 1, w), dtype=np.int64)
    for k in range(d + 1):
        S[:, k:k + 2, k] = rng.integers(-p + 1, p, size=(a, 2, w))
    return (S.reshape(a * (d + 2), -1),
            np.arange(a * (d + 2)).reshape(a, d + 2).T.ravel())


def _gd_like(rng, a, c, m, p):
    """Pair blocks shaped like steiner's G_d: for j < k, 3 - j blocks of a
    rows with values at the columns q[k] and minus values at q[j]."""
    q = rng.integers(0, m, size=(4, c))
    G = []
    for j, k in itertools.combinations(range(4), 2):
        g = np.zeros((a * (3 - j), m), dtype=np.int64)
        g[:, q[k]] = rng.integers(0, p, size=(len(g), c))
        g[:, q[j]] -= rng.integers(0, p, size=(len(g), c))
        G.append(g)
    return np.vstack(G)


def _awkward(rng, M, p):
    """M with every nonzero entry moved by a multiple of p, one zero row and
    one zero column, and a column whose first active entry is 0 mod p but
    not 0 above a later unit.  Column 0 holds 1 + p, h - p and -p in rows
    0-2, h = (p + 1) / 2; so row 1 meets column 1 at 1 - 2h = -p once row
    0 has pivoted, and row 2 holds the pivot, 1 + 2p."""
    n, m = M.shape
    M = M + p * rng.integers(-2, 3, size=M.shape) * (M != 0)
    M[rng.integers(3, n)] = 0
    M[:, rng.integers(2, m)] = 0
    h = (p + 1) // 2
    M[:3, :2] = [[1 + p, 2 - p], [h - p, 1], [-p, 1 + 2 * p]]
    return M


def _lead_order(M, p):
    """Rows by first nonzero column mod p, stable, zero rows last."""
    nz = M % p != 0
    lead = np.argmax(np.hstack([nz, np.ones((len(M), 1), bool)]), 1)
    return np.argsort(lead, kind="stable")


@pytest.mark.parametrize("p", [5, 7, P, 1048573])
def test_row_order_changes_no_output(rng, p):
    # rank, rref and the canonical kernel depend only on the row space, so
    # steiner may lay out S_d in a row order whose pivots are met in place,
    # and G_d in the order of its pair equations; each matrix and its row
    # permutations must match the oracle of the original.  The 180 x 200
    # S_d shape spans two panels, and a permutation changes which rows each
    # panel's sweep moves up
    cases = []
    for a, d, w in [(3, 3, 4), (4, 6, 3), (30, 4, 40)]:
        S, rows = _sd_like(rng, a, d, w, p)
        cases += [(S, rows), (_awkward(rng, S, p), rows)]
    for a, c, m in [(2, 5, 12), (5, 9, 30), (3, 0, 0)]:
        G = _gd_like(rng, a, c, m, p)
        cases += [(G, None)] + ([(_awkward(rng, G, p), None)] if m else [])
    for M, order in cases:
        R0, rank0, piv0 = oracle_rref(M, p)
        R, r, piv = exactalg.rref(M, p)
        K = exactalg.kernel_basis(M, p)
        perms = [np.arange(len(M)), _lead_order(M, p), rng.permutation(len(M))]
        for perm in perms + ([] if order is None else [order]):
            A = M[perm]
            _check_against(A, p, R0, piv0)
            R1, r1, piv1 = exactalg.rref(A, p)
            assert (r1, piv1) == (r, piv) and np.array_equal(R1, R)
            assert np.array_equal(exactalg.kernel_basis(A, p), K)
            assert exactalg.rank(A, p) == rank0


def test_backend_name_reported():
    assert backend.backend_name() == "python"


def test_capacity_guard():
    # accumulated values during elimination grow like (pivots + margin) * p^2
    # and must stay below the float64 core's 2**53 budget
    big_p = 1048573
    n = _gfcore_py._LIMIT // (big_p * big_p) + 200
    with pytest.raises(ValueError):
        _gfcore_py._check_capacity(n, n, big_p)
    _gfcore_py._check_capacity(4000, 4000, 32003)


@pytest.mark.parametrize("n, m", [(0, 5), (5, 0), (0, 300), (300, 0)])
def test_core_matches_oracle_on_empty_shapes(n, m):
    # with no rows or no columns the Gauss-Jordan sweep takes no step and
    # the panel sweep skips every panel, (0, 300) being wider than a panel
    M = np.zeros((n, m), dtype=np.int64)
    R0, rank0, piv0 = oracle_rref(M, P)
    _check_against(M, P, R0, piv0)
    R, r, piv = exactalg.rref(M, P)
    assert np.array_equal(R, R0) and (r, piv) == (rank0, piv0)
    assert exactalg.rank(M, P) == rank0 == 0
    assert np.array_equal(exactalg.kernel_basis(M, P),
                          _oracle_kernel(R0, piv0, P))


def test_nullspace_canonical(rng):
    M = rng.integers(0, P, size=(6, 10)).astype(np.int64)
    M[5] = (M[0] + M[1]) % P
    # one basis vector per row, as exactalg.kernel_basis hands it on
    B = backend.nullspace(M, P)
    assert B.shape == (10 - backend.rank(M, P), 10)
    assert B.flags.c_contiguous
    assert not np.mod(M.astype(object) @ B.T.astype(object), P).astype(int).any()
    R, _, pivots = backend.rref(M, P)
    free = [j for j in range(10) if j not in set(pivots)]
    for idx, fc in enumerate(free):
        assert B[idx, fc] == 1
    ref = _oracle_kernel(R, list(pivots), P)
    assert np.array_equal(B, ref)
    assert np.array_equal(exactalg.kernel_basis(M, P), ref)
