"""Acceptance gate: eleven numbered criteria, one test per criterion.

Each test stores a one-line verdict in conftest.ACCEPTANCE_RESULTS before
asserting, so the terminal summary always prints the full scoreboard.
Probability statements run over three seeds times the stated trial count
with zero tolerated failures except where a 99/100 bound is stated.

Criterion 1 checks the 4x4 table's two known reference disagreements the
same way: each column matches its reference on the 13 unflagged rows, and
exactly one row carries the mismatch flag with the stated (computed,
reference) pair, 2|1|1 at (15, 14) for O and 22 at (6, 7) for S.  The S
column is also cross-checked on all 14 rows against the closed form
sum over eigenvalues of sum_{i<=j} min(b_i, b_j), which gives 6 at 22.
"""

import json
import time
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_RESULTS
from steinerlab import cli, exactalg, pwcurves, strata, subspace
from steinerlab.multilin import random_frame
from steinerlab.seeding import derive_rng
from steinerlab.steiner import chi3, corank_md
from steinerlab.strata import (
    enumerate_jordan4,
    find_rank0,
    jordan3x4_table,
    jordan4_table,
)
from steinerlab.subspace import (
    FFormQuotient,
    transport_trial,
    vstar_rank,
    witness_z,
    z_rank,
    zslice,
)

P = exactalg.DEFAULT_PRIME
SEEDS = (0, 1, 2)


def _record(n, ok, detail, elapsed, budget):
    line = f"{detail} ({elapsed:.1f}s, budget {budget}s)"
    ACCEPTANCE_RESULTS[n] = (ok and elapsed < budget, line)


def _symmetric_solution_dim(t):
    """dim {X symmetric : CX symmetric} for C of Jordan type t, in closed
    form: sum over eigenvalues of sum_{i<=j} min(b_i, b_j) over the block
    sizes, i.e. (centralizer dimension + n) / 2."""
    return sum(
        min(part[i], part[j])
        for part in t.partitions
        for i in range(len(part))
        for j in range(i, len(part))
    )


def test_criterion_01_jordan_table():
    t0 = time.monotonic()
    rows = jordan4_table(P)
    row = {r.label: r for r in rows}
    closed = {t.label: _symmetric_solution_dim(t) for t in enumerate_jordan4()}
    o_flagged = [r.label for r in rows if "o_ref_mismatch" in r.flags]
    o_ok = (
        len(rows) == 14
        and all(r.O_match for r in rows if r.label != "2|1|1")
        and o_flagged == ["2|1|1"]
        and (row["2|1|1"].O_computed, row["2|1|1"].O_ref) == (15, 14)
    )
    s_closed_bad = [
        (r.label, closed.get(r.label), r.S_computed)
        for r in rows if closed.get(r.label) != r.S_computed
    ]
    s_odd = [
        (r.label, r.S_computed, r.S_ref, r.flags)
        for r in rows if not r.S_match or "s_ref_mismatch" in r.flags
    ]
    s_flagged = [r.label for r in rows if "s_ref_mismatch" in r.flags]
    s_ok = (
        all(r.S_match for r in rows if r.label != "22")
        and s_flagged == ["22"]
        and (row["22"].S_computed, row["22"].S_ref) == (6, 7)
        and not s_closed_bad
    )
    elapsed = time.monotonic() - t0
    detail = (
        f"O column {sum(r.O_match for r in rows)}/14 with "
        f"{', '.join(o_flagged) or 'no row'} flagged "
        f"({'ok' if o_ok else 'BAD'}); "
        f"S column {sum(r.S_match for r in rows)}/14 with "
        f"{', '.join(s_flagged) or 'no row'} flagged and "
        f"{14 - len(s_closed_bad)}/14 on the closed form "
        f"({'ok' if s_ok else 'BAD'})"
    )
    _record(1, o_ok and s_ok, detail, elapsed, 1.0)
    assert elapsed < 1.0
    assert o_ok
    assert s_ok, (
        "S column: expected the 13 unflagged rows to match the reference, "
        "a single s_ref_mismatch flag at 22 with (computed, reference) = "
        "(6, 7), and every computed S equal to the closed form "
        "sum_{i<=j} min(b_i, b_j); got (label, computed, reference, flags) "
        f"{s_odd} and (label, closed form, computed) {s_closed_bad}"
    )


def test_criterion_02_pair_table():
    t0 = time.monotonic()
    rows = jordan3x4_table(P)
    ok = (
        len(rows) == 9
        and all(r.r_ref == r.r_computed for r in rows)
        and all(r.S_ref == r.S_computed for r in rows)
        and any(
            "pair_map_not_onto" in r.flags and (r.r_computed, r.S_computed)
            == (0, 10)
            for r in rows
        )
    )
    elapsed = time.monotonic() - t0
    _record(2, ok, "all 9 (r, S) rows exact incl. degenerate row", elapsed,
            1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_03_transport():
    t0 = time.monotonic()
    agree = total = 0
    for seed in SEEDS:
        for variant in ("full", "hyper", "combined"):
            for trial in range(200):
                total += 1
                agree += bool(transport_trial(variant, trial, seed, P))
    elapsed = time.monotonic() - t0
    ok = agree == total == 1800
    _record(3, ok, f"both sides agree in {agree}/{total} instances "
            "(200 per variant per seed)", elapsed, 30.0)
    assert ok
    assert elapsed < 30.0


def test_criterion_04_max_vstar_rank():
    t0 = time.monotonic()
    witness_ok = True
    worst = 100
    for a in range(1, 7):
        for f in range(1, a + 1):
            if vstar_rank(witness_z(a, f, P)) != 4 * f:
                witness_ok = False
    for seed in SEEDS:
        rng = derive_rng(seed, 40)
        for a in range(1, 7):
            for f in range(1, a + 1):
                hits = sum(
                    vstar_rank(FFormQuotient.random(rng, a, f, P)) == 4 * f
                    for _ in range(100)
                )
                worst = min(worst, hits)
    elapsed = time.monotonic() - t0
    ok = witness_ok and worst >= 99
    _record(4, ok, f"witness exact on the whole grid; random worst case "
            f"{worst}/100", elapsed, 30.0)
    assert witness_ok
    assert worst >= 99
    assert elapsed < 30.0


def test_criterion_05_pw_cohomology():
    t0 = time.monotonic()
    ok = True
    for seed in SEEDS:
        s = pwcurves.sample_pw(3, 8, 1, seed=seed, p=P)
        checks, tab = pwcurves.verify_thm42(s, -6, 4)
        ok &= s.rank_m1 == 29
        ok &= corank_md(s.m, 2) == 0
        ok &= tab.row(-1)[1:5] == (0, 3, 0, 0)
        ok &= tab.row(0)[1:5] == (0, 4, 0, 0)
        ok &= tab.row(1)[1:5] == (3, 1, 0, 0)
        for k, h0, h1, h2, h3, chiv in tab.rows:
            ok &= h2 == 0 and h0 - h1 + h2 - h3 == chiv
        ok &= all(c["pass"] for c in checks)
    elapsed = time.monotonic() - t0
    _record(5, ok, "(3,8,1): rank 29, m(2) onto, rows at k=-1,0,1 and "
            "chi identity exact on all seeds", elapsed, 10.0)
    assert ok
    assert elapsed < 10.0


def test_criterion_06_rank0_thresholds():
    t0 = time.monotonic()
    bad = []
    for seed in SEEDS:
        rng = derive_rng(seed, 60)
        for a in range(2, 9):
            for f in range(1, 4):
                phi = FFormQuotient.random(rng, a, f, P)
                frame = random_frame(rng, P)
                if 5 * f != 2 * a:
                    sl = zslice(phi)
                    g = find_rank0(sl)
                    want = 5 * f > 2 * a
                    good = (g is not None) == want and (
                        g is None or z_rank(sl, [g]) == 0
                    )
                    if not good:
                        bad.append(("full", a, f, seed))
                if 11 * f != 3 * a:
                    hs = zslice(phi, frame)
                    g = find_rank0(hs)
                    want = 11 * f > 3 * a
                    good = (g is not None) == want and (
                        g is None or z_rank(hs, [g]) == 0
                    )
                    if not good:
                        bad.append(("hyper", a, f, seed))
    elapsed = time.monotonic() - t0
    _record(6, not bad, "witness iff 5f>2a (full) / 11f>3a (hyper) across "
            "the grid, all verified rank 0" + (f"; bad: {bad}" if bad else ""),
            elapsed, 60.0)
    assert not bad
    assert elapsed < 60.0


def test_criterion_07_generic_strata_ranks():
    t0 = time.monotonic()
    worst = {}
    for seed in SEEDS:
        rng = derive_rng(seed, 70)
        phi = FFormQuotient.random(rng, 6, 2, P)
        hist = strata.rank_distribution(phi, codim=1, trials=100, seed=seed)
        worst["Z codim1"] = min(worst.get("Z codim1", 100), hist.get(4, 0))

        phi4 = FFormQuotient.random(rng, 4, 1, P)
        fr = random_frame(rng, P)
        hist = strata.rank_distribution(phi4, fr, codim=1, trials=100,
                                        seed=seed)
        worst["Z' codim1"] = min(worst.get("Z' codim1", 100), hist.get(3, 0))

        phi5 = FFormQuotient.random(rng, 5, 1, P)
        fr5 = random_frame(rng, P)
        hist = strata.rank_distribution(phi5, fr5, codim=2, trials=100,
                                        seed=seed)
        worst["Z' codim2"] = min(worst.get("Z' codim2", 100), hist.get(6, 0))
    elapsed = time.monotonic() - t0
    ok = all(v >= 99 for v in worst.values())
    _record(7, ok, "rank 4 / 3 / 6 hits per 100: "
            + ", ".join(f"{k}={v}" for k, v in worst.items()), elapsed, 60.0)
    assert ok, worst
    assert elapsed < 60.0


def test_criterion_08_mh_rank():
    t0 = time.monotonic()
    worst = 100
    for seed in SEEDS:
        s = pwcurves.sample_pw(10, 30, 1, seed=seed, p=P)
        hist = pwcurves.mh_rank_survey(s, trials=100, seed=seed)
        worst = min(worst, hist.get(89, 0))
    elapsed = time.monotonic() - t0
    ok = worst >= 99
    _record(8, ok, f"(10,30,1): rank 89 = 9a-f in worst case {worst}/100 "
            "hyperplanes", elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_09_curve():
    t0 = time.monotonic()
    cp = pwcurves.curve_params(10, 30)
    params_ok = (cp.s, cp.c, cp.f, cp.delta) == (10, 21, 1, 1)
    # independent recomputation: exact finite differences of the Hilbert
    # polynomial values pinned by the resolution's section counts
    Ps = Fraction(int(chi3(cp.s) - cp.c))
    Ps1 = Fraction(int(chi3(cp.s + 1) - (4 * cp.c - cp.b)))
    degree = Ps1 - Ps
    genus = degree * cp.s + 1 - Ps
    derived_ok = (degree, genus) == (45, 186)
    frozen_ok = (cp.degree, cp.genus) == (45, 186)
    sections_ok = True
    h1_ok = True
    for seed in SEEDS:
        s = pwcurves.sample_pw(10, 30, 1, seed=seed, p=P)
        sections_ok &= 4 * 30 - s.rank_m1 == 21
        Ns = pwcurves.section_matrix(s)
        rng = derive_rng(seed, 90)
        for _ in range(20):
            x = rng.integers(0, P, size=4, dtype=np.int64)
            Nx = exactalg.evaluate_linear(Ns, x, P)
            Mx = exactalg.evaluate_linear(s.m.Ms, x, P)
            sections_ok &= exactalg.rank(Nx, P) == 20
            sections_ok &= not exactalg.matmul_mod(Mx, Nx.T, P).any()
        h1_ok &= pwcurves.h1_ic_vanishing(s) is True
        h1_ok &= pwcurves.h1_ic_vanishing(s, direct=True) is True
    elapsed = time.monotonic() - t0
    ok = params_ok and derived_ok and frozen_ok and sections_ok and h1_ok
    _record(9, ok, "s,c,f,delta=(10,21,1,1); degree 45 genus 186 "
            "(independently recomputed); N(x) rank 20 and M N^T = 0 at "
            "20 points per seed; h1 vanishing by propagation and by m(7)",
            elapsed, 120.0)
    assert params_ok and derived_ok and frozen_ok
    assert sections_ok
    assert h1_ok
    assert elapsed < 120.0


def test_criterion_10_not_globally_generated():
    t0 = time.monotonic()
    ok = True
    for seed in SEEDS:
        big = pwcurves.sample_pw(10, 30, 1, seed=seed, p=P)
        small = pwcurves.sample_pw(1, 4, 0, seed=seed, p=P)
        ok &= pwcurves.check_not_globally_generated(big) is True
        ok &= pwcurves.check_not_globally_generated(small) is False
    elapsed = time.monotonic() - t0
    _record(10, ok, "true at (10,30,1), false at (1,4,0), all seeds",
            elapsed, 10.0)
    assert ok
    assert elapsed < 10.0


def test_criterion_11_determinism(capsys):
    t0 = time.monotonic()
    commands = [
        ["--json", "table", "jordan4"],
        ["--json", "table", "jordan3x4"],
        ["--json", "--trials", "12", "verify", "transport"],
        ["--json", "--seed", "1", "verify", "pw", "-a", "3", "-b", "8",
         "-f", "1"],
        ["--json", "verify", "rank0", "-a", "2", "-f", "3"],
        ["--json", "--trials", "20", "verify", "mh", "-a", "3", "-b", "8",
         "-f", "1"],
        ["--json", "--trials", "5", "verify", "curve", "-a", "10",
         "-b", "30"],
        ["--json", "--seed", "2", "cohomology", "-a", "1", "-b", "4"],
    ]
    ok = True
    for argv in commands:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        ok &= code1 == code2
        ok &= bool(out1) and out1 == out2
        ok &= json.loads(out1) is not None
    elapsed = time.monotonic() - t0
    _record(11, ok, f"{len(commands)} commands repeated, byte-identical "
            "JSON and equal exit codes", elapsed, 120.0)
    assert ok
    assert elapsed < 120.0
