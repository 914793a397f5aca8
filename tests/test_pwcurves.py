"""Sampling of presentations with prescribed corank of m(1), cohomology
verification, hyperplane rank surveys, and the space-curve application.

The degree and genus of the curve are recomputed here through a symbolic
expansion of the Hilbert polynomial read off the length-3 resolution, so the
frozen values 45 and 186 do not depend on the code path under test.
"""

import dataclasses
import io
from fractions import Fraction

import numpy as np
import pytest
import sympy

from steinerlab import exactalg, pwcurves, steiner, subspace
from steinerlab.pwcurves import (
    InadmissibleParams,
    KernelDimMismatch,
    PWSample,
    SamplingFailed,
    check_not_globally_generated,
    curve_params,
    h1_ic_vanishing,
    mh_rank_survey,
    sample_pw,
    verify_thm42,
    write_linforms,
)
from steinerlab.multilin import random_covector, random_frame
from steinerlab.seeding import derive_rng
from steinerlab.steiner import (
    SteinerPresentation,
    assemble_md,
    chi3,
    surjectivity_certificate,
)

P = exactalg.DEFAULT_PRIME


def test_sample_3_8_1():
    s = sample_pw(3, 8, 1, seed=0, p=P)
    assert (s.a, s.b, s.f) == (3, 8, 1)
    assert s.rank_m1 == 29
    assert s.cert.found and s.cert.d0 == 2
    assert s.phi.f == 1
    # the quotient really annihilates the image of m(1)
    m1 = assemble_md(s.m, 1)
    assert not exactalg.matmul_mod(s.phi.rows, m1, P).any()


def test_sample_deterministic():
    s1 = sample_pw(3, 8, 1, seed=4, p=P)
    s2 = sample_pw(3, 8, 1, seed=4, p=P)
    assert np.array_equal(s1.m.Ms, s2.m.Ms)
    assert np.array_equal(s1.phi.t, s2.phi.t)
    s3 = sample_pw(3, 8, 1, seed=5, p=P)
    assert not np.array_equal(s1.m.Ms, s3.m.Ms)


def test_sample_1_4_0():
    s = sample_pw(1, 4, 0, seed=0, p=P)
    assert s.rank_m1 == 10
    assert s.cert.d0 == 1


def test_inadmissible_params():
    with pytest.raises(InadmissibleParams):
        sample_pw(4, 13, 2, seed=0, p=P)  # b > 4a - 4f
    with pytest.raises(InadmissibleParams):
        sample_pw(2, 4, 0, seed=0, p=P)  # 5a > 2b
    with pytest.raises(InadmissibleParams):
        sample_pw(3, 20, 0, seed=0, p=P)  # 2b > 8a
    with pytest.raises(InadmissibleParams):
        sample_pw(3, 8, -1, seed=0, p=P)


def test_sampling_failed_when_no_attempts(monkeypatch):
    monkeypatch.setattr(pwcurves, "RETRIES", 0)
    with pytest.raises(SamplingFailed, match="in 0 attempts"):
        sample_pw(3, 8, 1, seed=0, p=P)


def _short_zstar(mp):
    # Z* one vector short of 4a - 4f = 8
    full = pwcurves.zstar_basis
    mp.setattr(pwcurves, "zstar_basis", lambda phi: full(phi)[:-1])


def _corank_one_more(mp):
    # a certificate whose first rung has cokernel f + 1
    full = steiner.surjectivity_certificate
    mp.setattr(steiner, "surjectivity_certificate", lambda m, d_max:
               dataclasses.replace(full(m, d_max), checked=((1, 2),)))


@pytest.mark.parametrize("patch, failure", [
    (_short_zstar, "zstar dimension 7 != 8"),
    (_corank_one_more, "rank m(1) = 28, expected 29"),
], ids=["zstar", "rank-m1"])
def test_sampling_failed_names_last_failure(monkeypatch, patch, failure):
    patch(monkeypatch)
    with pytest.raises(SamplingFailed) as exc:
        sample_pw(3, 8, 1, seed=0, p=P)
    assert str(exc.value).endswith(f"last failure: {failure}")


def test_verify_thm42_3_8_1():
    s = sample_pw(3, 8, 1, seed=1, p=P)
    checks, tab = verify_thm42(s)
    assert all(c["pass"] for c in checks)
    assert tab.row(-1)[1:5] == (0, 3, 0, 0)
    assert tab.row(0)[1:5] == (0, 4, 0, 0)
    assert tab.row(1)[1:5] == (3, 1, 0, 0)
    names = [c["name"] for c in checks]
    assert "h1 at k=-1 equals a" in names
    assert "h2 vanishes everywhere" in names


def test_verify_thm42_window():
    s = sample_pw(3, 8, 1, seed=2, p=P)
    checks, tab = verify_thm42(s, k_min=-2, k_max=2)
    assert [r[0] for r in tab.rows] == [-2, -1, 0, 1, 2]
    assert all(c["pass"] for c in checks)


def test_verify_thm42_rejects_window_without_rows_it_checks():
    s = sample_pw(3, 8, 1, seed=2, p=P)
    for k_min, k_max in ((5, 2), (0, 4), (-6, 0)):
        with pytest.raises(InadmissibleParams):
            verify_thm42(s, k_min, k_max)


def test_each_md_eliminated_once_per_sample(monkeypatch):
    # the certificate ladder assembles m(0) alone and eliminates its
    # transpose (8 x 12), then G_1 (12 x 10: 16 shifted unit positions, 10
    # of them distinct, and 12 of its 18 pair equations left once the 6
    # that read one unknown on both sides are dropped) and G_2 (60 x 4),
    # after the 4 x 12 kernel of the draw's quotient; rank m(1) and the
    # table's rows at k = 0, 1 are read from it, so the table adds no call,
    # no rank is taken, and ker M1 is never computed
    degrees, kernels, ranks = [], [], []
    orig_md, orig_kernel, orig_rank = (steiner.assemble_md,
                                       exactalg.kernel_basis, exactalg.rank)

    def record(m, d):
        degrees.append(d)
        return orig_md(m, d)

    def record_kernel(M, p):
        kernels.append(M.shape)
        return orig_kernel(M, p)

    def record_rank(M, p):
        ranks.append(M.shape)
        return orig_rank(M, p)

    monkeypatch.setattr(steiner, "assemble_md", record)
    monkeypatch.setattr(pwcurves, "assemble_md", record)
    monkeypatch.setattr(exactalg, "kernel_basis", record_kernel)
    monkeypatch.setattr(exactalg, "rank", record_rank)
    s = sample_pw(3, 8, 1, seed=1, p=P)
    assert s.attempts == 1 and s.cert.d0 == 2
    calls = ([0], [(4, 12), (8, 12), (12, 10), (60, 4)], [])
    assert (degrees, kernels, ranks) == calls
    verify_thm42(s)
    assert (degrees, kernels, ranks) == calls
    assert "splits" not in vars(s.m)


def test_not_globally_generated():
    assert check_not_globally_generated(sample_pw(10, 30, 1, 0, P)) is True
    assert check_not_globally_generated(sample_pw(1, 4, 0, 0, P)) is False
    assert check_not_globally_generated(sample_pw(4, 13, 0, 0, P)) is False


def test_mh_rank_survey():
    s = sample_pw(3, 8, 1, seed=0, p=P)
    hist = mh_rank_survey(s, trials=10, seed=0)
    assert hist == {24: 10}
    assert mh_rank_survey(s, trials=10, seed=0) == hist


def _dense_survey(s, trials, seed):
    """The survey as the definition states it: the rank of the assembled
    m_H(1) in each frame."""
    hist = {}
    for trial in range(trials):
        frame = random_frame(derive_rng(seed, 5, trial), s.prime)
        r = exactalg.rank(subspace.mh1(s.m.in_frame(frame)), s.prime)
        hist[r] = hist.get(r, 0) + 1
    return hist


def _as_sample(m):
    """A PWSample around any presentation, with the first rung of its
    certificate, so its rank m(1) is the true one."""
    s = PWSample(None, m, surjectivity_certificate(m, 1), 0)
    assert s.rank_m1 == exactalg.rank(assemble_md(m, 1), m.prime)
    return s


def _presentations(p):
    """A sampled and three random presentations, each also with M_1 = 0
    and with M_4 = 0, and the zero presentation."""
    rng = np.random.default_rng(p)
    out = [sample_pw(3, 8, 1, seed=0, p=p).m]
    for a, b in ((2, 7), (3, 8), (2, 5)):
        out.append(SteinerPresentation.random(rng, a, b, p))
    for m in out[:4]:
        for k in (0, 3):
            Ms = m.Ms.copy()
            Ms[k] = 0
            out.append(SteinerPresentation(Ms, p))
    out.append(SteinerPresentation(np.zeros((4, 2, 6), dtype=np.int64), p))
    return out


@pytest.mark.parametrize("p", [5, 7, 32003])
def test_mh_rank_survey_matches_dense_rank_per_frame(p):
    # one frame per call: the survey with trials=1 at seed s ranks the
    # frame of derive_rng(s, 5, 0), as the dense survey does
    for m in _presentations(p):
        s = _as_sample(m)
        for seed in range(12):
            assert mh_rank_survey(s, 1, seed) == _dense_survey(s, 1, seed)


def test_mh_rank_survey_zero_presentation():
    s = _as_sample(SteinerPresentation(np.zeros((4, 2, 6), dtype=np.int64), P))
    assert s.rank_m1 == 0
    assert mh_rank_survey(s, 5, 0) == {0: 5}


def test_mh_rank_survey_injective_m1():
    # 10a >= 4b: a random m(1) is injective, so K is empty and every
    # m_H(1) has rank 3b
    m = SteinerPresentation.random(np.random.default_rng(3), 3, 7, P)
    s = _as_sample(m)
    assert s.rank_m1 == 4 * s.b
    assert mh_rank_survey(s, 8, 0) == {21: 8} == _dense_survey(s, 8, 0)


def test_mh_rank_survey_histogram_matches_dense():
    s = sample_pw(10, 30, 1, seed=0, p=P)
    hist = mh_rank_survey(s, 30, seed=4)
    assert hist == _dense_survey(s, 30, seed=4) == {89: 30}


def test_mh_rank_survey_past_one_sweep():
    # 130 trials are three sweeps of at most 64 matrices
    s = sample_pw(3, 8, 1, seed=0, p=P)
    hist = mh_rank_survey(s, 130, seed=2)
    assert hist == _dense_survey(s, 130, seed=2)
    assert sum(hist.values()) == 130


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_mh_rank_survey_ranks_each_trials_derive_rng_covector(
        monkeypatch, trials):
    # trial t is ranked at random_covector(derive_rng(seed, 5, t), p), in
    # trial order, and the covectors are drawn at most STACK at a time
    s = sample_pw(3, 8, 1, seed=0, p=P)
    chunks, points = [], []
    draw, ranks_at = pwcurves.random_covectors, exactalg.ranks_at

    def spy_draw(seed, key, ts, p):
        chunks.append(len(ts))
        return draw(seed, key, ts, p)

    def spy_ranks_at(forms, hs, p):
        return ranks_at(forms, (points.append(h) or h for h in hs), p)

    monkeypatch.setattr(pwcurves, "random_covectors", spy_draw)
    monkeypatch.setattr(exactalg, "ranks_at", spy_ranks_at)
    assert sum(mh_rank_survey(s, trials, seed=2).values()) == trials
    want = [random_covector(derive_rng(2, 5, t), P) for t in range(trials)]
    assert np.array_equal(points, want), f"numpy {np.__version__}"
    assert sum(chunks) == trials and max(chunks) <= exactalg.STACK


def test_mh_rank_survey_rejects_forged_rank():
    # a certificate whose first rung claims one more cokernel dimension of
    # m(1) than the presentation has
    s = sample_pw(3, 8, 1, seed=0, p=P)
    (d, coker), *rest = s.cert.checked
    forged = dataclasses.replace(s.cert, checked=((d, coker + 1), *rest))
    assert dataclasses.replace(s, cert=forged).rank_m1 == s.rank_m1 - 1
    with pytest.raises(KernelDimMismatch):
        mh_rank_survey(dataclasses.replace(s, cert=forged), 3, 0)


def test_curve_params_frozen_invariants():
    cp = curve_params(10, 30)
    assert (cp.s, cp.c, cp.f, cp.delta) == (10, 21, 1, 1)
    assert (cp.degree, cp.genus) == (45, 186)
    flags = dict(cp.flags)
    assert flags["admissible"] is True
    assert flags["regime"] == "b<=3a"
    assert flags["versal_f_upper"] is True
    assert flags["versal_f_lower"] is True


def test_curve_degree_genus_independent_oracle():
    # chi of the structure sheaf from the resolution with c sections in
    # degree s: expand symbolically, read off degree and genus, and compare
    # them with curve_params
    t = sympy.Symbol("t")

    def chi3s(arg):
        return (arg + 1) * (arg + 2) * (arg + 3) / 6

    oracle = {}
    for a, b in ((7, 21), (7, 22), (8, 24), (9, 30), (10, 30)):
        s, c = b - 2 * a, b - a + 1
        ideal = c * chi3s(t - s) - b * chi3s(t - s - 1) + a * chi3s(t - s - 2)
        poly = sympy.Poly(sympy.expand(chi3s(t) - ideal), t)
        assert poly.degree() == 1
        deg, const = poly.coeff_monomial(t), poly.coeff_monomial(1)
        oracle[a, b] = (deg, 1 - const)
        cp = curve_params(a, b)
        assert (cp.s, cp.c) == (s, c)
        assert (cp.degree, cp.genus) == oracle[a, b]
    assert oracle[10, 30] == (45, 186)
    # the (10, 30) numbers through exact finite differences at s and s + 1
    s, c, b = 10, 21, 30
    Ps = Fraction(int(chi3(s) - c))
    Ps1 = Fraction(int(chi3(s + 1) - (4 * c - b)))
    degree = Ps1 - Ps
    genus = degree * s + 1 - Ps
    assert degree == 45 and genus == 186


def test_curve_params_rejects_bad_shapes():
    with pytest.raises(InadmissibleParams):
        curve_params(3, 5)
    with pytest.raises(InadmissibleParams):
        curve_params(10, 19)


def test_curve_params_regime_flags():
    # cubic coefficient of the Hilbert polynomial cancels for any shape,
    # so these expand without tripping the internal bookkeeping asserts
    flags = dict(curve_params(7, 22).flags)
    assert flags["regime"] == "b>3a"
    assert flags["admissible"] is True
    flags = dict(curve_params(7, 21).flags)
    assert flags["regime"] == "b<=3a"
    # 11 * 21 = 231 <= 32 * 7 + 9 = 233
    assert flags["admissible"] is False


def test_h1_ic_edge_cases():
    # a zero presentation in the smallest s >= 3 shape has nothing
    # surjective
    zero = SteinerPresentation(np.zeros((4, 1, 5), dtype=np.int64), P)
    s = PWSample(None, zero, surjectivity_certificate(zero, 2), 0)
    assert not s.cert.found and (s.f, s.rank_m1) == (10, 0)
    # the x1-split cannot certify m(0), so the dense rank decides
    assert steiner.horace_surjective(zero, 0) is None
    assert h1_ic_vanishing(s) is False


def test_section_matrix_10_30():
    s = sample_pw(10, 30, 1, seed=0, p=P)
    Ns = steiner.m1_kernel(s.m)
    assert Ns.shape == (4, 21, 30)
    rng = np.random.default_rng(99)
    for _ in range(5):
        x = rng.integers(0, P, size=4, dtype=np.int64)
        Nx = exactalg.evaluate_linear(Ns, x, P)
        Mx = exactalg.evaluate_linear(s.m.Ms, x, P)
        assert exactalg.rank(Nx, P) == 20
        assert not exactalg.matmul_mod(Mx, Nx.T, P).any()


def test_section_matrix_kernel_mismatch():
    # at (1, 4) dim ker m(1) = 4b - 10a = 6 is not c = b - a + 1 = 4; the
    # section matrix still holds all six kernel rows, and comparing their
    # count with what is expected is the caller's check
    s = sample_pw(1, 4, 0, seed=0, p=P)
    Ns = steiner.m1_kernel(s.m)
    assert Ns.shape == (4, 6, 4)
    m1 = assemble_md(s.m, 1)
    K = Ns.transpose(1, 2, 0).reshape(6, 16)
    assert exactalg.rank(K, P) == 6
    assert not exactalg.matmul_mod(m1, K.T, P).any()


def test_h1_ic_vanishing_routes_agree():
    # propagation: the certificate reaches s - 3 = 7; the direct check of
    # m(7) agrees
    s = sample_pw(10, 30, 1, seed=0, p=P)
    assert s.cert.found and s.cert.d0 <= 7
    assert h1_ic_vanishing(s) is True


def test_linforms_interchange():
    s = sample_pw(10, 30, 1, seed=0, p=P)
    Ns = steiner.m1_kernel(s.m)
    buf = io.StringIO()
    write_linforms(buf, Ns, P)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"linforms 21 30 {P}"
    Ns2, p2 = exactalg.read_blocks(io.StringIO(text), "linforms")
    assert p2 == P
    assert np.array_equal(Ns, Ns2)


def test_sample_is_frozen():
    s = sample_pw(1, 4, 0, seed=0, p=P)
    with pytest.raises(AttributeError):
        s.a = 2
    with pytest.raises(AttributeError):
        s.attempts = 2
