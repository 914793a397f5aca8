"""Sampling the predominant family of presentations with prescribed
codimension-f image in degree 2, verifying its cohomology and hyperplane-rank
predictions, and the numeric invariants of the associated space curves.

A sample is built constructively: draw a generic quotient Phi, take the
kernel Z* of its transported map on A(x)V, and send B by a random matrix into
Z*.  The construction forces Phi to kill the image of m(1), so rank m(1) is
at most 10a - f; genericity makes it exactly that, which is retried a bounded
number of times and never silently patched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import exactalg, steiner
from .seeding import derive_rng, random_covectors
from .steiner import SteinerPresentation, assemble_md, chi3, cohomology_table
from .subspace import FFormQuotient, SamplingFailed, zstar_basis


class InadmissibleParams(ValueError):
    pass


class KernelDimMismatch(ValueError):
    pass


# attempts sample_pw makes before it gives up
RETRIES = 8


def _check(name, expected, got):
    """One entry of a report's checks, passed when got equals expected."""
    return {"name": name, "expected": expected, "got": got,
            "pass": expected == got}


@dataclass(frozen=True)
class PWSample:
    """A presentation m, the quotient phi it was drawn in (None for a loaded
    m), its surjectivity certificate and the attempts the draw took.  f is
    the cokernel of m(1), the certificate's first rung."""

    phi: FFormQuotient | None
    m: SteinerPresentation
    cert: steiner.SurjectivityCertificate
    attempts: int

    @property
    def a(self):
        return self.m.a

    @property
    def b(self):
        return self.m.b

    @property
    def prime(self):
        return self.m.prime

    @property
    def f(self):
        return self.cert.checked[0][1]

    @property
    def rank_m1(self):
        return 10 * self.a - self.f  # m(1) has 10a rows


def sample_pw(a, b, f, seed, p, d_max=steiner.D_MAX):
    """Draw a presentation whose m(1) has image the generic codimension-f
    subspace of A(x)S^2V.

    Admissibility: a >= 1, 5a <= 2b <= 8a and b <= 4a - 4f (so the kernel
    Z* is big enough to receive B).  Each attempt uses a fresh derived
    stream; after RETRIES failed genericity checks SamplingFailed reports
    the last diagnostics instead of lowering the bar.  The rank of m(1) is
    read off the first rung of the surjectivity certificate, whose ladder
    ranks m(0) and then only the small systems of its inverse systems, so
    an attempt eliminates no dense m(d) with d >= 1.
    """
    if a < 1:
        raise InadmissibleParams(f"need a >= 1, got a={a}")
    if not 5 * a <= 2 * b:
        raise InadmissibleParams(f"need 5a <= 2b, got a={a}, b={b}")
    if not 2 * b <= 8 * a:
        raise InadmissibleParams(f"need 2b <= 8a, got a={a}, b={b}")
    if f < 0 or b > 4 * a - 4 * f:
        raise InadmissibleParams(
            f"need 0 <= f and b <= 4a - 4f, got a={a}, b={b}, f={f}")
    last = None
    for attempt in range(RETRIES):
        rng = derive_rng(seed, 3, attempt)
        phi = FFormQuotient.random(rng, a, f, p)
        zs = zstar_basis(phi)
        if len(zs) != 4 * a - 4 * f:
            last = f"zstar dimension {len(zs)} != {4 * a - 4 * f}"
            continue
        m = steiner.presentation_in_span(zs, b, rng, p)
        sample = PWSample(phi, m, steiner.surjectivity_certificate(m, d_max),
                          attempt + 1)
        if sample.f != f:
            last = f"rank m(1) = {sample.rank_m1}, expected {10 * a - f}"
            continue
        return sample
    raise SamplingFailed(
        f"no valid sample for (a,b,f)=({a},{b},{f}) in {RETRIES} attempts; "
        f"last failure: {last}")


def verify_thm42(sample, k_min=steiner.K_MIN, k_max=steiner.K_MAX):
    """Compare the cohomology table of a sample against the closed forms.

    Returns (checks, table): checks is a list of dicts with name, expected,
    got, pass; the closed forms are h1(E(-1)) = a, h1(E) = 4a - b,
    h1(E(1)) = f, h0(E(1)) = 4b - 10a + f, h2 = 0 everywhere, the alternating
    sum identity, and at most one nonzero h^i per twist k != 1.
    """
    if not k_min <= -1 or not k_max >= 1:
        raise InadmissibleParams(
            f"the twist window must contain -1, 0 and 1, got "
            f"[{k_min}, {k_max}]")
    a, b, f = sample.a, sample.b, sample.f
    tab = cohomology_table(sample.m, k_min, k_max, sample.cert)
    checks = [
        _check("h1 at k=-1 equals a", a, tab.row(-1)[2]),
        _check("h1 at k=0 equals 4a-b", 4 * a - b, tab.row(0)[2]),
        _check("h1 at k=1 equals f", f, tab.row(1)[2]),
        _check("h0 at k=1 equals 4b-10a+f", 4 * b - 10 * a + f,
               tab.row(1)[1]),
        _check("h2 vanishes everywhere", 0, max(r[3] for r in tab.rows)),
        _check("alternating sum equals chi", True,
               all(r[1] - r[2] + r[3] - r[4] == r[5] for r in tab.rows)),
        _check("at most one nonzero h^i per twist away from 1", True,
               all(sum(h > 0 for h in r[1:5]) <= 1
                   for r in tab.rows if r[0] != 1)),
    ]
    return checks, tab


def check_not_globally_generated(sample):
    """h0(E(1)) <= b - a + 1 together with h1(E) > 0.

    Meaningful for samples with f = 9a - 3b + 1 and b <= 3a; evaluated as
    stated on any sample, preconditions are the caller's concern.  h1(E) is
    dim coker m(0), rung 0 of the sample's certificate.
    """
    h0_1 = 4 * sample.b - sample.rank_m1
    return h0_1 <= sample.b - sample.a + 1 and sample.cert.coker0 > 0


def mh_rank_survey(sample, trials, seed):
    """Histogram of rank m_H(1) over random hyperplanes H = ker h, each rank
    read from the section matrix of ker m(1), steiner.m1_kernel.

    B(x)H is the kernel of id_B(x)h inside B(x)V, and m_H(1) is m(1) on
    B(x)H (in a frame where H = {x4 = 0}, the x4^2 rows it drops are zero
    on B(x)H).  So, with K = ker m(1), rank-nullity gives
    rank m_H(1) = 3b - dim(K cap B(x)H).
    A vector sum_r c_r K_r of K has B-components w_i = sum_r c_r K_r[4i:4i+4],
    and it lies in B(x)H iff h(w_i) = (c^T N(h))_i = 0 for every i, where
    N(h) = sum_k h_k N_k is the section matrix of K at the covector h
    (N_k[r, i] = K_r[4i + k]).  So K cap B(x)H is the left kernel of N(h),
    of dimension dim K - rank N(h), and

        rank m_H(1) = 3b - dim K + rank N(h),

    exactly, at every prime and for every presentation.  Trial t still takes
    its covector h from derive_rng(seed, 5, t)'s stream, as random_frame
    would, now drawn in one pass per chunk of exactalg.STACK trials by
    seeding.random_covectors, and the N(h) of each chunk are ranked by
    exactalg.ranks_at, so memory does not grow with `trials`.  Raises
    KernelDimMismatch when dim K is not 4b - rank m(1), the rank the
    sample's certificate read.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    b, p = sample.b, sample.prime
    Ns = steiner.m1_kernel(sample.m)
    dim_k, want = Ns.shape[1], 4 * b - sample.rank_m1
    if dim_k != want:
        raise KernelDimMismatch(
            f"dim ker m(1) = {dim_k}, expected 4b - rank m(1) = {want}")
    hs = (h for t in range(0, trials, exactalg.STACK) for h in random_covectors(
        seed, 5, range(t, min(t + exactalg.STACK, trials)), p))
    return Counter(3 * b - dim_k + r for r in exactalg.ranks_at(Ns, hs, p))


# ---------------------------------------------------------------------------
# curve invariants


@dataclass(frozen=True)
class CurveParams:
    a: int
    b: int
    s: int
    c: int
    f: int
    delta: int
    degree: int
    genus: int
    flags: tuple  # (name, value) pairs


def curve_params(a, b):
    """Numerical invariants of the curve cut out by the section matrix of a
    sample with these (a, b): the resolution
    0 -> a.O(-s-2) -> b.O(-s-1) -> c.O(-s) -> ideal sheaf -> 0 with s = b-2a,
    c = b-a+1 determines the Hilbert polynomial
    P(t) = chi3(t) - c chi3(t-s) + b chi3(t-s-1) - a chi3(t-s-2),
    a cubic in t whose cubic and quadratic coefficients vanish identically,
    so P(t) = degree * t + 1 - genus; it is evaluated exactly at t = 0 and 1.
    """
    if b < 2 * a:
        raise InadmissibleParams(f"need b >= 2a, got a={a}, b={b}")
    s = b - 2 * a
    c = b - a + 1
    f = 9 * a - 3 * b + 1
    delta = 3 * b - 9 * a + f
    P0, P1 = (chi3(t) - c * chi3(t - s) + b * chi3(t - s - 1)
              - a * chi3(t - s - 2) for t in (0, 1))
    degree = P1 - P0
    genus = 1 - P0
    flags = (
        ("admissible", 11 * b > 32 * a + 9 and a >= 7),
        ("regime", "b<=3a" if b <= 3 * a else "b>3a"),
        ("versal_f_upper", 11 * f <= 3 * a - 1
         and 5 * f <= 13 * a - 4 * b - 5
         and 2 * f <= 16 * a - 5 * b - 5),
        ("versal_f_lower", f >= 9 * a - 3 * b),
    )
    return CurveParams(a, b, s, c, f, delta, degree, genus, flags)


def h1_ic_vanishing(sample):
    """Vanishing of h1 of the curve's ideal sheaf in the critical degree:
    true iff m(s-3) is surjective; needs s >= 3.

    m(s-3) is checked itself, by a route that shares nothing with the
    inverse-system ladder of the sample's certificate: the x1-split of
    steiner.horace_surjective, else, where it returns None (a split fails
    or no Schur complement S_e with e <= s-3 has full row rank), whether
    the dense m(s-3) has full row rank, the only route left there.  At
    (a, b) = (10, 30) the split's x3 step decides the 90 x 360 S_d of its
    450 x 720 plane map, against 1650 x 3600 for m(7), by ranking a
    10 x 20 system; at (20, 59) it ranks S_e at ascending e, skipping those
    taller than wide, and S_2 (80 x 114) is the first of full row rank.
    """
    m, d = sample.m, sample.b - 2 * sample.a - 3
    if steiner.horace_surjective(m, d):
        return True
    M = assemble_md(m, d)
    return exactalg.rank(M, m.prime) == len(M)


# ---------------------------------------------------------------------------
# interchange


def write_linforms(fh, Ns, p):
    exactalg.write_blocks(fh, "linforms", Ns, p)
