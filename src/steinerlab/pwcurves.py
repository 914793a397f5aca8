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

from dataclasses import dataclass

import numpy as np

from . import exactalg, steiner
from .multilin import random_frame
from .seeding import derive_rng
from .steiner import SteinerPresentation, assemble_md, chi3, cohomology_table
from .subspace import FFormQuotient, SamplingFailed, zstar_basis


class InadmissibleParams(Exception):
    pass


class KernelDimMismatch(Exception):
    pass


@dataclass(frozen=True)
class PWSample:
    a: int
    b: int
    f: int
    phi: FFormQuotient
    m: SteinerPresentation
    rank_m1: int
    cert: steiner.SurjectivityCertificate
    prime: int
    attempts: int


def sample_pw(a, b, f, seed, p=exactalg.DEFAULT_PRIME, d_max=5, retries=8):
    """Draw a presentation whose m(1) has image the generic codimension-f
    subspace of A(x)S^2V.

    Admissibility: a >= 1, 5a <= 2b <= 8a and b <= 4a - 4f (so the kernel
    Z* is big enough to receive B).  Each attempt uses a fresh derived
    stream; after `retries` failed genericity checks SamplingFailed reports
    the last diagnostics instead of lowering the bar.  The rank of m(1) is read off
    the first step of the surjectivity certificate, so an attempt
    eliminates each m(d) once.
    """
    if a < 1:
        raise InadmissibleParams(f"need a >= 1, got a={a}")
    if not 5 * a <= 2 * b:
        raise InadmissibleParams(f"need 5a <= 2b, got a={a}, b={b}")
    if not 2 * b <= 8 * a:
        raise InadmissibleParams(f"need 2b <= 8a, got a={a}, b={b}")
    if f < 0 or b > 4 * a - 4 * f:
        raise InadmissibleParams(
            f"need 0 <= f and b <= 4a - 4f, got a={a}, b={b}, f={f}"
        )
    want = 10 * a - f
    last = None
    for attempt in range(retries):
        rng = derive_rng(seed, 3, attempt)
        phi = FFormQuotient.random(rng, a, f, p)
        zs = zstar_basis(phi)
        if len(zs) != 4 * a - 4 * f:
            last = f"zstar dimension {len(zs)} != {4 * a - 4 * f}"
            continue
        m = steiner.presentation_in_span(zs, b, rng, p)
        cert = steiner.surjectivity_certificate(m, d_max)
        # the ladder starts at m(1), which has 10a rows
        r1 = 10 * a - cert.checked[0][1]
        if r1 != want:
            last = f"rank m(1) = {r1}, expected {want}"
            continue
        return PWSample(a, b, f, phi, m, r1, cert, p, attempt + 1)
    raise SamplingFailed(
        f"no valid sample for (a,b,f)=({a},{b},{f}) in {retries} attempts; "
        f"last failure: {last}"
    )


def verify_thm42(sample, k_min=-6, k_max=4):
    """Compare the cohomology table of a sample against the closed forms.

    Returns (checks, table): checks is a list of dicts with name, expected,
    got, pass; the closed forms are h1(E(-1)) = a, h1(E) = 4a - b,
    h1(E(1)) = f, h0(E(1)) = 4b - 10a + f, h2 = 0 everywhere, the alternating
    sum identity, and at most one nonzero h^i per twist k != 1.
    """
    if not k_min <= -1 or not k_max >= 1:
        raise InadmissibleParams(
            f"the twist window must contain -1, 0 and 1, got "
            f"[{k_min}, {k_max}]"
        )
    a, b, f = sample.a, sample.b, sample.f
    tab = cohomology_table(sample.m, k_min, k_max, sample.cert)
    checks = []

    def add(name, expected, got):
        checks.append(
            {"name": name, "expected": expected, "got": got,
             "pass": expected == got}
        )

    add("h1 at k=-1 equals a", a, tab.row(-1)[2])
    add("h1 at k=0 equals 4a-b", 4 * a - b, tab.row(0)[2])
    add("h1 at k=1 equals f", f, tab.row(1)[2])
    add("h0 at k=1 equals 4b-10a+f", 4 * b - 10 * a + f, tab.row(1)[1])
    add("h2 vanishes everywhere", 0, max(r[3] for r in tab.rows))
    add(
        "alternating sum equals chi",
        True,
        all(r[1] - r[2] + r[3] - r[4] == r[5] for r in tab.rows),
    )
    add(
        "at most one nonzero h^i per twist away from 1",
        True,
        all(
            sum(1 for h in r[1:5] if h > 0) <= 1
            for r in tab.rows
            if r[0] != 1
        ),
    )
    return checks, tab


def check_not_globally_generated(sample):
    """h0(E(1)) <= b - a + 1 together with h1(E) > 0.

    Meaningful for samples with f = 9a - 3b + 1 and b <= 3a; evaluated as
    stated on any sample, preconditions are the caller's concern.
    """
    a, b = sample.a, sample.b
    p = sample.prime
    h0_1 = 4 * b - sample.rank_m1
    r0 = exactalg.rank(assemble_md(sample.m, 0), p)
    h1_0 = 4 * a - r0
    return h0_1 <= b - a + 1 and h1_0 > 0


def mh_rank_survey(sample, trials, seed):
    """Histogram of rank m_H(1) over random hyperplane frames, each rank read
    from one kernel basis of m(1).

    For H = ker h, B(x)H is the kernel of id_B(x)h inside B(x)V, and m_H(1)
    is m(1) on B(x)H (in a frame where H = {x4 = 0}, the x4^2 rows it drops
    are zero on B(x)H).  So, with K = ker m(1), rank-nullity gives
    rank m_H(1) = 3b - dim(K cap B(x)H).
    A vector sum_r c_r K_r of K has B-components w_i = sum_r c_r K_r[4i:4i+4],
    and it lies in B(x)H iff h(w_i) = (c^T N(h))_i = 0 for every i, where
    N(h) = sum_k h_k N_k is the section matrix of K at the covector h
    (N_k[r, i] = K_r[4i + k]).  So K cap B(x)H is the left kernel of N(h),
    of dimension dim K - rank N(h), and

        rank m_H(1) = 3b - dim K + rank N(h),

    exactly, at every prime and for every presentation.  Trial t draws its
    frame from derive_rng(seed, 5, t) and reads only its covector h.  Raises
    KernelDimMismatch when dim K is not 4b - rank m(1), the rank the sample
    recorded.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    b, p = sample.b, sample.prime
    Ns = _kernel_forms(sample, 4 * b - sample.rank_m1, "4b - rank m(1)")
    dim_k = len(Ns[0])
    hist = {}
    for trial in range(trials):
        h = random_frame(derive_rng(seed, 5, trial), p).h
        r = 3 * b - dim_k + exactalg.rank(evaluate_linear(Ns, h, p), p)
        hist[r] = hist.get(r, 0) + 1
    return hist


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

    def flag(self, name):
        return dict(self.flags)[name]


def curve_params(a, b):
    """Numerical invariants of the curve cut out by the section matrix of a
    sample with these (a, b): the resolution
    0 -> a.O(-s-2) -> b.O(-s-1) -> c.O(-s) -> ideal sheaf -> 0 with s = b-2a,
    c = b-a+1 determines the Hilbert polynomial
    P(t) = chi3(t) - c chi3(t-s) + b chi3(t-s-1) - a chi3(t-s-2),
    a cubic in t whose cubic and quadratic coefficients vanish identically,
    so P(t) = degree * t + 1 - genus; it is evaluated exactly at t = 0..3.
    """
    if b < 2 * a:
        raise InadmissibleParams(f"need b >= 2a, got a={a}, b={b}")
    s = b - 2 * a
    c = b - a + 1
    f = 9 * a - 3 * b + 1
    delta = 3 * b - 9 * a + f
    P = [chi3(t) - c * chi3(t - s) + b * chi3(t - s - 1) - a * chi3(t - s - 2)
         for t in range(4)]
    # a cubic is linear exactly when its second and third differences vanish
    d2, d3 = P[2] - 2 * P[1] + P[0], P[3] - 3 * P[2] + 3 * P[1] - P[0]
    assert d2 == 0 and d3 == 0, "resolution bookkeeping is off"
    degree = P[1] - P[0]
    genus = 1 - P[0]
    flags = (
        ("admissible", 11 * b > 32 * a + 9 and a >= 7),
        ("regime", "b<=3a" if b <= 3 * a else "b>3a"),
        ("versal_f_upper", 11 * f <= 3 * a - 1
         and 5 * f <= 13 * a - 4 * b - 5
         and 2 * f <= 16 * a - 5 * b - 5),
        ("versal_f_lower", f >= 9 * a - 3 * b),
    )
    return CurveParams(a, b, s, c, f, delta, degree, genus, flags)


def evaluate_linear(mats, x, p=exactalg.DEFAULT_PRIME):
    """Evaluate four coefficient matrices at a point x of P^3:
    sum_k mats[k] * x_k mod p."""
    acc = np.zeros_like(np.asarray(mats[0], dtype=np.int64))
    for k in range(4):
        acc = acc + int(x[k]) * np.asarray(mats[k], dtype=np.int64)
    return np.mod(acc, p)


def _kernel_forms(sample, want, name):
    """The kernel basis K_1..K_c of m(1), read as the four c x b matrices
    N_k[r, i] = K_r[4i + k] (coefficient of x_k); raises KernelDimMismatch
    unless c equals `want`, the value of the expression `name`."""
    kern = exactalg.kernel_basis(assemble_md(sample.m, 1), sample.prime)
    if len(kern) != want:
        raise KernelDimMismatch(
            f"dim ker m(1) = {len(kern)}, expected {name} = {want}"
        )
    K = kern.reshape(len(kern), sample.b, 4)
    return tuple(np.ascontiguousarray(K[:, :, k]) for k in range(4))


def section_matrix(sample):
    """The c x b matrix of linear forms whose rows span ker m(1) in B(x)V.

    Returns four c x b scalar matrices N_k (coefficient of x_k).  At any
    point x, every row of N(x) lies in ker M(x); at a generic point N(x) has
    rank c - 1."""
    return _kernel_forms(sample, sample.b - sample.a + 1, "c")


def h1_ic_vanishing(sample, direct=False):
    """Vanishing of h1 of the curve's ideal sheaf in the critical degree:
    true iff m(s-3) is surjective (vacuous when s < 3).

    With direct=False the certified degree is used when it already implies
    surjectivity.  direct=True checks m(s-3) itself, independently of that
    certificate: first by the x1-split of steiner.horace_surjective, the
    methode d'Horace (Hirschowitz, Manuscripta Math. 50, 1985), which asks
    full row rank of m'(s-3) on the hyperplane x1 = 0 stacked over
    M1(x)id; where the split does not certify, by the rank of the dense
    m(s-3).
    """
    s = sample.b - 2 * sample.a
    if s < 3:
        return True
    d = s - 3
    if not direct and sample.cert.found and sample.cert.d0 <= d:
        return True
    if steiner.horace_surjective(sample.m, d):
        return True
    return steiner.cokernel_dim_md(sample.m, d) == 0


# ---------------------------------------------------------------------------
# interchange


def write_linforms(fh, Ns, p=exactalg.DEFAULT_PRIME):
    c, b = np.asarray(Ns[0]).shape
    exactalg.write_blocks(fh, "linforms", c, b, Ns, p)


def read_linforms(fh):
    _, _, p, Ns = exactalg.read_blocks(fh, "linforms", 4)
    return tuple(Ns), p
