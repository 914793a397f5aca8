"""The three workloads as case lists, and the closed form each case is
checked against.

A case is one call into steinerlab: `cli.main([... "--json"])` with stdout
captured wherever a subcommand exists, otherwise the public library
function.  A cycle is one pass over a workload's case mix at one library
seed; cycle i of a run uses library seed (workload seed + i) mod NSEEDS, so
every report the benchmark can produce has its sha256 pinned in
digests.json (see record_digests.py).

Each check compares a report against a value the benchmark derives itself
from the parameters, never against the `expected` field the library filled
in.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import ceil, comb

from steinerlab import cli, strata
from steinerlab.multilin import random_frame
from steinerlab.seeding import derive_rng
from steinerlab.subspace import FFormQuotient

NSEEDS = 16
PRIME = 32003
WORKLOADS = ("curve", "quotient_ranks", "hyperplane")

CURVE_A = (7, 8, 9, 10)
HYPER_ABF = ((10, 30, 1), (12, 36, 2), (20, 60, 1))
TRANSPORT_TRIALS = 3
RANKDIST_TRIALS = 5


class Case:
    """One call into the library.

    `call()` returns (exit code, canonical report text); `check(report)`
    returns a list of problems with the parsed report, empty when it holds.
    `key` identifies the report in digests.json.
    """

    __slots__ = ("key", "kind", "call", "check")

    def __init__(self, key, kind, call, check):
        self.key, self.kind, self.call, self.check = key, kind, call, check


def _cli_case(kind, libseed, args, check):
    argv = ["--json", "--seed", str(libseed)] + [str(a) for a in args]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return Case(" ".join(argv[1:]), kind, call, check)


def _got(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c["got"]
    return None


def _expect(problems, what, want, got):
    if want != got:
        problems.append(f"{what}: want {want!r}, got {got!r}")


def evaluate(case, code, text):
    """Problems with one finished case: a non-zero exit, an unreadable
    report, or a failed closed-form check."""
    problems = [f"exit code {code}"] if code != 0 else []
    try:
        problems += case.check(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problems.append(f"unreadable report: {e!r}")
    return problems


def _all_pass(report):
    return [f"check failed: {c['name']}" for c in report["checks"]
            if not c["pass"]]


# ---------------------------------------------------------------------------
# closed forms


def _chi3(t):
    return comb(t + 3, 3)


def curve_degree_genus(a, b):
    """Degree and genus from the resolution's section counts at t = s and
    t = s + 1 (finite differences of the Hilbert polynomial)."""
    s, c = b - 2 * a, b - a + 1
    p_s = _chi3(s) - c
    p_s1 = _chi3(s + 1) - (4 * c - b)
    degree = p_s1 - p_s
    return degree, degree * s + 1 - p_s


assert curve_degree_genus(10, 30) == (45, 186)


def _check_curve(a):
    b = 3 * a
    c = b - a + 1
    degree, genus = curve_degree_genus(a, b)

    def check(report):
        problems = _all_pass(report)
        params = report["params"]
        _expect(problems, "degree/genus", (degree, genus),
                (params["degree"], params["genus"]))
        _expect(problems, "h0 of E(1)", c, _got(report, "h0 of E(1) equals c"))
        pts = _got(report, "section matrix has rank c-1 at 20 points")
        _expect(problems, "points with section rank c-1", 20, pts)
        return problems

    return check


def _check_pw(a, b, f):
    def check(report):
        problems = _all_pass(report)
        _expect(problems, "rank m(1)", 10 * a - f,
                _got(report, "rank of m(1) is 10a - f"))
        for name, want in (("h1 at k=-1 equals a", a),
                           ("h1 at k=0 equals 4a-b", 4 * a - b),
                           ("h1 at k=1 equals f", f)):
            _expect(problems, name, want, _got(report, name))
        return problems

    return check


def _check_cohomology(a, b, f):
    def check(report):
        problems = _all_pass(report)
        rows = {r["k"]: r for r in report["rows"]}
        for k, want in ((-1, a), (0, 4 * a - b), (1, f)):
            _expect(problems, f"h1 at k={k}", want, rows[k]["h1"])
        _expect(problems, "rank m(1)", 10 * a - f,
                report["params"]["rank_m1"])
        return problems

    return check


def _check_mh(a, b, f):
    want = min(3 * b, 9 * a - f)

    def check(report):
        problems = _all_pass(report)
        hist = report["histogram"]
        trials = sum(hist.values())
        hits = hist.get(str(want), 0)
        if hits < ceil(0.99 * trials):
            problems.append(f"mh rank {want} in {hits}/{trials} frames")
        return problems

    return check


def _check_rank0(a, f, hyperplane):
    want = 11 * f > 3 * a if hyperplane else 5 * f > 2 * a

    def check(report):
        problems = _all_pass(report)
        found = report["checks"][0]["got"]
        _expect(problems, "rank-0 witness exists", want, found)
        if found:
            _expect(problems, "witness rank", 0,
                    _got(report, "returned covector has rank 0"))
        return problems

    return check


def _check_transport(report):
    problems = _all_pass(report)
    for variant in ("full", "hyper", "combined"):
        _expect(problems, f"{variant} instances agreeing", TRANSPORT_TRIALS,
                _got(report, f"both sides agree on every {variant} instance"))
    return problems


def _check_jordan4(report):
    problems = _all_pass(report)
    rows = {r["label"]: r for r in report["rows"]}
    # The reference lists S = 7 at type 22; exact elimination gives 6, and
    # the row must say so through its flag.
    _expect(problems, "S at 22", 6, rows["22"]["S_computed"])
    _expect(problems, "s_ref_mismatch at 22", True,
            "s_ref_mismatch" in rows["22"]["flags"])
    _expect(problems, "O at 2|1|1", 15, rows["2|1|1"]["O_computed"])
    return problems


def _check_jordan3x4(report):
    return _all_pass(report)


# ---------------------------------------------------------------------------
# rank distributions: library calls, no subcommand

# (label, a, f, codim, hyperplane, generic rank), as in acceptance criterion 7
RANKDISTS = (
    ("Z codim1", 6, 2, 1, False, 4),
    ("Z' codim1", 4, 1, 1, True, 3),
    ("Z' codim2", 5, 1, 2, True, 6),
)


def _rankdist_cases(libseed):
    rng = derive_rng(libseed, 70)
    cases = []
    for label, a, f, codim, hyper, generic in RANKDISTS:
        phi = FFormQuotient.random(rng, a, f, PRIME)
        frame = random_frame(rng, PRIME) if hyper else None

        def call(phi=phi, frame=frame, codim=codim):
            hist = strata.rank_distribution(
                phi, frame, codim=codim, trials=RANKDIST_TRIALS, seed=libseed)
            return 0, json.dumps({str(k): v for k, v in sorted(hist.items())},
                                 separators=(",", ":")) + "\n"

        def check(report, generic=generic):
            problems = []
            _expect(problems, "trials", RANKDIST_TRIALS, sum(report.values()))
            _expect(problems, f"trials at generic rank {generic}",
                    RANKDIST_TRIALS, report.get(str(generic), 0))
            return problems

        key = (f"rank_distribution {label} a={a} f={f} seed={libseed} "
               f"trials={RANKDIST_TRIALS}")
        cases.append(Case(key, f"rank_distribution {label}", call, check))
    return cases


# ---------------------------------------------------------------------------
# case mixes


def cycle(workload, libseed):
    """The case list of one cycle of `workload` at library seed `libseed`."""
    s = libseed
    if workload == "curve":
        return [
            _cli_case(f"curve a={a}", s,
                      ["verify", "curve", "-a", a, "-b", 3 * a],
                      _check_curve(a))
            for a in CURVE_A
        ]
    if workload == "quotient_ranks":
        cases = _rankdist_cases(s)
        cases.append(_cli_case(
            "transport", s, ["--trials", TRANSPORT_TRIALS, "verify", "transport"],
            _check_transport))
        for hyper in (False, True):
            for a in range(2, 9):
                for f in range(1, 4):
                    argv = ["verify", "rank0", "-a", a, "-f", f]
                    cases.append(_cli_case(
                        "rank0 hyperplane" if hyper else "rank0 full", s,
                        argv + ["--hyperplane"] if hyper else argv,
                        _check_rank0(a, f, hyper)))
        cases.append(_cli_case("table jordan4", s, ["table", "jordan4"],
                               _check_jordan4))
        cases.append(_cli_case("table jordan3x4", s, ["table", "jordan3x4"],
                               _check_jordan3x4))
        return cases
    if workload == "hyperplane":
        cases = []
        for a, b, f in HYPER_ABF:
            dims = ["-a", a, "-b", b, "-f", f]
            tag = f"a={a} b={b} f={f}"
            cases.append(_cli_case(f"verify pw {tag}", s,
                                   ["verify", "pw"] + dims,
                                   _check_pw(a, b, f)))
            cases.append(_cli_case(f"cohomology {tag}", s,
                                   ["cohomology"] + dims,
                                   _check_cohomology(a, b, f)))
            cases.append(_cli_case(f"verify mh {tag}", s,
                                   ["verify", "mh"] + dims,
                                   _check_mh(a, b, f)))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def cycles(workload):
    """Every cycle a run can reach, indexed by library seed."""
    return [cycle(workload, s) for s in range(NSEEDS)]
