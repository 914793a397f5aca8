"""Command-line front end: cohomology tables, stratification tables, and the
verification suites, with reproducible seeds and machine-readable reports.

Every run prints either aligned text or canonical JSON (--json): the JSON is
dumped with sorted keys and no whitespace, so identical (command, seed,
prime) invocations are byte-identical.  The global flags (_GLOBAL_FLAGS)
are accepted at every level, also between `verify` and its suite, and fall
back to their STEINERLAB_* environment variables, then to built-ins.

main returns the exit status: 0 when every check in the report passes, 1
when one fails, 2 on a bad input.  Every rejection, by the parser or by the
library, leaves through one handler, which prints one stderr line
`error: <Kind>: <message>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, exactalg, pwcurves, steiner, strata, subspace
from .multilin import random_covector, random_frame
from .pwcurves import _check
from .seeding import derive_rng
from .steiner import chi3


def _int_flag(check):
    """The argparse type of an integer flag that `check` validates.  Its
    ValueError becomes an ArgumentTypeError, whose message argparse prints
    (in place of a bare "invalid value")."""
    def parse(text):
        try:
            return check(int(text))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _at_least(minimum):
    def check(value):
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value
    return _int_flag(check)


# dest, type, environment variable and built-in default of each global flag
_GLOBAL_FLAGS = (
    ("prime", _int_flag(exactalg.validate_prime), "STEINERLAB_PRIME",
     exactalg.DEFAULT_PRIME),
    ("seed", _at_least(0), "STEINERLAB_SEED", 0),
    ("trials", _at_least(1), "STEINERLAB_TRIALS", 50),
    ("dmax", _at_least(1), "STEINERLAB_DMAX", steiner.D_MAX),
)


def _env_defaults():
    """The global flags' defaults: each environment variable when set, else
    the built-in.  Kept as text so that each flag's type parses and checks
    it like a command-line value."""
    return {dest: os.environ.get(env, "").strip() or str(default)
            for dest, _, env, default in _GLOBAL_FLAGS}


def _match_loaded(flag, given, actual):
    """Reject a flag value that a loaded file contradicts."""
    if given is not None and given != actual:
        raise ValueError(
            f"{flag} {given} contradicts the loaded file ({actual})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_cohomology(args):
    if args.load:
        with open(args.load) as fh:
            m = steiner.read_presentation(fh)
        for flag, given, actual in (("-a", args.a, m.a), ("-b", args.b, m.b),
                                    ("--prime", args.prime, m.prime)):
            _match_loaded(flag, given, actual)
        sample = pwcurves.PWSample(
            None, m, steiner.surjectivity_certificate(m, args.dmax), 0)
        _match_loaded("-f", args.f, sample.f)
    else:
        if args.a is None or args.b is None:
            raise ValueError("-a and -b are required unless --load is given")
        sample = pwcurves.sample_pw(args.a, args.b, args.f or 0, args.seed,
                                    args.prime, d_max=args.dmax)
    checks, tab = pwcurves.verify_thm42(sample, args.kmin, args.kmax)
    # only a sample that got a table is written out
    if args.export:
        with open(args.export, "w") as fh:
            steiner.write_presentation(fh, sample.m)
    return checks, {"rows": tab.as_dicts(), "params": {
        "a": sample.a, "b": sample.b, "f": sample.f,
        "rank_m1": sample.rank_m1,
        "d0": sample.cert.d0,
    }}


def cmd_table(args):
    if args.which == "jordan4":
        rows = strata.jordan4_table(args.prime)
        row = {r.label: r for r in rows}
        checks = [_check("types enumerated", 14, len(rows)), _check(
            "O column matches reference outside flagged rows", True,
            all(r.O_match for r in rows if "o_ref_mismatch" not in r.flags),
        ), _check(
            "single O discrepancy flagged at 2|1|1 (computed 15, reference 14)",
            True,
            [r.label for r in rows if "o_ref_mismatch" in r.flags] == ["2|1|1"]
            and (row["2|1|1"].O_computed, row["2|1|1"].O_ref) == (15, 14),
        ), _check(
            "S column matches reference outside flagged rows", True,
            all(r.S_match for r in rows if "s_ref_mismatch" not in r.flags),
        ), _check(
            "single S discrepancy flagged at 22 (computed 6, reference 7)",
            True,
            [r.label for r in rows if "s_ref_mismatch" in r.flags] == ["22"]
            and (row["22"].S_computed, row["22"].S_ref) == (6, 7),
        )]
    else:
        rows = strata.jordan3x4_table(args.prime)
        checks = [_check(
            "(r, S) columns match reference on every row", True,
            all("ref_mismatch" not in r.flags for r in rows),
        ), _check(
            "degenerate scalar row with c = 0 flagged", True,
            any("pair_map_not_onto" in r.flags and r.r_computed == 0
                for r in rows),
        )]
    payload = [dict(dataclasses.asdict(r), flags=list(r.flags)) for r in rows]
    return checks, {"rows": payload}


def cmd_verify_transport(args):
    checks = []
    for variant in ("full", "hyper", "combined"):
        agree = sum(
            1 for t in range(args.trials)
            if subspace.transport_trial(variant, t, args.seed, args.prime)
        )
        checks.append(_check(
            f"both sides agree on every {variant} instance", args.trials,
            agree))
    return checks, {}


def _sample(args):
    return pwcurves.sample_pw(args.a, args.b, args.f, args.seed, args.prime,
                              d_max=args.dmax)


def cmd_verify_pw(args):
    sample = _sample(args)
    checks, tab = pwcurves.verify_thm42(sample)
    checks.insert(0, _check(
        "rank of m(1) is 10a - f", 10 * args.a - args.f, sample.rank_m1))
    checks.insert(1, _check(
        "surjectivity certificate found", True, sample.cert.found))
    lhs, rhs = subspace.transport_check(sample.m,
                                        subspace.zslice(sample.phi))
    checks.append(_check(
        "quotient kills the image of m(1), both formulations",
        (True, True), (lhs, rhs)))
    return checks, {"params": {"a": sample.a, "b": sample.b, "f": sample.f,
                               "d0": sample.cert.d0}}


def cmd_verify_mh(args):
    sample = _sample(args)
    hist = pwcurves.mh_rank_survey(sample, args.trials, args.seed)
    expected_rank = min(3 * sample.b, 9 * sample.a - sample.f)
    hits = hist.get(expected_rank, 0)
    need = math.ceil(0.99 * args.trials)
    check = _check(f"hyperplane restriction has rank {expected_rank}",
                   f">={need}", hits)
    return [{**check, "pass": hits >= need}], {
        "histogram": {str(k): v for k, v in sorted(hist.items())}}


def cmd_verify_rank0(args):
    a, f, p = args.a, args.f, args.prime
    # Z has dimension 10a - f and Z' 9a - f; a slice that is 0 has no
    # hyperplane, so no witness
    k = 9 if args.hyperplane else 10
    if a < 1 or not 0 <= f < k * a:
        raise pwcurves.InadmissibleParams(
            f"need a >= 1 and 0 <= f < {k}a, got a={a}, f={f}")
    rng = derive_rng(args.seed, 17, a, f)
    phi = subspace.FFormQuotient.random(rng, a, f, p)
    if args.hyperplane:
        frame, want, rule = random_frame(rng, p), 11 * f > 3 * a, "11f vs 3a"
    else:
        frame, want, rule = None, 5 * f > 2 * a, "5f vs 2a"
    sl = subspace.zslice(phi, frame)
    g = strata.find_rank0(sl)
    checks = [_check(f"witness existence matches the {rule} threshold",
                     want, g is not None)]
    if g is not None:
        checks.append(_check(
            "returned covector has rank 0", 0, subspace.z_rank(sl, [g])))
    return checks, {"params": {"a": a, "f": f,
                               "context": "hyperplane" if args.hyperplane else "full"}}


def cmd_verify_curve(args):
    a, b, p = args.a, args.b, args.prime
    cp = pwcurves.curve_params(a, b)
    checks = []
    # independent consistency of degree/genus: evaluate the polynomial and
    # the section count of the ideal sheaf at t = s and t = s + 1
    for t, ideal_h0 in ((cp.s, cp.c), (cp.s + 1, 4 * cp.c - cp.b)):
        lhs = cp.degree * t + 1 - cp.genus
        checks.append(_check(
            f"polynomial at t={t} matches section count", chi3(t) - ideal_h0,
            lhs))
    if cp.s < 5:
        # sample_pw admits s <= 4 only at (4, 12), where m(s - 3) = m(1)
        # has the cokernel f = 1
        raise pwcurves.InadmissibleParams(
            f"need b >= 2a + 5 for m(b - 2a - 3) to be onto, got a={a}, "
            f"b={b}")
    sample = pwcurves.sample_pw(a, b, cp.f, args.seed, p, d_max=args.dmax)
    # h0 of E(1) is dim ker m(1), read off the full elimination of m(1)
    Ns = pwcurves.section_matrix(sample)
    checks.append(_check("h0 of E(1) equals c", cp.c, Ns.shape[1]))
    pts = min(args.trials, 20)
    rng = derive_rng(args.seed, 19)
    xs = np.array([random_covector(rng, p) for _ in range(pts)])
    rank_hits = sum(r == cp.c - 1 for r in exactalg.ranks_at(Ns, xs, p))
    Nxs, Mxs = (exactalg.evaluate_linear(F, xs, p) for F in (Ns, sample.m.Ms))
    prod_zero = sum(not exactalg.matmul_mod(Mx, Nx.T, p).any()
                    for Mx, Nx in zip(Mxs, Nxs))
    checks.append(_check(
        f"section matrix has rank c-1 at {pts} points", pts, rank_hits))
    checks.append(_check(
        f"rows stay in the pointwise kernel at {pts} points", pts, prod_zero))
    via_prop = pwcurves.h1_ic_vanishing(sample)
    via_direct = pwcurves.h1_ic_vanishing(sample, direct=True)
    checks.append(_check(
        "ideal-sheaf h1 vanishes in the critical degree (propagation)",
        True, via_prop))
    checks.append(_check(
        "propagation and direct rank agree", via_prop, via_direct))
    if args.export_sections:
        with open(args.export_sections, "w") as fh:
            pwcurves.write_linforms(fh, Ns, p)
    return checks, {"params": {
        "a": a, "b": b, "s": cp.s, "c": cp.c, "f": cp.f, "delta": cp.delta,
        "degree": cp.degree, "genus": cp.genus,
        "flags": {k: v for k, v in cp.flags},
    }}


# ---------------------------------------------------------------------------
# report plumbing


def canonical_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _print_text(report):
    cfg = report["config"]
    head = (f"steinerlab {report['tool_version']}  command={cfg['command']}"
            f"  prime={cfg['prime']}  seed={cfg['seed']}")
    print(head)
    payload = report.get("rows")
    if payload:
        keys = list(payload[0].keys())
        widths = {
            k: max(len(str(k)), *(len(str(r[k])) for r in payload))
            for k in keys
        }
        print("  ".join(str(k).rjust(widths[k]) for k in keys))
        for r in payload:
            print("  ".join(str(r[k]).rjust(widths[k]) for k in keys))
    if "params" in report:
        print("params:", json.dumps(report["params"], sort_keys=True))
    if "histogram" in report:
        print("histogram:", json.dumps(report["histogram"], sort_keys=True))
    for c in report["checks"]:
        mark = "ok  " if c["pass"] else "FAIL"
        print(f"{mark} {c['name']}: expected {c['expected']}, got {c['got']}")


def _add_global_flags(ap, suppress):
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    for dest, kind, _, _ in _GLOBAL_FLAGS:
        ap.add_argument(f"--{dest}", type=kind, **kw)
    ap.add_argument("--json", action="store_true",
                    help="emit a canonical JSON report", **kw)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its rejections, for main's one
    handler, instead of printing usage and exiting; subparsers are built
    from this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser():
    """The argument parser, built once per process.  The global flags get
    their defaults from main, on every call."""
    ap = _Parser(
        prog="steinerlab",
        description="exact mod-p diagnostics for kernel bundles of matrices "
                    "of linear forms on P^3",
    )
    _add_global_flags(ap, suppress=False)
    # the same flags are accepted at every lower level; suppressed defaults
    # keep a subparser from clobbering values parsed above it
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    par = {"parents": [common]}
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", help="cohomology table of a sample",
                       **par)
    c.add_argument("-a", type=int, default=None)
    c.add_argument("-b", type=int, default=None)
    c.add_argument("-f", type=int, default=None)
    c.add_argument("--kmin", type=int, default=steiner.K_MIN)
    c.add_argument("--kmax", type=int, default=steiner.K_MAX)
    c.add_argument("--export", metavar="FILE",
                   help="write the sampled presentation in interchange format")
    c.add_argument("--load", metavar="FILE",
                   help="load a presentation instead of sampling")
    c.set_defaults(func=cmd_cohomology)

    t = sub.add_parser("table", help="stratification reference tables",
                       **par)
    t.add_argument("which", choices=("jordan4", "jordan3x4"))
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="verification suites", **par)
    vs = v.add_subparsers(dest="suite", required=True)

    vs.add_parser("transport", **par).set_defaults(func=cmd_verify_transport)

    dims = argparse.ArgumentParser(add_help=False)  # a sample's (a, b, f)
    dims.add_argument("-a", type=int, required=True)
    dims.add_argument("-b", type=int, required=True)
    dims.add_argument("-f", type=int, default=0)
    for name, func in (("pw", cmd_verify_pw), ("mh", cmd_verify_mh)):
        vs.add_parser(name, parents=[common, dims]).set_defaults(func=func)

    vr = vs.add_parser("rank0", **par)
    vr.add_argument("-a", type=int, required=True)
    vr.add_argument("-f", type=int, required=True)
    vr.add_argument("--hyperplane", action="store_true")
    vr.set_defaults(func=cmd_verify_rank0)

    vc = vs.add_parser("curve", **par)
    vc.add_argument("-a", type=int, required=True)
    vc.add_argument("-b", type=int, required=True)
    vc.add_argument("--export-sections", metavar="FILE")
    vc.set_defaults(func=cmd_verify_curve)
    return ap


def main(argv=None):
    """Run one command and return its exit status: 0 when every check
    passed, 1 when one failed, 2 on a bad input (one line on stderr).
    Only --help leaves by SystemExit."""
    ap = build_parser()
    # the parser outlives this call and the environment may change between
    # calls, so the global flags' defaults are set anew each time
    ap.set_defaults(**_env_defaults())
    try:
        args = ap.parse_args(argv)
        checks, payload = args.func(args)
    # the library's exceptions are ValueErrors; the last two are the
    # backstop for inputs too large to hold
    except (argparse.ArgumentError, ValueError, OSError, MemoryError,
            OverflowError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    command = args.command
    if command == "verify":
        command = f"verify {args.suite}"
    cfg = {"command": command, "prime": args.prime, "seed": args.seed,
           "trials": args.trials, "dmax": args.dmax}
    report = {"tool_version": __version__, "config": cfg, "checks": checks}
    report.update(payload)
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        _print_text(report)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
