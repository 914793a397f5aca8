"""Command-line behavior: canonical JSON, exit codes, flag placement, and
environment defaults.  main() is driven in-process so the tests see exactly
what a shell user sees."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerlab
from steinerlab import cli, exactalg, pwcurves
from steinerlab.steiner import SteinerPresentation, write_presentation

P = exactalg.DEFAULT_PRIME


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_table_jordan4_json():
    code, out = run_cli(["--json", "table", "jordan4"])
    assert code == 0
    report = json.loads(out)
    assert report["tool_version"]
    assert report["config"]["command"] == "table"
    assert len(report["rows"]) == 14
    assert all(c["pass"] for c in report["checks"])
    flagged = {r["label"]: r["flags"] for r in report["rows"] if r["flags"]}
    assert flagged == {"2|1|1": ["o_ref_mismatch"], "22": ["s_ref_mismatch"]}


def test_table_jordan3x4_json():
    code, out = run_cli(["--json", "table", "jordan3x4"])
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 9
    assert all(c["pass"] for c in report["checks"])


def test_json_byte_identical():
    for argv in (
        ["--json", "table", "jordan4"],
        ["--json", "--seed", "3", "verify", "pw", "-a", "3", "-b", "8",
         "-f", "1"],
        ["--json", "verify", "rank0", "-a", "2", "-f", "1"],
        ["--json", "--trials", "10", "verify", "mh", "-a", "3", "-b", "8",
         "-f", "1"],
        ["--json", "cohomology", "-a", "1", "-b", "4"],
    ):
        code1, out1 = run_cli(list(argv))
        code2, out2 = run_cli(list(argv))
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")
        json.loads(out1)


def test_flag_placement_equivalent():
    _, before = run_cli(["--json", "--seed", "5", "verify", "rank0",
                         "-a", "2", "-f", "2"])
    _, between = run_cli(["verify", "--json", "--seed", "5", "rank0",
                          "-a", "2", "-f", "2"])
    _, after = run_cli(["--json", "verify", "rank0", "-a", "2", "-f", "2",
                        "--seed", "5"])
    assert before == between == after
    assert json.loads(before)["config"]["seed"] == 5


def test_seed_changes_sample_but_not_schema():
    _, out1 = run_cli(["--json", "cohomology", "-a", "3", "-b", "8",
                       "-f", "1", "--seed", "0"])
    _, out2 = run_cli(["--json", "cohomology", "-a", "3", "-b", "8",
                       "-f", "1", "--seed", "1"])
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["config"]["seed"] == 0 and r2["config"]["seed"] == 1
    assert [c["name"] for c in r1["checks"]] == [
        c["name"] for c in r2["checks"]
    ]
    # the cohomology of the generic sample is seed-independent
    assert r1["rows"] == r2["rows"]


def test_env_defaults(monkeypatch):
    monkeypatch.setenv("STEINERLAB_SEED", "9")
    monkeypatch.setenv("STEINERLAB_TRIALS", "7")
    code, out = run_cli(["--json", "verify", "transport"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 9
    assert report["config"]["trials"] == 7
    assert all(c["expected"] == 7 for c in report["checks"])


def test_env_defaults_are_read_on_every_call(monkeypatch):
    # the parser is built once per process, so each call must still see
    # the environment as it is then
    for seed in ("3", "11"):
        monkeypatch.setenv("STEINERLAB_SEED", seed)
        code, out = run_cli(["--json", "verify", "rank0", "-a", "2",
                             "-f", "1"])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == int(seed)
    monkeypatch.delenv("STEINERLAB_SEED")
    code, out = run_cli(["--json", "verify", "rank0", "-a", "2", "-f", "1"])
    assert json.loads(out)["config"]["seed"] == 0


@pytest.mark.parametrize("context", [[], ["--hyperplane"]],
                         ids=["full", "hyperplane"])
def test_rank0_zero_row_quotient(context):
    # f = 0 runs the general path on 0-row matrices: no witness, as the
    # threshold predicts, and every check passes
    code, out = run_cli(["--json", "verify", "rank0", "-a", "2", "-f", "0"]
                        + context)
    assert code == 0
    report = json.loads(out)
    assert [c["got"] for c in report["checks"]] == [False]


def test_cohomology_rows_match_library():
    code, out = run_cli(["--json", "cohomology", "-a", "3", "-b", "8",
                         "-f", "1", "--kmin", "-2", "--kmax", "2"])
    assert code == 0
    report = json.loads(out)
    sample = pwcurves.sample_pw(3, 8, 1, seed=0, p=P)
    _, tab = pwcurves.verify_thm42(sample, -2, 2)
    assert report["rows"] == [
        {k: int(v) for k, v in row.items()} for row in tab.as_dicts()
    ]


def test_export_and_load_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    code, out1 = run_cli(["--json", "cohomology", "-a", "3", "-b", "8",
                          "-f", "1", "--export", str(path)])
    assert code == 0
    # loading takes dimensions from the file, no -a/-b needed
    code, out2 = run_cli(["--json", "cohomology", "--load", str(path)])
    assert code == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["rows"] == r2["rows"]
    assert r2["params"]["a"] == 3
    assert r2["params"]["b"] == 8
    assert r2["params"]["f"] == 1


def test_load_checks_given_f(tmp_path, capsys):
    # the loaded file's f is the cokernel of m(1), known only after the
    # certificate; a given -f must match it like -a, -b and --prime
    path = tmp_path / "m.txt"
    code, _ = run_cli(["cohomology", "-a", "3", "-b", "8", "-f", "1",
                       "--export", str(path)])
    assert code == 0
    _assert_one_line_error(
        capsys, ["--json", "cohomology", "--load", str(path), "-f", "2"],
        "-f 2 contradicts the loaded file (1)")
    code, out = run_cli(["--json", "cohomology", "--load", str(path),
                         "-f", "1"])
    assert code == 0
    assert json.loads(out)["params"]["f"] == 1


def test_cohomology_requires_dims_when_sampling(capsys):
    assert cli.main(["cohomology", "-f", "1"]) == 2
    assert "-a and -b are required" in capsys.readouterr().err


def test_failing_checks_exit_one(tmp_path):
    # a locally free presentation with a duplicated column misses the
    # generic closed forms, so the report must go red
    rng = np.random.default_rng(3)
    m = SteinerPresentation.random(rng, 3, 8, P)
    Ms = m.Ms.copy()
    Ms[:, :, 7] = Ms[:, :, 6]
    path = tmp_path / "degenerate.txt"
    with open(path, "w") as fh:
        write_presentation(fh, SteinerPresentation(Ms, P))
    code, out = run_cli(["--json", "cohomology", "-a", "3", "-b", "8",
                         "--load", str(path)])
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "h1 at k=0 equals 4a-b" in failed


def test_curve_kernel_losing_a_row_fails_h0_check(monkeypatch):
    # h0 of E(1) is read off the kernel basis of m(1) (10a x 4b), not off
    # the certificate, so a basis one row short fails the check
    full = exactalg.kernel_basis

    def short(M, p=P):
        K = full(M, p)
        return K[:-1] if M.shape == (70, 84) else K

    monkeypatch.setattr(exactalg, "kernel_basis", short)
    code, out = run_cli(["--json", "verify", "curve", "-a", "7", "-b", "21"])
    assert code == 1
    report = json.loads(out)
    h0 = next(c for c in report["checks"]
              if c["name"] == "h0 of E(1) equals c")
    assert (h0["expected"], h0["got"], h0["pass"]) == (15, 14, False)


def test_error_exit_codes(capsys):
    assert cli.main(["verify", "pw", "-a", "4", "-b", "13", "-f", "2"]) == 2
    assert "InadmissibleParams" in capsys.readouterr().err
    assert cli.main(["--prime", "15", "table", "jordan4"]) == 2
    assert "not prime" in capsys.readouterr().err
    assert cli.main(["cohomology", "-a", "1", "-b", "4",
                     "--load", "/nonexistent/file.txt"]) == 2
    assert "file" in capsys.readouterr().err.lower()


def _presentation_text(p):
    """A locally free 3 x 8 presentation over the integers, written with
    header prime p (entries reduced mod p)."""
    m = SteinerPresentation.random(np.random.default_rng(11), 3, 8, P)
    buf = io.StringIO()
    write_presentation(buf, SteinerPresentation(m.Ms % p, p))
    return buf.getvalue()


def _empty_presentation_text(a, b):
    """A presentation file with a = 0 or b = 0: the header, then four
    blocks of a header line and a empty rows."""
    block = f"{a} {b} {P}\n" + "\n" * a
    return f"steiner {a} {b} {P}\n" + 4 * block


def _truncated(text):
    return "".join(text.splitlines(keepends=True)[:-2])


def _with_entry(text, entry):
    """text with the first entry of the first block's first row replaced."""
    lines = text.splitlines(keepends=True)
    lines[2] = " ".join([entry] + lines[2].split()[1:]) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("text, message", [
    (_presentation_text(P).replace("steiner", "fform", 1),
     "bad steiner header"),
    (_truncated(_presentation_text(P)), "expected 8 entries per row, got 0"),
    (_presentation_text(P).replace("steiner 3 8", "steiner 3 7", 1),
     "does not match the header"),
    (_presentation_text(2), "prime must exceed 3, got 2"),
    (_presentation_text(9), "9 is not prime"),
    (_presentation_text((1 << 20) + 7), "prime must be below 2**20"),
    (_presentation_text(5), "--prime 32003 contradicts the loaded file (5)"),
    (_empty_presentation_text(0, 8), "with a, b positive"),
    (_empty_presentation_text(3, 0), "with a, b positive"),
    (_presentation_text(P).replace("steiner 3 8", "steiner 3 x", 1),
     "bad steiner header"),
    (_presentation_text(P).replace(f"\n3 8 {P}", f"\n-3 8 {P}", 1),
     "bad matrix header"),
    (_with_entry(_presentation_text(P), str(10**29)),
     "row 0: expected 8 integers that fit int64"),
    (_with_entry(_presentation_text(P), "1.5"),
     "row 0: expected 8 integers that fit int64"),
], ids=["wrong-tag", "truncated-block", "block-shape", "prime-2", "prime-9",
        "prime-2^20+7", "F5-under-default-prime", "a-zero", "b-zero",
        "header-not-int", "block-rows-negative", "entry-10^29",
        "entry-not-int"])
def test_load_rejects_bad_interchange_file(tmp_path, capsys, text, message):
    path = tmp_path / "presentation.txt"
    path.write_text(text)
    _assert_one_line_error(
        capsys, ["--json", "cohomology", "--load", str(path)], message)


def test_load_accepts_matching_prime(tmp_path):
    path = tmp_path / "presentation.txt"
    path.write_text(_presentation_text(5))
    code, out = run_cli(["--json", "--prime", "5", "cohomology",
                         "--load", str(path)])
    assert code in (0, 1)
    assert json.loads(out)["config"]["prime"] == 5


def test_verify_curve_end_to_end():
    code, out = run_cli(["--json", "--trials", "5", "verify", "curve",
                         "-a", "10", "-b", "30"])
    assert code == 0
    report = json.loads(out)
    assert report["params"]["degree"] == 45
    assert report["params"]["genus"] == 186
    assert all(c["pass"] for c in report["checks"])


def test_curve_exports_its_section_matrix(tmp_path):
    path = tmp_path / "sections.txt"
    code, _ = run_cli(["--json", "--trials", "2", "verify", "curve",
                       "-a", "5", "-b", "15", "--export-sections", str(path)])
    assert code == 0
    with open(path) as fh:
        Ns, p = exactalg.read_blocks(fh, "linforms")
    f = pwcurves.curve_params(5, 15).f
    sample = pwcurves.sample_pw(5, 15, f, 0, P)
    assert p == P
    assert np.array_equal(Ns, pwcurves.section_matrix(sample))


def test_text_output_readable():
    code, out = run_cli(["table", "jordan4"])
    assert code == 0
    assert "1|1|1|1" in out
    assert "ok  " in out
    code, out = run_cli(["verify", "rank0", "-a", "4", "-f", "1"])
    assert code == 0
    assert "expected False, got False" in out


def _assert_one_line_error(capsys, argv, message):
    # parser and library rejections alike: exit 2, one line, no usage
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "rank0", "-a", "1", "-f", "20"],
    ["verify", "rank0", "-a", "1", "-f", "11"],
    ["verify", "rank0", "-a", "0", "-f", "1"],
    ["verify", "rank0", "-a", "1", "-f", "10"],
    ["verify", "rank0", "-a", "1", "-f", "9", "--hyperplane"],
    ["verify", "curve", "-a", "4", "-b", "12"],
    ["cohomology", "-a", "3", "-b", "8", "--kmin", "5", "--kmax", "2"],
], ids=["rank0-f20", "rank0-f11", "rank0-a0", "rank0-f10a", "rank0-hyper-f9a",
        "curve-s4", "cohomology-window"])
def test_inadmissible_parameters_exit_two(capsys, argv):
    # f = 10a leaves Z = 0 and f = 9a leaves Z' = 0, neither with a
    # hyperplane; at (4, 12), s = 4 and m(s - 3) = m(1) has a cokernel
    _assert_one_line_error(capsys, argv, "InadmissibleParams")


@pytest.mark.parametrize("argv", [
    ["verify", "rank0", "-a", "1", "-f", "9"],
    ["verify", "rank0", "-a", "1", "-f", "8", "--hyperplane"],
    ["verify", "curve", "-a", "5", "-b", "15"],
], ids=["rank0-f9", "rank0-hyper-f8", "curve-s5"])
def test_admissible_boundaries_pass(argv):
    assert run_cli(["--trials", "3"] + argv)[0] == 0


def test_rejected_window_exports_nothing(tmp_path, capsys):
    path = tmp_path / "m.txt"
    _assert_one_line_error(
        capsys, ["cohomology", "-a", "3", "-b", "8", "--kmin", "0",
                 "--export", str(path)], "InadmissibleParams")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["--dmax", "1", "cohomology", "-a", "3", "-b", "8", "-f", "1"],
    ["--dmax", "1", "verify", "pw", "-a", "3", "-b", "8", "-f", "1"],
], ids=["cohomology", "verify-pw"])
def test_dmax_reaches_the_table(capsys, argv):
    # m(1) of the (3,8,1) sample has a cokernel of dimension 1, so with the
    # ladder capped at d = 1 no table may be printed
    _assert_one_line_error(capsys, argv, "NotLocallyFree")


@pytest.mark.parametrize("argv", [
    ["--trials", "0", "verify", "transport"],
    ["verify", "curve", "-a", "7", "-b", "21", "--trials", "0"],
], ids=["transport", "curve"])
def test_trials_below_one_rejected_by_parser(capsys, argv):
    _assert_one_line_error(capsys, argv,
                           "argument --trials: must be at least 1, got 0")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["verify", "rank0", "-a", "2", "-f", "1"],
    ["table", "jordan4"],
    ["verify", "pw", "-a", "3", "-b", "8", "-f", "1"],
], ids=["rank0", "table", "pw"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_dmax_below_one_rejected(monkeypatch, capsys, source, argv, value):
    # rank0 and table never read dmax, and pw would only fail inside the
    # certificate after sampling; each is rejected before any work
    if source == "flag":
        argv = ["--dmax", value] + argv
    else:
        monkeypatch.setenv("STEINERLAB_DMAX", value)
    _assert_one_line_error(capsys, argv,
                           f"argument --dmax: must be at least 1, got {value}")


def test_trials_env_below_one_rejected(monkeypatch, capsys):
    monkeypatch.setenv("STEINERLAB_TRIALS", "0")
    _assert_one_line_error(capsys, ["verify", "transport"],
                           "must be at least 1")


@pytest.mark.parametrize("argv, message", [
    (["verify", "rank0", "-a", "x", "-f", "1"],
     "argument -a: invalid int value: 'x'"),
    (["verify", "pw", "-a", "3"],
     "the following arguments are required: -b"),
], ids=["a-not-int", "b-missing"])
def test_parser_rejections_print_one_line(capsys, argv, message):
    _assert_one_line_error(capsys, argv, message)


def test_verify_pw_without_quotient():
    # -f defaults to 0: the quotient has no covectors
    code, out = run_cli(["verify", "pw", "-a", "3", "-b", "8"])
    assert code == 0
    assert "quotient kills the image of m(1)" in out


def test_mh_rejects_empty_source(capsys):
    _assert_one_line_error(capsys, ["verify", "mh", "-a", "0", "-b", "0"],
                           "need a >= 1, got a=0")


def test_rank0_rejects_negative_f(capsys):
    _assert_one_line_error(capsys, ["verify", "rank0", "-a", "2", "-f", "-1"],
                           "need a >= 1 and 0 <= f < 10a, got a=2, f=-1")


def test_seed_flag_rejects_negative(capsys):
    _assert_one_line_error(
        capsys, ["--seed", "-1", "verify", "pw", "-a", "3", "-b", "8",
                 "-f", "1"], "argument --seed: must be at least 0, got -1")


def test_seed_env_rejects_negative(monkeypatch, capsys):
    monkeypatch.setenv("STEINERLAB_SEED", "-2")
    _assert_one_line_error(capsys, ["verify", "transport"],
                           "argument --seed: must be at least 0, got -2")


class _ZeroRng:
    """Draws only zeros, so every sampled quotient has rank 0."""

    def integers(self, low, high, size=None, dtype=np.int64):
        return np.zeros(size, dtype=dtype)


class _ZeroFirst:
    """Draws zeros once, then what the wrapped generator draws."""

    def __init__(self, rng):
        self.rng, self.fresh = rng, True

    def integers(self, low, high, size=None, dtype=np.int64):
        if self.fresh:
            self.fresh = False
            return np.zeros(size, dtype=dtype)
        return self.rng.integers(low, high, size=size, dtype=dtype)


def test_curve_points_skip_the_zero_vector(monkeypatch):
    # 0 is no point of P^3, and N(0) = 0 would fail the rank check; the
    # point stream skips it and reports as if it had not been drawn
    argv = ["--json", "--trials", "5", "verify", "curve", "-a", "5", "-b",
            "15"]
    plain = run_cli(argv)
    real = cli.derive_rng

    def rng_for(*key):
        rng = real(*key)
        return _ZeroFirst(rng) if key[1:] == (19,) else rng

    monkeypatch.setattr(cli, "derive_rng", rng_for)
    assert run_cli(argv) == plain
    assert plain[0] == 0


def test_quotient_sampler_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "derive_rng", lambda *key: _ZeroRng())
    _assert_one_line_error(capsys, ["verify", "rank0", "-a", "2", "-f", "1"],
                           "SamplingFailed: no rank-1 quotient")


def test_out_of_memory_exits_two():
    # m(1) at a = 1000 is 10000 x 12000, whose float64 work copy does not fit
    # beside it under a 1.5 GB address-space limit set on the child only
    limit = 1_500_000 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(steinerlab.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "steinerlab", "verify", "pw", "-a", "1000",
         "-b", "3000"], capture_output=True, text=True, env=env,
        preexec_fn=cap, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "MemoryError" in proc.stderr


# ---------------------------------------------------------------------------
# property: every argv ends in a report or a one-line error

_N = st.integers(-1, 6).map(str)
_K = st.integers(-8, 8).map(str)

_COMMANDS = st.one_of(
    st.tuples(_N, _N, _N, _K, _K).map(
        lambda c: ["cohomology", "-a", c[0], "-b", c[1], "-f", c[2],
                   "--kmin", c[3], "--kmax", c[4]]),
    st.sampled_from([["table", "jordan4"], ["table", "jordan3x4"],
                     ["verify", "transport"]]),
    st.tuples(st.sampled_from(["pw", "mh"]), _N, _N, _N).map(
        lambda c: ["verify", c[0], "-a", c[1], "-b", c[2], "-f", c[3]]),
    st.tuples(_N, _N, st.booleans()).map(
        lambda c: ["verify", "rank0", "-a", c[0], "-f", c[1]]
        + ["--hyperplane"] * c[2]),
    st.tuples(_N, _N).map(
        lambda c: ["verify", "curve", "-a", c[0], "-b", c[1]]),
)

# a valid value of each global flag, or None to leave the flag out
_FLAGS = ("--prime", "--seed", "--trials", "--dmax")
_GLOBALS = st.tuples(
    st.sampled_from([None, "5", "7", "97", "32003"]),
    st.sampled_from([None, "0", "1", "3"]),
    st.sampled_from([None, "1", "2", "3"]),
    st.sampled_from([None, "3", "5"]),
    st.booleans(),
).map(lambda g: [x for flag, v in zip(_FLAGS, g) if v is not None
                 for x in (flag, v)] + ["--json"] * g[4])

# valid defaults from the environment; STEINERLAB_TRIALS is always set, so
# that no run falls back to the built-in 50 trials
_ENV = st.fixed_dictionaries(
    {"STEINERLAB_TRIALS": st.sampled_from(["1", "2", "3"])},
    optional={"STEINERLAB_PRIME": st.sampled_from(["7", "32003"]),
              "STEINERLAB_SEED": st.sampled_from(["1", "2"]),
              "STEINERLAB_DMAX": st.sampled_from(["4", "5"])})

# at most one rejected value: a flag's, an environment variable's, or a
# dropped required option
_BAD = st.sampled_from([None] * 6 + [
    ("--prime", "15"), ("--prime", "2"), ("--prime", "x"), ("--seed", "-1"),
    ("--trials", "0"), ("--dmax", "0"), ("-a", "x"), ("drop", None),
    ("STEINERLAB_PRIME", "9"), ("STEINERLAB_SEED", "-2"),
    ("STEINERLAB_TRIALS", "0"), ("STEINERLAB_DMAX", "0")])


def _placed(flags, command, where):
    """The global flags before the command, after its first word (between
    `verify` and its suite), or at the end."""
    i = {"before": 0, "between": 1, "after": len(command)}[where]
    return command[:i] + flags + command[i:]


def _broken(argv, env, bad):
    """argv and env with the value `bad` put in: a flag's value appended to
    argv (the last occurrence wins), an environment variable set, or the
    first of -b and -f dropped with its value."""
    argv, env = list(argv), dict(env)
    if bad is None:
        return argv, env
    name, value = bad
    if name.startswith("STEINERLAB_"):
        env[name] = value
    elif name != "drop":
        argv += [name, value]
    else:
        for flag in ("-b", "-f"):
            if flag in argv:
                i = argv.index(flag)
                return argv[:i] + argv[i + 2:], env
    return argv, env


@settings(max_examples=150, deadline=None, database=None)
@given(_GLOBALS, _COMMANDS, st.sampled_from(["before", "between", "after"]),
       _ENV, _BAD)
def test_every_argv_reports_or_fails_in_one_line(flags, command, where, env,
                                                  bad):
    argv, env = _broken(_placed(flags, command, where), env, bad)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("error: ")
    elif "--json" in argv:
        failed = [c for c in json.loads(out.getvalue())["checks"]
                  if not c["pass"]]
        assert bool(failed) == (code == 1), argv
