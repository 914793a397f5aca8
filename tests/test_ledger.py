"""The ledger of library code that no command reaches.

Every console-script command of the CI workflow, its rejections included,
and the commands of acceptance criterion 11 run through cli.main in one
child process, under a trace hook set before steinerlab is imported, so
that code run at import counts too.  Two lists name what none of them
reaches, each entry with the reason it stays in the library:
- UNREACHED, every `def` that no command calls;
- UNREACHED_STATEMENTS, every simple statement inside a `def` that no
  command runs, bar those of the defs in UNREACHED.  A statement is keyed
  by its function's qualified name and its source as ast.unparse writes
  it, never by its line, and by its occurrence, counted from 1, when that
  source repeats in the function.  Every `raise` is exempt, as one class:
  it rejects what it was given.
An unlisted unreached entry fails, and so does a listed one that a command
now reaches, so each list only shrinks.  Code that only tests need belongs
in the tests.  The trace sees lines, so a statement that shares a line
with another statement or with a compound statement's header fails too.

Run as a script, this module is that child: `python test_ledger.py DIR`
reads the commands as JSON on stdin, runs them with their files under DIR,
and prints each command's exit status and stderr, the (file, first line,
name) of every library code object that was called, and the library lines
that ran.
"""

import ast
import collections
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# what holds statements: a statement, an except clause, a case clause
CLAUSES = (ast.stmt, ast.excepthandler, ast.match_case)

# every library function that no command calls, with the reason it stays
# in the library
UNREACHED = {
    "subspace.witness_z":
        "acceptance criterion 4 ranks the witnesses it builds",
    "pwcurves.check_not_globally_generated":
        "acceptance criterion 10 is its verdict",
    "strata.rank_distribution":
        "acceptance criterion 7, and perfbench's quotient_ranks cases",
    "backend.backend_name":
        "perfbench prints it, until backend.py is deleted (ROADMAP item 2)",
}

# every statement that no command runs, with the reason it stays; the
# dense arms go with ROADMAP item 14
DENSE_ARM = "the dense route where a split fails, until a random frame"
SHORT_ZSTAR = ("a short Z* is redrawn: no seed in 0-39 at p = 5 or 7 draws "
               "one for (3, 8, 1)")
UNREACHED_STATEMENTS = {
    ("steiner.m1_kernel",
     "K = exactalg.kernel_basis(assemble_md(m, 1), p)"): DENSE_ARM,
    ("steiner.m1_kernel",
     "return K.reshape(-1, m.b, 4).transpose(2, 0, 1)"): DENSE_ARM,
    ("pwcurves.h1_ic_vanishing", "M = assemble_md(m, d)"): DENSE_ARM,
    ("pwcurves.h1_ic_vanishing",
     "return exactalg.rank(M, m.prime) == len(M)"): DENSE_ARM,
    ("steiner.SteinerPresentation.splits", "return None", 1):
        "M1 short of rank a: the x1 split fails, and the dense arms answer",
    ("steiner.SteinerPresentation.splits", "return None", 2):
        "N2 short of rank a: the x2 split fails, and the dense arms answer",
    ("steiner.horace_surjective", "return None", 1):
        "no splits: Horace cannot decide, and the dense arm answers",
    ("steiner.horace_surjective", "return None", 2):
        "no S_e of full row rank: Horace cannot decide, and the dense arm "
        "answers",
    ("pwcurves.sample_pw",
     "last = f'zstar dimension {len(zs)} != {4 * a - 4 * f}'"): SHORT_ZSTAR,
    ("pwcurves.sample_pw", "continue", 1): SHORT_ZSTAR,
    ("exactalg.matmul_mod", "acc += out"):
        "the chunk carry, past an inner dimension of (2**53 - 1) // p**2, "
        "8,192 at p = 1048573: no command multiplies that deep (ROADMAP "
        "item 3)",
    ("cli.main",
     "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "a reader that closes the pipe before the report is written",
    ("strata.jordan3x4_table", "flags.append('ref_mismatch')"):
        "the check '(r, S) columns match reference on every row' reads it, "
        "so it must be able to fail",
}


def _console_commands():
    """The CI workflow's console-script step as (argv, env, kind) triples:
    the argv after `steinerlab`, the variables set by `env`, and the kind of
    rejection its one stderr line names (None for a report).  "$m" stands
    for the temporary file prefix the step writes and reads."""
    text = WORKFLOW.read_text().replace("\\\n", " ")
    step = text.split("- name: Console script", 1)[1].split("- name:", 1)[0]
    commands = []
    for line in step.splitlines():
        words = shlex.split(line, comments=True)
        if "steinerlab" not in words:
            continue
        at = words.index("steinerlab")
        kind = words[1] if words[0] == "rejects" else None
        env = dict(w.split("=", 1) for w in words[:at] if "=" in w)
        argv = []
        for w in words[at + 1:]:
            if w in (">", "|"):
                break
            argv.append(w)
        commands.append((argv, env, kind))
    return commands


def _derived(m, suffix):
    """The text of the file "$m" + suffix that the workflow derives from
    the presentation "$m" by sed, awk or printf before a rejection loads
    it: an entry too large for int64, a row one entry short, M4 = 0, and a
    header promising a billion rows that are not there."""
    lines = Path(m).read_text().splitlines(keepends=True)
    if suffix == ".big":
        lines[2] = re.sub(r"^[0-9]*", "1" + "0" * 29, lines[2])
    elif suffix == ".short":
        lines[2] = re.sub(r" [0-9]*$", "", lines[2])
    elif suffix == ".deg":
        a = int(lines[0].split()[1])
        lines[2 + 3 * (a + 1):] = [re.sub("[0-9]+", "0", line)
                                   for line in lines[2 + 3 * (a + 1):]]
    elif suffix == ".trunc":
        lines = ["steiner 1000000000 0 32003\n", "1000000000 0 32003\n"]
    else:
        raise ValueError(f"no rule derives $m{suffix}")
    return "".join(lines)


def _run_child(tmp):
    """In this process: set the trace hook, import steinerlab, run every
    command, and print what ran."""
    lib = os.path.realpath(SRC / "steinerlab") + os.sep
    # per code object, its line tracer, or None outside the library; and
    # per library code object that was called, the lines that ran
    tracers, lines = {}, {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            tracers[code] = None
            if os.path.realpath(code.co_filename).startswith(lib):
                ran = lines[code] = set()

                def trace_lines(frame, event, arg):
                    if event == "line":
                        ran.add(frame.f_lineno)
                    return trace_lines
                tracers[code] = trace_lines
        return tracers[code]

    sys.settrace(trace)
    from steinerlab import cli

    m = os.path.join(tmp, "m")
    runs = []
    for argv, env, _ in json.load(sys.stdin):
        argv = [w.replace("$m", m) for w in argv]
        for flag, path in zip(argv, argv[1:]):
            if flag == "--load" and not os.path.exists(path):
                Path(path).write_text(_derived(m, path[len(m):]))
        err = io.StringIO()
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        runs.append((argv, code, err.getvalue()))
    sys.settrace(None)
    json.dump({"runs": runs,
               "called": [(os.path.realpath(c.co_filename), c.co_firstlineno,
                           c.co_name) for c in lines],
               "lines": [(os.path.realpath(c.co_filename), line)
                         for c, ran in lines.items() for line in ran]},
              sys.stdout)


def _header(node):
    """The lines of a compound statement's header (a def's decorators and
    signature, an if's test, a for's target and iterable, ...), or of an
    except or case clause's: all but its child statements, the first of
    which may start on the last of these lines."""
    parts = [n for child in ast.iter_child_nodes(node)
             if not isinstance(child, CLAUSES)
             for n in ast.walk(child) if hasattr(n, "end_lineno")]
    return range(min([node.lineno] + [n.lineno for n in parts]),
                 max([node.lineno] + [n.end_lineno for n in parts]) + 1)


def _library():
    """The library's defs and statements, read with ast:
    - {(file, first line, name): qualified name} of every def, the first
      line being a code object's co_firstlineno: that of its first
      decorator, if any;
    - [(file, key, statement, lines)] of every simple statement inside a
      def, bar constants such as docstrings, with its ledger key and the
      lines it spans;
    - the keys of those statements that share a line with another
      statement or a header."""
    defs, statements, shared = {}, [], []
    for path in sorted((SRC / "steinerlab").glob("*.py")):
        path = os.path.realpath(path)
        owners = collections.Counter()
        found = []

        def visit(node, prefix, func):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, CLAUSES):
                    continue
                if not any(isinstance(c, CLAUSES)
                           for c in ast.iter_child_nodes(child)):
                    span = range(child.lineno, child.end_lineno + 1)
                    owners.update(span)
                    # a constant, a docstring say, is no code to run
                    if func is not None and not (
                            isinstance(child, ast.Expr)
                            and isinstance(child.value, ast.Constant)):
                        found.append((func, child, span))
                    continue
                header = _header(child)
                owners.update(header)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    defs[(path, header.start, child.name)] = name
                    visit(child, name + ".", name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", None)
                else:
                    visit(child, prefix, func)

        visit(ast.parse(Path(path).read_text()), Path(path).stem + ".", None)
        keys = [(func, ast.unparse(stmt)) for func, stmt, _ in found]
        repeats, seen = collections.Counter(keys), collections.Counter()
        for key, (_, stmt, span) in zip(keys, found):
            seen[key] += 1
            if repeats[key] > 1:
                key += (seen[key],)
            statements.append((path, key, stmt, span))
            if any(owners[line] > 1 for line in span):
                shared.append(key)
    return defs, statements, shared


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """What the commands reach, from one child process; each command must
    have done what the workflow expects of it, so that it reached the code
    it is there to reach."""
    # imported here, so that the child imports no steinerlab before its hook
    from test_acceptance import DETERMINISM_COMMANDS

    commands = _console_commands()
    # the step was found, with its reports and its rejections
    assert {kind is None for _, _, kind in commands} == {True, False}
    commands += [(argv, {}, None) for argv in DETERMINISM_COMMANDS]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("ledger"))],
        input=json.dumps(commands), capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for (argv, code, err), (_, _, kind) in zip(out["runs"], commands):
        if kind is None:
            assert code == 0, (argv, err)
        else:
            assert code == 2 and err.count("\n") == 1, (argv, code, err)
            assert err.startswith(f"error: {kind}: "), (argv, err)
    return ({tuple(c) for c in out["called"]},
            {tuple(line) for line in out["lines"]})


@pytest.fixture(scope="module")
def library():
    return _library()


def test_every_unreached_def_is_listed(trace, library):
    called, _ = trace
    defs, _, _ = library
    unreached = {qualname for key, qualname in defs.items()
                 if key not in called}
    assert not unreached - UNREACHED.keys(), (
        "reached by no command: delete it, move it into the tests, or "
        "list it in UNREACHED with its reason", unreached - UNREACHED.keys())
    assert not UNREACHED.keys() - unreached, (
        "listed in UNREACHED but reached, or gone: drop it from the list",
        UNREACHED.keys() - unreached)


def _listing(head, keys):
    """An assertion message: its head, then one key per line."""
    return "\n".join([head] + [repr(key) for key in keys])


def test_every_unreached_statement_is_listed(trace, library):
    _, lines = trace
    _, statements, shared = library
    assert not shared, _listing(
        "a line trace cannot tell these from the statement or header they "
        "share a line with: give each its own line", shared)
    unreached = {
        key for path, key, stmt, span in statements
        if not isinstance(stmt, ast.Raise)
        and not any(key[0] == f or key[0].startswith(f + ".")
                    for f in UNREACHED)
        and not any((path, line) in lines for line in span)}
    new = sorted(unreached - UNREACHED_STATEMENTS.keys())
    assert not new, _listing(
        "run by no command: delete it, or list it in UNREACHED_STATEMENTS "
        "with its reason", new)
    stale = sorted(UNREACHED_STATEMENTS.keys() - unreached)
    assert not stale, _listing(
        "listed in UNREACHED_STATEMENTS but run, or gone: drop it from the "
        "list", stale)


if __name__ == "__main__":
    _run_child(sys.argv[1])
