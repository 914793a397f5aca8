"""The ledger of library code that no command reaches.

Every console-script command of the CI workflow, its rejections included,
and the commands of acceptance criterion 11 run through cli.main in one
child process, under a profile hook set
before steinerlab is imported, so that functions run at import count too.
Every `def` in the library that none of them calls must be listed in
UNREACHED with the reason it stays; a listed one that a command now
reaches must leave the list, so the list only shrinks.  Code that only
tests need belongs in the tests.

Run as a script, this module is that child: `python test_ledger.py DIR`
reads the commands as JSON on stdin, runs them with their files under DIR,
and prints the (file, first line, name) of every code object that ran, and
each command's exit status and stderr.
"""

import ast
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

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
    """In this process: hook the profile, import steinerlab, run every
    command, and print what ran."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
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
    sys.setprofile(None)
    json.dump({"runs": runs, "reached": sorted(
        (c.co_filename, c.co_firstlineno, c.co_name) for c in codes)},
        sys.stdout)


def _library_defs():
    """{(file, first line, name): "module.qualified.name"} of every def in
    the library.  The first line is a code object's co_firstlineno: that of
    its first decorator, if any."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                defs[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "steinerlab").glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return defs


def test_every_unreached_def_is_listed(tmp_path):
    # imported here, so that the child imports no steinerlab before its hook
    from test_acceptance import DETERMINISM_COMMANDS

    commands = _console_commands()
    # the step was found, with its reports and its rejections
    assert {kind is None for _, _, kind in commands} == {True, False}
    commands += [(argv, {}, None) for argv in DETERMINISM_COMMANDS]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          input=json.dumps(commands), capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # each command did what the workflow expects of it, so each reached
    # the code it is there to reach
    for (argv, code, err), (_, _, kind) in zip(out["runs"], commands):
        if kind is None:
            assert code == 0, (argv, err)
        else:
            assert code == 2 and err.count("\n") == 1, (argv, code, err)
            assert err.startswith(f"error: {kind}: "), (argv, err)

    defs = _library_defs()
    reached = {(os.path.realpath(path), line, name)
               for path, line, name in out["reached"]}
    unreached = {qualname for (path, line, name), qualname in defs.items()
                 if (os.path.realpath(path), line, name) not in reached}
    assert not unreached - UNREACHED.keys(), (
        "reached by no command: delete it, move it into the tests, or "
        "list it in UNREACHED with its reason", unreached - UNREACHED.keys())
    assert not UNREACHED.keys() - unreached, (
        "listed in UNREACHED but reached, or gone: drop it from the list",
        UNREACHED.keys() - unreached)


if __name__ == "__main__":
    _run_child(sys.argv[1])
