"""The README's short session runs as written: each printed line is the
value its comment states, up to the comment's first colon."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _session():
    text = README.read_text()
    start = text.index("A short session:")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_readme_session_prints_what_it_says():
    code = _session()
    want = [line.split("#", 1)[1].split(":")[0].strip()
            for line in code.splitlines() if line.startswith("print(")]
    assert want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
