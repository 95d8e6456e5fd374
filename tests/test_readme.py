"""The README's library example runs and prints what it documents."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library use'"
    return match.group(1)


def test_readme_library_example_prints_its_comments():
    code = _library_example()
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("# "):
            assert lines[i - 1].startswith("print("), line
            expected.append(line[2:])
    assert expected

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
