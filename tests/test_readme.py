"""The README's library example runs and prints what it documents, and
the README and the cli docstring list the commands the parser has."""

import contextlib
import io
import pathlib
import re

from reesgor import cli

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


def _commands_named(text):
    """The subcommands in `reesgor CMD ...` lines, in first-use order."""
    names = re.findall(r"^\s*reesgor ([a-z]\w*)", text, re.MULTILINE)
    return list(dict.fromkeys(names))


def test_readme_and_cli_docstring_name_the_commands_of_the_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    usage = [block for block in blocks if "reesgor --corpus" in block]
    assert len(usage) == 1, "no single command block under '## Command line'"
    table = list(cli._COMMANDS)
    assert _commands_named(usage[0]) == table
    assert _commands_named(cli.__doc__) == table
