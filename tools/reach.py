"""Print the statements of src/reesgor that no benchmark input executes.

Runs, through `reesgor.cli.main` in this process and under a line
trace (`sys.settrace`), every pooled `report` and `gorenstein` job of
perfbench/pins/*.jsonl, each in --json and in human form, and then
`--json --corpus 10 --seed S` for S = 1000..1039. The pin files are
only read; each job is written to a temporary directory. Then prints
one line per statement of src/reesgor that has bytecode and that none
of the runs executed, as `module:line: source`, and a summary line on
standard error. A statement counts as executed when any line of it
(for a compound statement, any line of its header) runs. The summary
line ends with the sha256 of every run's exit code, standard output
and standard error, in run order: two trees whose digests are equal
gave byte-identical output on all the runs. The digest is compared
with the one recorded in tools/reach.sha256, and the script exits 1
when they differ, after a line naming both; a change meant to alter
output updates that file. Run from the root of the repository:

    python3 tools/reach.py
"""

import ast
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reesgor"
PINS = ROOT / "perfbench" / "pins"
EXPECTED = ROOT / "tools" / "reach.sha256"
CORPUS_SEEDS = range(1000, 1040)


def _statements(tree):
    """(first line, lines) of every statement: all its lines for a
    simple statement, its decorators and header for a compound one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(first, max(last, node.lineno) + 1)


def _code_lines(code):
    """The lines that hold bytecode in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _jobs(folder):
    """argv lists of the pooled jobs, their files written to folder."""
    for workload in ("report", "gorenstein"):
        with open(PINS / f"{workload}.jsonl", encoding="utf-8") as fh:
            for index, line in enumerate(fh):
                entry = json.loads(line)
                path = pathlib.Path(folder) / f"{workload}-{index}.json"
                path.write_text(json.dumps(
                    {"dim": entry["dim"], "gens": entry["gens"]}))
                yield ["--json", workload, str(path)]
                yield [workload, str(path)]


def main() -> None:
    executed = {}  # file name -> set of lines run
    prefix = str(PACKAGE) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as folder:
        runs = list(_jobs(folder)) + [
            ["--json", "--corpus", "10", "--seed", str(seed)]
            for seed in CORPUS_SEEDS
        ]
        sys.settrace(trace_calls)
        try:
            from reesgor import cli

            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                # one JSON array per run, so no two runs' bytes can merge
                digest.update(json.dumps(
                    [code, out.getvalue(), err.getvalue()]).encode())
        finally:
            sys.settrace(None)

    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text("utf-8")
        source = text.splitlines()
        has_code = _code_lines(compile(text, str(path), "exec"))
        ran = executed.get(str(path), set())
        module = f"reesgor.{path.stem}"
        for line, span in sorted(_statements(ast.parse(text))):
            if not has_code.intersection(span):
                continue
            total += 1
            if not ran.intersection(span):
                missed += 1
                print(f"{module}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} statements not executed by {len(runs)} runs; "
          f"output sha256 {digest.hexdigest()}", file=sys.stderr)
    expected = EXPECTED.read_text("utf-8").strip()
    if digest.hexdigest() != expected:
        print(f"output sha256 differs from {expected} in {EXPECTED.name}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
