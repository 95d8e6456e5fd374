"""Count the code lines of each module in src/reesgor.

A code line is a line holding a token other than a comment, a newline
or an indent; lines inside a docstring do not count. Prints one line
per module, then the total, the figure a simplicity change is judged
by. Run from the root of the repository:

    python3 tools/code_lines.py
"""

import ast
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    with path.open("rb") as fh:
        lines = {tok.start[0] for tok in tokenize.tokenize(fh.readline)
                 if tok.type not in SKIP}
    return len(lines - docs)


def main() -> None:
    total = 0
    for path in sorted(pathlib.Path("src/reesgor").glob("*.py")):
        count = code_lines(path)
        print(f"{count:5d} {path}")
        total += count
    print(f"{total:5d} code lines in src/reesgor")


if __name__ == "__main__":
    main()
