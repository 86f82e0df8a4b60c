"""Print the code lines of each src/fdridge module and their total.

A code line holds a token other than a comment or a newline and lies in
no docstring.  Usage: python3 scripts/code_lines.py
"""
import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdridge"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    with path.open("rb") as fh:
        return len({row for tok in tokenize.tokenize(fh.readline)
                    if tok.type not in SKIP
                    for row in range(tok.start[0], tok.end[0] + 1)} - docs)


if __name__ == "__main__":
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    for name, count in {**counts, "total": sum(counts.values())}.items():
        print(f"{count:6d}  {name}")
