"""Count the code lines of Python files.

A code line holds a token other than a comment or whitespace; the lines of
module, class and function docstrings do not count. A multi-line string
that is not a docstring counts every line it spans. Standard library only.

    python tests/count_code_lines.py src/ocolc/*.py

prints each file's count and then the total.
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    docs = [
        ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
        for doc in node.body[:1]
    ]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
