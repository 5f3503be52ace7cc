"""Code lines and docstring lines of the library's modules.

    python tools/loc.py            # src/mwidth/*.py of this tree
    python tools/loc.py FILE...    # the named files

It exits 1, with nothing on stderr, when the reader of its output closes
the pipe early (`python tools/loc.py | head -3`).

A docstring line is a line spanned by the docstring of a module, class or
function (found with `ast`).  A code line is any other line that holds a
token other than a comment, an indent or a line break (found with
`tokenize`), so blank lines, comment lines and the continuation lines of
bracketed expressions that hold only a comment are not counted.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one file."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = docstring_lines(ast.parse(source))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list) -> int:
    paths = argv or sorted(glob.glob(os.path.join(ROOT, "src", "mwidth", "*.py")))
    total_code = total_docs = 0
    for path in paths:
        code, docs = count(path)
        total_code += code
        total_docs += docs
        print(f"{code:6} {docs:6}  {os.path.relpath(path, ROOT)}")
    print(f"{total_code:6} {total_docs:6}  total (code lines, docstring lines)")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: exit 1 quietly, as the `mwidth` command does,
        # with the flush at exit sent to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
