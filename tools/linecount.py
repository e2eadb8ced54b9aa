"""Count the lines of Python modules by kind: code, docstring, comment and
blank.

A docstring line is a line of the string that opens a module, class or
function body (found with `ast`).  Of the other lines, a line that holds a
token other than a comment is code (the rows a multi-line string spans
included), a line that holds only a comment is a comment line, and the rest
are blank (found with `tokenize`).  The four counts of a module sum to its
line count.

    python tools/linecount.py [PATH ...]

prints one row per module under each PATH (a file or a directory searched
for *.py, default src/paraflux) and their total.
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_rows(tree):
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(path):
    """{kind: lines} of the Python file at path."""
    source = Path(path).read_text()
    docs = _docstring_rows(ast.parse(source))
    code, comments = set(), set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if row in docs else "code" if row in code
                else "comment" if row in comments else "blank")
        counts[kind] += 1
    return counts


def main(argv):
    files = []
    for arg in argv or ["src/paraflux"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = dict.fromkeys(KINDS, 0)
    print("%-40s %6s %6s %9s %7s %5s" % ("module", "lines", *KINDS))
    for path in files:
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print("%-40s %6d %6d %9d %7d %5d"
              % (path, sum(counts.values()), *counts.values()))
    print("%-40s %6d %6d %9d %7d %5d"
          % ("total", sum(total.values()), *total.values()))


if __name__ == "__main__":
    main(sys.argv[1:])
