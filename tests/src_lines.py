"""Line counts of the package: each module's total lines and code lines.

A code line holds a token other than a comment or a docstring (the string
that opens a module, class or function).  Blank lines, comments and
docstrings are what the total has beyond it.  By default it counts
``src/spectral_knots``; a package directory may be given instead:

    python tests/src_lines.py [package dir]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "spectral_knots"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, col) of every docstring token of a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add((first.lineno, first.col_offset))
    return out


def counts(text):
    """(total lines, code lines) of a module's source."""
    docs = docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(pkg=PKG):
    total = code = 0
    for path in sorted(Path(pkg).glob("*.py")):
        t, c = counts(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.name:20} {t:5} {c:5}")
    print(f"{'src/':20} {total:5} {code:5}")


if __name__ == "__main__":
    main(*sys.argv[1:])
