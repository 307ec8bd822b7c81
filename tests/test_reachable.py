"""Every function under ``src/`` is entered by some CLI command.

``cli.main`` runs in process, on a fresh cache, over a fixed list of
commands: all four commands over Q, F_2 and an odd prime, each replayed
from the cache in every output format, a usage error, a bad field and the
capacity refusals.  A profile hook records the code object of every call.
A ``def`` under ``src/``, nested ones included, that no command enters is
code only the tests reach, and fails the test unless it is a dunder value
method.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from spectral_knots import cache, chords, cli, conf_algebra, linalg, sinha

PKG = Path(cli.__file__).resolve().parent

# value semantics: equality, hashing and display for library callers
EXEMPT_NAMES = {"__eq__", "__hash__", "__repr__"}
# the {(row, col): value} view of a matrix held as columns: no command reads
# it, only bench/spans.py and the tests do, until the benchmark reads spans
# the library records itself
EXEMPT_QUALNAMES = {"SparseMatrix.entries"}

COMMANDS = [
    (0, ["--command", command, *sizes, "--field", field, "--format", fmt])
    for command, sizes in (
        ("e2", ["--n", "3", "--k-max", "2"]),
        # the first e2 with a face that takes two rewrite steps, the only kind
        # the word walk hands to the face map and the rewrite memo
        ("e2", ["--n", "5", "--k-max", "3"]),
        ("chord", ["--n", "3"]),
        ("crosscheck", ["--n", "2"]),
        ("kancheck", ["--n", "2", "--k-max", "2"]),
    )
    for field in ("q", "fp:2", "fp:3")
    for fmt in ("json", "csv", "markdown")  # the first computes, the others replay
] + [
    (cli.EXIT_USAGE, ["--command", "e2", "--n", "2"]),  # --k-max is required
    (cli.EXIT_USAGE, ["--command", "chord", "--n", "0"]),
    (cli.EXIT_USAGE, ["--command", "chord", "--n", "2", "--field", "fp:4"]),
    (cli.EXIT_USAGE, ["--command", "chord", "--n", "2", "--field", "r"]),
    (cli.EXIT_CAPACITY, ["--command", "chord", "--n", "9"]),
    (cli.EXIT_CAPACITY, ["--command", "e2", "--n", "2", "--k-max", str(linalg.CAPACITY_LIMIT)]),
    (cli.EXIT_CAPACITY, ["--command", "kancheck", "--n", "4", "--k-max", "1"]),
]


def _defs():
    """(file, first line, name) -> qualified name of every def under ``src/``;
    the first line is that of the first decorator, as in ``co_firstlineno``."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PKG.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def test_every_def_is_entered_by_a_command(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path / "cache"))
    for module in (cache, chords, cli, conf_algebra, linalg, sinha):
        for obj in vars(module).values():  # a warm memo would skip its function
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(record)
        try:
            for _, argv in COMMANDS:
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert codes == [code for code, _ in COMMANDS]
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in entered}
    unreached = sorted(
        qualname for key, qualname in _defs().items()
        if key not in entered and key[2] not in EXEMPT_NAMES and qualname not in EXEMPT_QUALNAMES
    )
    assert unreached == []
