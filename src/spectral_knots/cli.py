"""The spectral-knots command line: exact page tables, chord-diagram dimensions and their crosscheck.

usage: spectral-knots --command COMMAND --n N [--k-max K] [--field FIELD] [--format FORMAT] [--cache-dir DIR]

  --command    e2          second page of the truncated sequence and its degree-shifted view
               chord       chord-diagram quotient dimensions dim_A(1..n)
               crosscheck  dim_A(n_diag) against the page entry at (-2*n_diag, 2*n_diag)
               kancheck    the expanded against the plain normalized complex (n <= 3)
  --n          truncation / maximal degree
  --k-max      maximal complexity, rows up to 2*k-max (e2 and kancheck need it)
  --field      coefficient field: q (default) or fp:<prime>
  --format     json (default), csv or markdown
  --cache-dir  result cache directory; SPECTRAL_KNOTS_CACHE overrides it
  -h, --help   print this text and exit 0

Each option is given as --opt value or --opt=value; when one repeats, its last value
wins, and no prefix of an option name is accepted.  Exit codes: 0 success, 1 crosscheck
or kancheck mismatch, 2 usage error (one "error: ..." line on stderr, nothing on
stdout), 3 capacity exceeded.
"""

import atexit
import gc
import json
import os
import sys
import time

from .cache import ResultCache, ResultRecord, fingerprint, source_digest
from .chords import check_diagram_capacity, dim_A
from .linalg import CapacityError, Field
from .sinha import e2_diagonal, e2_page, kan_unit_check, vassiliev_e1_view

FORMATS = ("json", "csv", "markdown")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class RunConfig:
    """One request: the command, its sizes and parsed field, and the output
    options.  The constructor raises ValueError on a request no command
    accepts; ``k_max`` may be None only for a command that does not read it,
    and such a command stores 0."""

    __slots__ = ("command", "n", "k_max", "field", "output_format", "cache_dir")

    def __init__(self, command: str, n: int, k_max: int | None, field_spec: str,
                 output_format: str = "json", cache_dir: str | None = None):
        if command not in _COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        if output_format not in FORMATS:
            raise ValueError(f"unknown output format {output_format!r}")
        if k_max is None:
            if command in _READS_K_MAX:
                raise ValueError(f"--k-max is required for command {command}")
            k_max = 0
        if n < 1:
            raise ValueError("n must be >= 1")
        if k_max < 0:
            raise ValueError("k-max must be >= 0")
        self.command = command
        self.n = n
        self.k_max = k_max if command in _READS_K_MAX else 0
        self.field = Field.from_spec(field_spec)
        self.output_format = output_format
        self.cache_dir = cache_dir

    def fingerprint(self) -> str:
        key = {
            "command": self.command,
            "n": self.n,
            "k_max": self.k_max,
            "field_spec": self.field.spec(),
            "source": source_digest(),
        }
        return fingerprint(key)

    def resolved_cache_dir(self) -> str:
        env = os.environ.get("SPECTRAL_KNOTS_CACHE")
        if env:
            return env
        if self.cache_dir:
            return self.cache_dir
        return os.path.join(os.path.expanduser("~"), ".cache", "spectral-knots")


def _page_rows(page: dict) -> list:
    return [{"col": c, "row": r, "dim": d} for (c, r), d in sorted(page.items())]


# Each builder returns its command's part of the payload; ``run`` adds
# ``field`` and ``n``.  They look the library names up in this module when
# called, so a name patched here (``cli.dim_A``, ...) reaches them.
def _e2(cfg: RunConfig) -> dict:
    page = e2_page(cfg.n, cfg.k_max, cfg.field)
    return {
        "k_max": cfg.k_max,
        "truncation_boundary_col": -cfg.n,
        "pages": {"sinha_e2": _page_rows(page), "vassiliev_e1": _page_rows(vassiliev_e1_view(page))},
    }


def _chord(cfg: RunConfig) -> dict:
    return {"dim_A": [{"n_diag": i, "dim": dim_A(i, cfg.field)} for i in range(1, cfg.n + 1)]}


def _crosscheck(cfg: RunConfig) -> dict:
    # the diagonal entries are truncation-independent once n >= 2*n_diag
    rows = []
    for i in range(1, cfg.n + 1):
        a, e = dim_A(i, cfg.field), e2_diagonal(i, cfg.field)
        rows.append({"n_diag": i, "dim_A": a, "e2_diag": e, "equal": a == e})
    return {"crosscheck": rows}


def _kancheck(cfg: RunConfig) -> dict:
    lhs, rhs = kan_unit_check(cfg.n, cfg.k_max, cfg.field)
    # a degree missing from one side has dimension 0 there
    degrees = []
    for t in sorted(lhs.keys() | rhs.keys()):
        a, b = lhs.get(t, 0), rhs.get(t, 0)
        degrees.append({"degree": t, "lhs": a, "rhs": b, "equal": a == b})
    equal = all(d["equal"] for d in degrees)
    return {"k_max": cfg.k_max, "kan_check": {"equal": equal, "total_degrees": degrees}}


# command -> (payload builder, table header, payload -> table entries).  Each
# entry holds the header's keys; an entry whose "equal" is false is a mismatch.
_COMMANDS = {
    "e2": (
        _e2,
        ("page", "col", "row", "dim"),
        lambda p: [{**e, "page": name} for name in sorted(p["pages"]) for e in p["pages"][name]],
    ),
    "chord": (_chord, ("n_diag", "dim"), lambda p: p["dim_A"]),
    "crosscheck": (_crosscheck, ("n_diag", "dim_A", "e2_diag", "equal"), lambda p: p["crosscheck"]),
    "kancheck": (_kancheck, ("degree", "lhs", "rhs", "equal"), lambda p: p["kan_check"]["total_degrees"]),
}

# the commands that read --k-max; the others store 0, so it stays out of their cache key
_READS_K_MAX = ("e2", "kancheck")

# the type of each table cell; every other header key holds an int (not a bool)
_CELL_TYPES = {"page": str, "equal": bool}


def _utc_timestamp() -> str:
    """The current UTC time in ISO 8601, ``YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00``
    (the microseconds are left out when they are zero)."""
    sec, us = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(sec))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


def run(cfg: RunConfig) -> ResultRecord:
    """Execute a request, consulting and updating the cache."""
    # e2 checks its columns itself, kancheck its depth
    if cfg.command in ("chord", "crosscheck"):
        check_diagram_capacity(cfg.n)
    fp = cfg.fingerprint()
    cache = ResultCache(cfg.resolved_cache_dir())
    cached = cache.load(fp)
    build, header, entries = _COMMANDS[cfg.command]
    try:  # a cached table entry must be a dict with a cell of the right type per header key
        readable = cached is None or all(
            isinstance(e, dict) and all(type(e.get(h)) is _CELL_TYPES.get(h, int) for h in header)
            for e in entries(cached.payload))
    except (KeyError, TypeError):
        readable = False
    if not readable:
        print(f"warning: ignoring corrupt cache file {cache.path(fp)}: unreadable {cfg.command} table", file=sys.stderr)
        cached = None
    if cached is not None:
        print(f"cache hit: {fp[:12]}", file=sys.stderr)
        return cached
    start = time.perf_counter()
    payload = {"field": cfg.field.spec(), "n": cfg.n, **build(cfg)}
    record = ResultRecord(
        fingerprint=fp,
        payload=payload,
        wall_time=time.perf_counter() - start,
        timestamp=_utc_timestamp(),
    )
    cache.store(record)
    return record


def format_payload(payload: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    header, entries = _COMMANDS[command][1:]
    rows = [header] + [[str(e[h]) for h in header] for e in entries(payload)]
    if fmt == "csv":  # cells are ints, bools and fixed names: none needs quoting
        return "".join(",".join(row) + "\n" for row in rows)
    rows.insert(1, ["---"] * len(header))
    return "".join("| " + " | ".join(row) + " |\n" for row in rows)


# option -> (RunConfig keyword, conversion of its value)
_OPTIONS = {"--command": ("command", str), "--n": ("n", int), "--k-max": ("k_max", int),
            "--field": ("field_spec", str), "--format": ("output_format", str), "--cache-dir": ("cache_dir", str)}


def _parse_args(argv: list) -> dict | None:
    """RunConfig's keywords from ``--opt value`` and ``--opt=value`` tokens, or None on -h or --help;
    ValueError on any other token, a missing value, a count that is no int, or no --command or --n."""
    args = {"k_max": None, "field_spec": "q"}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        opt, eq, value = token.partition("=")
        if opt not in _OPTIONS:
            raise ValueError(f"unrecognized argument {token[:24]!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"{opt} expects a value")
        key, convert = _OPTIONS[opt]
        try:
            args[key] = convert(value)
        except ValueError:
            raise ValueError(f"{opt} expects an integer, not {value[:24]!r}") from None
    for opt in ("--command", "--n"):
        if _OPTIONS[opt][0] not in args:
            raise ValueError(f"{opt} is required")
    return args


def main(argv=None) -> int:
    # the output and the cache file are written before main returns, so the
    # interpreter's final collections need not walk the heap: freezing it at
    # exit moves every object out of their reach (registered once per process)
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(__doc__ or "")  # python -OO strips the docstring
            return EXIT_OK
        cfg = RunConfig(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        record = run(cfg)
    except CapacityError as exc:
        print(f"error: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    sys.stdout.write(format_payload(record.payload, cfg.output_format, cfg.command))
    header, entries = _COMMANDS[cfg.command][1:]
    bad = [e for e in entries(record.payload) if e.get("equal") is False]
    for e in bad:
        print("mismatch: " + ", ".join(f"{h}={e[h]}" for h in header), file=sys.stderr)
    return EXIT_MISMATCH if bad else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
