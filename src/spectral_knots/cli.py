"""Command-line surface and cross-validation driver.

Commands:

* ``e2``         second-page table of the truncated sequence plus its
                 degree-shifted view
* ``chord``      chord-diagram quotient dimensions dim_A(1..n)
* ``crosscheck`` per-degree equality of dim_A(n_diag) and the page entry
                 at (-2*n_diag, 2*n_diag); the primary regression tripwire
* ``kancheck``   brute-force comparison of the expanded and plain
                 normalized complexes (n <= 3)

Exit codes: 0 success, 1 crosscheck or kancheck mismatch, 2 usage error, 3 capacity
exceeded.  Results are cached under ``--cache-dir`` (overridden by the
SPECTRAL_KNOTS_CACHE environment variable), keyed by a fingerprint of the
configuration and code version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .cache import ResultCache, ResultRecord, fingerprint, source_digest
from .chords import check_diagram_capacity, dim_A
from .linalg import CapacityError, Field
from .sinha import e2_diagonal, e2_page, kan_unit_check, vassiliev_e1_view

FORMATS = ("json", "csv", "markdown")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


@dataclass
class RunConfig:
    command: str
    n: int
    k_max: int
    field_spec: str
    output_format: str = "json"
    cache_dir: str | None = None

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k_max < 0:
            raise ValueError("k-max must be >= 0")
        Field.from_spec(self.field_spec)  # raises ValueError on bad spec

    def field(self) -> Field:
        return Field.from_spec(self.field_spec)

    def fingerprint(self) -> str:
        key = {
            "command": self.command,
            "n": self.n,
            "k_max": self.k_max,
            "field_spec": Field.from_spec(self.field_spec).spec(),
            "source": source_digest(),
        }
        return fingerprint(key, __version__)

    def resolved_cache_dir(self) -> str:
        env = os.environ.get("SPECTRAL_KNOTS_CACHE")
        if env:
            return env
        if self.cache_dir:
            return self.cache_dir
        return os.path.join(os.path.expanduser("~"), ".cache", "spectral-knots")


def _page_rows(page) -> list:
    return [{"col": c, "row": r, "dim": d} for (c, r), d in page.sorted_items()]


# Each builder returns its command's part of the payload; ``run`` adds
# ``field`` and ``n``.  They look the library names up in this module when
# called, so a name patched here (``cli.dim_A``, ...) reaches them.
def _e2(cfg: RunConfig, f: Field) -> dict:
    page = e2_page(cfg.n, cfg.k_max, f)
    return {
        "k_max": cfg.k_max,
        "truncation_boundary_col": -cfg.n,
        "pages": {"sinha_e2": _page_rows(page), "vassiliev_e1": _page_rows(vassiliev_e1_view(page))},
    }


def _chord(cfg: RunConfig, f: Field) -> dict:
    return {"dim_A": [{"n_diag": i, "dim": dim_A(i, f)} for i in range(1, cfg.n + 1)]}


def _crosscheck(cfg: RunConfig, f: Field) -> dict:
    # the diagonal entries are truncation-independent once n >= 2*n_diag
    rows = []
    for i in range(1, cfg.n + 1):
        a, e = dim_A(i, f), e2_diagonal(i, f)
        rows.append({"n_diag": i, "dim_A": a, "e2_diag": e, "equal": a == e})
    return {"crosscheck": rows}


def _kancheck(cfg: RunConfig, f: Field) -> dict:
    report = kan_unit_check(cfg.n, cfg.k_max, f)
    degrees = []
    for t in report.degrees():
        lhs, rhs = report.lhs_dims.get(t, 0), report.rhs_dims.get(t, 0)
        degrees.append({"degree": t, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
    return {"k_max": cfg.k_max, "kan_check": {"equal": report.equal, "total_degrees": degrees}}


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


def _check_capacity(cfg: RunConfig) -> None:
    """Raise CapacityError, before anything is allocated, when a degree
    i <= n of ``chord`` or ``crosscheck`` has more than CAPACITY_LIMIT chord
    diagrams.  The diagonal column of degree i is no larger: its
    monomials are the (2i-1)!! perfect matchings of 2i strands.  ``e2``
    checks its columns itself, ``kancheck`` its depth.
    """
    if cfg.command in ("chord", "crosscheck"):
        check_diagram_capacity(cfg.n)


def run(cfg: RunConfig) -> ResultRecord:
    """Execute a validated config, consulting and updating the cache."""
    cfg.validate()
    _check_capacity(cfg)
    fp = cfg.fingerprint()
    cache = ResultCache(cfg.resolved_cache_dir())
    cached = cache.load(fp)
    build, header, entries = _COMMANDS[cfg.command]
    try:  # a cached table entry must be a dict holding every header key
        readable = cached is None or all(
            isinstance(e, dict) and e.keys() >= set(header) for e in entries(cached.payload))
    except (KeyError, TypeError):
        readable = False
    if not readable:
        print(f"warning: ignoring corrupt cache file {cache.path(fp)}: unreadable {cfg.command} table", file=sys.stderr)
        cached = None
    if cached is not None:
        print(f"cache hit: {fp[:12]}", file=sys.stderr)
        return cached
    start = time.perf_counter()
    f = cfg.field()
    payload = {"field": f.spec(), "n": cfg.n, **build(cfg, f)}
    record = ResultRecord(
        fingerprint=fp,
        payload=payload,
        wall_time=time.perf_counter() - start,
        timestamp=datetime.now(timezone.utc).isoformat(),
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
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    rows.insert(1, ["---"] * len(header))
    return "".join("| " + " | ".join(row) + " |\n" for row in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-knots",
        description="Exact page tables for the truncated knot spectral sequence "
        "and chord-diagram space dimensions.",
    )
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--n", type=int, required=True, help="truncation / maximal degree")
    parser.add_argument("--k-max", type=int, default=None, help="maximal complexity (rows up to 2*k-max)")
    parser.add_argument("--field", default="q", help='coefficient field: "q" or "fp:<prime>"')
    parser.add_argument("--format", default="json", choices=FORMATS, dest="output_format")
    parser.add_argument("--cache-dir", default=None, help="cache directory (env SPECTRAL_KNOTS_CACHE overrides)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    k_max = args.k_max
    if k_max is None:
        if args.command in ("e2", "kancheck"):
            print(f"error: --k-max is required for command {args.command}", file=sys.stderr)
            return EXIT_USAGE
        k_max = 0
    cfg = RunConfig(
        command=args.command,
        n=args.n,
        k_max=k_max,
        field_spec=args.field,
        output_format=args.output_format,
        cache_dir=args.cache_dir,
    )
    try:
        cfg.validate()
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
