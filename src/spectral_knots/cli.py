"""Command-line surface and cross-validation driver.

Commands:

* ``e2``         second-page table of the truncated sequence plus its
                 degree-shifted view
* ``chord``      chord-diagram quotient dimensions dim_A(1..n)
* ``crosscheck`` per-degree equality of dim_A(n_diag) and the page entry
                 at (-2*n_diag, 2*n_diag); the primary regression tripwire
* ``kancheck``   brute-force comparison of the expanded and plain
                 normalized complexes (n <= 3)

Exit codes: 0 success, 1 crosscheck mismatch, 2 usage error, 3 capacity
exceeded.  Results are cached under ``--cache-dir`` (overridden by the
SPECTRAL_KNOTS_CACHE environment variable), keyed by a fingerprint of the
configuration and code version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .cache import ResultCache, ResultRecord, fingerprint, source_digest
from .chords import dim_A
from .linalg import Field
from .sinha import (
    CAPACITY_LIMIT,
    CapacityError,
    e2_diagonal,
    e2_page,
    kan_unit_check,
    normalized_dim_formula,
    vassiliev_e1_view,
)

COMMANDS = ("e2", "chord", "crosscheck", "kancheck")
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
        if self.command not in COMMANDS:
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


def _compute_payload(cfg: RunConfig) -> dict:
    f = cfg.field()
    if cfg.command == "e2":
        page = e2_page(cfg.n, cfg.k_max, f)
        vass = vassiliev_e1_view(page)
        return {
            "field": f.spec(),
            "n": cfg.n,
            "k_max": cfg.k_max,
            "truncation_boundary_col": -cfg.n,
            "pages": {
                "sinha_e2": _page_rows(page),
                "vassiliev_e1": _page_rows(vass),
            },
        }
    if cfg.command == "chord":
        dims = [{"n_diag": i, "dim": dim_A(i, f)} for i in range(1, cfg.n + 1)]
        return {"field": f.spec(), "n": cfg.n, "dim_A": dims}
    if cfg.command == "crosscheck":
        # the diagonal entries are truncation-independent once n >= 2*n_diag
        rows = []
        for i in range(1, cfg.n + 1):
            a = dim_A(i, f)
            e = e2_diagonal(i, f)
            rows.append({"n_diag": i, "dim_A": a, "e2_diag": e, "equal": a == e})
        return {"field": f.spec(), "n": cfg.n, "crosscheck": rows}
    if cfg.command == "kancheck":
        report = kan_unit_check(cfg.n, cfg.k_max, f)
        degrees = [
            {
                "degree": t,
                "lhs": report.lhs_dims.get(t, 0),
                "rhs": report.rhs_dims.get(t, 0),
                "equal": report.lhs_dims.get(t, 0) == report.rhs_dims.get(t, 0),
            }
            for t in report.degrees()
        ]
        return {
            "field": f.spec(),
            "n": cfg.n,
            "k_max": cfg.k_max,
            "kan_check": {"equal": report.equal, "total_degrees": degrees},
        }
    raise ValueError(f"unknown command {cfg.command!r}")


def _check_capacity(cfg: RunConfig) -> None:
    """Raise CapacityError, before anything is allocated, when a degree
    i <= n of ``chord`` or ``crosscheck`` has more than CAPACITY_LIMIT
    chord diagrams ((2i-1)!!) or diagonal monomials.  ``e2`` checks its
    columns itself, ``kancheck`` its depth.
    """
    if cfg.command not in ("chord", "crosscheck"):
        return
    for i in range(1, cfg.n + 1):
        sizes = {"chord diagrams": math.prod(range(1, 2 * i, 2))}
        if cfg.command == "crosscheck":
            sizes["diagonal monomials"] = normalized_dim_formula(2 * i, i)
        for what, size in sizes.items():
            if size > CAPACITY_LIMIT:
                raise CapacityError(
                    f"degree {i} has {size} {what}, over the capacity limit {CAPACITY_LIMIT}"
                )


def run(cfg: RunConfig) -> ResultRecord:
    """Execute a validated config, consulting and updating the cache."""
    cfg.validate()
    _check_capacity(cfg)
    fp = cfg.fingerprint()
    cache = ResultCache(cfg.resolved_cache_dir())
    cached = cache.load(fp)
    if cached is not None:
        print(f"cache hit: {fp[:12]}", file=sys.stderr)
        return cached
    start = time.perf_counter()
    payload = _compute_payload(cfg)
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
    if fmt == "csv":
        return _format_csv(*_table(command, payload))
    if fmt == "markdown":
        return _format_markdown(*_table(command, payload))
    raise ValueError(f"unknown output format {fmt!r}")


# command -> (header, payload -> entries); each entry holds the header's keys
_TABLES = {
    "e2": (
        ("page", "col", "row", "dim"),
        lambda p: [dict(e, page=name) for name in sorted(p["pages"]) for e in p["pages"][name]],
    ),
    "chord": (("n_diag", "dim"), lambda p: p["dim_A"]),
    "crosscheck": (("n_diag", "dim_A", "e2_diag", "equal"), lambda p: p["crosscheck"]),
    "kancheck": (("degree", "lhs", "rhs", "equal"), lambda p: p["kan_check"]["total_degrees"]),
}


def _table(command: str, payload: dict):
    """The (header, rows) table of a command's payload, for delimited output."""
    header, entries = _TABLES[command]
    return header, [[e[h] for h in header] for e in entries(payload)]


def _format_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_markdown(header, rows) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-knots",
        description="Exact page tables for the truncated knot spectral sequence "
        "and chord-diagram space dimensions.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
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
    if cfg.command == "crosscheck":
        bad = [e for e in record.payload["crosscheck"] if not e["equal"]]
        if bad:
            for e in bad:
                print(
                    f"mismatch at n_diag={e['n_diag']}: dim_A={e['dim_A']} "
                    f"!= e2_diag={e['e2_diag']}",
                    file=sys.stderr,
                )
            return EXIT_MISMATCH
    if cfg.command == "kancheck" and not record.payload["kan_check"]["equal"]:
        print("kan check failed: total homology dimensions differ", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
