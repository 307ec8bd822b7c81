"""Outside-in span recorder for the traced benchmark run.

The child process (``child.py``) calls :func:`install` after importing
``spectral_knots.cli``.  Every entry point listed in :data:`PATCHES` is
replaced, at the place where callers look it up, by a wrapper that records
a span: name, start, end, parent span, and a few attributes of the call
(matrix nnz, returned rank, bytes written, ...).  Names imported by value
(``cli.dim_A``, ``sinha.homology_dim``, ...) are patched in the calling
module, methods on their class.  Spans stay in memory and are written as
JSON lines when the process ends.

The parent process reads the span files of one workload iteration and
turns them into the per-layer metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import time


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _matrix_key(m) -> int:
    # Content hash; int, tuple and Fraction hashes do not depend on
    # PYTHONHASHSEED, so keys compare across processes.
    return hash((m.rows, m.cols, m.field.p, frozenset(m.entries.items())))


class Recorder:
    """Collects spans of one process in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None, rss=False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``measure(args, result)`` returns extra attributes; it runs after the
        span's end time is taken, and its own duration is stored as ``post``
        so that it is charged to neither the span nor its parent.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            rss_before = _maxrss_kb() if rss else 0
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if rss:
                span["rss_rise_kb"] = _maxrss_kb() - rss_before
            if measure is not None:
                span.update(measure(args, out))
            span["post"] = time.perf_counter() - span["end"]
            return out

        return wrapper

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read_report(path: str):
    """Return (header, spans) from a file written by :meth:`Recorder.write`."""
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    return lines[0], lines[1:]


def _rank(args, out):
    m = args[0]
    return {"nnz": len(m.entries), "rank": out, "key": _matrix_key(m)}


def _compose(args, out):
    return {"key": hash((_matrix_key(args[0]), _matrix_key(args[1])))}


def _store_bytes(args, out):
    cache, record = args
    return {"bytes": os.path.getsize(cache.path(record.fingerprint))}


def _four_term(args, out):
    return {"vectors": len(out), "two_term": sum(len(v.terms) == 2 for v in out)}


# (span name, module, attribute, measure, track peak-RSS rise); chords.one_term
# feeds no metric but keeps its work out of chords.matrix's self time
PATCHES = (
    ("cli.run", "cli", "run", None, False),
    ("cli.format", "cli", "format_payload", lambda a, out: {"bytes": len(out.encode())}, False),
    ("sinha.e2_page", "cli", "e2_page", None, False),
    ("sinha.e2_diagonal", "cli", "e2_diagonal", None, False),
    ("sinha.kan_unit_check", "cli", "kan_unit_check", None, False),
    ("chords.dim_A", "cli", "dim_A", None, False),
    ("cache.load", "cache.ResultCache", "load", lambda a, out: {"hit": out is not None}, False),
    ("cache.store", "cache.ResultCache", "store", _store_bytes, False),
    ("sinha.basis", "sinha", "normalized_basis", lambda a, out: {"monomials": len(out)}, True),
    ("sinha.d1", "sinha", "d1_matrix", lambda a, out: {"nnz": len(out.entries)}, False),
    ("sinha.homology", "sinha", "homology_dim", None, False),
    ("chords.enumerate", "chords", "enumerate_diagrams", None, False),
    ("chords.one_term", "chords", "one_term_relations", None, False),
    ("chords.four_term", "chords", "four_term_relations", _four_term, False),
    ("chords.matrix", "chords", "relation_matrix", lambda a, out: {"nnz": len(out.entries)}, True),
    ("linalg.rank", "linalg.SparseMatrix", "rank", _rank, True),
    ("linalg.compose", "linalg.SparseMatrix", "compose", _compose, False),
)

# Outermost span of each pipeline; rank time is attributed to the nearest one.
PIPELINES = {
    "sinha.e2_page": "sinha",
    "sinha.e2_diagonal": "sinha",
    "sinha.kan_unit_check": "sinha",
    "chords.dim_A": "chords",
}


def install(recorder: Recorder) -> None:
    """Replace every entry point in :data:`PATCHES` by a recording wrapper."""
    for name, where, attr, measure, rss in PATCHES:
        module_name, _, cls_name = where.partition(".")
        owner = importlib.import_module(f"spectral_knots.{module_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), measure, rss))


def reduce_counters() -> dict:
    """Hits and misses of the strand-algebra rewrite memo so far."""
    from spectral_knots import conf_algebra

    info = conf_algebra._reduce_cached.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    A child covers ``[start, end + post]``: its measurement time is
    recorder overhead, not work of the parent.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for j in sorted(children[i], key=lambda j: spans[j]["start"]):
            lo = max(spans[j]["start"], reach)
            hi = min(spans[j]["end"] + spans[j].get("post", 0.0), s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def _pipeline_of(spans, i):
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] in PIPELINES:
            return PIPELINES[spans[p]["name"]]
        p = spans[p]["parent"]
    return None


# metric name -> unit; the order is the order of the report
LAYER_UNITS = {
    "linalg.rank.s": "s",
    "linalg.rank.chords.s": "s",
    "linalg.rank.sinha.s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.useful_ratio": "ratio",
    "linalg.rank.nnz": "count",
    "linalg.rank.sum": "count",
    "linalg.rank.rss_rise_mb": "MB",
    "linalg.compose.s": "s",
    "linalg.compose.calls": "count",
    "linalg.compose.useful_ratio": "ratio",
    "sinha.basis.s": "s",
    "sinha.basis.calls": "count",
    "sinha.basis.monomials": "count",
    "sinha.basis.rss_rise_mb": "MB",
    "sinha.d1.s": "s",
    "sinha.d1.calls": "count",
    "sinha.d1.nnz": "count",
    "sinha.homology.s": "s",
    "conf_algebra.reduce.calls": "count",
    "conf_algebra.reduce.hit_ratio": "ratio",
    "chords.enumerate.s": "s",
    "chords.enumerate.calls": "count",
    "chords.four_term.s": "s",
    "chords.four_term.vectors": "count",
    "chords.four_term.two_term": "count",
    "chords.matrix.s": "s",
    "chords.matrix.nnz": "count",
    "chords.matrix.rss_rise_mb": "MB",
    "cache.load.s": "s",
    "cache.store.s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.store.bytes": "bytes",
    "cli.import.s": "s",
    "cli.format.s": "s",
    "cli.stdout.bytes": "bytes",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(reports) -> dict:
    """Per-layer metrics of one workload iteration.

    ``reports`` holds one ``(header, spans)`` pair per launch.  Times are
    the busy time summed over the iteration's launches (self time where a
    layer calls another wrapped layer), except ``cli.import.s``, which is
    the median import time of one launch.  Counts are exact.
    """
    total = {name: 0 for name in LAYER_UNITS}
    rank_keys, compose_keys = set(), set()
    reduce_hits = 0
    imports = []
    for header, spans in reports:
        imports.append(header["import_s"])
        reduce_hits += header["reduce"]["hits"]
        total["conf_algebra.reduce.calls"] += header["reduce"]["hits"] + header["reduce"]["misses"]
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            if name == "linalg.rank":
                total["linalg.rank.calls"] += 1
                rank_keys.add(s["key"])
                total["linalg.rank.s"] += dur
                pipeline = _pipeline_of(spans, i)
                if pipeline:
                    total[f"linalg.rank.{pipeline}.s"] += dur
                total["linalg.rank.nnz"] += s["nnz"]
                total["linalg.rank.sum"] += s["rank"]
                total["linalg.rank.rss_rise_mb"] += s["rss_rise_kb"] / 1024
            elif name == "linalg.compose":
                total["linalg.compose.calls"] += 1
                compose_keys.add(s["key"])
                total["linalg.compose.s"] += dur
            elif name == "sinha.basis":
                total["sinha.basis.s"] += dur
                total["sinha.basis.calls"] += 1
                total["sinha.basis.monomials"] += s["monomials"]
                total["sinha.basis.rss_rise_mb"] += s["rss_rise_kb"] / 1024
            elif name == "sinha.d1":
                total["sinha.d1.s"] += selfs[i]
                total["sinha.d1.calls"] += 1
                total["sinha.d1.nnz"] += s["nnz"]
            elif name == "sinha.homology":
                total["sinha.homology.s"] += selfs[i]
            elif name == "chords.enumerate":
                total["chords.enumerate.s"] += dur
                total["chords.enumerate.calls"] += 1
            elif name == "chords.four_term":
                total["chords.four_term.s"] += dur
                total["chords.four_term.vectors"] += s["vectors"]
                total["chords.four_term.two_term"] += s["two_term"]
            elif name == "chords.matrix":
                total["chords.matrix.s"] += selfs[i]
                total["chords.matrix.nnz"] += s["nnz"]
                total["chords.matrix.rss_rise_mb"] += s["rss_rise_kb"] / 1024
            elif name == "cache.load":
                total["cache.load.s"] += dur
                total["cache.hits" if s["hit"] else "cache.misses"] += 1
            elif name == "cache.store":
                total["cache.store.s"] += dur
                total["cache.store.bytes"] += s["bytes"]
            elif name == "cli.format":
                total["cli.format.s"] += dur
                total["cli.stdout.bytes"] += s["bytes"]
    total["linalg.rank.useful_ratio"] = _ratio(len(rank_keys), total["linalg.rank.calls"])
    total["linalg.compose.useful_ratio"] = _ratio(len(compose_keys), total["linalg.compose.calls"])
    total["conf_algebra.reduce.hit_ratio"] = _ratio(reduce_hits, total["conf_algebra.reduce.calls"])
    total["cli.import.s"] = statistics.median(imports)
    return total

