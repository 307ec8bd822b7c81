"""Persistent result cache: one JSON file per config fingerprint.

Writes are atomic (temp file + rename).  A corrupt or mismatched cache
file is treated as a miss; callers recompute and overwrite, never serve
wrong data.  An unwritable cache directory costs a warning, not the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from functools import lru_cache

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def fingerprint(config: dict, version: str) -> str:
    """Stable hash of a run configuration plus the code version."""
    blob = json.dumps({"config": config, "version": version}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def source_digest(package_dir: str = _PACKAGE_DIR) -> str:
    """SHA-256 over the names and bytes of the package's ``*.py`` files, in
    sorted-name order.  Run fingerprints include it, so a cached result is
    never served to code other than the code that computed it.  Computed on
    first use, not at import.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as f:
                data = f.read()
            h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


@dataclass
class ResultRecord:
    fingerprint: str
    payload: dict
    wall_time: float
    timestamp: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        """Rebuild a record; ``TypeError`` when a field has the wrong type."""
        for key, types in (("fingerprint", str), ("timestamp", str), ("payload", dict)):
            if not isinstance(d[key], types):
                raise TypeError(f"{key} is a {type(d[key]).__name__}, not a {types.__name__}")
        if isinstance(d["wall_time"], bool) or not isinstance(d["wall_time"], (int, float)):
            raise TypeError(f"wall_time is a {type(d['wall_time']).__name__}, not a number")
        return cls(
            fingerprint=d["fingerprint"],
            payload=d["payload"],
            wall_time=d["wall_time"],
            timestamp=d["timestamp"],
        )


class ResultCache:
    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def path(self, fp: str) -> str:
        return os.path.join(self.cache_dir, f"{fp}.json")

    def load(self, fp: str) -> ResultRecord | None:
        """Return the cached record for ``fp``, or None on miss/corruption."""
        path = self.path(fp)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
            record = ResultRecord.from_dict(data)
        except (ValueError, RecursionError, KeyError, TypeError, OSError) as exc:
            print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
            return None
        if record.fingerprint != fp:
            return None
        return record

    def store(self, record: ResultRecord) -> None:
        """Write ``record``, creating the directory; warn if that fails."""
        tmp = None
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(record.to_dict(), f, sort_keys=True)
            os.replace(tmp, self.path(record.fingerprint))
        except OSError as exc:
            print(f"warning: result not cached, cannot write {self.cache_dir}: {exc}", file=sys.stderr)
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
