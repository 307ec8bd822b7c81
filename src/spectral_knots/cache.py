"""Persistent result cache: one JSON file per fingerprint, a hash of the run
configuration plus the package's source bytes.  A record is the four fields
of a ``ResultRecord``, written as ``json.dumps(record._asdict(), sort_keys=True)``.

Writes are atomic (temp file + rename).  A corrupt or mismatched cache
file is treated as a miss; callers recompute and overwrite, never serve
wrong data.  An unwritable cache directory costs a warning, not the run.
"""

import json
import os
import sys
import tempfile
from collections import namedtuple
from functools import lru_cache

try:  # the built-in module: hashlib would load OpenSSL's libcrypto into every launch
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12; the digest is the same
    from hashlib import sha256

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def fingerprint(config: dict) -> str:
    """Stable hash of a run configuration (the CLI's includes ``source_digest()``)."""
    blob = json.dumps(config, sort_keys=True)
    return sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def source_digest(package_dir: str = _PACKAGE_DIR) -> str:
    """SHA-256 over the names and bytes of the package's ``*.py`` files, in
    sorted-name order.  Run fingerprints include it, so a cached result is
    never served to code other than the code that computed it.  Computed on
    first use, not at import.
    """
    h = sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as f:
                data = f.read()
            h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


# One computed result: its run fingerprint, the payload the CLI prints, the
# compute time in seconds and an ISO 8601 UTC timestamp.
ResultRecord = namedtuple("ResultRecord", "fingerprint payload wall_time timestamp")


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
            for key, types in (("fingerprint", str), ("timestamp", str), ("payload", dict)):
                if not isinstance(data[key], types):
                    raise TypeError(f"{key} is a {type(data[key]).__name__}, not a {types.__name__}")
            if isinstance(data["wall_time"], bool) or not isinstance(data["wall_time"], (int, float)):
                raise TypeError(f"wall_time is a {type(data['wall_time']).__name__}, not a number")
            record = ResultRecord(data["fingerprint"], data["payload"], data["wall_time"], data["timestamp"])
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
            with os.fdopen(fd, "w", encoding="utf-8") as f:  # dumps runs the C encoder, dump does not
                f.write(json.dumps(record._asdict(), sort_keys=True))
            os.replace(tmp, self.path(record.fingerprint))
        except OSError as exc:
            print(f"warning: result not cached, cannot write {self.cache_dir}: {exc}", file=sys.stderr)
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
