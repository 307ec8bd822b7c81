import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_knots
from spectral_knots.cache import ResultCache, ResultRecord, fingerprint, source_digest


def make_record(fp):
    return ResultRecord(
        fingerprint=fp,
        payload={"field": "q", "n": 2, "pages": {}},
        wall_time=0.25,
        timestamp="2026-01-01T00:00:00+00:00",
    )


def test_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2})
    record = make_record(fp)
    cache.store(record)
    loaded = cache.load(fp)
    assert loaded == record


def test_records_differing_in_one_field_are_unequal():
    fp = fingerprint({"command": "e2", "n": 2})
    record = make_record(fp)
    for field, value in (("fingerprint", "0" * 64), ("payload", {}), ("wall_time", 0.5), ("timestamp", "")):
        data = record._asdict()
        data[field] = value
        assert ResultRecord(**data) != record


def test_store_writes_one_json_dumps_without_copying(tmp_path):
    cache = ResultCache(str(tmp_path))
    record = make_record("0123456789abcdef" * 4)
    assert record._asdict()["payload"] is record.payload
    cache.store(record)
    # the cache file format, byte for byte: sorted keys, default separators
    with open(cache.path(record.fingerprint), "rb") as f:
        assert f.read() == (
            b'{"fingerprint": "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", '
            b'"payload": {"field": "q", "n": 2, "pages": {}}, '
            b'"timestamp": "2026-01-01T00:00:00+00:00", "wall_time": 0.25}'
        )


def test_fingerprint_sensitivity():
    a = fingerprint({"command": "e2", "n": 2})
    b = fingerprint({"command": "e2", "n": 3})
    c = fingerprint({"command": "chord", "n": 2})
    assert len({a, b, c}) == 3


@pytest.mark.parametrize(
    "key",
    [{}, {"command": "e2", "n": 2}, {"n": 3, "command": "chord", "field_spec": "fp:2", "source": "é" * 3}],
)
def test_fingerprint_is_the_sha256_of_the_sorted_json(key):
    assert fingerprint(key) == hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def test_mutated_fingerprint_misses(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2})
    cache.store(make_record(fp))
    other = fingerprint({"command": "e2", "n": 5})
    assert cache.load(other) is None
    # a record whose stored fingerprint disagrees with its key is a miss too
    path = cache.path(fp)
    with open(path) as f:
        data = json.load(f)
    data["fingerprint"] = "0" * 64
    with open(path, "w") as f:
        json.dump(data, f)
    assert cache.load(fp) is None


@pytest.mark.parametrize(
    "content",
    [b'{"fingerprint": "tru', b"\xff\xfe{", b"[" * 200000],
    ids=["truncated", "invalid-utf8", "deep-nesting"],
)
def test_truncated_file_recomputes(tmp_path, capsys, content):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2})
    cache.store(make_record(fp))
    path = cache.path(fp)
    with open(path, "wb") as f:
        f.write(content)
    assert cache.load(fp) is None
    assert "corrupt cache" in capsys.readouterr().err
    # the slot is writable again afterwards
    cache.store(make_record(fp))
    assert cache.load(fp) is not None


@settings(max_examples=200, deadline=None)
@given(content=st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda head, tail: head + tail,
        st.sampled_from([b'{"fingerprint": ', b'{"payload": {', b"[[[["]),
        st.binary(max_size=32),
    ),
))
def test_arbitrary_bytes_never_raise(content):
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        fp = fingerprint({"command": "e2", "n": 2})
        with open(cache.path(fp), "wb") as f:
            f.write(content)
        with contextlib.redirect_stderr(io.StringIO()):
            loaded = cache.load(fp)
    assert loaded is None or (isinstance(loaded, ResultRecord) and loaded.fingerprint == fp)


@pytest.mark.parametrize(
    "field, value",
    [("fingerprint", None), ("timestamp", 5), ("wall_time", "0.25"), ("wall_time", True), ("payload", [])],
)
def test_wrongly_typed_record_is_a_miss(tmp_path, capsys, field, value):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2})
    cache.store(make_record(fp))
    data = make_record(fp)._asdict()
    data[field] = value
    with open(cache.path(fp), "w") as f:
        json.dump(data, f)
    assert cache.load(fp) is None
    assert "corrupt cache" in capsys.readouterr().err


def test_store_is_atomic_no_stray_temp_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "chord", "n": 3})
    cache.store(make_record(fp))
    names = os.listdir(tmp_path)
    assert names == [f"{fp}.json"]


def test_unwritable_cache_dir_is_a_miss_not_an_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = ResultCache(str(blocker / "cache"))
    fp = fingerprint({"command": "e2", "n": 2})
    cache.store(make_record(fp))
    assert "warning: result not cached" in capsys.readouterr().err
    assert cache.load(fp) is None
    assert os.listdir(tmp_path) == ["blocker"]


def _cli_fingerprint(src_root) -> str:
    code = (
        "from spectral_knots.cli import RunConfig;"
        "print(RunConfig(command='chord', n=3, k_max=0, field_spec='q').fingerprint())"
    )
    env = dict(os.environ, PYTHONPATH=str(src_root))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def test_one_source_byte_changes_the_fingerprint(tmp_path):
    pkg = tmp_path / "spectral_knots"
    shutil.copytree(os.path.dirname(spectral_knots.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before_digest = source_digest(str(pkg))
    before = _cli_fingerprint(tmp_path)
    source = pkg / "chords.py"
    original = source.read_bytes()
    data = bytearray(original)
    data[3] ^= 0x20  # the first letter of the module docstring changes case
    source.write_bytes(bytes(data))
    assert source_digest.__wrapped__(str(pkg)) != before_digest
    assert _cli_fingerprint(tmp_path) != before
    source.write_bytes(original)
    assert _cli_fingerprint(tmp_path) == before
    # the version is in __init__.py, so the digest covers it: no separate key
    init = pkg / "__init__.py"
    line = f'__version__ = "{spectral_knots.__version__}"'
    text = init.read_text(encoding="utf-8")
    assert line in text
    init.write_text(text.replace(line, '__version__ = "0.0.0+bumped"'), encoding="utf-8")
    assert _cli_fingerprint(tmp_path) != before
