import json
import os

from spectral_knots.cache import ResultCache, ResultRecord, fingerprint


def make_record(fp):
    return ResultRecord(
        fingerprint=fp,
        payload={"field": "q", "n": 2, "pages": {}},
        wall_time=0.25,
        timestamp="2026-01-01T00:00:00+00:00",
    )


def test_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2}, "0.1.0")
    record = make_record(fp)
    cache.store(record)
    loaded = cache.load(fp)
    assert loaded == record


def test_fingerprint_sensitivity():
    a = fingerprint({"command": "e2", "n": 2}, "0.1.0")
    b = fingerprint({"command": "e2", "n": 3}, "0.1.0")
    c = fingerprint({"command": "e2", "n": 2}, "0.2.0")
    assert len({a, b, c}) == 3


def test_mutated_fingerprint_misses(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2}, "0.1.0")
    cache.store(make_record(fp))
    other = fingerprint({"command": "e2", "n": 5}, "0.1.0")
    assert cache.load(other) is None
    # a record whose stored fingerprint disagrees with its key is a miss too
    path = cache.path(fp)
    data = json.loads(open(path).read())
    data["fingerprint"] = "0" * 64
    with open(path, "w") as f:
        json.dump(data, f)
    assert cache.load(fp) is None


def test_truncated_file_recomputes(tmp_path, capsys):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "e2", "n": 2}, "0.1.0")
    cache.store(make_record(fp))
    path = cache.path(fp)
    with open(path, "w") as f:
        f.write('{"fingerprint": "tru')
    assert cache.load(fp) is None
    assert "corrupt cache" in capsys.readouterr().err
    # the slot is writable again afterwards
    cache.store(make_record(fp))
    assert cache.load(fp) is not None


def test_store_is_atomic_no_stray_temp_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = fingerprint({"command": "chord", "n": 3}, "0.1.0")
    cache.store(make_record(fp))
    names = os.listdir(tmp_path)
    assert names == [f"{fp}.json"]
