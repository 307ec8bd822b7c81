import csv
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from spectral_knots import cli, sinha
from spectral_knots.cache import ResultCache, fingerprint, source_digest
from spectral_knots.chords import check_diagram_capacity
from spectral_knots.cli import (
    EXIT_CAPACITY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    format_payload,
    main,
    run,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path / "cache"))
    return tmp_path


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_e2_example(capsys):
    code, out, _ = invoke(
        capsys, "--command", "e2", "--n", "2", "--k-max", "1", "--field", "q"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["field"] == "q"
    assert payload["n"] == 2
    entries = {(e["col"], e["row"]): e["dim"] for e in payload["pages"]["sinha_e2"]}
    assert entries[(-1, 2)] == 0
    assert entries[(-2, 2)] == 0
    assert "vassiliev_e1" in payload["pages"]


def test_nonprime_field_is_usage_error(capsys):
    code, out, err = invoke(
        capsys, "--command", "e2", "--n", "2", "--k-max", "1", "--field", "fp:4"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "not prime" in err


def test_large_prime_field_starts_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "--command", "chord", "--n", "1", "--field", "fp:10000000000000061")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    assert out == '{"dim_A":[{"dim":0,"n_diag":1}],"field":"fp:10000000000000061","n":1}\n'


def test_modulus_above_two_to_the_64_is_usage_error(capsys):
    code, out, err = invoke(capsys, "--command", "chord", "--n", "1", "--field", f"fp:{2**64 + 13}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "2**64" in err


@pytest.mark.parametrize(
    "spec",
    ["fp:" + "9" * 5000, "fp:" + "9" * 4000, "fp:" + "8" * 4000, "x" * 3000],
    ids=["5000-nines", "4000-nines", "4000-eights", "3000-x"],
)
def test_long_field_spec_error_is_one_short_line(capsys, spec):
    code, out, err = invoke(capsys, "--command", "chord", "--n", "1", "--field", spec)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1
    assert len(err.encode()) <= 120


def test_bad_n_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "--command", "e2", "--n", "0", "--k-max", "1")
    assert code == EXIT_USAGE


def test_missing_k_max_is_usage_error(capsys):
    # one line, checked before --n and the field
    for command, n in (("e2", "0"), ("kancheck", "2")):
        code, out, err = invoke(capsys, "--command", command, "--n", n, "--field", "fp:4")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.encode() == f"error: --k-max is required for command {command}\n".encode()


def test_k_max_may_be_omitted_only_where_unread():
    assert RunConfig(command="chord", n=3, k_max=None, field_spec="q").k_max == 0
    with pytest.raises(ValueError, match="--k-max is required for command e2"):
        RunConfig(command="e2", n=3, k_max=None, field_spec="q")


def test_unknown_command_is_usage_error(capsys):
    code, out, err = invoke(capsys, "--command", "nope", "--n", "1")
    assert (code, out, err) == (EXIT_USAGE, "", "error: unknown command 'nope'\n")


def test_equals_form_is_the_spaced_form(capsys):
    # the second launch is served from the first one's cache file
    fp = RunConfig(command="crosscheck", n=3, k_max=None, field_spec="fp:2").fingerprint()
    code, out, _ = invoke(capsys, "--command", "crosscheck", "--n", "3", "--field", "fp:2")
    assert invoke(capsys, "--command=crosscheck", "--n=3", "--field=fp:2") == (code, out, f"cache hit: {fp[:12]}\n")


def test_the_last_of_a_repeated_option_wins(capsys):
    argv = ["--command", "e2", "--n", "9", "--command", "chord", "--n=3", "--format", "json", "--format=csv"]
    assert invoke(capsys, *argv)[:2] == (EXIT_OK, "n_diag,dim\n1,0\n2,1\n3,1\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_exits_zero(flag, capsys, isolated_cache):
    code, out, err = invoke(capsys, "--command", "chord", flag, "--n", "x")
    assert (code, out, err) == (EXIT_OK, cli.__doc__, "")
    assert "usage: spectral-knots --command COMMAND --n N" in out
    proc = run_module(isolated_cache / "module-cache", flag)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (EXIT_OK, cli.__doc__, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--command", "chord", "--n", "2", "--bogus", "1"], "unrecognized argument '--bogus'"),
        (["--comm", "e2", "--n", "2", "--k-max", "1"], "unrecognized argument '--comm'"),
        (["--command", "chord", "stray", "--n", "2"], "unrecognized argument 'stray'"),
        (["--command", "chord", "--n"], "--n expects a value"),
        (["--command", "chord", "--n", "x"], "--n expects an integer, not 'x'"),
        (["--command", "e2", "--n", "2", "--k-max=1.5"], "--k-max expects an integer, not '1.5'"),
        (["--n", "2"], "--command is required"),
        (["--command", "chord"], "--n is required"),
    ],
    ids=["unknown", "prefix", "positional", "no-value", "bad-n", "bad-k-max", "no-command", "no-n"],
)
def test_every_parser_error_is_one_usage_line(argv, message, capsys):
    assert invoke(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


def test_repeat_invocation_hits_cache_and_matches_bytes(capsys):
    argv = ["--command", "e2", "--n", "2", "--k-max", "1", "--field", "q"]
    code1, out1, err1 = invoke(capsys, *argv)
    code2, out2, err2 = invoke(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1.encode() == out2.encode()
    assert "cache hit" not in err1
    assert "cache hit" in err2


@pytest.mark.parametrize("command", ["chord", "crosscheck"])
def test_unread_k_max_stays_out_of_the_cache_key(command, isolated_cache, capsys):
    code, first, err = invoke(capsys, "--command", command, "--n", "3")
    assert code == EXIT_OK and "cache hit" not in err
    code, again, err = invoke(capsys, "--command", command, "--n", "3", "--k-max", "2")
    assert (code, again) == (EXIT_OK, first)
    assert "cache hit:" in err
    assert len(list((isolated_cache / "cache").iterdir())) == 1
    # a negative value is still refused
    code, out, err = invoke(capsys, "--command", command, "--n", "3", "--k-max", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "k-max must be >= 0" in err


def test_unread_k_max_leaves_the_fingerprint_unchanged():
    # the key of a command launched without --k-max is what it always was
    key = {"command": "chord", "n": 3, "k_max": 0, "field_spec": "q", "source": source_digest()}
    expected = fingerprint(key)
    for k_max in (0, 5):
        assert RunConfig(command="chord", n=3, k_max=k_max, field_spec="Q ").fingerprint() == expected
    assert RunConfig(command="e2", n=3, k_max=5, field_spec="q").k_max == 5


def test_kancheck_command(capsys):
    code, out, _ = invoke(
        capsys, "--command", "kancheck", "--n", "2", "--k-max", "2", "--field", "fp:2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kan_check"]["equal"] is True
    assert all(row["equal"] for row in payload["kan_check"]["total_degrees"])


def test_kancheck_large_k_max_stops_at_two_n_minus_one(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "--command", "kancheck", "--n", "1", "--k-max", "20000", "--field", "fp:2")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    assert json.loads(out)["kan_check"] == {
        "equal": True,
        "total_degrees": [
            {"degree": -1, "equal": True, "lhs": 0, "rhs": 0},
            {"degree": 0, "equal": True, "lhs": 1, "rhs": 1},
            {"degree": 1, "equal": True, "lhs": 1, "rhs": 1},
        ],
    }


def test_e2_large_k_max_is_linear(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "--command", "e2", "--n", "3", "--k-max", "20000", "--field", "fp:2")
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK
    rows = json.loads(out)["pages"]["sinha_e2"]
    assert len(rows) == 3 * 20001
    assert all(e["dim"] == 0 for e in rows if e["row"] > 2 * 5)


def test_e2_table_over_capacity_prints_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a column before the table bound")

    monkeypatch.setattr(sinha, "column_homology", refuse)
    code, out, err = invoke(capsys, "--command", "e2", "--n", "1", "--k-max", "1000000000", "--field", "fp:2")
    assert (code, out) == (EXIT_CAPACITY, "")
    assert "capacity" in err


def test_kancheck_capacity(capsys):
    code, _, err = invoke(capsys, "--command", "kancheck", "--n", "4", "--k-max", "1")
    assert code == EXIT_CAPACITY
    assert "capacity" in err


@pytest.mark.parametrize("command", ["chord", "crosscheck"])
def test_capacity_preflight_before_any_work(command, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("computed before the capacity preflight")

    monkeypatch.setattr(cli, "dim_A", refuse)
    monkeypatch.setattr(cli, "e2_diagonal", refuse)
    code, out, err = invoke(capsys, "--command", command, "--n", "8", "--field", "fp:2")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "2027025 chord diagrams" in err
    # n = 7 (135135 diagrams) is still admitted
    check_diagram_capacity(7)


@pytest.mark.parametrize("command", ["chord", "crosscheck"])
def test_huge_degree_exits_at_once(command, capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "--command", command, "--n", "1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert "degree 8 has 2027025 chord diagrams" in err


def test_unwritable_cache_dir_warns_and_computes(tmp_path, monkeypatch, capsys):
    # the cache path's parent is a regular file, so the directory cannot exist
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(blocker / "cache"))
    code, out, err = invoke(capsys, "--command", "chord", "--n", "3", "--field", "q")
    assert code == EXIT_OK
    assert [e["dim"] for e in json.loads(out)["dim_A"]] == [0, 1, 1]
    assert "warning: result not cached" in err
    assert blocker.read_text() == "not a directory"


def _assert_corrupt_payload_recomputed(capsys, command, fmt, payload):
    argv = ("--command", command, "--n", "2", "--format", fmt)
    code, expected, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    cfg = RunConfig(command=command, n=2, k_max=0, field_spec="q")
    path = ResultCache(cfg.resolved_cache_dir()).path(cfg.fingerprint())
    with open(path) as f:
        data = json.load(f)
    good = data["payload"]
    data["payload"] = payload  # right fingerprint, wrong payload
    with open(path, "w") as f:
        json.dump(data, f)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_OK, expected)
    assert "warning: ignoring corrupt cache file" in err
    assert "cache hit" not in err
    # the recomputed result overwrote the file and is served from then on
    with open(path) as f:
        assert json.load(f)["payload"] == good
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_OK, expected)
    assert "cache hit" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "payload",
    [
        [], {"field": "q", "n": 2}, {"dim_A": 5}, {"dim_A": [5]}, {"dim_A": [{}]},
        # every key there, one cell of the wrong type
        {"dim_A": [{"n_diag": 1, "dim": 0}, {"n_diag": 2, "dim": "1,2"}]},
        {"dim_A": [{"n_diag": 1, "dim": 0}, {"n_diag": 2, "dim": True}]},
        {"dim_A": [{"n_diag": 1.0, "dim": 0}, {"n_diag": 2, "dim": 1}]},
    ],
)
def test_corrupt_cached_payload_is_recomputed(fmt, payload, capsys):
    _assert_corrupt_payload_recomputed(capsys, "chord", fmt, payload)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("equal", ["false", 0, None])
def test_cached_crosscheck_with_untyped_equal_is_recomputed(fmt, equal, capsys):
    rows = [{"n_diag": 1, "dim_A": 0, "e2_diag": 0, "equal": True},
            {"n_diag": 2, "dim_A": 1, "e2_diag": 1, "equal": equal}]
    _assert_corrupt_payload_recomputed(capsys, "crosscheck", fmt, {"field": "q", "n": 2, "crosscheck": rows})


def test_chord_command(capsys):
    code, out, _ = invoke(capsys, "--command", "chord", "--n", "3", "--field", "q")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim_A"] == [
        {"n_diag": 1, "dim": 0},
        {"n_diag": 2, "dim": 1},
        {"n_diag": 3, "dim": 1},
    ]


def test_crosscheck_command(capsys):
    code, out, _ = invoke(capsys, "--command", "crosscheck", "--n", "2", "--field", "q")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert all(row["equal"] for row in payload["crosscheck"])
    rows = {r["n_diag"]: (r["dim_A"], r["e2_diag"]) for r in payload["crosscheck"]}
    assert rows[1] == (0, 0)
    assert rows[2] == (1, 1)


def test_crosscheck_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "e2_diagonal", lambda n_diag, f: 7)
    code, out, err = invoke(capsys, "--command", "crosscheck", "--n", "2")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["crosscheck"] == [
        {"n_diag": 1, "dim_A": 0, "e2_diag": 7, "equal": False},
        {"n_diag": 2, "dim_A": 1, "e2_diag": 7, "equal": False},
    ]
    assert '"equal":false' in out
    assert "n_diag" in err


def test_kancheck_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "kan_unit_check", lambda n, k_max, f: ({0: 1, 1: 2}, {0: 1, 1: 1}))
    code, out, _ = invoke(capsys, "--command", "kancheck", "--n", "1", "--k-max", "1")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["kan_check"]["equal"] is False


def test_kancheck_missing_degree_counts_as_zero(capsys, monkeypatch):
    # the sides' dicts differ, but degree 2 has dimension 0 on both
    monkeypatch.setattr(cli, "kan_unit_check", lambda n, k_max, f: ({0: 1, 2: 0}, {0: 1}))
    code, out, err = invoke(capsys, "--command", "kancheck", "--n", "1", "--k-max", "1")
    assert code == EXIT_OK
    assert json.loads(out)["kan_check"] == {
        "equal": True,
        "total_degrees": [
            {"degree": 0, "equal": True, "lhs": 1, "rhs": 1},
            {"degree": 2, "equal": True, "lhs": 0, "rhs": 0},
        ],
    }
    assert "mismatch" not in err


def test_csv_format(capsys):
    code, out, _ = invoke(
        capsys,
        "--command", "e2", "--n", "2", "--k-max", "1",
        "--field", "q", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "page,col,row,dim"
    assert "sinha_e2,-2,2,0" in lines


def test_markdown_format(capsys):
    code, out, _ = invoke(
        capsys,
        "--command", "chord", "--n", "2", "--format", "markdown",
    )
    assert code == EXIT_OK
    assert out.startswith("| n_diag | dim |")


def test_cache_dir_flag_without_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPECTRAL_KNOTS_CACHE", raising=False)
    cache_dir = tmp_path / "flagcache"
    code, _, _ = invoke(
        capsys,
        "--command", "chord", "--n", "2", "--cache-dir", str(cache_dir),
    )
    assert code == EXIT_OK
    assert any(cache_dir.iterdir())


def test_env_overrides_cache_dir_flag(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envcache"
    flag_dir = tmp_path / "flagcache"
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(env_dir))
    code, _, _ = invoke(
        capsys,
        "--command", "chord", "--n", "2", "--cache-dir", str(flag_dir),
    )
    assert code == EXIT_OK
    assert env_dir.exists() and any(env_dir.iterdir())
    assert not flag_dir.exists()


def test_run_records_are_fingerprint_stable():
    cfg = RunConfig(command="e2", n=2, k_max=1, field_spec="q")
    a = run(cfg)
    b = run(RunConfig(command="e2", n=2, k_max=1, field_spec="q"))
    assert a.fingerprint == b.fingerprint
    assert a.payload == b.payload


def test_format_payload_rejects_unknown():
    with pytest.raises(ValueError):
        format_payload({}, "yaml", "e2")


# modules no command needs at run time; each pulls in more (inspect, ast, decimal, ...)
UNNEEDED_AT_LAUNCH = ("dataclasses", "inspect", "datetime", "csv", "fractions", "decimal", "argparse")


def test_cli_import_loads_no_unneeded_module():
    code = (
        "import sys; before = set(sys.modules); import spectral_knots.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout.split()
    assert "spectral_knots.cli" in loaded
    assert set(loaded) & set(UNNEEDED_AT_LAUNCH) == set()


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter on this package; its stdout lines."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return proc.stdout.splitlines()


def launch_loads(cache_dir, modules):
    """Which of ``modules`` a full ``cli.main`` run loads in a fresh interpreter,
    apart from those ``site`` already loaded, which are not the launch's doing."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from spectral_knots import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--command', 'e2', '--n', '3', '--k-max', '2'])\n"
        f"print(code, sorted({set(modules)!r} & (set(sys.modules) - before)))\n"
    )
    return run_python(code, SPECTRAL_KNOTS_CACHE=str(cache_dir / "launch-cache"))


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None, reason="no built-in _sha256 (Python 3.12+)")
def test_a_launch_loads_no_openssl(isolated_cache):
    # hashlib's OpenSSL backend costs about 3.5 MB of peak RSS per launch
    assert launch_loads(isolated_cache, ("_hashlib", "hashlib")) == [f"{EXIT_OK} []"]


def test_a_launch_loads_no_argument_parser(isolated_cache):
    # argparse imports gettext, which imports locale: none is needed to read six options
    assert launch_loads(isolated_cache, ("argparse", "gettext", "locale", "__future__")) == [f"{EXIT_OK} []"]


def test_fingerprints_do_not_depend_on_the_sha256_module():
    # where the built-in _sha256 is missing (Python 3.12 names it _sha2), cache
    # falls back to hashlib and must name every cache file as before
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = None\n"
        "from spectral_knots.cache import source_digest\n"
        "from spectral_knots.cli import RunConfig\n"
        "print('hashlib' in sys.modules)\n"
        "print(source_digest())\n"
        "print(RunConfig(command='e2', n=3, k_max=2, field_spec='q').fingerprint())\n"
    )
    default = RunConfig(command="e2", n=3, k_max=2, field_spec="q").fingerprint()
    assert run_python(code) == ["True", source_digest(), default]


def run_module(cache_dir, *argv, flags=()):
    """``python -m spectral_knots`` on argv in a fresh interpreter started with
    ``flags``, bytes out."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, SPECTRAL_KNOTS_CACHE=str(cache_dir))
    return subprocess.run([sys.executable, *flags, "-m", "spectral_knots", *argv], env=env, capture_output=True,
                          timeout=120)


def test_module_entry_point_prints_the_bytes_main_prints(isolated_cache, capsys):
    argv = ("--command", "crosscheck", "--n", "3", "--field", "fp:2")
    code, out, _ = invoke(capsys, *argv)
    # a cache of its own, so the module computes cold as main did
    proc = run_module(isolated_cache / "module-cache", *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


def test_module_entry_point_exits_with_the_usage_status(isolated_cache):
    proc = run_module(isolated_cache / "module-cache", "--command", "chord", "--n", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, b"", b"error: n must be >= 1\n")
    proc = run_module(isolated_cache / "module-cache", "--bogus", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, b"", b"error: unrecognized argument '--bogus'\n")


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


def test_a_dev_mode_launch_that_errors_on_warnings_prints_the_golden_bytes(isolated_cache):
    # the heap is frozen at exit, after the output and the cache file are
    # written; the launch still exits 0 with nothing on stderr, so neither the
    # run nor its teardown raises a warning, a ResourceWarning included
    args = "--command crosscheck --n 3 --field fp:2 --format json"
    golden = next(case for case in GOLDEN if case["args"] == args)
    proc = run_module(isolated_cache / "module-cache", *args.split(), flags=("-X", "dev", "-W", "error"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (golden["exit"], golden["stdout"].encode(), b"")


def test_a_launch_freezes_its_heap_at_exit(isolated_cache):
    # a handler registered before main runs after main's, and sees the heap
    # frozen; while main runs, nothing is
    code = (
        "import atexit, contextlib, gc, io\n"
        "from spectral_knots import cli\n"
        "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['--command', 'crosscheck', '--n', '2']) for _ in range(2)]\n"
        "print(codes, gc.get_freeze_count())\n"
    )
    lines = run_python(code, SPECTRAL_KNOTS_CACHE=str(isolated_cache / "launch-cache"))
    assert lines == [f"{[EXIT_OK, EXIT_OK]} 0", "frozen at exit True"]


class FakeAtexit:
    """The ``register`` and ``unregister`` of ``atexit``, on a list."""

    def __init__(self):
        self.funcs = []

    def register(self, func):
        self.funcs.append(func)

    def unregister(self, func):
        self.funcs = [f for f in self.funcs if f != func]


def test_main_in_process_registers_the_freeze_once_and_freezes_nothing(capsys, monkeypatch):
    # an in-process caller is frozen only when its own process exits
    stack = FakeAtexit()
    monkeypatch.setattr(cli, "atexit", stack)
    for _ in range(2):
        assert invoke(capsys, "--command", "crosscheck", "--n", "2")[0] == EXIT_OK
    assert stack.funcs == [gc.freeze]
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(command="e2", n=3, k_max=2, field_spec="q"),
        RunConfig(command="chord", n=4, k_max=0, field_spec="fp:2"),
        RunConfig(command="crosscheck", n=3, k_max=0, field_spec="q"),
        RunConfig(command="kancheck", n=2, k_max=3, field_spec="fp:3"),
    ],
    ids=lambda cfg: cfg.command,
)
def test_csv_matches_the_csv_module(cfg):
    payload = run(cfg).payload
    header, entries = cli._COMMANDS[cfg.command][1:]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + [[e[h] for h in header] for e in entries(payload)])
    assert format_payload(payload, "csv", cfg.command) == buf.getvalue()


@pytest.mark.parametrize(
    "ns", [0, 1_700_000_000_000_000_000, 1_700_000_000_123_456_789, 951_868_799_999_999_999, 4_102_444_800_000_001_000]
)
def test_timestamp_is_isoformat_utc(ns, monkeypatch):
    sec, us = divmod(ns // 1000, 1_000_000)
    expected = datetime.fromtimestamp(sec, timezone.utc).replace(microsecond=us).isoformat()
    monkeypatch.setattr(time, "time_ns", lambda: ns)
    assert cli._utc_timestamp() == expected


def test_run_stamps_the_current_utc_time():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamp = run(RunConfig(command="chord", n=1, k_max=0, field_spec="q")).timestamp
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp)
    assert before <= datetime.fromisoformat(stamp) <= datetime.now(timezone.utc)
