"""Tests of the benchmark itself: span arithmetic, tracing transparency,
wrapper coverage and the output checks."""

import shutil

import pytest

import run
import spans
import workloads


def _span(name, start, end, parent=None, post=0.0):
    return {"name": name, "start": start, "end": end, "parent": parent, "post": post}


def test_self_times_subtract_children_and_their_measurement():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0, post=0.5),  # covers 1.0 .. 4.5
        _span("b", 5.0, 6.0, parent=0),
        _span("c", 5.2, 5.8, parent=2),
        _span("d", 9.5, 11.0, parent=0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.5 - 1.0 - 0.5, 3.0, 0.4, 0.6, 1.5])


def test_layer_metrics_attribute_rank_to_the_nearest_pipeline():
    header = {"import_s": 0.02, "reduce": {"hits": 3, "misses": 1}}
    tree = [
        _span("chords.dim_A", 0.0, 4.0),
        dict(_span("linalg.rank", 1.0, 2.0, parent=0), nnz=5, rank=2, key=7, rss_rise_kb=1024),
        _span("sinha.e2_diagonal", 4.0, 9.0),
        _span("sinha.homology", 4.5, 8.5, parent=2),
        dict(_span("linalg.rank", 5.0, 8.0, parent=3), nnz=5, rank=2, key=7, rss_rise_kb=0),
    ]
    m = spans.layer_metrics([(header, tree)])
    assert m["linalg.rank.s"] == pytest.approx(4.0)
    assert m["linalg.rank.chords.s"] == pytest.approx(1.0)
    assert m["linalg.rank.sinha.s"] == pytest.approx(3.0)
    assert m["linalg.rank.calls"] == 2
    assert m["linalg.rank.useful_ratio"] == 0.5
    assert m["linalg.rank.rss_rise_mb"] == 1.0
    assert m["sinha.homology.s"] == pytest.approx(1.0)
    assert m["conf_algebra.reduce.hit_ratio"] == 0.75


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize(
    "line",
    [
        "--command crosscheck --n 3 --field fp:2",
        "--command e2 --n 4 --k-max 2 --field q --format markdown",
        "--command e2 --n 12 --k-max 8 --field q",
    ],
)
def test_traced_stdout_is_byte_identical(work, line):
    argv = tuple(line.split())
    env = run.child_env(work)
    outs = []
    for trace in ("0", "1"):
        out_dir = work / trace
        out_dir.mkdir()
        launch_env = dict(env, BENCH_TRACE=trace, SPECTRAL_KNOTS_CACHE=str(out_dir / "cache"))
        launch = run.Launch(argv, launch_env, out_dir)
        outs.append((launch.code, launch.stdout))
        assert bool(launch.report[1]) == (trace == "1")  # spans only when traced
    assert outs[0] == outs[1]


# Which workload must exercise each wrapped entry point.
CALL_SITES = {
    "cli.run": "sweep-small",
    "cli.format": "sweep-small",
    "sinha.e2_page": "e2-page-q",
    "sinha.e2_diagonal": "crosscheck-fp2",
    "sinha.kan_unit_check": "sweep-small",
    "chords.dim_A": "crosscheck-fp2",
    "cache.load": "sweep-small",
    "cache.store": "sweep-small",
    "sinha.basis": "crosscheck-fp2",
    "sinha.d1": "e2-page-q",
    "sinha.homology": "e2-page-q",
    "chords.enumerate": "crosscheck-fp2",
    "chords.one_term": "crosscheck-fp2",
    "chords.four_term": "crosscheck-fp2",
    "chords.matrix": "crosscheck-fp2",
    "linalg.rank": "crosscheck-fp2",
    "linalg.compose": "e2-page-q",
}


def test_every_wrapped_call_site_records_calls(work):
    assert set(CALL_SITES) == {p[0] for p in spans.PATCHES}
    references = workloads.load_references()
    env = run.child_env(work)
    for name in sorted(set(CALL_SITES.values())):
        commands, _ = workloads.WORKLOADS[name](0)
        problems = []
        _, launches = run.run_iteration(commands, env, work / name, True, references, problems)
        assert problems == []
        counts = {}
        for launch in launches:
            for span in launch.report[1]:
                counts[span["name"]] = counts.get(span["name"], 0) + 1
        missing = [s for s, w in CALL_SITES.items() if w == name and not counts.get(s)]
        assert missing == [], f"{name}: no spans for {missing}"


def test_checks_reject_wrong_output_and_cache_behaviour():
    references = workloads.load_references()
    cmd = workloads.Command(tuple("--command crosscheck --n 3 --field q".split()), replay=True)
    good = references[cmd.key]
    assert workloads.check(cmd, False, 0, good, b"", references) == []
    assert workloads.check(cmd, True, 0, good, b"cache hit: 0123\n", references) == []
    assert workloads.check(cmd, True, 0, good, b"", references) == ["replay missed the cache"]
    assert workloads.check(cmd, False, 1, good, b"", references) == ["exit code 1, expected 0"]
    bad = good.replace(b'"dim_A":1,"e2_diag":1,"equal":true,"n_diag":3',
                       b'"dim_A":2,"e2_diag":1,"equal":false,"n_diag":3')
    assert workloads.check(cmd, False, 0, bad, b"", references) == [
        "stdout differs from the reference", "crosscheck mismatch at n_diag=3", "dim_A(3) = 2",
    ]
    # the invariants hold even where a reference is wrong
    assert workloads.check(cmd, False, 0, bad, b"", {cmd.key: bad}) == [
        "crosscheck mismatch at n_diag=3", "dim_A(3) = 2",
    ]
    capacity = workloads.Command(tuple("--command e2 --n 12 --k-max 8 --field q".split()), 3)
    assert workloads.check(capacity, False, 3, b"", b"error: capacity\n", references) == []
    assert workloads.check(capacity, False, 3, b"{}", b"", references) == ["capacity error printed to stdout"]
