"""Benchmark of the spectral-knots CLI on a cold cache.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it builds nothing and imports
the package from ``src/``.  One closed-loop client runs the workload's
commands one at a time: each command runs in its own fresh process
(``python3 bench/child.py <argv>``) against a fresh cache directory, and
the next starts only after the previous one exits.  One pass over the
workload is an iteration; iterations repeat until ``--seconds`` have
passed.  One untimed launch first compiles the bytecode.

A fixed reference computation runs before the first iteration and after
every iteration, and times are reported at the reference speed: each
iteration's are multiplied by ``REFERENCE_S`` over the mean time of the
references on either side of it (see ``reference_seconds``).  The lines
for people also print the median raw ``wall_s`` and speed factor.

End-to-end metrics (``--trace 0``):

* ``wall_s``: client-observed time of one iteration, from spawning its
  first command to the exit of its last; median over iterations.
* ``setup_s``: time per launch from spawn until ``spectral_knots.cli`` is
  imported and ready; median over launches.
* ``peak_rss_mb``: largest ``ru_maxrss`` of any launch.
* ``ok_ratio``: launches with the right exit code, stdout and cache
  behaviour, over launches attempted (1 minus the failure ratio).

With ``--trace 1`` untraced and traced iterations alternate.  The traced
ones record spans around the package's entry points (``spans.py``) and
give the per-layer metrics: busy times as medians over traced
iterations, counts (which must repeat exactly), and ``trace.overhead``,
the traced over the untraced median ``wall_s``, minus 1.

Every launch is checked (``workloads.check``).  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print the same metrics for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
LAUNCH_TIMEOUT_S = 120
WARMUP_ARGV = ("--command", "chord", "--n", "1")
# Seconds the reference computation takes at the reference speed: about
# its time on the 2-vCPU Xeon VM of the baseline in that VM's faster state.
REFERENCE_S = 0.2

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class LaunchTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise LaunchTimeout(f"a launch ran longer than {LAUNCH_TIMEOUT_S} s")


class Launch:
    """One finished child process and what it left behind."""

    def __init__(self, argv, env, out_dir: Path):
        out, err, report = out_dir / "stdout", out_dir / "stderr", out_dir / "report"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600),
        ]
        report.unlink(missing_ok=True)  # a replay reuses its cold launch's directory
        env = dict(env, BENCH_REPORT=str(report))
        child_argv = [sys.executable, str(CHILD), *argv]
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, LAUNCH_TIMEOUT_S)
        try:
            self.spawn = time.monotonic()
            pid = os.posix_spawn(sys.executable, child_argv, env, file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            self.exit = time.monotonic()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.code = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.stdout = out.read_bytes()
        self.stderr = err.read_bytes()
        try:
            self.report = spans.read_report(report)
        except (OSError, ValueError, IndexError):
            self.report = None

    @property
    def setup_s(self):
        return self.report[0]["ready"] - self.spawn if self.report else None


def child_env(tmp: Path) -> dict:
    """Environment of every launch: the package from ``src/``, bytecode
    under ``tmp``; the cache directory is set per command."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    return env


def reference_seconds() -> float:
    """Seconds a fixed pure-Python computation (dicts, Fractions) takes now.

    The host's speed drifts by tens of percent over seconds to minutes,
    and this computation drifts with it; the iterations' times are scaled
    by ``REFERENCE_S`` over its time, so that they read as at the
    reference speed whatever the host is doing.
    """
    start = time.perf_counter()
    for _ in range(25):
        rows = {}
        for i in range(3000):
            rows.setdefault(i * 7919 % 401, {})[i % 97] = Fraction(i, 7)
        for row in rows.values():
            for v in row.values():
                (v * 3).numerator % 5
    return time.perf_counter() - start


def run_iteration(commands, env, work: Path, traced: bool, references, problems):
    """Run every command once (and its replay); return (wall_s, launches)."""
    launches = []
    env = dict(env, BENCH_TRACE="1" if traced else "0")
    for i, cmd in enumerate(commands):
        cmd_dir = work / f"cmd{i}"
        cmd_dir.mkdir(parents=True)
        cmd_env = dict(env, SPECTRAL_KNOTS_CACHE=str(cmd_dir / "cache"))
        for replayed in (False, True) if cmd.replay else (False,):
            launch = Launch(cmd.argv, cmd_env, cmd_dir)
            errs = workloads.check(
                cmd, replayed, launch.code, launch.stdout, launch.stderr, references
            )
            if launch.report is None:
                errs.append("no report from the child")
            launch.ok = not errs
            for e in errs:
                problems.append(f"{cmd.key}{' (replay)' if replayed else ''}: {e}")
            launches.append(launch)
    shutil.rmtree(work)
    return launches[-1].exit - launches[0].spawn, launches


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool):
    commands, info = workloads.WORKLOADS[name](seed)
    references = workloads.load_references()
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    problems = []
    walls = {False: [], True: []}
    launches = {False: [], True: []}
    layers = []
    iterations = []  # (traced, raw wall_s, launches)
    try:
        warm = tmp / "warmup"
        warm.mkdir()
        first = Launch(WARMUP_ARGV, dict(env, SPECTRAL_KNOTS_CACHE=str(warm / "cache")), warm)
        if first.code != 0 or first.report is None:
            sys.stderr.write(first.stderr.decode(errors="replace"))
            raise SystemExit(f"error: the warm-up launch failed with exit code {first.code}")
        deadline = time.monotonic() + seconds
        refs = [reference_seconds()]
        while len(iterations) < (2 if trace else 1) or time.monotonic() < deadline:
            k = len(iterations)
            traced = trace and k % 2 == 1
            wall, done = run_iteration(commands, env, tmp / f"it{k}", traced, references, problems)
            refs.append(reference_seconds())
            iterations.append((traced, wall, done))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # each iteration's speed: the reference before it and the one after it
    speeds = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    for scale, (traced, wall, done) in zip(speeds, iterations):
        walls[traced].append(wall * scale)
        for launch in done:
            launch.scale = scale
        launches[traced].extend(done)
        if traced:
            layer = spans.layer_metrics([l.report for l in done if l.report])
            for metric, unit in spans.LAYER_UNITS.items():
                if unit == "s":
                    layer[metric] *= scale
            layers.append(layer)

    every = launches[False] + launches[True]
    failed = sum(not l.ok for l in every)
    correct = failed == 0
    untraced = launches[False]
    if not trace:
        setups = [l.setup_s * l.scale for l in untraced if l.setup_s is not None]
        values = {
            "wall_s": _median(walls[False]),
            "setup_s": _median(setups),
            "peak_rss_mb": max(l.maxrss_kb for l in untraced) / 1024,
            "ok_ratio": (len(every) - failed) / len(every),
        }
        units = E2E_UNITS
        samples = {"wall_s": len(walls[False]), "setup_s": len(setups),
                   "peak_rss_mb": len(untraced), "ok_ratio": len(every)}
    else:
        values = {}
        for metric, unit in spans.LAYER_UNITS.items():
            column = [m[metric] for m in layers]
            if unit not in ("count", "ratio"):  # times, memory, cache file sizes
                values[metric] = _median(column)
            else:
                values[metric] = column[0]
                if any(v != column[0] for v in column):
                    correct = False
                    problems.append(f"{metric} differs between traced iterations: {column}")
        values["trace.overhead"] = _median(walls[True]) / _median(walls[False]) - 1
        units = dict(spans.LAYER_UNITS, **{"trace.overhead": "ratio"})
        samples = {m: len(layers) for m in units}
        samples["cli.import.s"] = len(launches[True])
    summary = {
        "workload": name,
        "seed": seed,
        **info,
        "iterations": len(walls[False]) + len(walls[True]),
        "traced_iterations": len(walls[True]),
        "launches": len(every),
        "speed": round(_median(speeds), 4),
        "raw_wall_s": round(_median([wall for traced, wall, _ in iterations if not traced]), 4),
    }
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    result = {"correct": correct, "attempted": len(every), "failed": failed, "metrics": metrics}
    return result, samples, summary, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectral_knots" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: kill and reap the running child, remove scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, samples, summary, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in summary.items()))
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6f} {m['unit']:6s} (n={samples[metric]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
