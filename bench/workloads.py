"""Workloads of the benchmark and the checks on their outputs.

A workload is a list of CLI commands.  The benchmark runs them one at a
time, each in a fresh process against a fresh cache directory; commands
with ``replay`` set run a second time against the cache the first launch
filled.  Every launch is checked: exit code, stdout byte for byte against
``references.json`` (captured from the CLI by running this file), the
cache hit or miss it reported on stderr, and, independently of the
references, crosscheck equality and the published values of dim_A.

The references are a byte-for-byte contract of the program's stdout.
``PYTHONPATH=src python3 bench/workloads.py`` regenerates them; use it only
to add a command's reference, and check that no existing one changed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

EXIT_CAPACITY = 3
# dim_A(1..5) over any field: Bar-Natan, On the Vassiliev knot invariants (1995)
DIM_A = (0, 1, 1, 3, 4)
# sweep-small draws its odd prime from this set
ODD_PRIMES = (3, 5, 7)
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Command:
    argv: tuple
    exit_code: int = 0
    replay: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cmd(line: str, exit_code: int = 0, replay: bool = False) -> Command:
    return Command(tuple(line.split()), exit_code, replay)


def _sweep_commands(p: int) -> list:
    lines = [
        "--command crosscheck --n 3 --field q",
        "--command crosscheck --n 3 --field fp:2",
        f"--command crosscheck --n 3 --field fp:{p}",
        "--command chord --n 4 --field q",
        "--command chord --n 4 --field fp:2",
        "--command kancheck --n 2 --k-max 2 --field q",
        "--command kancheck --n 2 --k-max 2 --field fp:2",
    ]
    for field in ("q", f"fp:{p}"):
        for fmt in ("json", "csv", "markdown"):
            lines.append(f"--command e2 --n 4 --k-max 2 --field {field} --format {fmt}")
    cmds = [_cmd(line, replay=True) for line in lines]
    cmds.append(_cmd("--command e2 --n 12 --k-max 8 --field q", EXIT_CAPACITY, replay=True))
    return cmds


def sweep_small(seed: int):
    """Fourteen short commands, each cold and then replayed; the seed picks
    the odd prime and the order."""
    rng = random.Random(seed)
    p = rng.choice(ODD_PRIMES)
    cmds = _sweep_commands(p)
    rng.shuffle(cmds)
    return cmds, {"p": p}


# name -> function(seed) -> (commands, info); BENCHMARK.json says why each is there
WORKLOADS = {
    "crosscheck-fp2": lambda seed: ([_cmd("--command crosscheck --n 5 --field fp:2")], {}),
    "e2-page-q": lambda seed: ([_cmd("--command e2 --n 8 --k-max 4 --field q")], {}),
    "sweep-small": sweep_small,
}


def all_commands() -> list:
    """Every command any seed of any workload can produce."""
    out = {}
    for build in WORKLOADS.values():
        for cmd in build(0)[0]:
            out[cmd.key] = cmd
    for p in ODD_PRIMES:
        for cmd in _sweep_commands(p):
            out[cmd.key] = cmd
    return list(out.values())


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return {k: v.encode("utf-8") for k, v in json.load(f).items()}


def _invariant_problems(cmd: Command, stdout: bytes) -> list:
    """Checks that hold whatever the references say."""
    argv = cmd.argv
    if "--format" in argv and argv[argv.index("--format") + 1] != "json":
        return []
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = []
    if "crosscheck" in payload:
        for row in payload["crosscheck"]:
            if not row["equal"] or row["dim_A"] != row["e2_diag"]:
                problems.append(f"crosscheck mismatch at n_diag={row['n_diag']}")
            if row["dim_A"] != DIM_A[row["n_diag"] - 1]:
                problems.append(f"dim_A({row['n_diag']}) = {row['dim_A']}")
    for row in payload.get("dim_A", ()):
        if row["dim"] != DIM_A[row["n_diag"] - 1]:
            problems.append(f"dim_A({row['n_diag']}) = {row['dim']}")
    return problems


def check(cmd: Command, replayed: bool, code: int, stdout: bytes, stderr: bytes, references) -> list:
    """Problems with one launch; empty when it is correct."""
    problems = []
    if code != cmd.exit_code:
        problems.append(f"exit code {code}, expected {cmd.exit_code}")
    if cmd.exit_code == EXIT_CAPACITY:
        if stdout:
            problems.append("capacity error printed to stdout")
    elif cmd.key not in references:
        problems.append("no reference output")
    elif stdout != references[cmd.key]:
        problems.append("stdout differs from the reference")
    if code == 0:
        problems += _invariant_problems(cmd, stdout)
    hit = b"cache hit:" in stderr
    if hit != (replayed and cmd.exit_code == 0):
        problems.append("unexpected cache hit" if hit else "replay missed the cache")
    return problems


def _capture() -> None:
    import contextlib
    import io
    import tempfile

    from spectral_knots import cli

    work = os.path.join(os.path.dirname(os.path.dirname(REFERENCES)), ".bench_build")
    os.makedirs(work, exist_ok=True)
    refs = {}
    for cmd in all_commands():
        if cmd.exit_code == EXIT_CAPACITY:
            continue
        with tempfile.TemporaryDirectory(dir=work) as cache_dir:
            os.environ["SPECTRAL_KNOTS_CACHE"] = cache_dir
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))
        if code != cmd.exit_code:
            raise SystemExit(f"{cmd.key}: exit code {code}")
        refs[cmd.key] = buf.getvalue()
    with open(REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    _capture()
