"""One CLI launch of the benchmark: ``python3 bench/child.py <cli argv>``.

Runs ``spectral_knots.cli.main`` on the given argv, exactly as
``python3 -m spectral_knots`` would, and writes a report to the file named
by ``BENCH_REPORT``: the monotonic time at which the CLI was imported and
ready (the parent compares it with the spawn time) and the import duration.
With ``BENCH_TRACE=1`` it also records spans around the package's entry
points (see ``spans.py``) and appends them to the report as JSON lines.
"""

import time

start = time.monotonic()
import spectral_knots.cli as cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    recorder = None
    if os.environ.get("BENCH_TRACE") == "1":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        reduce_before = spans.reduce_counters()
    code = cli.main(sys.argv[1:])
    header = {"ready": ready, "import_s": ready - start}
    if recorder is None:
        with open(os.environ["BENCH_REPORT"], "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
    else:
        after = spans.reduce_counters()
        header["reduce"] = {k: after[k] - reduce_before[k] for k in after}
        recorder.write(os.environ["BENCH_REPORT"], header)
    return code


if __name__ == "__main__":
    sys.exit(main())
