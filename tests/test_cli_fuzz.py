"""Hypothesis fuzz of the CLI arguments: every request ends in a documented
exit code, and no traceback reaches stderr."""

import contextlib
import io
import os
import string
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_knots.cli import main

JUNK = st.text(alphabet=string.ascii_letters + "-. ", max_size=4)
COUNTS = st.one_of(st.none(), st.integers(-1, 4).map(str), JUNK)
FIELDS = st.one_of(
    st.sampled_from(["q", "Q", "fp:2", "fp:4", "fp:", "fp:-3", "fp:2.0", f"fp:{2**64 + 13}", "fp:" + "9" * 5000]),
    st.text(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(["e2", "chord", "crosscheck", "kancheck", "nope"]),
    n=COUNTS,
    k_max=COUNTS,
    field=FIELDS,
    fmt=st.sampled_from(["json", "csv", "markdown", "yaml"]),
)
def test_cli_exits_with_a_documented_code(command, n, k_max, field, fmt):
    argv = ["--command", command, "--field", field, "--format", fmt]
    for flag, value in (("--n", n), ("--k-max", k_max)):
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache, mock.patch.dict(os.environ, {"SPECTRAL_KNOTS_CACHE": cache}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
