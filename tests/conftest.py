"""Fixtures shared by several test modules."""

import contextlib
import io
import json

import pytest

from innerscope.cli import main


@pytest.fixture(scope="session")
def selftest_run(tmp_path_factory):
    """One `innerscope selftest --json` run for the whole session.

    Returns its exit code, its printed output and its decoded report; the
    tour test and each acceptance test read their verdicts from it, so the
    battery runs once.
    """
    path = tmp_path_factory.mktemp("selftest") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selftest", "--json", str(path)])
    return code, out.getvalue(), json.loads(path.read_text())
