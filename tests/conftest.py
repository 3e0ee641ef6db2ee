"""Fixtures shared by several test modules."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess

import pytest

from innerscope.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


@pytest.fixture(scope="session")
def same_results():
    """The module tools/same_results.py."""
    spec = importlib.util.spec_from_file_location("same_results",
                                                  ROOT / "tools" / "same_results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def self_compare(same_results, monkeypatch, capsys):
    """compare(only): same_results.py on this tree against itself over the
    records labelled with a text in only, its two children at hash seeds 0
    and 1; returns the exit code and the printed lines.

    The hash seed reorders sets and dicts; no digest may depend on it.
    """
    def compare(only):
        seeds = iter(["0", "1"])
        popen = subprocess.Popen
        with monkeypatch.context() as patch:
            patch.setattr(subprocess, "Popen", lambda argv, **kwargs: popen(
                argv, env=dict(os.environ, PYTHONHASHSEED=next(seeds)), **kwargs))
            code = same_results.main([str(ROOT), str(ROOT)] +
                                     [arg for text in only for arg in ("--only", text)])
        return code, capsys.readouterr().out.splitlines()
    return compare
