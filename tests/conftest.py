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
def load_tool():
    """load_tool(name): the module tools/<name>.py, loaded afresh on each call."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def same_results(load_tool):
    """The module tools/same_results.py."""
    return load_tool("same_results")


@pytest.fixture(scope="session")
def self_compare(same_results, request):
    """compare(only): the exit code and printed lines of same_results.py on
    this tree against itself over the records labelled with a text in only.

    The two children run once per session, at hash seeds 0 and 1, over the
    union of the ONLY texts of the collected test modules that use this
    fixture.  The hash seed reorders sets and dicts, so the two runs must be
    equal record for record; no digest may depend on it.
    """
    only = sorted({text for item in request.session.items
                   if "self_compare" in item.fixturenames for text in item.module.ONLY})
    seeds = iter(["0", "1"])
    popen = subprocess.Popen
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subprocess, "Popen", lambda argv, **kwargs: popen(
            argv, env=dict(os.environ, PYTHONHASHSEED=next(seeds)), **kwargs))
        runs = same_results.run([str(ROOT), str(ROOT)], only)
    assert runs is not None and runs[0] == runs[1]

    def compare(only):
        keep = same_results.keeper(only)
        return same_results.report([
            {name: kept for name, records in corpora.items()
             if (kept := [r for r in records if keep(json.loads(r)[0])])} for corpora in runs])
    return compare
