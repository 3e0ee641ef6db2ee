"""One verdict line per headline check; the whole battery must be green.

One test per entry of acceptance.CHECKS, named test_<check name> with
dashes as underscores, so a new check is covered without a new function.
Each reads its check's verdict from the session's one selftest run.  Run
with -s to see the verdict lines for passing checks too; pytest prints
them on its own whenever a check fails.
"""

import ast
import inspect
import re
import textwrap

from innerscope import acceptance
from innerscope.errors import Verdict


def _verdict_test(name):
    def test(selftest_run):
        _, _, report = selftest_run
        [verdict] = [v for v in report["verdicts"] if v["name"] == name]
        print("%s %s: %s" % ("PASS" if verdict["pass"] else "FAIL", name, verdict["value"]))
        assert verdict["pass"], verdict["value"]
    test.__name__ = "test_" + name.replace("-", "_")
    return test


for _name, _, _ in acceptance.CHECKS:
    _test = _verdict_test(_name)
    globals()[_test.__name__] = _test


def test_a_pass_that_reaches_its_budget_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", [
        ("over-budget", lambda: Verdict(True, "fine"), 0),
        ("unbudgeted", lambda: Verdict(True, "fine", {"measured": 1}), None),
        ("failing", lambda: Verdict(False, "wrong"), 0),
    ])
    # run_all pairs each check's name with its Verdict, details included
    (name, verdict), *rest = acceptance.run_all()
    assert (name, verdict.passed) == ("over-budget", False)
    assert re.fullmatch(r"over-budget took \d+\.\d s against a 0 s budget", verdict.reason)
    assert rest == [("unbudgeted", Verdict(True, "fine", {"measured": 1})),
                    ("failing", Verdict(False, "wrong"))]


def test_every_return_of_every_check_is_a_verdict():
    # failing paths included, which the green battery never takes
    for _, fn, _ in acceptance.CHECKS:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        returns = [node.value for node in ast.walk(tree) if isinstance(node, ast.Return)]
        assert len(returns) >= 2, fn.__name__
        for value in returns:
            assert isinstance(value, ast.Call) and value.func.id == "Verdict", (
                fn.__name__, ast.unparse(value))
