"""One verdict line per headline check; the whole battery must be green.

One test per entry of acceptance.CHECKS, named test_<check name> with
dashes as underscores, so a new check is covered without a new function.
Each reads its check's verdict from the session's one selftest run.  Run
with -s to see the verdict lines for passing checks too; pytest prints
them on its own whenever a check fails.  Each check is also called once
with one name it uses giving a wrong answer, and must fail with its own
reason.
"""

import ast
import dataclasses
import inspect
import re
import textwrap
import types

import pytest

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


def _six_elements(monoid):
    return dataclasses.replace(monoid, elements=monoid.elements[:6])


def _not_central(c_vec, report):
    return c_vec, dict(report, central=False, passed=False)


# Each check fails with its own reason when one name it calls gives a wrong
# answer: (check, the name patched in acceptance, wrong(real, *args), reason).
WRONG_ANSWERS = [
    ("word_survey", "classification_survey",
     lambda real, group: (real(group)[0], ["one mismatch"]),
     "S3: the two routes disagree on 1 words"),
    ("endo_monoid", "inner_endo_monoid",
     lambda real, group: _six_elements(real(group)),
     "expected 7 elements, got 6"),
    ("unit_tensor_scan", "enumerate_inner_endos",
     lambda real, alg, **kw: dataclasses.replace(real(alg, **kw), brute_forced=False),
     "scan did not run"),
    ("derivation_scan", "enumerate_inner_derivations",
     lambda real, alg, **kw: dataclasses.replace(real(alg, **kw), oracle_exact=False),
     "dual-number oracle accepted 8 tensors"),
    ("leavitt_pair", "fp_witness_checks",
     lambda real, *args: dict(real(*args), injectivity=False),
     "a left-inverse witness failed"),
    ("pbw_jacobi", "pbw_system",
     lambda real, lie: types.SimpleNamespace(is_confluent=lambda: True),
     "a random table is non-Jacobi but confluent"),
    ("char_p_powers", "ad_power_check",
     lambda real, *args: dict(real(*args), degree_one=False, match=False),
     "sl2/GF(3): a commutator leaves the Lie algebra"),
    ("coinner_orders", "naturality_oracle",
     lambda real, obj: (real(obj)[0], False),
     "natural S3-set: oracle found 2 solutions, match=False"),
    ("embedding_suite", "central_witness",
     lambda real, *args: _not_central(*real(*args)),
     "GF(2): central witness fails on basis element 0"),
    ("square_commutation", "apply_extended",
     lambda real, cls, hom, t: (t + 1) % hom.target.order,
     "group square breaks at t=0 for GroupInnerClass(kind='conjugation', s=1)"),
]


def test_wrong_answers_cover_every_check():
    assert [check for check, *_ in WRONG_ANSWERS] == [
        name.replace("-", "_") for name, _, _ in acceptance.CHECKS]


@pytest.mark.parametrize("check, name, wrong, reason", WRONG_ANSWERS,
                         ids=[entry[0] for entry in WRONG_ANSWERS])
def test_a_wrong_answer_fails_the_check(check, name, wrong, reason, monkeypatch):
    real = getattr(acceptance, name)
    monkeypatch.setattr(acceptance, name, lambda *args, **kw: wrong(real, *args, **kw))
    assert getattr(acceptance, "check_" + check)() == Verdict(False, reason)
