"""The one error hierarchy: every exception class has exactly one root, and
all of them are defined in innerscope.errors."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import innerscope
from innerscope import acceptance, errors, rewrite, tensoralg
from innerscope.errors import (
    BudgetExceeded,
    InconsistentRoutes,
    InternalError,
    TheoremViolation,
    ValidationFailure,
)
from innerscope.exactmath import QQ

ROOTS = (ValidationFailure, BudgetExceeded, InternalError)


def _exception_classes():
    for info in pkgutil.iter_modules(innerscope.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("innerscope." + info.name)
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_exception_class_has_exactly_one_root():
    classes = list(_exception_classes())
    assert len(classes) >= len(ROOTS)
    for cls in classes:
        assert sum(issubclass(cls, root) for root in ROOTS) == 1, cls


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_exception_class_is_defined_in_errors():
    # every module imported, the classes are found wherever they are
    # defined, nested in a function or a class included
    list(_exception_classes())
    ours = {cls for cls in _subclasses(BaseException) if cls.__module__.startswith("innerscope")}
    assert ours == {ValidationFailure, BudgetExceeded, InternalError,
                    InconsistentRoutes, TheoremViolation}
    assert {cls.__module__ for cls in ours} == {"innerscope.errors"}


def test_modules_share_the_roots_and_the_verdict():
    for module in (tensoralg, rewrite):
        assert module.ValidationFailure is errors.ValidationFailure
        assert module.BudgetExceeded is errors.BudgetExceeded
    for module in (tensoralg, rewrite, acceptance):
        assert module.Verdict is errors.Verdict


def test_a_verdict_is_frozen():
    verdict = errors.Verdict(False, "unit-sum")
    assert (verdict.passed, verdict.reason, verdict.details) == (False, "unit-sum", None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.passed = True


def test_one_budget_class_catches_every_module():
    rs = rewrite.leavitt_system(2, QQ)
    with pytest.raises(tensoralg.BudgetExceeded):
        rewrite.scalar_unit_search(rs, degree_cap=2, budget=100)


def test_wrong_shape_becomes_a_validation_failure():
    with pytest.raises(ValidationFailure, match="missing key 'rules'"):
        rewrite.RewriteSystem.from_json({"field": {"char": 0}, "generators": ["x"]})
    with pytest.raises(ValidationFailure, match="malformed"):
        tensoralg.StructAlgebra.from_json({"dim": 1, "field": {"char": 2},
                                           "structure": 5, "unit": [1]})
