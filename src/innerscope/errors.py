"""The one error hierarchy, and the one verdict type of every check.

Every exception raised on purpose inside innerscope derives from exactly
one of three roots, and the command line maps each root to one exit code:

* ValidationFailure: the input is unusable (exit 2).
* BudgetExceeded: a search would run past its budget or cannot run at
  all, e.g. an enumeration over QQ (exit 1).
* InternalError: two routes disagreed or a proved fact failed to hold;
  the code is wrong, not the data (exit 3).

Every exception class of the package is defined here.  Only InternalError
is refined, by InconsistentRoutes and TheoremViolation, because the exit-3
line names the class; a ValidationFailure or BudgetExceeded is told apart
by its message alone.  Every check, library or acceptance, returns a
Verdict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


class ValidationFailure(ValueError):
    """The input cannot be used: wrong shape, wrong field, failed axiom."""


class BudgetExceeded(RuntimeError):
    """A search would exceed its budget, or has no finite search space."""


class InternalError(AssertionError):
    """Two independent routes disagreed, or a certified consequence failed."""


class InconsistentRoutes(InternalError):
    """Two supposedly equivalent computations disagreed: implementation bug."""


class TheoremViolation(InternalError):
    """A consequence the mathematics guarantees did not hold."""


@dataclass(frozen=True)
class Verdict:
    """Any check's outcome, library or acceptance: pass or fail, why, and what was measured."""

    passed: bool
    reason: str | None = None
    details: dict | None = None


@contextmanager
def reading(what: str):
    """Report decoded JSON of the wrong shape, met while building `what`.

    Loaders index, iterate and compare their input as if it had the
    documented shape; a KeyError, IndexError, TypeError or AttributeError
    on the way means it did not, and becomes a ValidationFailure.
    """
    try:
        yield
    except KeyError as exc:
        raise ValidationFailure("%s: missing key %r" % (what, exc.args[0])) from None
    except (IndexError, TypeError, AttributeError) as exc:
        raise ValidationFailure("%s: malformed input (%s)" % (what, exc)) from None
