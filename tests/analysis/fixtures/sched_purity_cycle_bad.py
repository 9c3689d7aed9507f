"""Bad: two registered schedulers whose helpers call each other.

``_tally`` (First's helper) appends to a module global and calls
``_settle`` (Second's helper), which calls ``_tally`` back: both
``schedule`` methods reach the write, so both must be refused the
purity certificate — whichever scheduler the rule happens to check
first. A summary memoised under a cycle cut-off certified the second
one pure. (Copied into a mini repo as ``src/repro/sched/impls.py`` by
the impure-scheduler tests, in both class orders.)
"""

from .base import Assignment, Scheduler
from .registry import register

LEDGER = []


def _tally(n):
    LEDGER.append(n)
    return _settle(n)


def _settle(n):
    return _tally(n - 1) if n else 0


@register("first")
class First(Scheduler):
    def schedule(self, problem) -> Assignment:
        _tally(1)
        return Assignment()


@register("second")
class Second(Scheduler):
    def schedule(self, problem) -> Assignment:
        _settle(1)
        return Assignment()
