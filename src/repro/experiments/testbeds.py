"""Testbed device lists for the experiments.

The paper's three testbeds (Sec. VII) map to device lists via
:data:`repro.device.registry.TESTBEDS`. Time curves are
:func:`repro.sched.costs.cached_time_curves` — the one profile cache,
re-exported here for the experiment scripts.
"""

from __future__ import annotations

from typing import Tuple

from ..device.registry import TESTBEDS, make_testbed
from ..sched.costs import cached_time_curves

__all__ = ["TESTBEDS", "make_testbed", "testbed_names", "cached_time_curves"]


def testbed_names(testbed: int) -> Tuple[str, ...]:
    """Device-model names composing a testbed (1, 2 or 3)."""
    if testbed not in TESTBEDS:
        raise KeyError(f"testbed must be one of {sorted(TESTBEDS)}")
    return TESTBEDS[testbed]
