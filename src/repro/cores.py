"""How many cores this process may run on.

One definition for every layer that spreads work over the host: the
columnar fleet's population passes (``repro.fleet.store._POOL_SIZE``)
and the synchronous round's local SGD
(``repro.engine.engine._TRAIN_PROCS``). It imports nothing of the
package, so the engine can use it without loading ``repro.fleet``.
"""

from __future__ import annotations

import os

__all__ = ["usable_cores"]


def usable_cores() -> int:
    """The cores in this process's CPU affinity mask (so ``taskset`` and
    cgroup cpusets count), or every core off Linux."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1
