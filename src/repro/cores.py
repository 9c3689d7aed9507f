"""How many cores this process may run on, and which threads a fork
may leave behind.

One definition for every layer that spreads work over the host: the
columnar fleet's population passes (``repro.fleet.store._POOL_SIZE``)
and the synchronous round's local SGD
(``repro.engine.engine._TRAIN_PROCS``). It imports nothing of the
package, so the engine can use it without loading ``repro.fleet``.
"""

from __future__ import annotations

import os
import threading
import weakref

__all__ = ["fork_safe", "mark_fork_safe", "usable_cores"]

#: the live threads :func:`mark_fork_safe` registered
_FORK_SAFE: "weakref.WeakSet[threading.Thread]" = weakref.WeakSet()


def usable_cores() -> int:
    """The cores in this process's CPU affinity mask (so ``taskset`` and
    cgroup cpusets count), or every core off Linux."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


def mark_fork_safe() -> None:
    """Register the calling thread as one a fork may leave behind.

    A forked child gets none of the parent's other threads, and of any
    lock one of them holds only the locked copy. That is harmless for a
    pool worker whose pool waits for every task it is handed before the
    call that handed it returns, and that no child uses: between such
    calls the worker only waits on its pool's queue, and whatever it
    holds belongs to a pool the child never touches. The fleet's
    population passes are such a pool (``repro.fleet.store._pool``,
    keyed by pid); this is its workers' ``initializer``.
    """
    _FORK_SAFE.add(threading.current_thread())


def fork_safe() -> bool:
    """Whether every live thread but the caller's was registered by
    :func:`mark_fork_safe`, so the caller may fork."""
    caller = threading.current_thread()
    return all(
        thread is caller or thread in _FORK_SAFE
        for thread in threading.enumerate()
    )
