"""Hierarchical phase profiler for the host-time hot paths.

Like :mod:`repro.serve.clock`, this module is a *sanctioned* time seam:
phases measure **host** cost with ``time.perf_counter`` (the monotonic
duration clock the ``no-wall-clock`` lint rule explicitly permits) and
never touch the simulation's virtual clock, so profiling an engine run
cannot perturb its physics or its telemetry timestamps.

Call sites hold the module-level :data:`PROFILER` and wrap their hot
sections::

    from ..obs.prof import PROFILER

    with PROFILER.phase("solve"):
        assignment = scheduler.schedule(instance)

Design constraints, in order:

* **Near-zero cost when disabled.** ``phase()`` on a disabled profiler
  is one attribute check plus returning a cached no-op context manager
  — no allocation, no clock read. The gated ``profiler_overhead_pct``
  metric of ``repro bench suite`` pins the end-to-end engine cost of
  the disabled instrumentation under 1%.
* **Hierarchical.** Phases nest: entering ``"fold"`` while ``"round"``
  and ``"dispatch"`` are open records the path ``round/dispatch/fold``.
  Stats aggregate per *path*, so the same leaf name in different
  contexts stays distinguishable.
* **Exception-safe.** The phase stack unwinds in ``__exit__`` whether
  the body returned or raised; a raising phase still records its
  duration and the profiler is immediately reusable.
* **Deterministic exports.** :func:`render_profile` /
  :func:`profile_payload` order phases by path; sample order is
  call order. Only the measured durations vary between runs.

Phase *names* are part of the observable surface: every literal name
used in ``src`` must appear in the phase table of
``docs/observability.md`` (enforced by the ``bench-payload-schema``
lint rule), and each completed phase can be folded into the
``repro_prof_phase_seconds`` histogram via :func:`fold_profile`.

The profiler is single-threaded by design (the engine is synchronous
and the serve control plane is a single asyncio loop); do not share
one instance across threads. Avoid holding a phase open across an
``await`` — interleaved tasks would corrupt the path stack.
"""

from __future__ import annotations

import re
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from .metrics import MetricRegistry

__all__ = [
    "PhaseHandle",
    "PhaseSample",
    "PhaseStats",
    "PhaseProfiler",
    "PROFILER",
    "fold_profile",
    "profile_payload",
    "render_profile",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: (path string, seconds) callback fired on every completed phase
PhaseObserver = Callable[[str, float], None]


class PhaseHandle:
    """Context-manager interface both phase shapes share."""

    __slots__ = ()

    def __enter__(self) -> "PhaseHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class _NullPhase(PhaseHandle):
    """The cached do-nothing phase a disabled profiler hands out."""

    __slots__ = ()


_NULL_PHASE = _NullPhase()


class _Timer(PhaseHandle):
    """A live phase: pushes its name, times the body, records on exit."""

    __slots__ = ("_prof", "_name", "_t0")

    def __init__(self, prof: "PhaseProfiler", name: str) -> None:
        self._prof = prof
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._prof._stack.append(self._name)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        prof = self._prof
        prof._record(self._t0, end - self._t0)
        prof._stack.pop()
        return None


class PhaseStats:
    """Aggregate statistics for one phase path."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, dur_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        if dur_s < self.min_s:
            self.min_s = dur_s
        if dur_s > self.max_s:
            self.max_s = dur_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class PhaseSample:
    """One completed phase occurrence (for counter tracks / folds)."""

    __slots__ = ("path", "start_s", "dur_s")

    def __init__(self, path: str, start_s: float, dur_s: float) -> None:
        #: ``/``-joined phase path, e.g. ``"round/dispatch/fold"``
        self.path = path
        #: start offset in host seconds since the last :meth:`reset`
        self.start_s = start_s
        self.dur_s = dur_s


class PhaseProfiler:
    """Aggregates nested ``perf_counter`` phases; off by default.

    Parameters
    ----------
    enabled:
        Start measuring immediately (default off — production runs pay
        only the disabled fast path).
    max_samples:
        Per-occurrence sample retention cap; beyond it aggregates keep
        accumulating but :attr:`samples` stops growing (the overflow is
        counted in :attr:`dropped_samples`).
    """

    def __init__(
        self, enabled: bool = False, max_samples: int = 100_000
    ) -> None:
        self.enabled = enabled
        self.max_samples = max_samples
        self.stats: Dict[Tuple[str, ...], PhaseStats] = {}
        self.samples: List[PhaseSample] = []
        self.dropped_samples = 0
        #: optional (path, seconds) hook fired per completed phase
        self.observer: Optional[PhaseObserver] = None
        self._stack: List[str] = []
        self._epoch = perf_counter()

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        """Start measuring (existing data is kept; see :meth:`reset`)."""
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data and restart the sample epoch."""
        self.stats = {}
        self.samples = []
        self.dropped_samples = 0
        self._stack = []
        self._epoch = perf_counter()

    # -- measurement -------------------------------------------------------
    def phase(self, name: str) -> PhaseHandle:
        """A context manager timing one occurrence of ``name``.

        Disabled: returns a cached no-op (the hot-path fast exit).
        """
        if not self.enabled:
            return _NULL_PHASE
        if not _NAME_RE.match(name):
            raise ValueError(
                f"phase name {name!r} must match {_NAME_RE.pattern}"
            )
        return _Timer(self, name)

    def _record(self, t0: float, dur_s: float) -> None:
        path = tuple(self._stack)
        stats = self.stats.get(path)
        if stats is None:
            stats = self.stats[path] = PhaseStats()
        stats.add(dur_s)
        path_str = "/".join(path)
        if len(self.samples) < self.max_samples:
            self.samples.append(
                PhaseSample(path_str, t0 - self._epoch, dur_s)
            )
        else:
            self.dropped_samples += 1
        if self.observer is not None:
            self.observer(path_str, dur_s)

    @property
    def depth(self) -> int:
        """How many phases are currently open."""
        return len(self._stack)

    def total_count(self) -> int:
        """Completed phase occurrences across every path."""
        return sum(s.count for s in self.stats.values())


#: the process-wide profiler every instrumented hot path consults
PROFILER = PhaseProfiler()


def profile_payload(profiler: PhaseProfiler) -> Dict[str, object]:
    """JSON-able summary: schema-versioned, phases ordered by path."""
    phases = []
    for path in sorted(profiler.stats):
        stats = profiler.stats[path]
        phases.append(
            {
                "path": "/".join(path),
                "count": stats.count,
                "total_s": stats.total_s,
                "mean_s": stats.mean_s,
                "min_s": stats.min_s,
                "max_s": stats.max_s,
            }
        )
    return {
        "schema": 1,
        "phases": phases,
        "dropped_samples": profiler.dropped_samples,
    }


def render_profile(profiler: PhaseProfiler) -> str:
    """Deterministic text tree: one row per path, sorted, indented."""
    lines = ["== phase profile (host ms, perf_counter) =="]
    if not profiler.stats:
        lines.append("(no phases recorded — was the profiler enabled?)")
        return "\n".join(lines) + "\n"
    header = (
        f"{'phase':32s} {'count':>7s} {'total':>10s} "
        f"{'mean':>10s} {'max':>10s}"
    )
    lines.append(header)
    for path in sorted(profiler.stats):
        stats = profiler.stats[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:32s} {stats.count:7d} "
            f"{stats.total_s * 1e3:10.3f} "
            f"{stats.mean_s * 1e3:10.3f} "
            f"{stats.max_s * 1e3:10.3f}"
        )
    if profiler.dropped_samples:
        lines.append(
            f"({profiler.dropped_samples} sample(s) beyond the "
            "retention cap; aggregates above are complete)"
        )
    return "\n".join(lines) + "\n"


def fold_profile(
    profiler: PhaseProfiler,
    registry: "MetricRegistry",
    start: int = 0,
) -> int:
    """Observe samples ``[start:]`` into ``repro_prof_phase_seconds``.

    Returns the new cursor (``len(profiler.samples)``) so a repeatedly
    scraped surface (the serve ``/metrics`` handler) folds each sample
    exactly once instead of double-counting on every scrape.
    """
    from .catalog import PROF_PHASE_SECONDS

    hist = registry.histogram(PROF_PHASE_SECONDS)
    samples = profiler.samples
    for sample in samples[start:]:
        hist.observe(sample.dur_s, phase=sample.path)
    return len(samples)
