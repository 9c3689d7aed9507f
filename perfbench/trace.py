"""Span tracing for the benchmark's traced runs.

The tracer lives entirely in the benchmark: spans are recorded by
delegating wrappers installed at the program's public seams for one
traced run, and removed when it ends. Untraced runs never import a
wrapper into the program.

One span is ``(id, parent, name, start, end, round)``; spans of one
round share its round id. They are held in flat columns in memory and
written out when the run ends. A layer's *self time* is its span's
duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.events import EngineEvent, EventBus, Listener

__all__ = [
    "Tracer",
    "TracingBus",
    "self_times",
    "installed",
]

_perf = time.perf_counter

#: span names of bus listeners, by listener class name
_LISTENER_SPANS = {
    "ObsRecorder": "obs.recorder.fold",
    "JsonlSink": "engine.telemetry.sink",
}

#: called after a wrapped call returns: (tracer, args, kwargs, result)
After = Callable[["Tracer", Tuple[Any, ...], Dict[str, Any], Any], None]


class Tracer:
    """In-memory span recorder with a call stack and named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent: List[int] = []
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.round: List[int] = []
        self._stack: List[int] = []
        #: id shared by the spans of the round in progress (0 = none)
        self.round_id = 0
        #: work counted at the same boundaries the spans sit on
        self.counts: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its id."""
        sid = len(self.parent)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.round.append(self.round_id)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(_perf())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.begin(self.name_id(name))
        try:
            yield sid
        finally:
            self.finish(sid)

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter — inside rounds only, so that counts divide
        by the timed rounds like the spans do."""
        if self.round_id:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[After] = None,
    ) -> Callable[..., Any]:
        """A delegating wrapper recording one span per call of ``fn``."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading -----------------------------------------------------------
    def self_ms(self) -> List[float]:
        """Self time of every span, milliseconds."""
        return [
            s * 1e3 for s in self_times(self.parent, self.start, self.end)
        ]

    def by_name(
        self, self_ms: Sequence[float], rounds_only: bool = True
    ) -> Dict[str, Tuple[int, float, List[float]]]:
        """``name -> (calls, total self ms, per-call durations ms)``
        given :meth:`self_ms`; ``rounds_only`` keeps the spans that
        carry a round id."""
        out: Dict[str, Tuple[int, float, List[float]]] = {}
        for sid, nid in enumerate(self.name):
            if rounds_only and self.round[sid] == 0:
                continue
            name = self.names[nid]
            calls, total, durs = out.get(name, (0, 0.0, []))
            durs.append((self.end[sid] - self.start[sid]) * 1e3)
            out[name] = (calls + 1, total + self_ms[sid], durs)
        return out

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Dump the spans as one columnar JSON document."""
        t0 = self.start[0] if self.start else 0.0
        doc: Dict[str, object] = dict(header)
        doc["names"] = self.names
        doc["counts"] = self.counts
        doc["spans"] = {
            "id": list(range(len(self.parent))),
            "parent": self.parent,
            "name": self.name,
            "start_ms": [round((s - t0) * 1e3, 6) for s in self.start],
            "end_ms": [round((e - t0) * 1e3, 6) for e in self.end],
            "round": self.round,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), in the unit of ``start``/``end``. ``parent``
    is ``-1`` for a root. Children may overlap one another."""
    children: Dict[int, List[int]] = {}
    for sid, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = [end[i] - start[i] for i in range(len(parent))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_s = run_e = lo
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if s > run_e:
                covered += run_e - run_s
                run_s, run_e = s, e
            elif e > run_e:
                run_e = e
        covered += run_e - run_s
        out[p] -= covered
    return out


class TracingBus(EventBus):
    """An :class:`EventBus` whose emits and listener calls are spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._emit_id = tracer.name_id("engine.events.emit")

    def subscribe(self, listener: Listener) -> Callable[[], None]:
        name = _LISTENER_SPANS.get(
            type(listener).__name__, "perfbench.listener"
        )
        return super().subscribe(self._tracer.wrap(name, listener))

    def emit(self, event: EngineEvent) -> None:
        tracer = self._tracer
        sid = tracer.begin(self._emit_id)
        try:
            super().emit(event)
        finally:
            tracer.finish(sid)


#: one patch: rebind ``obj.attr`` (an instance attribute or a module
#: global) to ``replacement`` for the traced run
Patch = Tuple[Any, str, Any]

_MISSING = object()


@contextmanager
def installed(patches: Sequence[Patch]) -> Iterator[None]:
    """Rebind each ``obj.attr`` for the ``with`` block, then restore
    exactly what was there: an attribute that lived on the class (a
    bound method shadowed on the instance) is un-shadowed, a module
    global gets its function back."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for obj, attr, replacement in patches:
            saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
            setattr(obj, attr, replacement)
        yield
    finally:
        for obj, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
