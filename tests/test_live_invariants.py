"""Registry and event-taxonomy invariants, read off the live objects.

One fresh interpreter imports the program and reports, per invariant, what
breaks it: it holds no scheduler or metric another test registered in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import dataclasses, inspect, json, pathlib, pkgutil, re, sys
import repro.obs, repro.sched.bench
from repro.engine import events
from repro.obs.metrics import available_metrics
from repro.obs.recorder import ObsRecorder
from repro.obs.spans import SpanBuilder
from repro.sched.base import Assignment
from repro.sched.registry import available_schedulers, scheduler_class
seen_by_bench = set(available_schedulers())
for mod in pkgutil.walk_packages(repro.sched.__path__, "repro.sched."):
    __import__(mod.name)
names = available_schedulers()
read = lambda glob: "".join(p.read_text(encoding="utf-8")
                            for p in pathlib.Path(sys.argv[1]).glob(glob))
readme, tests, obs_doc = map(read, ("README.md", "tests/sched/*.py", "docs/observability.md"))
kinds = set(events.EVENT_TYPES)
defined = {c for c in vars(events).values() if isinstance(c, type)
           and issubclass(c, events.EngineEvent)
           and c.__module__ == events.__name__} - {events.EngineEvent}
def breaks_contract(cls):
    sig = inspect.signature(cls.schedule)
    try:
        sig.bind(None, None)
    except TypeError:
        return f"{cls.__name__}.schedule{sig} is not (self, problem)"
    if sig.return_annotation not in (sig.empty, Assignment, "Assignment"):
        return f"{cls.__name__}.schedule{sig} does not return Assignment"
print(json.dumps({
    "recorder": sorted(kinds ^ set(ObsRecorder._HANDLERS)),
    "taxonomy": sorted(c.__name__ for c in defined ^ {*events.EVENT_TYPES.values()}),
    "kind": [c.__name__ for c in events.EVENT_TYPES.values()
             if not isinstance(vars(c).get("kind"), str)
             or "kind" in {f.name for f in dataclasses.fields(c)}],
    "dispatch": sorted({*SpanBuilder._HANDLERS, *SpanBuilder._COLUMN_HANDLERS,
                        *ObsRecorder._COLUMN_HANDLERS} - kinds),
    "closure": sorted(set(names) - seen_by_bench),
    "readme": [n for n in names if f"`{n}`" not in readme],
    "tested": [n for n in names if not re.search(f"[\"']{re.escape(n)}[\"']", tests)],
    "contract": [e for e in map(breaks_contract, map(scheduler_class, names)) if e],
    "metrics": [m for m in available_metrics() if f"`{m}`" not in obs_doc],
}))
"""


def run_probe(probe: str, *args: str, **env: str) -> str:
    """Stdout of ``probe`` run in a fresh interpreter on the repo's source,
    with ``env`` added to the environment."""
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def broken():
    return json.loads(run_probe(PROBE, str(ROOT)))


@pytest.mark.parametrize("invariant", [
    "recorder",  # ObsRecorder._HANDLERS covers exactly EVENT_TYPES
    "taxonomy",  # EVENT_TYPES is every EngineEvent class in events.py
    "kind",  # each declares its own str kind, a class variable, not a field
    "dispatch",  # span and column tables name only declared kinds
    "closure",  # repro.sched.bench sees every scheduler repro.sched has
    "readme",  # each scheduler has a `name` row in README.md
    "tested",  # ... and is named, quoted, in some tests/sched module
    "contract",  # schedule(self, problem), extras defaulted, -> Assignment
    "metrics",  # each metric is `name`d in docs/observability.md
])
def test_live_invariant_holds(broken, invariant):
    assert broken[invariant] == []
