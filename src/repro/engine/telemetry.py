"""The engine's records and the JSONL file format of its event stream.

* :class:`JsonlSink` — an :class:`~repro.engine.events.EventBus`
  listener that appends every event as one JSON line (the
  ``repro run … --telemetry out.jsonl`` format; a column batch as the
  lines of its rows); :func:`read_jsonl` /
  :func:`read_jsonl_meta` parse such a file back, tolerating a
  truncated tail.
* :class:`RoundRecord` / :class:`ConvergenceHistory` — what the sync
  round returns and accumulates (``repro.federated`` re-exports them):
  the in-memory view the paper-facing experiments consume and the
  reference the stream is tested against — per-round makespans in the
  stream must equal the history's makespans.

Folding the stream into per-round and per-client rows is
:class:`repro.obs.ObsRecorder`'s job and nobody else's; capture a whole
process with :func:`repro.obs.record_telemetry`, one engine with
:func:`repro.obs.observe_engine`.

JSON-lines schema: every line is ``{"event": <kind>, ...}`` where the
remaining keys are the fields of the corresponding event dataclass in
:mod:`repro.engine.events`, which owns the encoding and the decoding
(``to_dict`` / ``to_jsonl`` / ``event_from_dict``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import IO, ClassVar, Dict, List, Optional, Union

import numpy as np

from .events import META_KIND, EngineEvent, EventColumns

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "RoundRecord",
    "ConvergenceHistory",
    "JsonlSink",
    "TelemetryRead",
    "read_jsonl",
    "read_jsonl_meta",
]

#: version of the JSONL event schema; bumped whenever an event dataclass
#: gains/loses fields. v2 added ClientFinished.energy_j/.battery_soc
#: and the solver's host milliseconds on ScheduleComputed; v3 added the
#: CohortAccounted event (fleet-scale aggregate accounting); v4 added
#: the DeviceJoined / DeviceLost membership events (control-plane churn,
#: service-clock stamped); v5 dropped the solver's host milliseconds
#: again, so no event field carries host time.
TELEMETRY_SCHEMA_VERSION = 5


@dataclass
class RoundRecord:
    """Everything recorded about one synchronous FL round."""

    round_idx: int
    makespan_s: float
    mean_time_s: float
    accuracy: Optional[float]
    participant_count: int
    per_user_time_s: np.ndarray


@dataclass
class ConvergenceHistory:
    """Accumulated per-round records of an FL run."""

    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def total_time_s(self) -> float:
        """Wall-clock (virtual) time of the whole run: rounds are
        synchronous, so their makespans add up — left to right, not by
        ``sum``, which compensates from 3.12."""
        makespans = (r.makespan_s for r in self.records)
        return float(reduce(add, makespans, 0.0))

    @property
    def final_accuracy(self) -> Optional[float]:
        for r in reversed(self.records):
            if r.accuracy is not None:
                return r.accuracy
        return None

    def accuracies(self) -> List[float]:
        return [r.accuracy for r in self.records if r.accuracy is not None]

    def makespans(self) -> List[float]:
        return [r.makespan_s for r in self.records]

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the per-round records as CSV for external analysis."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "round",
                    "makespan_s",
                    "mean_time_s",
                    "participants",
                    "accuracy",
                ]
            )
            for r in self.records:
                writer.writerow(
                    [
                        r.round_idx,
                        f"{r.makespan_s:.3f}",
                        f"{r.mean_time_s:.3f}",
                        r.participant_count,
                        "" if r.accuracy is None else f"{r.accuracy:.4f}",
                    ]
                )


class JsonlSink:
    """Stream events to a JSON-lines file (one event per line).

    The first line written is a ``telemetry_meta`` header carrying the
    schema version, so readers can detect which event fields to expect
    without sniffing; it is not counted in :attr:`n_events`.

    Every call is one ``write`` and one ``flush`` — of one line for a
    row event, of its rows' lines for a column batch (which counts as
    that many events). Nothing is held back between calls, so a run
    dying mid-round leaves whole lines behind, never a truncated one.
    """

    #: :meth:`EventBus.emit` hands column batches over whole
    accepts_columns: ClassVar[bool] = True

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            parent = Path(target).parent
            if not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.n_events = 0
        self._fh.write(
            json.dumps(
                {
                    "event": META_KIND,
                    "schema_version": TELEMETRY_SCHEMA_VERSION,
                }
            )
            + "\n"
        )
        self._fh.flush()

    def __call__(self, event: Union[EngineEvent, EventColumns]) -> None:
        self._fh.write(event.to_jsonl())
        # flush per call: a run dying mid-round must never leave a
        # truncated (unparseable) trailing record behind
        self._fh.flush()
        self.n_events += len(event) if isinstance(event, EventColumns) else 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class TelemetryRead:
    """Outcome of parsing a telemetry JSONL file.

    ``events`` excludes the ``telemetry_meta`` header (surfaced as
    ``schema_version`` instead); ``corrupt_lines`` counts lines that
    did not parse as JSON objects — typically one truncated trailing
    line from a run that died mid-write.
    """

    events: List[Dict[str, object]]
    corrupt_lines: int = 0
    schema_version: Optional[int] = None


def read_jsonl_meta(path: Union[str, Path]) -> TelemetryRead:
    """Parse a telemetry JSONL file, tolerating corrupt lines.

    A run killed mid-write can leave a truncated trailing line; a
    reader that raises on it loses the entire capture, so corrupt or
    non-object lines are skipped and counted instead.
    """
    events: List[Dict[str, object]] = []
    corrupt = 0
    schema_version: Optional[int] = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(parsed, dict):
                corrupt += 1
                continue
            if parsed.get("event") == META_KIND:
                version = parsed.get("schema_version")
                if isinstance(version, int):
                    schema_version = version
                continue
            events.append(parsed)
    return TelemetryRead(
        events=events,
        corrupt_lines=corrupt,
        schema_version=schema_version,
    )


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a telemetry JSON-lines file back into event dicts.

    Corrupt/truncated lines and the ``telemetry_meta`` header are
    skipped; use :func:`read_jsonl_meta` when you need them reported.
    """
    return read_jsonl_meta(path).events
