"""The benchmark's declared vocabulary, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single place that
names the workloads, the end-to-end metrics with their units,
directions and bounds, and the per-layer metrics. Everything here is
derived from it, so a name cannot drift between the file the driver
reads and what the benchmark prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ROOT",
    "OUT_DIR",
    "MetricSpec",
    "BenchmarkSpec",
    "load_spec",
    "DETERMINISTIC",
    "INFO_METRICS",
]

#: the checkout root (``perfbench/`` sits directly under it)
ROOT = Path(__file__).resolve().parent.parent
#: where result sets and trace files go (git-ignored)
OUT_DIR = ROOT / "perfbench" / "out"

#: end-to-end metrics that are pure functions of ``--seed``: two runs at
#: one seed must agree on them exactly, not just within the bound
DETERMINISTIC: Tuple[str, ...] = ("virtual_makespan_s", "virtual_energy_j")

#: printed and stored beside the end-to-end metrics but not declared in
#: ``BENCHMARK.json`` (see README "What the contract could not carry"):
#: name -> unit
INFO_METRICS: Dict[str, str] = {
    "failed_ops_pct": "%",
    "req_cost_per_k": "yd",
    "final_accuracy": "fraction",
}


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    #: share of the parent's value an end-to-end metric may worsen by
    #: (``None`` for per-layer metrics, which carry no bound)
    bound: Optional[float] = None


@dataclass(frozen=True)
class BenchmarkSpec:
    run_seconds: int
    workloads: Tuple[str, ...]
    end_to_end: Tuple[MetricSpec, ...]
    per_layer: Tuple[MetricSpec, ...]

    def with_units(
        self, values: Dict[str, float], metrics: Tuple[MetricSpec, ...]
    ) -> Dict[str, Dict[str, object]]:
        """The result line's ``metrics`` object — exactly the declared
        names, so a metric added in code but not in ``BENCHMARK.json``
        (or the reverse) fails here, not in the driver."""
        declared = [m.name for m in metrics]
        if sorted(values) != sorted(declared):
            missing = sorted(set(declared) - set(values))
            extra = sorted(set(values) - set(declared))
            raise KeyError(
                f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}"
            )
        return {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics
        }


def _metrics(rows: List[Dict[str, object]]) -> Tuple[MetricSpec, ...]:
    return tuple(
        MetricSpec(
            name=str(r["name"]),
            unit=str(r["unit"]),
            better=str(r["better"]),
            bound=float(r["bound"]) if "bound" in r else None,  # type: ignore[arg-type]
        )
        for r in rows
    )


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> BenchmarkSpec:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return BenchmarkSpec(
        run_seconds=int(doc["run_seconds"]),
        workloads=tuple(str(w["name"]) for w in doc["workloads"]),
        end_to_end=_metrics(doc["end_to_end"]),
        per_layer=_metrics(doc["per_layer"]),
    )
