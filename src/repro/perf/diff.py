"""``repro bench diff``: threshold-based regression verdicts.

Compares two suite payloads metric-by-metric. The verdict rules, in
order:

1. ``abs_max`` (carried by the *new* payload) is an absolute ceiling —
   exceeding it is a regression regardless of the baseline, and for a
   metric that has no baseline yet (otherwise ``new``).
2. A **gated** metric missing from the new payload is a regression
   (coverage must not silently shrink); an ungated one is ``missing``.
3. A gated metric that is worse than the baseline by more than
   ``threshold_pct`` percent (direction taken from
   ``higher_is_better``) is a regression.
4. Anything better than the baseline by more than the threshold is
   ``improved``; everything else is ``ok``. Ungated metrics report the
   same statuses but never fail the gate.

A payload that :func:`load_payload` accepts is a payload that diffs:
the per-metric shape check is :func:`_metric_map`, run by both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, cast

__all__ = [
    "Verdict",
    "diff_payloads",
    "format_diff",
    "has_regression",
    "load_payload",
]


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison outcome."""

    name: str
    #: ``ok`` | ``regression`` | ``improved`` | ``missing`` | ``new``
    status: str
    gated: bool
    old_value: Optional[float]
    new_value: Optional[float]
    #: signed percent change in the *worse* direction (+ = worse)
    worse_pct: Optional[float]
    detail: str = ""


def load_payload(path: Path) -> Dict[str, object]:
    """Read and shape-check one suite payload; raises ``ValueError``."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"cannot read bench payload {path}: {exc}"
        ) from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: bench payload must be a JSON object")
    if not isinstance(raw.get("schema"), int):
        raise ValueError(f"{path}: missing integer 'schema' key")
    try:
        _metric_map(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return cast(Dict[str, object], raw)


def _is_real(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _metric_map(payload: Mapping[str, object]) -> Dict[str, Dict[str, object]]:
    """The per-metric shape check: every metric is an object whose
    ``value`` (and ``abs_max``, when present) is a real number."""
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("missing 'metrics' object")
    out: Dict[str, Dict[str, object]] = {}
    for name, doc in metrics.items():
        if not isinstance(doc, dict):
            raise ValueError(f"metric {name!r} is not an object")
        if not _is_real(doc.get("value")):
            raise ValueError(f"metric {name!r} has no numeric 'value'")
        if "abs_max" in doc and not _is_real(doc["abs_max"]):
            raise ValueError(f"metric {name!r} has a non-numeric 'abs_max'")
        out[str(name)] = cast(Dict[str, object], doc)
    return out


def _worse_pct(
    old_value: float, new_value: float, higher_is_better: bool
) -> float:
    delta = (
        old_value - new_value if higher_is_better else new_value - old_value
    )
    return delta / max(abs(old_value), 1e-12) * 100.0


def diff_payloads(
    old: Mapping[str, object],
    new: Mapping[str, object],
    threshold_pct: float = 25.0,
) -> List[Verdict]:
    """Per-metric verdicts over the union of both payloads' metrics."""
    old_m = _metric_map(old)
    new_m = _metric_map(new)
    verdicts: List[Verdict] = []
    for name in sorted(set(old_m) | set(new_m)):
        old_doc = old_m.get(name)
        new_doc = new_m.get(name)
        if new_doc is None:
            assert old_doc is not None
            gated = bool(old_doc.get("gated"))
            verdicts.append(
                Verdict(
                    name=name,
                    status="regression" if gated else "missing",
                    gated=gated,
                    old_value=float(cast(float, old_doc["value"])),
                    new_value=None,
                    worse_pct=None,
                    detail="metric dropped from the new payload",
                )
            )
            continue
        gated = bool(new_doc.get("gated"))
        new_value = float(cast(float, new_doc["value"]))
        abs_max = cast(Optional[float], new_doc.get("abs_max"))
        old_value: Optional[float] = None
        worse: Optional[float] = None
        if old_doc is not None:
            old_value = float(cast(float, old_doc["value"]))
            hib = bool(new_doc.get("higher_is_better"))
            worse = _worse_pct(old_value, new_value, hib)
        status, detail = "ok", ""
        if abs_max is not None and new_value > abs_max:
            status = "regression"
            detail = (
                f"value {new_value:.4g} exceeds absolute ceiling "
                f"{abs_max:.4g}"
            )
        elif worse is None:
            status, detail = "new", "no baseline yet"
        elif gated and worse > threshold_pct:
            status = "regression"
            detail = (
                f"{worse:+.1f}% worse than baseline "
                f"(threshold {threshold_pct:.0f}%)"
            )
        elif worse < -threshold_pct:
            status = "improved"
        verdicts.append(
            Verdict(
                name=name,
                status=status,
                gated=gated,
                old_value=old_value,
                new_value=new_value,
                worse_pct=worse,
                detail=detail,
            )
        )
    return verdicts


def has_regression(verdicts: List[Verdict]) -> bool:
    return any(v.status == "regression" for v in verdicts)


def format_diff(
    verdicts: List[Verdict], threshold_pct: float = 25.0
) -> str:
    """Text report: one row per metric, gate summary at the bottom."""
    lines = [f"== bench diff (gate threshold {threshold_pct:.0f}%) =="]
    name_w = max(len(v.name) for v in verdicts) if verdicts else 4
    for v in verdicts:
        old_s = f"{v.old_value:.4f}" if v.old_value is not None else "-"
        new_s = f"{v.new_value:.4f}" if v.new_value is not None else "-"
        change = (
            f"{v.worse_pct:+.1f}% worse"
            if v.worse_pct is not None and v.worse_pct >= 0
            else f"{-v.worse_pct:.1f}% better"
            if v.worse_pct is not None
            else "-"
        )
        flag = "gated" if v.gated else "     "
        row = (
            f"{v.name:<{name_w}}  {old_s:>12} -> {new_s:>12}  "
            f"{change:<14} {flag}  {v.status.upper()}"
        )
        if v.detail:
            row += f"  ({v.detail})"
        lines.append(row)
    n_reg = sum(1 for v in verdicts if v.status == "regression")
    lines.append(
        f"{n_reg} regression(s) across {len(verdicts)} metric(s)"
        if n_reg
        else f"gate clean: no regressions across {len(verdicts)} metric(s)"
    )
    return "\n".join(lines)
