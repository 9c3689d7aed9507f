"""Do two result sets agree?

    python -m perfbench.agree A.json B.json

Reads two result sets written by ``perfbench/run.py`` and exits 0 only
if, on every workload, every end-to-end metric agrees within its
``BENCHMARK.json`` bound — neither side worse than the other by more
than the bound — and, when both sets ran the same seed and length,
every deterministic metric, the operation counts, ``final_accuracy``
and the ``result_digest`` are equal. Exit 1: a disagreement. Exit 2:
a result set that cannot be compared.

This is the tool behind "same code, fresh processes, same answer", and
behind any later call of *unchanged* versus *unresolved*.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .spec import DETERMINISTIC, BenchmarkSpec, load_spec

__all__ = ["compare", "main"]


def within_bound(a: float, b: float, bound: float) -> bool:
    """Neither value is worse than the other by more than ``bound`` of
    the other — for positive metrics, whichever direction is better."""
    return abs(a - b) <= bound * min(abs(a), abs(b))


def compare(
    spec: BenchmarkSpec, a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[List[str], List[str]]:
    """``(report lines, disagreements)`` for two result sets."""
    lines: List[str] = []
    bad: List[str] = []
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    if not same_inputs:
        lines.append(
            f"note: seeds/lengths differ ({a['seed']}/{a['seconds']} vs "
            f"{b['seed']}/{b['seconds']}): deterministic metrics are held "
            "to their bounds, digests are not compared"
        )
    for workload in spec.workloads:
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            bad.append(f"{workload}: missing from a result set")
            continue
        for m in spec.end_to_end:
            va, vb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            exact = same_inputs and m.name in DETERMINISTIC
            ok = va == vb if exact else within_bound(va, vb, m.bound or 0.0)
            rel = abs(va - vb) / min(abs(va), abs(vb)) if va and vb else 0.0
            limit = "equal" if exact else f"{(m.bound or 0.0) * 100:g}%"
            lines.append(
                f"{workload:<14} {m.name:<20} {va:>14.6f} {vb:>14.6f} "
                f"{rel * 100:>8.3f}%  (limit {limit})  "
                f"{'ok' if ok else 'DISAGREE'}"
            )
            if not ok:
                bad.append(f"{workload}: {m.name} {va!r} vs {vb!r}")
        if same_inputs:
            for key in ("result_digest", "attempted", "failed"):
                if wa[key] != wb[key]:
                    bad.append(f"{workload}: {key} {wa[key]!r} vs {wb[key]!r}")
            acc_a = wa["info"]["final_accuracy"]
            if acc_a != wb["info"]["final_accuracy"]:
                bad.append(f"{workload}: final_accuracy differs")
            lines.append(
                f"{workload:<14} result_digest        {wa['result_digest'][:16]}… "
                f"{'equal' if wa['result_digest'] == wb['result_digest'] else 'DIFFERENT'}"
            )
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"] or w["faults"]:
                bad.append(
                    f"{workload}: set {side} has {w['failed']} failed "
                    f"operations / {len(w['faults'])} faults"
                )
    return lines, bad


def _load(path: str) -> Optional[Dict[str, Any]]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"agree: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        print(f"agree: {path} is not a schema-1 result set", file=sys.stderr)
        return None
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = _load(args[0]), _load(args[1])
    if a is None or b is None:
        return 2
    try:
        lines, bad = compare(load_spec(), a, b)
    except (KeyError, TypeError) as exc:
        print(f"agree: malformed result set: {exc!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if bad:
        print(f"agree: {len(bad)} disagreement(s)")
        for item in bad:
            print(f"  {item}")
        return 1
    print("agree: the two result sets agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
