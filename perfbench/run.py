"""perfbench: the repository's benchmark, one command.

    python3 perfbench/run.py
        every workload — untraced runs (end-to-end metrics), then one
        traced run each (per-layer metrics) — printed by name with
        units, checked, and written to perfbench/out/results.json

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of standard output is one JSON
        object {"correct", "attempted", "failed", "metrics"} holding the
        end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)

Every measured run happens in a fresh child process (so the peak RSS is
that workload's alone) with BLAS pinned to one thread. Exits non-zero
when an output check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# run as a script, sys.path[0] is perfbench/ itself: the package and
# the program it measures are found from the checkout root
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.spec import (  # noqa: E402 - after the sys.path set-up
    INFO_METRICS,
    OUT_DIR,
    BenchmarkSpec,
    load_spec,
)

#: extra set-up-only children per untraced run; ``setup_s`` is the
#: median over these and the measuring child's own set-up
SETUP_PROBES = 4

#: OpenBLAS's default pool on two cores makes training 30–50 % slower
#: and noisier; the harness pins every BLAS to one thread
_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CHILD_TIMEOUT_S = 170


# -- child side ----------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    import repro  # noqa: F401 - set-up time is counted from after this

    t_entry = time.perf_counter()
    from perfbench import harness
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    if args.child == "setup":
        doc = harness.setup_only(spec.live(args.seed), t_entry)
    else:
        tracer = Tracer() if args.child == "traced" else None
        doc = harness.measure(
            spec.live(args.seed, tracer),
            harness.rounds_for(spec.rounds, args.seconds),
            t_entry,
            untraced_p50=args.untraced_p50,
        )
        if tracer is not None:
            doc["trace_file"] = harness.write_trace(
                tracer, args.workload, args.seed, doc
            )
    print(json.dumps(doc))
    return 0


# -- parent side ---------------------------------------------------------------


def _spawn(kind: str, args: argparse.Namespace, **extra: Any) -> Dict[str, Any]:
    """Run one child to completion and return the document it printed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", kind,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", repr(value)]
    done = subprocess.run(
        cmd,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{kind} child of {args.workload} exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _failed_pct(doc: Dict[str, Any]) -> float:
    return 100.0 * doc["failed"] / max(doc["attempted"], 1)


def _correct(doc: Dict[str, Any]) -> bool:
    return doc["failed"] == 0 and not doc["faults"]


def run_untraced(args: argparse.Namespace) -> Dict[str, Any]:
    """The measuring child plus the set-up probes."""
    doc = _spawn("untraced", args)
    probes = [doc] + [_spawn("setup", args) for _ in range(SETUP_PROBES)]
    doc["setup_samples_s"] = [p["setup_s"] for p in probes]
    doc["setup_s"] = statistics.median(doc["setup_samples_s"])
    doc["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in probes)
    return doc


def run_traced(
    args: argparse.Namespace, untraced: Dict[str, Any]
) -> Dict[str, Any]:
    return _spawn(
        "traced", args, untraced_p50=untraced["round_cost_p50"]
    )


def _print_untraced(
    spec: BenchmarkSpec, workload: str, doc: Dict[str, Any]
) -> None:
    print(f"== {workload}: end to end ({doc['rounds']} timed rounds) ==")
    for m in spec.end_to_end:
        note = ""
        if m.name == "round_cost_p50":
            note = f"   [{doc['round_ms_p50']:.3f} ms]"
        elif m.name == "round_cost_p90":
            note = (
                f"   [{doc['round_ms_p90']:.3f} ms; {doc['rounds']} samples, "
                f"highest percentile they support: "
                f"p{doc['highest_percentile']:g}]"
            )
        elif m.name == "setup_s":
            note = (
                f"   [{doc['setup_wall_s']:.3f} s on this host; median of "
                f"{len(doc['setup_samples_s'])} set-ups]"
            )
        print(f"{m.name:<22} {doc[m.name]:>16.6f} {m.unit:<9}{note}")
    # not declared in BENCHMARK.json: see README
    if doc["req_cost_per_k"] is not None:
        print(
            f"{'req_cost_per_k':<22} {doc['req_cost_per_k']:>16.6f} "
            f"{INFO_METRICS['req_cost_per_k']:<9}"
            f"   [{doc['req_ms_per_k']:.3f} ms per 1000 requests]"
        )
    if doc["final_accuracy"] is not None:
        print(
            f"{'final_accuracy':<22} {doc['final_accuracy']:>16.6f} "
            f"{INFO_METRICS['final_accuracy']:<9}"
        )
    print(
        f"{'failed_ops_pct':<22} {_failed_pct(doc):>16.6f} "
        f"{INFO_METRICS['failed_ops_pct']:<9}"
        f"   [{doc['failed']} failed of {doc['attempted']} attempted]"
    )
    print(f"{'result_digest':<22} {doc['result_digest']}")
    print(
        f"{'yardstick':<22} {doc['yardstick_ms_p50']:>16.6f} ms       "
        f"   [drift {doc['yardstick_drift_pct']:.2f} % over the run]"
    )
    for fault in doc["faults"]:
        print(f"FAULT {fault}")


def _print_traced(
    spec: BenchmarkSpec, workload: str, doc: Dict[str, Any]
) -> None:
    print(f"== {workload}: per layer (traced, {doc['rounds']} rounds) ==")
    for m in spec.per_layer:
        print(f"{m.name:<36} {doc['per_layer'][m.name]:>16.6f} {m.unit}")
    print(f"{'trace file':<36} {doc['trace_file']}")
    for fault in doc["faults"]:
        print(f"FAULT {fault}")


def _result_line(
    doc: Dict[str, Any], metrics: Dict[str, Dict[str, object]]
) -> str:
    return json.dumps(
        {
            "correct": _correct(doc),
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": metrics,
        }
    )


def _stored(
    spec: BenchmarkSpec,
    untraced: Dict[str, Any],
    traced: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """One workload's entry in a result set (what ``agree`` reads)."""
    entry: Dict[str, Any] = {
        "rounds": untraced["rounds"],
        "end_to_end": {m.name: untraced[m.name] for m in spec.end_to_end},
        "info": {
            "failed_ops_pct": _failed_pct(untraced),
            "req_cost_per_k": untraced["req_cost_per_k"],
            "final_accuracy": untraced["final_accuracy"],
        },
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "faults": untraced["faults"],
        "result_digest": untraced["result_digest"],
        "raw": untraced["raw"],
    }
    if traced is not None:
        entry["per_layer"] = traced["per_layer"]
        entry["traced_result_digest"] = traced["result_digest"]
        entry["faults"] = untraced["faults"] + traced["faults"]
    return entry


def _write_results(
    path: Path, args: argparse.Namespace, entries: Dict[str, Any]
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": entries,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _one_workload(args: argparse.Namespace, spec: BenchmarkSpec) -> int:
    if args.trace == 0:
        doc = untraced = run_untraced(args)
        traced = None
        _print_untraced(spec, args.workload, untraced)
        values = {m.name: untraced[m.name] for m in spec.end_to_end}
        metrics = spec.with_units(values, spec.end_to_end)
    else:
        # the traced run's overhead is read against an untraced run of
        # the same code, minutes apart at most; no set-up probes needed
        untraced = _spawn("untraced", args)
        doc = traced = run_traced(args, untraced)
        _print_traced(spec, args.workload, traced)
        metrics = spec.with_units(traced["per_layer"], spec.per_layer)
    out = args.out or OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    _write_results(
        Path(out), args, {args.workload: _stored(spec, untraced, traced)}
    )
    print(_result_line(doc, metrics))
    return 0 if _correct(doc) else 1


def _all_workloads(args: argparse.Namespace, spec: BenchmarkSpec) -> int:
    entries: Dict[str, Any] = {}
    bad: List[str] = []
    for workload in spec.workloads:
        args.workload = workload
        untraced = run_untraced(args)
        _print_untraced(spec, workload, untraced)
        traced = run_traced(args, untraced)
        spec.with_units(traced["per_layer"], spec.per_layer)
        _print_traced(spec, workload, traced)
        print()
        entries[workload] = _stored(spec, untraced, traced)
        if not (_correct(untraced) and _correct(traced)):
            bad.append(workload)
    out = Path(args.out or OUT_DIR / "results.json")
    _write_results(out, args, entries)
    print(f"result set written to {out}")
    if bad:
        print(f"perfbench: output checks FAILED on {', '.join(bad)}")
        return 1
    print("perfbench: every output check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program to measure — src/repro is not in "
            f"this checkout ({ROOT})",
            file=sys.stderr,
        )
        return 2
    # before anything imports NumPy, and inherited by every child
    for name in _PINNED:
        os.environ[name] = "1"
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=spec.workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.run_seconds),
        help="sizes the run: the timed round count is scaled from the "
        "10 s the workloads were sized for (never below 100 rounds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the result set")
    parser.add_argument(
        "--child", choices=("untraced", "traced", "setup"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--untraced-p50", type=float, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.child is not None:
        return _child(args)
    if args.workload is None:
        return _all_workloads(args, spec)
    return _one_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
