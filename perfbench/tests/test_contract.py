"""``BENCHMARK.json`` against the driver's contract, and against what
the benchmark prints."""

import json
import re

from perfbench import run
from perfbench.spec import INFO_METRICS, ROOT, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

DOC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = load_spec()


def test_top_level_keys_and_limits():
    assert sorted(DOC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"]
    )
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    assert 1 <= len(DOC["command"]) <= 32
    assert all(len(part) <= 200 for part in DOC["command"])
    assert 1 <= len(DOC["paths"]) <= 16
    for path in DOC["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    # the command names no file of the repository outside ``paths``
    for part in DOC["command"][1:]:
        assert not part.startswith("/") and ".." not in part.split("/")
        if (ROOT / part).exists():
            assert any(
                part == p or part.startswith(p + "/") for p in DOC["paths"]
            )


def test_workloads():
    assert 2 <= len(DOC["workloads"]) <= 8
    for w in DOC["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics():
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    for m in DOC["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in DOC["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = [m for m in DOC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in DOC["end_to_end"])}
    ]


def test_every_name_is_used_once():
    names = (
        [w["name"] for w in DOC["workloads"]]
        + [m["name"] for m in DOC["end_to_end"]]
        + [m["name"] for m in DOC["per_layer"]]
    )
    assert len(names) == len(set(names))


def test_workloads_match_the_spec_classes():
    from perfbench.workloads import WORKLOADS

    assert list(WORKLOADS) == list(SPEC.workloads)


def _printed_names(text):
    names = []
    for line in text.splitlines():
        if line.startswith(("==", "FAULT", "trace file")) or not line.strip():
            continue
        names.append(line.split()[0])
    return names


def test_printed_names_are_the_declared_ones(capsys):
    untraced = {
        **{m.name: 1.0 for m in SPEC.end_to_end},
        "rounds": 100, "round_ms_p50": 1.0, "round_ms_p90": 1.0,
        "highest_percentile": 90.0, "setup_samples_s": [1.0],
        "setup_wall_s": 1.0,
        "req_cost_per_k": 1.0, "req_ms_per_k": 1.0, "final_accuracy": 0.9,
        "attempted": 100, "failed": 0, "result_digest": "00",
        "yardstick_ms_p50": 1.0, "yardstick_drift_pct": 0.0, "faults": [],
    }
    run._print_untraced(SPEC, "fleet-lbap", untraced)
    printed = _printed_names(capsys.readouterr().out)
    declared = [m.name for m in SPEC.end_to_end]
    assert printed[: len(declared)] == declared
    assert printed[len(declared):] == [
        *sorted(INFO_METRICS, key=printed.index),
        "result_digest", "yardstick",
    ]
    assert all(NAME.match(name) for name in printed)

    traced = {
        "rounds": 100, "per_layer": {m.name: 0.0 for m in SPEC.per_layer},
        "trace_file": "x", "faults": [],
    }
    run._print_traced(SPEC, "fleet-lbap", traced)
    printed = _printed_names(capsys.readouterr().out)
    assert printed == [m.name for m in SPEC.per_layer]
