"""``python -m perfbench.agree`` verdicts on hand-made result sets."""

import copy
import json

import pytest

from perfbench import agree
from perfbench.spec import load_spec

SPEC = load_spec()


def _result_set(seed=0):
    workloads = {}
    for name in SPEC.workloads:
        workloads[name] = {
            "end_to_end": {m.name: 100.0 for m in SPEC.end_to_end},
            "info": {"failed_ops_pct": 0.0, "req_cost_per_k": None,
                     "final_accuracy": None},
            "attempted": 104,
            "failed": 0,
            "faults": [],
            "result_digest": "ab" * 32,
        }
    return {"schema": 1, "seed": seed, "seconds": 10.0, "workloads": workloads}


def _bound(name):
    return next(m.bound for m in SPEC.end_to_end if m.name == name)


def test_identical_sets_agree():
    lines, bad = agree.compare(SPEC, _result_set(), _result_set())
    assert bad == [] and lines


def test_a_timing_inside_its_bound_agrees_and_outside_does_not():
    a, b = _result_set(), _result_set()
    bound = _bound("round_cost_p50")
    b["workloads"]["fleet-lbap"]["end_to_end"]["round_cost_p50"] = (
        100.0 * (1 + bound * 0.9)
    )
    assert agree.compare(SPEC, a, b)[1] == []
    b["workloads"]["fleet-lbap"]["end_to_end"]["round_cost_p50"] = (
        100.0 * (1 + bound * 1.1)
    )
    bad = agree.compare(SPEC, a, b)[1]
    assert len(bad) == 1 and "fleet-lbap: round_cost_p50" in bad[0]
    # the verdict does not depend on which set is called A
    assert len(agree.compare(SPEC, b, a)[1]) == 1


def test_deterministic_metrics_must_be_equal_at_one_seed():
    a, b = _result_set(), _result_set()
    b["workloads"]["fleet-1m"]["end_to_end"]["virtual_makespan_s"] += 1e-9
    bad = agree.compare(SPEC, a, b)[1]
    assert bad == [
        "fleet-1m: virtual_makespan_s 100.0 vs 100.000000001"
    ]


def test_digest_counts_and_accuracy_must_be_equal_at_one_seed():
    a, b = _result_set(), _result_set()
    b["workloads"]["serve-churn"]["result_digest"] = "cd" * 32
    b["workloads"]["serve-churn"]["attempted"] += 1
    b["workloads"]["engine-train"]["info"]["final_accuracy"] = 0.5
    bad = agree.compare(SPEC, a, b)[1]
    assert len(bad) == 3


def test_different_seeds_fall_back_to_bounds():
    a, b = _result_set(seed=0), _result_set(seed=1)
    b["workloads"]["fleet-1m"]["end_to_end"]["virtual_makespan_s"] += 1e-9
    b["workloads"]["fleet-1m"]["result_digest"] = "cd" * 32
    lines, bad = agree.compare(SPEC, a, b)
    assert bad == [] and lines[0].startswith("note:")


def test_failed_operations_never_agree():
    a, b = _result_set(), _result_set()
    for side in (a, b):
        side["workloads"]["fleet-narrate"]["failed"] = 1
    assert len(agree.compare(SPEC, a, b)[1]) == 2


def test_a_missing_workload_disagrees():
    a, b = _result_set(), _result_set()
    del b["workloads"]["engine-train"]
    assert agree.compare(SPEC, a, b)[1] == [
        "engine-train: missing from a result set"
    ]


def test_exit_codes(tmp_path, capsys):
    a, b = _result_set(), _result_set()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert agree.main([str(pa), str(pb)]) == 0
    worse = copy.deepcopy(b)
    worse["workloads"]["fleet-lbap"]["end_to_end"]["peak_rss_mb"] = 500.0
    pb.write_text(json.dumps(worse))
    assert agree.main([str(pa), str(pb)]) == 1
    pb.write_text("{not json")
    assert agree.main([str(pa), str(pb)]) == 2
    assert agree.main([str(pa)]) == 2
    del a["workloads"]["fleet-lbap"]["end_to_end"]
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert agree.main([str(pa), str(pb)]) == 2
    capsys.readouterr()
