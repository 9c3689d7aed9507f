"""Suite payload shape and its sections.

The full ``bench_suite`` run is exercised by the CI gate job
(``repro bench suite``); here we pin the payload contract and run only
the cheap sections so the tier-1 test pass stays fast.
"""

import json

import pytest

from repro.perf import (
    SUITE_SCHEMA,
    MetricResult,
    format_suite,
    git_sha,
    load_payload,
    suite_payload,
    write_suite,
)
from repro.perf.suite import _engine_metrics, _narrate_metrics, _solve_metrics

RESULTS = [
    MetricResult(
        name="alpha_ms",
        value=1.25,
        unit="ms",
        higher_is_better=False,
        gated=False,
        note="a note",
    ),
    MetricResult(
        name="beta_pct",
        value=0.5,
        unit="%",
        higher_is_better=False,
        gated=True,
        abs_max=1.0,
    ),
]


class TestPayload:
    def test_schema_and_provenance(self):
        payload = suite_payload(RESULTS, sha="abc123")
        assert payload["schema"] == SUITE_SCHEMA
        assert payload["git_sha"] == "abc123"
        metrics = payload["metrics"]
        assert set(metrics) == {"alpha_ms", "beta_pct"}
        assert metrics["alpha_ms"]["note"] == "a note"
        assert "abs_max" not in metrics["alpha_ms"]
        assert metrics["beta_pct"]["abs_max"] == 1.0
        assert metrics["beta_pct"]["gated"] is True

    def test_write_round_trips_through_load(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        write_suite(RESULTS, path, sha="abc123")
        loaded = load_payload(path)
        assert loaded == suite_payload(RESULTS, sha="abc123")
        # committed artifact: stable key order, trailing newline
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(
            loaded, indent=2, sort_keys=True
        ) + "\n"

    def test_format_marks_gated_metrics(self):
        text = format_suite(RESULTS)
        assert "== bench suite ==" in text
        assert "gated" in text
        assert "alpha_ms" in text and "beta_pct" in text


class TestSections:
    def test_engine_metrics_gate_the_phase_cost_not_the_share(self):
        """The per-entry ratio is gated; the share of one run's wall
        time keeps only its absolute ceiling."""
        cost, share = _engine_metrics()
        assert (cost.name, cost.unit, cost.gated) == (
            "profiler_phase_cost",
            "x",
            True,
        )
        assert cost.abs_max == 2.0 and 0 < cost.value < cost.abs_max
        assert (share.name, share.unit, share.gated) == (
            "profiler_overhead_pct",
            "%",
            False,
        )
        assert share.abs_max == 1.0 and 0 < share.value < share.abs_max

    def test_solve_metrics_shape(self):
        (scaling,) = _solve_metrics(seed=0)
        assert scaling.name == "solve_scaling_fed_lbap"
        assert scaling.gated
        assert scaling.abs_max == 4.0
        assert scaling.unit == "x"
        assert scaling.value > 0

    def test_narrate_metrics_shape(self):
        (share,) = _narrate_metrics(seed=0)
        assert share.name == "observe_share_narrate"
        assert share.gated
        assert share.abs_max == 0.84
        assert share.unit == "ratio"
        assert 0 < share.value < 1

    def test_metric_result_is_frozen(self):
        with pytest.raises(AttributeError):
            RESULTS[0].value = 2.0


class TestGitSha:
    def test_git_sha_of_this_repo_is_a_commit(self):
        sha = git_sha()
        assert sha == "unknown" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_git_sha_outside_a_repo_is_unknown(self, tmp_path):
        assert git_sha(root=tmp_path) == "unknown"
