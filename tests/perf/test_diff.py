"""Regression-verdict semantics of ``repro bench diff``."""

import json

import pytest

from repro.cli import main
from repro.perf import (
    SUITE_SCHEMA,
    Verdict,
    diff_payloads,
    format_diff,
    has_regression,
    load_payload,
)


def _payload(metrics):
    return {
        "schema": SUITE_SCHEMA,
        "git_sha": "deadbeef",
        "quick": False,
        "metrics": metrics,
    }


def _metric(value, gated=True, higher_is_better=False, **extra):
    doc = {
        "value": value,
        "unit": "ms",
        "higher_is_better": higher_is_better,
        "gated": gated,
    }
    doc.update(extra)
    return doc


def _by_name(verdicts):
    return {v.name: v for v in verdicts}


class TestVerdicts:
    def test_clean_diff(self):
        old = _payload({"m": _metric(10.0)})
        verdicts = diff_payloads(old, old)
        assert [v.status for v in verdicts] == ["ok"]
        assert not has_regression(verdicts)

    def test_gated_regression_beyond_threshold(self):
        old = _payload({"m": _metric(10.0)})
        new = _payload({"m": _metric(13.0)})
        (verdict,) = diff_payloads(old, new, threshold_pct=25.0)
        # 13 vs 10, lower-is-better: +30% worse, over the 25% gate
        assert verdict.status == "regression"
        assert verdict.worse_pct == pytest.approx(30.0)
        assert "threshold" in verdict.detail

    def test_threshold_boundary(self):
        old = _payload({"m": _metric(100.0)})
        exactly = _payload({"m": _metric(125.0)})
        beyond = _payload({"m": _metric(125.1)})
        (at,) = diff_payloads(old, exactly)
        (over,) = diff_payloads(old, beyond)
        assert at.status == "ok"  # threshold is strict
        assert over.status == "regression"
        assert has_regression([over])

    def test_higher_is_better_direction(self):
        old = _payload(
            {"rps": _metric(100.0, higher_is_better=True)}
        )
        new = _payload(
            {"rps": _metric(60.0, higher_is_better=True)}
        )
        (verdict,) = diff_payloads(old, new)
        assert verdict.status == "regression"
        assert verdict.worse_pct == pytest.approx(40.0)

    def test_improvement_is_reported(self):
        old = _payload({"m": _metric(100.0, gated=False)})
        new = _payload({"m": _metric(50.0, gated=False)})
        (verdict,) = diff_payloads(old, new)
        assert verdict.status == "improved"
        assert not has_regression([verdict])

    def test_ungated_regression_never_fails_the_gate(self):
        old = _payload({"m": _metric(10.0, gated=False)})
        new = _payload({"m": _metric(100.0, gated=False)})
        (verdict,) = diff_payloads(old, new)
        assert verdict.status == "ok"
        assert verdict.worse_pct == pytest.approx(900.0)

    def test_abs_max_breach_regresses_regardless_of_baseline(self):
        old = _payload({"m": _metric(0.9, abs_max=1.0)})
        new = _payload({"m": _metric(1.1, abs_max=1.0)})
        (verdict,) = diff_payloads(old, new)
        assert verdict.status == "regression"
        assert "ceiling" in verdict.detail

    def test_abs_max_breach_regresses_without_a_baseline(self):
        # a renamed or newly added gated metric has no baseline; the
        # ceiling is its only check and must still hold
        old = _payload({})
        new = _payload(
            {
                "over": _metric(1.1, abs_max=1.0),
                "under": _metric(0.9, abs_max=1.0),
            }
        )
        by_name = _by_name(diff_payloads(old, new))
        assert by_name["over"].status == "regression"
        assert "ceiling" in by_name["over"].detail
        assert by_name["over"].old_value is None
        assert by_name["under"].status == "new"
        assert has_regression(list(by_name.values()))

    def test_gated_metric_missing_from_new_is_a_regression(self):
        old = _payload({"m": _metric(10.0)})
        new = _payload({})
        (verdict,) = diff_payloads(old, new)
        assert verdict.status == "regression"
        assert verdict.new_value is None

    def test_ungated_missing_and_new_metrics(self):
        old = _payload({"gone": _metric(1.0, gated=False)})
        new = _payload({"fresh": _metric(2.0, gated=False)})
        by_name = _by_name(diff_payloads(old, new))
        assert by_name["gone"].status == "missing"
        assert by_name["fresh"].status == "new"
        assert not has_regression(list(by_name.values()))

    def test_format_diff_mentions_every_metric(self):
        old = _payload(
            {"a": _metric(1.0), "b": _metric(2.0, gated=False)}
        )
        text = format_diff(diff_payloads(old, old))
        assert "a" in text and "b" in text
        assert "gate clean" in text

    def test_verdict_is_a_frozen_record(self):
        verdict = Verdict(
            name="m",
            status="ok",
            gated=True,
            old_value=1.0,
            new_value=1.0,
            worse_pct=0.0,
        )
        with pytest.raises(AttributeError):
            verdict.status = "regression"


class TestLoadPayload:
    def test_rejects_missing_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_payload(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_payload(path)

    def test_rejects_unreadable(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_payload(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "doc",
        [
            {"gated": True},
            {"value": "fast", "gated": True},
            {"value": True},
            {"value": float("nan")},
            {"value": 1.0, "abs_max": "low"},
            [1.0],
        ],
    )
    def test_rejects_metric_without_a_real_value(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_payload({"m": doc})))
        with pytest.raises(ValueError, match="metric 'm'"):
            load_payload(path)

    def test_diff_runs_the_same_check_on_unloaded_mappings(self):
        good = _payload({"m": _metric(1.0)})
        for bad in (
            _payload({"m": {"gated": True}}),
            _payload({"m": {"value": None}}),
            {"schema": SUITE_SCHEMA},
        ):
            with pytest.raises(ValueError):
                diff_payloads(good, bad)
            with pytest.raises(ValueError):
                diff_payloads(bad, good)


class TestCli:
    """The acceptance contract: ``repro bench diff`` exits non-zero
    on an injected >25% regression in a gated metric."""

    def _write(self, path, metrics):
        path.write_text(json.dumps(_payload(metrics)))

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        self._write(old, {"m": _metric(10.0)})
        assert main(["bench", "diff", str(old), str(old)]) == 0
        assert "gate clean" in capsys.readouterr().out

    def test_exit_one_on_injected_regression(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, {"m": _metric(10.0)})
        self._write(new, {"m": _metric(14.0)})  # +40% > 25%
        assert main(["bench", "diff", str(old), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_malformed_payload(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        bad = tmp_path / "bad.json"
        self._write(old, {"m": _metric(10.0)})
        bad.write_text("not json")
        assert main(["bench", "diff", str(old), str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_schema_invalid_metric(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        bad = tmp_path / "bad.json"
        self._write(old, {"m": _metric(10.0)})
        self._write(bad, {"m": {"gated": True}})  # no value
        assert main(["bench", "diff", str(old), str(bad)]) == 2
        assert main(["bench", "diff", str(bad), str(old)]) == 2
        assert "metric 'm'" in capsys.readouterr().err

    def test_exit_one_on_ceiling_breach_without_baseline(
        self, tmp_path, capsys
    ):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, {"m": _metric(10.0)})
        self._write(
            new, {"m": _metric(10.0), "fresh": _metric(5.0, abs_max=4.0)}
        )
        assert main(["bench", "diff", str(old), str(new)]) == 1
        assert "ceiling" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, {"m": _metric(10.0)})
        self._write(new, {"m": _metric(11.0)})  # +10%
        assert main(["bench", "diff", str(old), str(new)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "bench", "diff", str(old), str(new),
                    "--threshold", "5",
                ]
            )
            == 1
        )
