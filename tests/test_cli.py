"""CLI tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Snapdragon 810" in out
        assert "testbeds" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_trace_unknown_device(self, capsys):
        assert main(["trace", "iphone"]) == 2
        assert "unknown device" in capsys.readouterr().err

    def test_run_archives_results(self, tmp_path, capsys):
        assert (
            main(["run", "table4", "--out", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "table4" in out
        assert (tmp_path / "table4.txt").exists()

    def test_trace_produces_plots(self, capsys):
        assert (
            main(
                ["trace", "pixel2", "--model", "lenet", "--samples", "600"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "die temperature" in out
        assert "per-batch training time" in out

    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "table2", "table3", "table4", "table5",
        }
        assert set(EXPERIMENTS) == expected

    def test_report_command(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig5.txt").write_text("== fig5: demo\nrow\n")
        (results / "ablation_x.txt").write_text("== ablation_x: demo\n")
        out_file = tmp_path / "report.txt"
        assert (
            main(
                [
                    "report",
                    "--results",
                    str(results),
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        text = out_file.read_text()
        assert "REPRODUCTION REPORT" in text
        # paper artifact ordered before the ablation
        assert text.index("fig5") < text.index("ablation_x")

    def test_report_missing_dir(self, tmp_path, capsys):
        assert (
            main(["report", "--results", str(tmp_path / "nope")]) == 2
        )


@pytest.fixture()
def stub_experiment(tiny_dataset, monkeypatch):
    """A fast fake experiment that drives a real FederatedSimulation,
    so --telemetry exercises the genuine global-bus wiring."""
    import numpy as np

    import repro.cli as cli
    from repro.data.partition import iid_partition
    from repro.device.registry import make_device
    from repro.experiments.runner import ExperimentResult
    from repro.federated.simulation import FederatedSimulation
    from repro.models import logistic

    class _Stub:
        @staticmethod
        def run():
            rng = np.random.default_rng(0)
            users = iid_partition(tiny_dataset, 2, rng)
            devices = [
                make_device("pixel2", jitter=0.0) for _ in range(2)
            ]
            model = logistic(
                input_shape=tiny_dataset.input_shape, seed=1
            )
            sim = FederatedSimulation(
                tiny_dataset, model, users, devices=devices
            )
            sim.run(2, train=False)
            result = ExperimentResult(
                name="stub",
                description="tiny event-stream fixture",
                columns=["rounds"],
            )
            result.add_row(rounds=2)
            return result

    monkeypatch.setitem(cli.EXPERIMENTS, "stub", _Stub)
    return _Stub


class TestTelemetryFlag:
    def test_run_with_telemetry_writes_jsonl(
        self, stub_experiment, tmp_path, capsys
    ):
        import json

        path = tmp_path / "out.jsonl"
        assert main(["run", "stub", "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "note: telemetry:" in out
        assert "events ->" in out

        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds.count("round_completed") == 2
        assert kinds.count("client_dispatched") == 4

    def test_run_without_telemetry_writes_nothing(
        self, stub_experiment, tmp_path, capsys
    ):
        assert main(["run", "stub"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out
        assert list(tmp_path.iterdir()) == []


class TestSchedCommands:
    def test_sched_list(self, capsys):
        assert main(["sched", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fed_lbap", "fed_minavg", "olar", "min_energy",
                     "equal", "random", "proportional"):
            assert name in out

    def test_sched_compare_runs_all_on_testbed_a(self, capsys):
        """Acceptance: `repro sched compare --testbed A` prints a
        makespan/energy row for every registered scheduler."""
        assert (
            main(
                [
                    "sched", "compare",
                    "--testbed", "A",
                    "--samples", "6000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan_s" in out and "energy_j" in out
        from repro.sched import available_schedulers

        for name in available_schedulers():
            assert name in out
        assert "error:" not in out

    def test_sched_compare_scheduler_subset_and_device_testbed(
        self, capsys
    ):
        assert (
            main(
                [
                    "sched", "compare",
                    "--testbed", "nexus6,pixel2",
                    "--schedulers", "olar,equal",
                    "--samples", "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "olar" in out and "equal" in out
        assert "fed_minavg" not in out
        assert "2 devices" in out

    def test_sched_compare_writes_telemetry(self, tmp_path, capsys):
        import json

        path = tmp_path / "sched.jsonl"
        assert (
            main(
                [
                    "sched", "compare",
                    "--testbed", "1",
                    "--schedulers", "olar,fed_lbap",
                    "--samples", "6000",
                    "--telemetry", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry" in out
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [e["event"] for e in events] == [
            "telemetry_meta",
            "schedule_computed",
            "schedule_computed",
        ]
        assert events[1]["scheduler"] == "olar"
        assert events[1]["predicted_makespan_s"] > 0

    def test_sched_compare_unknown_testbed(self, capsys):
        assert main(["sched", "compare", "--testbed", "z9"]) == 2
        assert "unknown devices" in capsys.readouterr().err

    def test_sched_compare_unknown_scheduler(self, capsys):
        assert (
            main(
                [
                    "sched", "compare",
                    "--schedulers", "sjf",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown schedulers" in err
        assert "olar" in err  # lists what IS available

    def test_sched_compare_failure_still_flushes_telemetry(
        self, tmp_path, capsys, monkeypatch
    ):
        """A run dying mid-comparison exits 1 with a clean message and
        leaves a fully parseable (non-truncated) JSONL behind."""
        import json

        import repro.sched as sched_mod

        real_compare = sched_mod.compare

        def exploding_compare(problem, names, bus=None, **kw):
            real_compare(problem, ["olar"], bus=bus)
            raise RuntimeError("solver crashed mid-run")

        monkeypatch.setattr(sched_mod, "compare", exploding_compare)
        path = tmp_path / "crash.jsonl"
        status = main(
            [
                "sched", "compare",
                "--testbed", "1",
                "--samples", "6000",
                "--telemetry", str(path),
            ]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert "error: RuntimeError: solver crashed mid-run" in captured.err
        assert "telemetry" in captured.out
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert len(events) == 2
        assert events[0]["event"] == "telemetry_meta"
        assert events[1]["event"] == "schedule_computed"


class TestObsCommands:
    @pytest.fixture()
    def run_jsonl(self, tmp_path):
        """A telemetry capture from the shared synthetic stream."""
        import json

        from tests.obs.conftest import SYNTHETIC_EVENTS

        path = tmp_path / "run.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"event": "telemetry_meta", "schema_version": 2}
                )
                + "\n"
            )
            for event in SYNTHETIC_EVENTS:
                fh.write(json.dumps(event.to_dict()) + "\n")
        return path

    def test_summary(self, run_jsonl, capsys):
        assert main(["obs", "summary", str(run_jsonl)]) == 0
        out = capsys.readouterr().out
        assert "== run ==" in out
        assert "rounds: 2" in out
        assert "== clients ==" in out
        assert "olar" in out

    def test_summary_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "summary", str(missing)]) == 2
        assert "no telemetry file" in capsys.readouterr().err

    def test_summary_warns_on_corrupt_lines(self, run_jsonl, capsys):
        with run_jsonl.open("a", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["obs", "summary", str(run_jsonl)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt" in captured.err

    def test_export_prom(self, run_jsonl, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "obs", "export-prom", str(run_jsonl),
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        text = out_path.read_text()
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_rounds_total 2" in text
        assert 'schema_version="2"' in text
        # without --out the exposition goes to stdout
        capsys.readouterr()
        assert main(["obs", "export-prom", str(run_jsonl)]) == 0
        assert "repro_rounds_total 2" in capsys.readouterr().out

    def test_export_trace(self, run_jsonl, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "obs", "export-trace", str(run_jsonl),
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "round 1" in names
        assert "client 0" in names

    def test_run_with_obs_flag_prints_dashboard(
        self, stub_experiment, tmp_path, capsys
    ):
        """--obs alone (no --telemetry) captures and summarises."""
        assert main(["run", "stub", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "== run ==" in out
        assert "rounds: 2" in out
        assert list(tmp_path.iterdir()) == []  # no file side effects

    def test_run_obs_dashboard_is_the_fold_of_what_the_sink_wrote(
        self, stub_experiment, tmp_path, capsys
    ):
        """--obs renders the recorder that folded the run live; replaying
        the --telemetry file offline must give the same dashboard, so a
        buffered second fold cannot come back and drift unnoticed."""
        from repro.obs import ObsRecorder, render_summary

        path = tmp_path / "run.jsonl"
        assert (
            main(["run", "stub", "--obs", "--telemetry", str(path)]) == 0
        )
        out = capsys.readouterr().out
        live = out[out.index("== run =="):]
        offline = render_summary(ObsRecorder.from_jsonl(path, trace=False))
        assert "== rounds ==" in live and "== clients ==" in live
        # the offline path alone knows the file's schema header
        assert live.splitlines() == [
            line
            for line in offline.splitlines()
            if not line.startswith("telemetry schema:")
        ]


class TestFleetCommands:
    def test_sched_compare_fleet_size(self, capsys):
        """`--fleet-size` swaps the testbed for a synthetic columnar
        fleet and reports the vectorized matrix-build time."""
        assert (
            main(
                [
                    "sched", "compare",
                    "--fleet-size", "200",
                    "--schedulers", "proportional,equal",
                    "--samples", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "synthetic fleet: 200 devices" in out
        assert "cost matrices built in" in out
        assert "proportional" in out and "equal" in out
        # the n column reports the instance's cohort size
        assert "  200  " in out or " 200 " in out

    def test_sched_compare_fleet_size_draws_cohort(self, capsys):
        """A large fleet is never scheduled whole: the instance is a
        seeded uniform cohort (``--cohort``, default 512), so the cost
        matrix stays O(cohort x shards) regardless of population."""
        assert (
            main(
                [
                    "sched", "compare",
                    "--fleet-size", "5000",
                    "--cohort", "32",
                    "--schedulers", "proportional",
                    "--samples", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "synthetic fleet: 5000 devices" in out
        assert "cohort 32" in out
        assert "  32  " in out or " 32 " in out


class TestObsProf:
    """`repro obs prof`: the profiler CLI over a real fleet workload."""

    def test_text_profile(self, capsys):
        assert main(["obs", "prof", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "== phase profile" in out
        # the fleet runner's phases all show up in the tree
        for phase in ("cohort", "solve", "dispatch"):
            assert phase in out

    def test_json_profile_to_file(self, tmp_path):
        import json

        out_path = tmp_path / "prof.json"
        assert (
            main(
                [
                    "obs",
                    "prof",
                    "--rounds",
                    "1",
                    "--format",
                    "json",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["schema"] == 1
        paths = {p["path"] for p in payload["phases"]}
        assert "solve" in paths and "cohort" in paths
        assert all(p["count"] >= 1 for p in payload["phases"])

    def test_trace_includes_counter_track(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "prof.trace.json"
        assert (
            main(
                [
                    "obs",
                    "prof",
                    "--rounds",
                    "1",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        counters = [
            e for e in doc["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters, "no profiler counter events in trace"
        assert any(e["name"].startswith("prof/") for e in counters)

    def test_profiler_left_disabled(self):
        from repro.obs.prof import PROFILER

        assert main(["obs", "prof", "--rounds", "1"]) == 0
        assert PROFILER.enabled is False
        assert not PROFILER.stats


class TestLintChanged:
    def test_unknown_base_names_the_ref(self, tmp_path, capsys):
        import subprocess

        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text("X = 1\n")
        for argv in (
            ["init", "-q"],
            ["add", "-A"],
            ["commit", "-qm", "seed"],
        ):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
                cwd=tmp_path, check=True, capture_output=True,
            )
        code = main([
            "lint", "--root", str(tmp_path), "--changed",
            "--base", "origin/no-such-branch", "--format", "sarif",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "'origin/no-such-branch'" in err
        assert "fatal:" in err  # git's own message
