"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``):

    python -m repro list                       # list experiments
    python -m repro run fig5                   # reproduce one figure/table
    python -m repro run table2 fig4            # several at once
    python -m repro run all                    # the full evaluation
    python -m repro trace nexus6p --model vgg6 # Fig. 1(c)-style trace
    python -m repro devices                    # calibrated testbed summary
    python -m repro sched list                 # registered schedulers
    python -m repro sched compare --testbed A  # scheduler comparison
    python -m repro bench suite --out new.json # the three gated ratios
    python -m repro bench diff OLD NEW         # regression verdicts
    python -m repro bench lint                 # lint wall time per rule
    python -m repro obs summary run.jsonl      # telemetry dashboard
    python -m repro obs export-prom run.jsonl  # Prometheus exposition
    python -m repro obs export-trace run.jsonl # Perfetto/Chrome trace
    python -m repro obs prof --rounds 3        # phase-profiled workload

``run`` uses each experiment's default (fast) configuration and prints
the paper-style rows; ``--out DIR`` additionally archives them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

from . import __version__
from . import experiments as E
from .device.registry import DEVICE_NAMES, TESTBEDS, build_spec, make_device
from .device.workload import TrainingWorkload
from .experiments.ascii_plot import line_plot, multi_series
from .experiments.runner import summarize_telemetry
from .models.flops import model_training_flops
from .models.zoo import MNIST_SHAPE, build_model
from .obs import record_telemetry, render_summary

#: experiment registry: name -> module (each exposes run())
EXPERIMENTS: Dict[str, object] = {
    "fig1": E.fig1,
    "table2": E.table2,
    "fig2": E.fig2,
    "fig3": E.fig3,
    "fig4": E.fig4,
    "fig5": E.fig5,
    "table3": E.table3,
    "fig6": E.fig6,
    "table4": E.table4,
    "fig7": E.fig7,
    "table5": E.table5,
}


def cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments (paper table/figure -> module):")
    for name, mod in EXPERIMENTS.items():
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {doc}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    targets: List[str] = args.experiments
    if "all" in targets:
        targets = list(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    telemetry_path = getattr(args, "telemetry", None)
    want_obs = bool(getattr(args, "obs", False))

    def run_targets(recorder=None) -> None:
        for name in targets:
            # perf_counter: wall clock is not monotonic (NTP steps would
            # skew or even negate the reported duration)
            t0 = time.perf_counter()
            before = recorder.event_counts() if recorder is not None else {}
            result = EXPERIMENTS[name].run()
            if recorder is not None:
                result.add_note(
                    summarize_telemetry(recorder.event_counts(), before)
                )
            text = result.to_table()
            print(text)
            print(f"[{name} finished in {time.perf_counter() - t0:.1f} s]\n")
            if out_dir:
                (out_dir / f"{name}.txt").write_text(text + "\n")

    # record_telemetry closes/flushes the sink in its finally block, so
    # a run failing mid-round still leaves a complete, parseable JSONL;
    # the failure is reported instead of propagating a traceback.
    # The recorder folds the stream live, so neither flag holds events.
    status = 0
    recorder = None
    try:
        if telemetry_path or want_obs:
            with record_telemetry(telemetry_path) as recorder:
                run_targets(recorder)
        else:
            run_targets()
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = 1
    if telemetry_path and recorder is not None:
        print(
            f"[telemetry: {recorder.n_events} events -> "
            f"{telemetry_path}]"
        )
    if want_obs and recorder is not None:
        print()
        print(render_summary(recorder), end="")
    return status


def cmd_devices(_args: argparse.Namespace) -> int:
    print("calibrated device registry (Table I):")
    for name in DEVICE_NAMES:
        spec = build_spec(name)
        clusters = ", ".join(
            f"{c.n_cores}x{c.freq_max_ghz}GHz {c.name}"
            for c in spec.clusters
        )
        trips = len(spec.thermal.trip_points)
        print(
            f"  {name:8s} {spec.soc:15s} {clusters:32s} "
            f"peak={spec.peak_gflops():5.1f} GFLOPS  trips={trips}"
        )
    print("\ntestbeds (Sec. VII):")
    for tb, names in TESTBEDS.items():
        print(f"  {tb}: {', '.join(names)}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    name = args.device
    if name not in DEVICE_NAMES:
        print(
            f"unknown device {name!r}; one of {sorted(DEVICE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    model = build_model(args.model, input_shape=MNIST_SHAPE)
    device = make_device(name, seed=0)
    workload = TrainingWorkload(
        flops_per_sample=model_training_flops(model),
        n_samples=args.samples,
        batch_size=20,
        model_name=model.name,
    )
    trace = device.run_workload(workload)
    print(
        f"{name} running {args.model} on {args.samples} samples: "
        f"{trace.total_time_s:.1f} s, peak {trace.peak_temp_c():.1f} C"
    )
    print()
    print(
        line_plot(
            trace.temp_c,
            title="die temperature over the run (C)",
            y_label="time ->",
        )
    )
    print()
    print(
        multi_series(
            {k: v for k, v in trace.freq_ghz.items()},
            title="cluster frequency over the run (GHz; 0 = offline)",
        )
    )
    print()
    print(
        line_plot(
            trace.batch_times * 1000.0,
            title="per-batch training time (ms) — Fig. 1(a/b) style",
            y_label="batch ->",
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Assemble archived benchmark tables into one reproduction report."""
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        print(
            f"no results directory at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no result tables in {results_dir}", file=sys.stderr)
        return 2
    # paper artifacts first, then ablations/extensions
    def order(p: Path):
        name = p.stem
        paper_order = [
            "fig1", "table2", "fig2", "fig3", "fig4",
            "fig5", "table3", "fig6", "table4", "fig7", "table5",
        ]
        if name in paper_order:
            return (0, paper_order.index(name))
        return (1, name)

    sections = []
    for path in sorted(files, key=order):
        sections.append(path.read_text().rstrip())
    report = (
        "REPRODUCTION REPORT\n"
        "Optimize Scheduling of Federated Learning on Battery-powered "
        "Mobile Devices (IPDPS 2020)\n"
        f"{len(files)} result tables from benchmarks/results/\n"
        + "=" * 72
        + "\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    else:
        print(report)
    return 0


#: letter aliases for the paper's testbeds (A/B/C == 1/2/3)
_TESTBED_ALIASES = {"a": 1, "b": 2, "c": 3}


def _parse_testbed(value: str):
    """Resolve ``--testbed``: id (1/2/3), letter (A/B/C), or an explicit
    comma-separated device-name list (``nexus6,pixel2,...``)."""
    v = value.strip().lower()
    if v in _TESTBED_ALIASES:
        return _TESTBED_ALIASES[v]
    if v.isdigit():
        return int(v)
    names = [n.strip() for n in v.split(",") if n.strip()]
    if not names:
        raise ValueError(f"cannot parse testbed {value!r}")
    unknown = [n for n in names if n not in DEVICE_NAMES]
    if unknown:
        raise ValueError(
            f"unknown devices {unknown}; one of {sorted(DEVICE_NAMES)}"
        )
    return names


def cmd_sched_list(_args: argparse.Namespace) -> int:
    from .sched import available_schedulers, scheduler_class

    print("registered schedulers (repro.sched registry):")
    for name in available_schedulers():
        doc = (scheduler_class(name).__doc__ or "").strip().splitlines()[0]
        print(f"  {name:16s} {doc}")
    return 0


def cmd_sched_compare(args: argparse.Namespace) -> int:
    from .engine.events import EventBus
    from .sched import available_schedulers, compare, format_table
    from .sched import is_registered, testbed_problem

    testbed = None
    if not args.fleet_size:
        try:
            testbed = _parse_testbed(args.testbed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.schedulers:
        names = [s.strip() for s in args.schedulers.split(",") if s.strip()]
        bad = [s for s in names if not is_registered(s)]
        if bad:
            print(
                f"unknown schedulers: {bad}; "
                f"available: {', '.join(available_schedulers())}",
                file=sys.stderr,
            )
            return 2
    else:
        names = list(available_schedulers())

    def run_compare() -> None:
        t0 = time.perf_counter()
        if args.fleet_size:
            import numpy as np

            from .sched.costs import fleet_problem
            from .fleet import UniformSampler, synthetic_fleet

            if args.cohort <= 0:
                raise ValueError("--cohort must be positive")
            fleet = synthetic_fleet(
                args.fleet_size, seed=args.seed, model=args.model
            )
            # schedule a cohort, never the whole population: a
            # whole-fleet cost matrix is O(n * shards) memory, which
            # at n = 10^6 would not fit on any host
            k = min(args.cohort, fleet.n)
            cohort = UniformSampler(args.seed).sample(
                np.arange(fleet.n, dtype=np.int64), k
            )
            total_shards = (
                max(1, args.samples // args.shard_size)
                if args.samples
                else None
            )
            problem = fleet_problem(
                fleet,
                cohort=cohort,
                shard_size=args.shard_size,
                total_shards=total_shards,
                with_energy=not args.no_energy,
                makespan_cap_s=args.makespan_cap,
                seed=args.seed,
            )
            print(
                f"synthetic fleet: {fleet.n} devices over "
                f"{len(fleet.classes)} classes, cohort {cohort.size}, "
                f"{problem.total_shards} shards x "
                f"{problem.shard_size} samples, model {args.model} "
                f"(cost matrices built in "
                f"{problem.meta['build_ms']:.2f} ms)"
            )
        else:
            problem = testbed_problem(
                testbed,
                dataset=args.dataset,
                model=args.model,
                shard_size=args.shard_size,
                total_samples=args.samples,
                with_energy=not args.no_energy,
                makespan_cap_s=args.makespan_cap,
                seed=args.seed,
            )
            devices = problem.meta["devices"]
            print(
                f"testbed {args.testbed}: {len(devices)} devices "
                f"({', '.join(devices)}), {problem.total_shards} shards x "
                f"{problem.shard_size} samples, model {args.model}"
            )
        rows = compare(problem, names, bus=EventBus())
        print(format_table(rows))
        print(
            "[compared "
            f"{len(rows)} schedulers in {time.perf_counter() - t0:.1f} s]"
        )

    status = 0
    recorder = None
    try:
        if args.telemetry:
            with record_telemetry(args.telemetry) as recorder:
                run_compare()
        else:
            run_compare()
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = 1
    if args.telemetry and recorder is not None:
        print(
            f"[telemetry: {recorder.n_events} events -> "
            f"{args.telemetry}]"
        )
    return status


def _load_recorder(args: argparse.Namespace):
    """Build an ObsRecorder from the telemetry JSONL named in args."""
    from .obs import ObsRecorder

    path = Path(args.jsonl)
    if not path.is_file():
        print(f"error: no telemetry file at {path}", file=sys.stderr)
        return None
    recorder = ObsRecorder.from_jsonl(path)
    if recorder.corrupt_lines:
        print(
            f"warning: skipped {recorder.corrupt_lines} corrupt "
            f"line(s) in {path}",
            file=sys.stderr,
        )
    return recorder


def _emit(text: str, out: "str | None") -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out} ({len(text.splitlines())} lines)")
    else:
        print(text, end="")


def cmd_obs_summary(args: argparse.Namespace) -> int:
    recorder = _load_recorder(args)
    if recorder is None:
        return 2
    print(
        render_summary(
            recorder,
            max_rounds=args.rounds,
            max_clients=args.clients,
        ),
        end="",
    )
    return 0


def cmd_obs_export_prom(args: argparse.Namespace) -> int:
    from .obs import render_prometheus

    recorder = _load_recorder(args)
    if recorder is None:
        return 2
    info = {"source": Path(args.jsonl).name}
    if recorder.schema_version is not None:
        info["schema_version"] = str(recorder.schema_version)
    _emit(render_prometheus(recorder.metrics, extra_info=info), args.out)
    return 0


def cmd_obs_export_trace(args: argparse.Namespace) -> int:
    from .obs import render_trace_json

    recorder = _load_recorder(args)
    if recorder is None:
        return 2
    spans = recorder.finish_spans()
    text = render_trace_json(spans, process_name=Path(args.jsonl).stem)
    _emit(text + "\n", args.out)
    return 0


def _git_changed_files(
    root: Path, base: "str | None" = None
) -> "List[str] | None":
    """Repo-relative paths touched vs HEAD (staged, unstaged and
    untracked); None when git is unavailable or errors.

    With ``base`` (e.g. ``origin/main``), committed changes since the
    merge base are included too — ``base...HEAD`` is the PR diff CI
    feeds to ``repro lint --changed --base``.
    """
    import subprocess

    commands = [
        ["git", "-C", str(root), "diff", "--name-only", "HEAD"],
        [
            "git", "-C", str(root), "ls-files",
            "--others", "--exclude-standard",
        ],
    ]
    if base is not None:
        commands.insert(
            0,
            [
                "git", "-C", str(root), "diff", "--name-only",
                f"{base}...HEAD",
            ],
        )
    changed: List[str] = []
    for cmd in commands:
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        changed.extend(
            line.strip() for line in out.splitlines() if line.strip()
        )
    return sorted(set(changed))


def cmd_bench_lint(args: argparse.Namespace) -> int:
    """Benchmark the lint pipeline; optionally write BENCH_lint.json."""
    from .analysis.bench import (
        bench_lint,
        format_bench_lint,
        write_bench_lint,
    )

    root = Path(args.root).resolve()
    if not (root / "src" / "repro").is_dir():
        print(
            f"error: {root} does not look like a repo checkout "
            "(no src/repro); pass --root",
            file=sys.stderr,
        )
        return 2
    bench = bench_lint(root)
    print(format_bench_lint(bench))
    if args.out:
        write_bench_lint(bench, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def cmd_bench_suite(args: argparse.Namespace) -> int:
    """Measure the three gated ratios; optionally write BENCH_core.json."""
    from .perf import bench_suite, format_suite, write_suite

    results = bench_suite(seed=args.seed)
    print(format_suite(results))
    if args.out:
        write_suite(results, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two suite payloads; non-zero exit on a gated regression."""
    from .perf import (
        diff_payloads,
        format_diff,
        has_regression,
        load_payload,
    )

    try:
        old = load_payload(Path(args.old))
        new = load_payload(Path(args.new))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdicts = diff_payloads(old, new, threshold_pct=args.threshold)
    print(format_diff(verdicts, threshold_pct=args.threshold))
    return 1 if has_regression(verdicts) else 0


def cmd_obs_prof(args: argparse.Namespace) -> int:
    """Profile a deterministic fleet workload; print the phase tree."""
    import json as _json

    from .fleet import FleetRunner, UniformSampler, synthetic_fleet
    from .obs import ObsRecorder
    from .obs.prof import PROFILER, profile_payload, render_profile

    PROFILER.reset()
    PROFILER.enable()
    try:
        fleet = synthetic_fleet(2000, seed=args.seed)
        runner = FleetRunner(
            fleet,
            scheduler=args.scheduler,
            sampler=UniformSampler(args.seed),
            cohort_size=128,
            shard_size=500,
        )
        recorder = ObsRecorder(run_name="obs-prof")
        runner.bus.subscribe(recorder)
        runner.run(args.rounds)
    finally:
        PROFILER.disable()
    if args.format == "json":
        _emit(
            _json.dumps(profile_payload(PROFILER), indent=2) + "\n",
            args.out,
        )
    else:
        _emit(render_profile(PROFILER) + "\n", args.out)
    if args.trace:
        from .obs import render_trace_json

        spans = recorder.finish_spans()
        Path(args.trace).write_text(
            render_trace_json(
                spans, process_name="obs-prof", profiler=PROFILER
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.trace}", file=sys.stderr)
    PROFILER.reset()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        apply_fixes,
        available_rules,
        format_findings,
        lint_repo,
        rule_class,
        write_baseline,
    )

    root = Path(args.root).resolve()
    if not (root / "src" / "repro").is_dir():
        print(
            f"error: {root} does not look like a repo checkout "
            "(no src/repro); pass --root",
            file=sys.stderr,
        )
        return 2
    if args.list_rules:
        print("registered lint rules (repro.analysis):")
        for rid in available_rules():
            print(f"  {rid:32s} {rule_class(rid).description}")
        return 0
    if args.dry_run and not args.fix:
        print("error: --dry-run only makes sense with --fix",
              file=sys.stderr)
        return 2
    if args.fix:
        result = apply_fixes(
            root, paths=args.paths or None, dry_run=args.dry_run
        )
        if args.dry_run:
            print(result.diff(), end="")
            print(
                f"would fix {result.n_edits} violation(s) in "
                f"{len(result.fixes)} file(s) (dry run; nothing written)"
            )
        else:
            for fix in result.fixes:
                print(f"fixed {fix.path} ({fix.n_edits} edit(s))")
            print(
                f"fixed {result.n_edits} violation(s) in "
                f"{len(result.fixes)} file(s); re-run repro lint"
            )
        return 0
    only_paths = None
    if args.changed:
        only_paths = _git_changed_files(root, base=args.base)
        if only_paths is None:
            print(
                "error: --changed needs a git checkout (git diff "
                "failed); lint without it",
                file=sys.stderr,
            )
            return 2
        only_paths = [p for p in only_paths if p.endswith(".py")]
    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rule_ids if r not in available_rules()]
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                "(see repro lint --list-rules)",
                file=sys.stderr,
            )
            return 2
    report = lint_repo(
        root,
        paths=args.paths or None,
        rule_ids=rule_ids,
        baseline=args.baseline,
        use_baseline=not args.no_baseline,
        only_paths=only_paths,
    )
    if args.write_baseline:
        target = Path(args.baseline) if args.baseline else root / (
            "lint-baseline.json"
        )
        write_baseline(target, report.findings)
        print(
            f"wrote {len(report.findings)} suppression(s) -> {target}"
        )
        return 0
    print(format_findings(report, fmt=args.format))
    return report.exit_code


def cmd_serve(args) -> int:
    """Run the control-plane orchestrator (or its simulated smoke)."""
    import asyncio

    from .serve.app import ServeApp, ServeConfig
    from .serve.httpd import ServeHttpServer

    config = ServeConfig(
        fleet_size=args.fleet_size,
        scheduler=args.scheduler,
        shard_size=args.shard_size,
        cohort_size=args.cohort,
        min_soc=args.min_soc,
        stale_after_s=args.stale_after,
        dead_after_s=args.dead_after,
        monitor_interval_s=args.monitor_interval,
        seed=args.seed,
    )
    if args.simulate:
        return asyncio.run(_serve_smoke(config, args))

    async def _serve() -> int:
        app = ServeApp(config)
        server = ServeHttpServer(app, host=args.host, port=args.port)
        port = await server.start()
        print(
            f"orchestrator on http://{args.host}:{port} "
            f"(fleet capacity {config.fleet_size}, "
            f"scheduler {config.scheduler}; ctrl-c to stop)"
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("orchestrator stopped")
        return 0


async def _serve_smoke(config, args) -> int:
    """Deterministic traffic against a real ephemeral-port server.

    Boots the HTTP server, replays a seeded churn trace over loopback
    HTTP, runs the requested rounds with one injected mid-round device
    loss, scrapes ``/metrics``, and asserts: every round completed, no
    computed schedule ever named a dead device, and the loss forced at
    least one re-plan. This is the CI serve smoke.
    """
    from .obs import catalog as obs_catalog
    from .serve.app import ServeApp
    from .serve.clock import ManualClock
    from .serve.httpd import ServeHttpServer, http_request
    from .serve.simclients import SimClientDriver, churn_trace

    clock = ManualClock()
    app = ServeApp(config, now_fn=clock)
    # the real wall-clock monitor would race the manual clock; the
    # driver sweeps the registry on the simulated cadence instead.
    # Always an ephemeral port: the smoke must not collide in CI.
    server = ServeHttpServer(
        app, host="127.0.0.1", port=0, monitor=False
    )
    port = await server.start()

    async def transport(method, path, body):
        return await http_request("127.0.0.1", port, method, path, body)

    horizon_s = args.sim_horizon
    trace = churn_trace(
        args.simulate,
        horizon_s=horizon_s,
        seed=config.seed,
        heartbeat_every_s=max(config.stale_after_s / 3.0, 0.5),
    )
    driver = SimClientDriver(app, clock, trace, transport=transport)
    join_end_s = max(e.at_s for e in trace if e.action == "join")
    await driver.run_until(join_end_s)

    injected = {"device": None}

    def inject_loss(phase: str, job) -> None:
        # churn one scheduled device away while round >= 2 is planning
        if (
            phase != "planned"
            or job.round_id < 2
            or injected["device"] is not None
        ):
            return
        plan = app.coordinator.plan_log[-1]
        for record in app.registry.records.values():
            if (
                record.client_id in plan.scheduled
                and record.state != "dead"
            ):
                app.registry.deregister(record.device_id)
                injected["device"] = record.device_id
                return

    app.coordinator.churn_hook = inject_loss

    gap_s = (horizon_s - join_end_s) / max(args.rounds, 1)
    for _ in range(args.rounds):
        status, payload = await transport("POST", "/v1/rounds", {})
        if status != 202:
            print(f"FAIL: round submit -> {status} {payload}")
            await server.stop()
            return 1
        await server.round_tasks_done()
        # keep heartbeats (and silent deaths) flowing between rounds
        await driver.run_until(driver.clock() + gap_s)

    failures: List[str] = []
    jobs = [app.jobs[i] for i in sorted(app.jobs)]
    incomplete = [j.round_id for j in jobs if j.status != "completed"]
    if incomplete:
        failures.append(f"rounds not completed: {incomplete}")
    dead_assigned = sum(
        p.dead_scheduled for p in app.coordinator.plan_log
    )
    if dead_assigned:
        failures.append(
            f"{dead_assigned} dead device(s) appeared in schedules"
        )
    replans = sum(j.replans for j in jobs)
    if injected["device"] is not None and replans == 0:
        failures.append(
            "injected device loss did not force a re-plan"
        )
    status, metrics_text = await transport("GET", "/metrics", None)
    serve_metrics = [
        obs_catalog.SERVE_DEVICES.name,
        obs_catalog.SERVE_HEARTBEAT_LAG_SECONDS.name,
        obs_catalog.SERVE_REPLANS_TOTAL.name,
        obs_catalog.SERVE_ROUNDS_IN_FLIGHT.name,
        obs_catalog.SERVE_REQUESTS_TOTAL.name,
    ]
    missing = [
        name
        for name in serve_metrics
        if not isinstance(metrics_text, str)
        or name not in metrics_text
    ]
    if missing:
        failures.append(f"/metrics missing instruments: {missing}")
    if args.metrics_out and isinstance(metrics_text, str):
        Path(args.metrics_out).write_text(
            metrics_text, encoding="utf-8"
        )
    await server.stop()

    counts = app.registry.counts()
    print(
        f"serve smoke: {args.simulate} devices over {horizon_s:.0f}s "
        f"sim (port {port}): "
        + ", ".join(f"{k}={v}" for k, v in counts.items())
    )
    for job in jobs:
        record = job.record or {}
        print(
            f"  round {job.round_id}: {job.status}, "
            f"participants={record.get('participant_count')}, "
            f"dropped={record.get('dropped_count')}, "
            f"replans={job.replans}, "
            f"model_version={job.model_version}"
        )
    print(
        f"  injected loss: {injected['device'] or 'none'}; "
        f"re-plans: {replans}; dead-device assignments: {dead_assigned}"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("serve smoke OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Optimize Scheduling of Federated "
        "Learning on Battery-powered Mobile Devices' (IPDPS 2020)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run experiments by name")
    p_run.add_argument(
        "experiments", nargs="+", help="experiment names or 'all'"
    )
    p_run.add_argument(
        "--out", default=None, help="directory to archive result tables"
    )
    p_run.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream engine events (per-client dispatch/finish, "
        "aggregations, round completions) to a JSON-lines file",
    )
    p_run.add_argument(
        "--obs",
        action="store_true",
        help="capture engine events and print the observability "
        "dashboard (metrics + energy ledger) after the run",
    )
    p_run.set_defaults(func=cmd_run)

    p_dev = sub.add_parser("devices", help="show the calibrated testbed")
    p_dev.set_defaults(func=cmd_devices)

    p_rep = sub.add_parser(
        "report", help="assemble archived benchmark tables into a report"
    )
    p_rep.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of archived tables (default benchmarks/results)",
    )
    p_rep.add_argument(
        "--out", default=None, help="write the report to a file"
    )
    p_rep.set_defaults(func=cmd_report)

    p_sched = sub.add_parser(
        "sched", help="scheduler subsystem (repro.sched)"
    )
    sched_sub = p_sched.add_subparsers(dest="sched_command", required=True)

    p_slist = sched_sub.add_parser(
        "list", help="list registered schedulers"
    )
    p_slist.set_defaults(func=cmd_sched_list)

    p_scmp = sched_sub.add_parser(
        "compare",
        help="run registered schedulers on one testbed and compare "
        "predicted makespan / energy / accuracy cost",
    )
    p_scmp.add_argument(
        "--testbed",
        default="A",
        help="testbed id (1/2/3 or A/B/C) or comma-separated device "
        "names (default A)",
    )
    p_scmp.add_argument(
        "--schedulers",
        default=None,
        help="comma-separated registry names (default: all registered)",
    )
    p_scmp.add_argument(
        "--dataset", default="mnist", help="mnist or cifar10"
    )
    p_scmp.add_argument(
        "--model", default="lenet", help="zoo model (default lenet)"
    )
    p_scmp.add_argument(
        "--shard-size", type=int, default=500, help="samples per shard"
    )
    p_scmp.add_argument(
        "--samples",
        type=int,
        default=None,
        help="total samples to schedule (default: the dataset size)",
    )
    p_scmp.add_argument(
        "--makespan-cap",
        type=float,
        default=None,
        help="deadline (s) for energy-minimising schedulers",
    )
    p_scmp.add_argument(
        "--no-energy",
        action="store_true",
        help="skip the energy cost model (min_energy reports an error "
        "row)",
    )
    p_scmp.add_argument(
        "--fleet-size",
        type=int,
        default=None,
        metavar="N",
        help="compare over a synthetic columnar fleet of N devices "
        "(repro.fleet) instead of a calibrated testbed; cost matrices "
        "are built by the vectorized per-class path",
    )
    p_scmp.add_argument(
        "--cohort",
        type=int,
        default=512,
        metavar="K",
        help="with --fleet-size, schedule a seeded uniform cohort of "
        "K devices drawn from the fleet (default 512; capped at N)",
    )
    p_scmp.add_argument(
        "--seed", type=int, default=0, help="seed for random baselines"
    )
    p_scmp.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream schedule_computed events to a JSON-lines file",
    )
    p_scmp.set_defaults(func=cmd_sched_compare)

    p_bench = sub.add_parser(
        "bench", help="the regression gate and the lint timer"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_blint = bench_sub.add_parser(
        "lint",
        help="time the lint pipeline per rule (writes BENCH_lint.json "
        "with --out)",
    )
    p_blint.add_argument(
        "--root",
        default=".",
        help="repository root (default: current directory)",
    )
    p_blint.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON document (BENCH_lint.json schema)",
    )
    p_blint.set_defaults(func=cmd_bench_lint)

    p_bsuite = bench_sub.add_parser(
        "suite",
        help="measure the three gated ratios (writes BENCH_core.json "
        "with --out)",
    )
    p_bsuite.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    p_bsuite.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON document (BENCH_core.json schema)",
    )
    p_bsuite.set_defaults(func=cmd_bench_suite)

    p_bdiff = bench_sub.add_parser(
        "diff",
        help="compare two suite payloads; exit 1 on a gated regression",
    )
    p_bdiff.add_argument("old", help="baseline payload (BENCH_core.json)")
    p_bdiff.add_argument("new", help="candidate payload")
    p_bdiff.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="gated-regression threshold in percent (default 25)",
    )
    p_bdiff.set_defaults(func=cmd_bench_diff)

    p_obs = sub.add_parser(
        "obs",
        help="observability over saved telemetry (repro.obs)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_osum = obs_sub.add_parser(
        "summary",
        help="render the terminal dashboard from a telemetry JSONL",
    )
    p_osum.add_argument("jsonl", help="telemetry JSON-lines file")
    p_osum.add_argument(
        "--rounds",
        type=int,
        default=10,
        help="max round rows to show (default 10)",
    )
    p_osum.add_argument(
        "--clients",
        type=int,
        default=12,
        help="max client rows to show (default 12)",
    )
    p_osum.set_defaults(func=cmd_obs_summary)

    p_oprom = obs_sub.add_parser(
        "export-prom",
        help="export metrics as Prometheus text exposition",
    )
    p_oprom.add_argument("jsonl", help="telemetry JSON-lines file")
    p_oprom.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    p_oprom.set_defaults(func=cmd_obs_export_prom)

    p_otrace = obs_sub.add_parser(
        "export-trace",
        help="export spans as Chrome/Perfetto trace-event JSON",
    )
    p_otrace.add_argument("jsonl", help="telemetry JSON-lines file")
    p_otrace.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    p_otrace.set_defaults(func=cmd_obs_export_trace)

    p_oprof = obs_sub.add_parser(
        "prof",
        help="profile a deterministic fleet workload with the phase "
        "profiler and print the hierarchical summary",
    )
    p_oprof.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="fleet rounds to run (default 3)",
    )
    p_oprof.add_argument(
        "--scheduler",
        default="proportional",
        help="scheduler registry name (default proportional)",
    )
    p_oprof.add_argument(
        "--seed", type=int, default=0, help="fleet/sampler seed"
    )
    p_oprof.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="summary format (default text)",
    )
    p_oprof.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    p_oprof.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also write a Perfetto trace with profiler counter tracks",
    )
    p_oprof.set_defaults(func=cmd_obs_prof)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo invariant linter (repro.analysis)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text; sarif for GitHub code "
        "scanning)",
    )
    p_lint.add_argument(
        "--root",
        default=".",
        help="repository root (default: current directory)",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppression baseline file "
        "(default: <root>/lint-baseline.json when present)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the suppression baseline entirely",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings as the new baseline",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    p_lint.add_argument(
        "--fix",
        action="store_true",
        help="apply the mechanical autofixes (seed stub for "
        "default_rng(), time.time->perf_counter, missing __all__ "
        "event exports) and exit",
    )
    p_lint.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diff, write nothing",
    )
    p_lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule subset to run (e.g. the "
        "determinism-taint pack CI uploads under its own SARIF "
        "category); default: all registered rules",
    )
    p_lint.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for git-changed files (the whole "
        "project graph is still analysed)",
    )
    p_lint.add_argument(
        "--base",
        default=None,
        metavar="REF",
        help="with --changed: also include files committed since the "
        "merge base with REF (e.g. origin/main — the PR-diff mode CI "
        "uses)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_tr = sub.add_parser(
        "trace", help="trace one device under sustained training"
    )
    p_tr.add_argument("device", help=f"one of {sorted(DEVICE_NAMES)}")
    p_tr.add_argument(
        "--model", default="lenet", help="zoo model (default lenet)"
    )
    p_tr.add_argument(
        "--samples", type=int, default=3000, help="samples per epoch"
    )
    p_tr.set_defaults(func=cmd_trace)

    p_srv = sub.add_parser(
        "serve",
        help="run the FL control-plane orchestrator (HTTP)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_srv.add_argument(
        "--port",
        type=int,
        default=8774,
        help="TCP port (0 = ephemeral; default 8774)",
    )
    p_srv.add_argument(
        "--scheduler",
        default="proportional",
        help="scheduler policy for training rounds",
    )
    p_srv.add_argument(
        "--fleet-size",
        type=int,
        default=256,
        help="registry capacity / synthetic fleet size",
    )
    p_srv.add_argument(
        "--shard-size", type=int, default=100, help="samples per shard"
    )
    p_srv.add_argument(
        "--cohort",
        type=int,
        default=None,
        help="cohort size per round (default: all eligible)",
    )
    p_srv.add_argument(
        "--min-soc",
        type=float,
        default=0.0,
        help="battery floor for scheduling eligibility",
    )
    p_srv.add_argument(
        "--stale-after",
        type=float,
        default=15.0,
        help="seconds of heartbeat silence before stale",
    )
    p_srv.add_argument(
        "--dead-after",
        type=float,
        default=45.0,
        help="seconds of heartbeat silence before dead",
    )
    p_srv.add_argument(
        "--monitor-interval",
        type=float,
        default=1.0,
        help="heartbeat monitor sweep cadence (seconds)",
    )
    p_srv.add_argument(
        "--seed", type=int, default=0, help="fleet/churn seed"
    )
    p_srv.add_argument(
        "--simulate",
        type=int,
        default=0,
        metavar="N",
        help="smoke mode: drive N simulated devices over HTTP "
        "on an ephemeral port, then exit nonzero on failure",
    )
    p_srv.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="rounds to run in --simulate mode",
    )
    p_srv.add_argument(
        "--sim-horizon",
        type=float,
        default=120.0,
        help="simulated-clock horizon for the churn trace (s)",
    )
    p_srv.add_argument(
        "--metrics-out",
        default=None,
        help="write the final /metrics scrape to this file",
    )
    p_srv.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
