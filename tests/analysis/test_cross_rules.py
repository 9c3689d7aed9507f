"""Cross-module rules, each exercised on purpose-built mini repos:
event-dispatch-exhaustiveness, scheduler-contract, unit-consistency
(cross-call flow) and dead-public-api."""

from pathlib import Path

from repro.analysis import lint_repo, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def write_tree(tmp_path: Path, files: dict) -> Path:
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
    return tmp_path


def lint_rule(root: Path, rule_id: str):
    """Full lint, findings filtered to the rule under test."""
    report = lint_repo(root, use_baseline=False)
    assert report.parse_errors == []
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# event-dispatch-exhaustiveness
# ---------------------------------------------------------------------------

EVENTS_PY = (
    "class EngineEvent:\n"
    "    pass\n"
    "\n"
    "\n"
    "class TickEvent(EngineEvent):\n"
    "    kind: str = \"tick\"\n"
    "\n"
    "\n"
    "class DoneEvent(EngineEvent):\n"
    "    kind: str = \"done\"\n"
)

RECORDER_OK = (
    "from ..engine.events import DoneEvent, TickEvent\n"
    "\n"
    "\n"
    "class ObsRecorder:\n"
    "    def __call__(self, event):\n"
    "        return self._HANDLERS[event.kind](self, event)\n"
    "\n"
    "    def _on_tick(self, event):\n"
    "        return \"tick\"\n"
    "\n"
    "    def _on_done(self, event):\n"
    "        return \"done\"\n"
    "\n"
    "    _HANDLERS = {\n"
    "        TickEvent.kind: _on_tick,\n"
    "        DoneEvent.kind: _on_done,\n"
    "    }\n"
)


def event_repo(tmp_path: Path, recorder: str) -> Path:
    return write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/engine/__init__.py": "",
            "src/repro/engine/events.py": EVENTS_PY,
            "src/repro/obs/__init__.py": "",
            "src/repro/obs/recorder.py": recorder,
        },
    )


def test_event_dispatch_clean(tmp_path):
    root = event_repo(tmp_path, RECORDER_OK)
    assert lint_rule(root, "event-dispatch-exhaustiveness") == []


def test_event_dispatch_missing_handler(tmp_path):
    broken = RECORDER_OK.replace(
        "        DoneEvent.kind: _on_done,\n", ""
    )
    root = event_repo(tmp_path, broken)
    findings = lint_rule(root, "event-dispatch-exhaustiveness")
    assert len(findings) == 1
    assert "DoneEvent" in findings[0].message
    assert "_HANDLERS" in findings[0].message
    assert findings[0].path == "src/repro/obs/recorder.py"


def test_event_dispatch_handler_for_undeclared_event(tmp_path):
    broken = RECORDER_OK.replace(
        "        DoneEvent.kind: _on_done,\n",
        "        DoneEvent.kind: _on_done,\n"
        "        \"legacy_tick\": _on_tick,\n",
    )
    root = event_repo(tmp_path, broken)
    findings = lint_rule(root, "event-dispatch-exhaustiveness")
    assert len(findings) == 1
    assert "'legacy_tick'" in findings[0].message
    assert "never run" in findings[0].message


def test_event_dispatch_nonexistent_target(tmp_path):
    broken = RECORDER_OK.replace(
        "from ..engine.events import DoneEvent, TickEvent\n",
        "from ..engine.events import DoneEvent, GhostEvent, TickEvent\n",
    ).replace(
        "        TickEvent.kind: _on_tick,\n",
        "        GhostEvent.kind: _on_tick,\n"
        "        TickEvent.kind: _on_tick,\n",
    )
    root = event_repo(tmp_path, broken)
    findings = lint_rule(root, "event-dispatch-exhaustiveness")
    assert len(findings) == 1
    assert "GhostEvent" in findings[0].message
    assert "does not exist" in findings[0].message


def test_event_dispatch_table_missing_altogether(tmp_path):
    """A recorder with no table handles nothing: one finding per event,
    anchored at the class."""
    broken = RECORDER_OK[: RECORDER_OK.index("    _HANDLERS = {")]
    root = event_repo(tmp_path, broken)
    findings = lint_rule(root, "event-dispatch-exhaustiveness")
    assert sorted(f.message.split()[2] for f in findings) == [
        "DoneEvent",
        "TickEvent",
    ]


def test_event_dispatch_silent_without_consumers(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/engine/__init__.py": "",
            "src/repro/engine/events.py": EVENTS_PY,
        },
    )
    assert lint_rule(root, "event-dispatch-exhaustiveness") == []


# ---------------------------------------------------------------------------
# scheduler-contract
# ---------------------------------------------------------------------------

SCHED_COMMON = {
    "src/repro/__init__.py": "",
    "src/repro/sched/__init__.py": "from . import impls\n",
    "src/repro/sched/registry.py": (
        "def register(name):\n"
        "    def deco(cls):\n"
        "        return cls\n"
        "    return deco\n"
    ),
    "src/repro/sched/base.py": (
        "class Assignment:\n"
        "    pass\n"
        "\n"
        "\n"
        "class Scheduler:\n"
        "    def schedule(self, problem) -> \"Assignment\":\n"
        "        raise NotImplementedError\n"
    ),
    "src/repro/sched/bench.py": (
        "from . import registry\n"
        "\n"
        "\n"
        "def compare(problem, names):\n"
        "    return [registry.register(n) for n in names]\n"
    ),
}

IMPLS_OK = (
    "from .base import Assignment, Scheduler\n"
    "from .registry import register\n"
    "\n"
    "\n"
    "@register(\"good\")\n"
    "class Good(Scheduler):\n"
    "    def schedule(self, problem, greedy=True) -> Assignment:\n"
    "        return Assignment()\n"
)


def sched_repo(tmp_path: Path, impls: str, extra: dict = None) -> Path:
    files = {**SCHED_COMMON, "src/repro/sched/impls.py": impls}
    files.update(extra or {})
    return write_tree(tmp_path, files)


def test_scheduler_contract_clean(tmp_path):
    root = sched_repo(tmp_path, IMPLS_OK)
    assert lint_rule(root, "scheduler-contract") == []


def test_scheduler_contract_not_a_subclass(tmp_path):
    impls = (
        "from .base import Assignment\n"
        "from .registry import register\n"
        "\n"
        "\n"
        "@register(\"rogue\")\n"
        "class Rogue:\n"
        "    def schedule(self, problem) -> Assignment:\n"
        "        return Assignment()\n"
    )
    root = sched_repo(tmp_path, impls)
    findings = lint_rule(root, "scheduler-contract")
    assert len(findings) == 1
    assert "does not subclass" in findings[0].message
    assert "Rogue" in findings[0].message


def test_scheduler_contract_missing_schedule(tmp_path):
    impls = (
        "from .registry import register\n"
        "\n"
        "\n"
        "@register(\"hollow\")\n"
        "class Hollow:\n"
        "    pass\n"
    )
    root = sched_repo(tmp_path, impls)
    messages = [
        f.message for f in lint_rule(root, "scheduler-contract")
    ]
    assert any("neither defines nor inherits" in m for m in messages)


def test_scheduler_contract_bad_signature(tmp_path):
    impls = IMPLS_OK.replace(
        "def schedule(self, problem, greedy=True) -> Assignment:",
        "def schedule(self, problem, horizon) -> Assignment:",
    )
    root = sched_repo(tmp_path, impls)
    findings = lint_rule(root, "scheduler-contract")
    assert len(findings) == 1
    assert "does not match" in findings[0].message
    assert "defaults" in findings[0].message


def test_scheduler_contract_bad_return_annotation(tmp_path):
    impls = IMPLS_OK.replace("-> Assignment:", "-> dict:")
    root = sched_repo(tmp_path, impls)
    findings = lint_rule(root, "scheduler-contract")
    assert len(findings) == 1
    assert "'dict'" in findings[0].message
    assert "Assignment" in findings[0].message


def test_scheduler_contract_unreachable_from_bench(tmp_path):
    orphan = IMPLS_OK.replace('"good"', '"orphan"').replace(
        "class Good", "class Orphan"
    )
    root = sched_repo(
        tmp_path, IMPLS_OK, {"src/repro/sched/orphan.py": orphan}
    )
    findings = lint_rule(root, "scheduler-contract")
    assert len(findings) == 1
    assert "Orphan" in findings[0].message
    assert "never imports" in findings[0].message
    assert findings[0].path == "src/repro/sched/orphan.py"


# ---------------------------------------------------------------------------
# unit-consistency
# ---------------------------------------------------------------------------


def test_unit_fixture_bad():
    source = (FIXTURES / "unit_bad.py").read_text(encoding="utf-8")
    findings = lint_source(
        source, "src/repro/engine/unit_bad.py", ["unit-consistency"]
    )
    assert len(findings) == 4
    verbs = " ".join(f.message for f in findings)
    assert "added/subtracted" in verbs
    assert "compared against" in verbs
    assert "assigned from" in verbs


def test_unit_fixture_good():
    source = (FIXTURES / "unit_good.py").read_text(encoding="utf-8")
    assert (
        lint_source(
            source,
            "src/repro/engine/unit_good.py",
            ["unit-consistency"],
        )
        == []
    )


def test_unit_rule_scoped_to_simulation_packages():
    source = "total = makespan_s + energy_j\n"
    assert (
        lint_source(
            source, "src/repro/plots/render.py", ["unit-consistency"]
        )
        == []
    )
    assert (
        len(
            lint_source(
                source, "src/repro/core/cost.py", ["unit-consistency"]
            )
        )
        == 1
    )


def test_unit_cross_call_flow(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/engine/__init__.py": "",
            "src/repro/engine/clockwork.py": (
                "def wait(delay_s):\n"
                "    return delay_s\n"
            ),
            "src/repro/engine/driver.py": (
                "from .clockwork import wait\n"
                "\n"
                "\n"
                "def run(energy_j):\n"
                "    positional = wait(energy_j)\n"
                "    keyword = wait(delay_s=energy_j)\n"
                "    return positional, keyword\n"
            ),
        },
    )
    findings = lint_rule(root, "unit-consistency")
    assert len(findings) == 2
    for f in findings:
        assert f.path == "src/repro/engine/driver.py"
        assert "'delay_s'" in f.message
        assert "repro.engine.clockwork.wait" in f.message


def test_unit_conversion_via_multiplication_is_exempt():
    source = "solve_ms = wait_s * 1000.0\n"
    assert (
        lint_source(
            source, "src/repro/engine/x.py", ["unit-consistency"]
        )
        == []
    )


# ---------------------------------------------------------------------------
# dead-public-api
# ---------------------------------------------------------------------------


def dead_api_repo(tmp_path: Path, test_body: str) -> Path:
    return write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/mod.py": (
                "__all__ = [\"used\", \"dead\"]\n"
                "\n"
                "\n"
                "def used():\n"
                "    return 1\n"
                "\n"
                "\n"
                "def dead():\n"
                "    return 2\n"
            ),
            "tests/test_use.py": test_body,
        },
    )


def test_dead_public_api_flags_unreferenced_export(tmp_path):
    root = dead_api_repo(
        tmp_path,
        "from repro.pkg.mod import used\n\nvalue = used()\n",
    )
    findings = lint_rule(root, "dead-public-api")
    assert len(findings) == 1
    assert "'dead'" in findings[0].message
    assert findings[0].path == "src/repro/pkg/mod.py"
    assert findings[0].line == 8  # the def line, not the __all__ line


def test_dead_public_api_import_alone_is_not_a_reference(tmp_path):
    # importing `dead` without ever naming it again still counts as dead
    root = dead_api_repo(
        tmp_path,
        "from repro.pkg.mod import dead, used\n\nvalue = used()\n",
    )
    findings = lint_rule(root, "dead-public-api")
    assert len(findings) == 1
    assert "'dead'" in findings[0].message


def test_dead_public_api_clean_when_all_exports_referenced(tmp_path):
    root = dead_api_repo(
        tmp_path,
        "from repro.pkg.mod import dead, used\n\n"
        "value = used() + dead()\n",
    )
    assert lint_rule(root, "dead-public-api") == []


def test_dead_public_api_inline_allow(tmp_path):
    root = dead_api_repo(
        tmp_path,
        "from repro.pkg.mod import used\n\nvalue = used()\n",
    )
    mod = root / "src/repro/pkg/mod.py"
    mod.write_text(
        mod.read_text(encoding="utf-8").replace(
            "def dead():",
            "def dead():  # lint: allow[dead-public-api]",
        ),
        encoding="utf-8",
    )
    assert lint_rule(root, "dead-public-api") == []
