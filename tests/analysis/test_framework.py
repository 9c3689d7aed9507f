"""Framework-level behaviour: registry, suppression, fingerprints,
and the rule-table drift gate over the docs."""

from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    FileRule,
    ProjectRule,
    Rule,
    Severity,
    available_rules,
    lint_source,
    rule_class,
)
from repro.analysis.asyncrules import (
    BlockingCallInAsync,
    LockAcrossAwait,
    SharedFleetMutation,
    TaskLeak,
    UnawaitedCoroutine,
)
from repro.analysis.rules import (
    BenchPayloadSchema,
    DeadPublicApi,
    EnvDependentConfig,
    EventSchemaSync,
    NoFloatEquality,
    NoPythonLoopOverFleet,
    NoUnseededRng,
    NoWallClock,
    UnitConsistency,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the complete rule set — id -> implementing class; adding a rule
#: without extending this table (and the docs, see the drift test
#: below) is a test failure by design
EXPECTED_RULES = {
    "bench-payload-schema": BenchPayloadSchema,
    "blocking-call-in-async": BlockingCallInAsync,
    "dead-public-api": DeadPublicApi,
    "env-dependent-config": EnvDependentConfig,
    "event-schema-sync": EventSchemaSync,
    "lock-across-await": LockAcrossAwait,
    "no-float-equality": NoFloatEquality,
    "no-python-loop-over-fleet": NoPythonLoopOverFleet,
    "no-unseeded-rng": NoUnseededRng,
    "no-wall-clock": NoWallClock,
    "shared-fleet-mutation": SharedFleetMutation,
    "task-leak": TaskLeak,
    "unawaited-coroutine": UnawaitedCoroutine,
    "unit-consistency": UnitConsistency,
}


def test_registry_is_exactly_the_expected_rules():
    assert set(available_rules()) == set(EXPECTED_RULES)
    for rid, cls in EXPECTED_RULES.items():
        assert rule_class(rid) is cls
        assert issubclass(cls, Rule)
        assert issubclass(cls, (FileRule, ProjectRule))


def test_docs_table_lists_every_rule():
    """docs/static-analysis.md must name every registered rule —
    the docs-side half of the registry drift gate."""
    docs = (REPO_ROOT / "docs" / "static-analysis.md").read_text(
        encoding="utf-8"
    )
    for rid in available_rules():
        assert f"`{rid}`" in docs, (
            f"rule {rid!r} is registered but missing from "
            "docs/static-analysis.md"
        )


def test_every_rule_has_a_description():
    for rid in available_rules():
        cls = rule_class(rid)
        assert cls.id == rid
        assert cls.description


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        lint_source("x = 1\n", "src/repro/core/x.py", ["no-such-rule"])


def test_inline_allow_comment_suppresses():
    flagged = "t = time.time()\n"
    allowed = "t = time.time()  # lint: allow[no-wall-clock]\n"
    prefix = "import time\n"
    module = "src/repro/core/t.py"
    assert len(lint_source(prefix + flagged, module)) == 1
    assert lint_source(prefix + allowed, module) == []


def test_inline_allow_is_per_rule():
    # an allow for a different rule must not silence this one
    source = (
        "import time\n"
        "t = time.time()  # lint: allow[no-float-equality]\n"
    )
    findings = lint_source(source, "src/repro/core/t.py")
    assert [f.rule_id for f in findings] == ["no-wall-clock"]


def test_fingerprint_survives_line_shifts():
    body = "import time\nt = time.time()\n"
    shifted = "import time\n\n\n# a comment\nt = time.time()\n"
    module = "src/repro/core/t.py"
    (a,) = lint_source(body, module)
    (b,) = lint_source(shifted, module)
    assert a.line != b.line
    assert a.fingerprint() == b.fingerprint()


def test_findings_are_sorted_and_renderable():
    source = (
        "import time\n"
        "a = time.time()\n"
        "b = 1.0 == x\n"
        "c = time.time_ns()\n"
    )
    findings = lint_source(source, "src/repro/engine/multi.py")
    assert [f.line for f in findings] == [2, 3, 4]
    for f in findings:
        assert f.severity is Severity.ERROR
        rendered = f.render()
        assert rendered.startswith(f"{f.path}:{f.line}:")
        assert f.rule_id in rendered


def test_finding_to_dict_is_json_shaped():
    f = Finding(
        rule_id="no-wall-clock",
        path="src/repro/core/x.py",
        line=3,
        message="m",
        code="t = time.time()",
    )
    d = f.to_dict()
    assert d["rule"] == "no-wall-clock"
    assert d["severity"] == "error"
    assert d["line"] == 3
