"""Fixture-pair and surface tests for the determinism-taint rule pack.

Each taint rule has a ``*_bad.py`` fixture whose golden finding lines
are pinned (multi-hop flows an AST-only rule cannot see) and a
``*_good.py`` twin that must stay clean. On top sit the reporting
surfaces: propagation chains in text output and SARIF ``codeFlows``,
the ``--rules`` subset flag CI uses for the taint category, and
byte-stable JSON across dict-ordering perturbations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    format_findings,
    lint_repo,
    lint_source,
    sarif_payload,
)
from repro.analysis.taintrules import (
    EnvDependentConfig,
    HostTimeTaint,
    RngTaintEscape,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

# (fixture stem, pretend module of the bad twin, rule, golden lines)
PAIRS = [
    (
        "taint_hosttime",
        "src/repro/engine/{stem}.py",
        HostTimeTaint.id,
        [26, 27, 28, 29],
    ),
    (
        "taint_rng",
        "src/repro/fleet/{stem}.py",
        RngTaintEscape.id,
        [27, 28, 29],
    ),
    (
        "taint_env",
        "src/repro/fleet/{stem}.py",
        EnvDependentConfig.id,
        [15, 19, 23, 24],
    ),
]


def _lint_fixture(stem: str, kind: str, module_tpl: str, rule_id: str):
    name = f"{stem}_{kind}"
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    if rule_id == EnvDependentConfig.id and kind == "good":
        # the good twin lives *inside* an entry layer on purpose
        module = "src/repro/serve/app.py"
    else:
        module = module_tpl.format(stem=name)
    return source, lint_source(source, module, rule_ids=[rule_id])


@pytest.mark.parametrize("stem,module_tpl,rule_id,lines", PAIRS)
def test_bad_fixture_golden_lines(stem, module_tpl, rule_id, lines):
    _, findings = _lint_fixture(stem, "bad", module_tpl, rule_id)
    assert [f.line for f in findings] == lines, [
        f.message for f in findings
    ]
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("stem,module_tpl,rule_id,lines", PAIRS)
def test_good_fixture_is_clean(stem, module_tpl, rule_id, lines):
    _, findings = _lint_fixture(stem, "good", module_tpl, rule_id)
    assert findings == []


def test_findings_carry_the_full_propagation_chain():
    """The seeded-bug demo: the helper return, the instance attribute
    and the local are each one hop an AST matcher cannot follow."""
    _, findings = _lint_fixture(
        "taint_hosttime", "bad", "src/repro/engine/{stem}.py",
        HostTimeTaint.id,
    )
    by_line = {f.line: f for f in findings}
    labels = [s.label for s in by_line[27].flow]
    assert labels == [
        "time.perf_counter",
        "wall",
        "RoundCompleted.time_s",
    ]
    for f in findings:
        assert f.flow, "every taint finding must carry its chain"
        assert f"(flow: {f.render_flow()})" in f.message


def test_rng_chain_walks_through_class_state():
    _, findings = _lint_fixture(
        "taint_rng", "bad", "src/repro/fleet/{stem}.py",
        RngTaintEscape.id,
    )
    commit = [f for f in findings if "commit" in f.message]
    assert len(commit) == 1
    labels = [s.label for s in commit[0].flow]
    assert labels[0] == "numpy.random.default_rng()"
    assert "self._rng" in labels
    assert labels[-1] == "self.registry.commit(...)"


def test_text_format_renders_flow_lines():
    source = (FIXTURES / "taint_hosttime_bad.py").read_text(
        encoding="utf-8"
    )
    module = "src/repro/engine/taint_hosttime_bad.py"
    findings = lint_source(source, module, rule_ids=[HostTimeTaint.id])
    from repro.analysis.runner import LintReport

    text = format_findings(
        LintReport(
            findings=findings,
            files_checked=1,
            rules_run=(HostTimeTaint.id,),
        )
    )
    assert "flow: time.perf_counter -> wall" in text


def test_inline_allow_suppresses_taint_rules():
    source = textwrap.dedent(
        """
        import time


        def f(bus):
            wall = time.perf_counter()
            bus.emit(wall)  # lint: allow[host-time-taint]
        """
    )
    module = "src/repro/engine/demo.py"
    assert (
        lint_source(source, module, rule_ids=[HostTimeTaint.id]) == []
    )


def test_host_time_rule_exempts_sanctioned_domains():
    source = (FIXTURES / "taint_hosttime_bad.py").read_text(
        encoding="utf-8"
    )
    for module in (
        "src/repro/obs/prof.py",
        "src/repro/perf/harness.py",
        "src/repro/cli.py",
        "examples/scratch.py",
    ):
        assert (
            lint_source(source, module, rule_ids=[HostTimeTaint.id])
            == []
        ), module


# ---------------------------------------------------------------------------
# reporting surfaces: SARIF codeFlows, --rules, byte-stable JSON
# ---------------------------------------------------------------------------


def taint_repo(tmp_path: Path) -> Path:
    target = tmp_path / "src" / "repro" / "engine" / "runner.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        (FIXTURES / "taint_hosttime_bad.py").read_text(
            encoding="utf-8"
        ),
        encoding="utf-8",
    )
    return tmp_path


def test_sarif_exports_code_flows(tmp_path):
    report = lint_repo(
        taint_repo(tmp_path),
        rule_ids=[HostTimeTaint.id],
        use_baseline=False,
    )
    assert report.findings
    doc = sarif_payload(report)
    results = doc["runs"][0]["results"]
    assert results
    for res, finding in zip(results, report.findings):
        (code_flow,) = res["codeFlows"]
        (thread,) = code_flow["threadFlows"]
        texts = [
            loc["location"]["message"]["text"]
            for loc in thread["locations"]
        ]
        assert texts == [s.label for s in finding.flow]
        for loc in thread["locations"]:
            phys = loc["location"]["physicalLocation"]
            assert phys["region"]["startLine"] >= 1
            assert not phys["artifactLocation"]["uri"].startswith("/")


def test_cli_rules_flag_scopes_the_run(tmp_path, capsys):
    root = str(taint_repo(tmp_path))
    assert (
        main(["lint", "--root", root, "--rules", HostTimeTaint.id]) == 1
    )
    out = capsys.readouterr().out
    assert "host-time-taint" in out
    assert "1 rules" in out.splitlines()[-1]
    # the same tree is quiet under an unrelated rule...
    assert (
        main(["lint", "--root", root, "--rules", "no-float-equality"])
        == 0
    )
    capsys.readouterr()
    # ...and an unknown id is a usage error, not a silent no-op
    assert main(["lint", "--root", root, "--rules", "no-such"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_json_output_is_byte_stable_across_hash_seeds(tmp_path):
    """`repro lint --format json` must not leak dict/set iteration
    order: two interpreters with different hash seeds, same bytes."""
    root = taint_repo(tmp_path)
    env_file = root / "src" / "repro" / "fleet" / "cfg.py"
    env_file.parent.mkdir(parents=True, exist_ok=True)
    env_file.write_text(
        (FIXTURES / "taint_env_bad.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )

    def run(seed: str) -> bytes:
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "lint",
                "--root",
                str(root),
                "--format",
                "json",
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stderr.decode()
        return proc.stdout

    first = run("0")
    assert json.loads(first)["findings"], "corpus must produce findings"
    assert first == run("4242")
