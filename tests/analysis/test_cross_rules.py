"""Cross-module rules, each exercised on purpose-built mini repos:
unit-consistency (cross-call flow) and dead-public-api."""

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


def test_dead_public_api_defining_module_is_no_consumer_of_a_reexport(
    tmp_path,
):
    # `helper` is used inside the module that defines it, but nothing
    # imports it from the package that re-exports it
    root = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from .mod import api, helper\n"
                "\n"
                "__all__ = [\"api\", \"helper\"]\n"
            ),
            "src/repro/pkg/mod.py": (
                "__all__ = [\"api\"]\n"
                "\n"
                "\n"
                "def helper():\n"
                "    return 1\n"
                "\n"
                "\n"
                "def api():\n"
                "    return helper()\n"
            ),
            "tests/test_use.py": "from repro.pkg import api\n\nvalue = api()\n",
        },
    )
    findings = lint_rule(root, "dead-public-api")
    assert [(f.path, f.message.split(" but ")[0]) for f in findings] == [
        ("src/repro/pkg/__init__.py", "repro.pkg.__all__ exports 'helper'")
    ]
