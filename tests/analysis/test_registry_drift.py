"""registry-doc-drift: scheduler registry vs README vs tests/sched."""

from pathlib import Path

from repro.analysis import lint_repo

SCHED_MODULE = '''\
from .registry import register


@register("alpha")
class AlphaScheduler:
    pass


@register("beta")
class BetaScheduler:
    pass
'''


def make_repo(
    tmp_path: Path, readme_names=("alpha",), tested_names=("alpha",)
) -> Path:
    pkg = tmp_path / "src" / "repro" / "sched"
    pkg.mkdir(parents=True)
    (pkg / "adapters.py").write_text(SCHED_MODULE, encoding="utf-8")
    rows = "\n".join(f"| `{n}` | demo |" for n in readme_names)
    (tmp_path / "README.md").write_text(
        f"# Demo\n\n| scheduler | notes |\n|---|---|\n{rows}\n",
        encoding="utf-8",
    )
    tdir = tmp_path / "tests" / "sched"
    tdir.mkdir(parents=True)
    body = "\n".join(
        f'def test_{n}():\n    get_scheduler("{n}")\n\n'
        for n in tested_names
    )
    (tdir / "test_demo.py").write_text(body or "\n", encoding="utf-8")
    return tmp_path


def test_documented_and_tested_registry_is_clean(tmp_path):
    root = make_repo(
        tmp_path,
        readme_names=("alpha", "beta"),
        tested_names=("alpha", "beta"),
    )
    report = lint_repo(root, rule_ids=["registry-doc-drift"])
    assert report.findings == []
    assert report.exit_code == 0


def test_missing_readme_row_and_test_are_flagged(tmp_path):
    root = make_repo(tmp_path)  # beta neither documented nor tested
    report = lint_repo(root, rule_ids=["registry-doc-drift"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2
    assert any("README" in m and "'beta'" in m for m in messages)
    assert any("tests/sched" in m and "'beta'" in m for m in messages)
    # findings point at the registration site
    assert all(
        f.path == "src/repro/sched/adapters.py"
        for f in report.findings
    )
    assert report.exit_code == 1


def test_backtick_mention_required_in_readme(tmp_path):
    # a bare-word mention is not a table row; only `name` counts
    root = make_repo(
        tmp_path, readme_names=("alpha",), tested_names=("alpha", "beta")
    )
    readme = (root / "README.md").read_text(encoding="utf-8")
    (root / "README.md").write_text(
        readme + "\nbeta is mentioned without backticks\n",
        encoding="utf-8",
    )
    report = lint_repo(root, rule_ids=["registry-doc-drift"])
    assert len(report.findings) == 1
    assert "README" in report.findings[0].message


def test_inline_allow_silences_the_registration_line(tmp_path):
    # project rules bypass the per-file walk; the runner applies
    # `lint: allow` to their findings all the same
    root = make_repo(
        tmp_path, readme_names=("alpha",), tested_names=("alpha", "beta")
    )
    module = root / "src" / "repro" / "sched" / "adapters.py"
    report = lint_repo(root, rule_ids=["registry-doc-drift"])
    assert len(report.findings) == 1  # beta has no README row
    module.write_text(
        SCHED_MODULE.replace(
            '@register("beta")',
            '@register("beta")  # lint: allow[registry-doc-drift]',
        ),
        encoding="utf-8",
    )
    for use_baseline in (True, False):
        report = lint_repo(
            root,
            rule_ids=["registry-doc-drift"],
            use_baseline=use_baseline,
        )
        assert report.findings == []
