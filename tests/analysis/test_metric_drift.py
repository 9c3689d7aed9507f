"""metric-doc-drift: repro.obs metric catalog vs docs/observability.md."""

from pathlib import Path

from repro.analysis import lint_repo

OBS_MODULE = '''\
from .metrics import register_metric

ALPHA = register_metric("repro_alpha_total", "counter", "alpha things")
BETA = register_metric(
    "repro_beta_seconds",
    "histogram",
    "beta latency",
    buckets=(1.0, 5.0),
)
'''


def make_repo(tmp_path: Path, documented=("repro_alpha_total",)) -> Path:
    pkg = tmp_path / "src" / "repro" / "obs"
    pkg.mkdir(parents=True)
    (pkg / "catalog.py").write_text(OBS_MODULE, encoding="utf-8")
    if documented is not None:
        rows = "\n".join(f"| `{n}` | demo |" for n in documented)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "observability.md").write_text(
            f"# Metrics\n\n| metric | notes |\n|---|---|\n{rows}\n",
            encoding="utf-8",
        )
    return tmp_path


def test_fully_documented_catalog_is_clean(tmp_path):
    root = make_repo(
        tmp_path, documented=("repro_alpha_total", "repro_beta_seconds")
    )
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    assert report.findings == []
    assert report.exit_code == 0


def test_undocumented_metric_is_flagged(tmp_path):
    root = make_repo(tmp_path)  # beta not documented
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    (finding,) = report.findings
    assert "'repro_beta_seconds'" in finding.message
    assert "docs/observability.md" in finding.message
    assert finding.path == "src/repro/obs/catalog.py"
    assert report.exit_code == 1


def test_missing_doc_file_is_flagged_once(tmp_path):
    root = make_repo(tmp_path, documented=None)
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    (finding,) = report.findings
    assert "does not exist" in finding.message


def test_backtick_mention_required(tmp_path):
    # a bare-word mention is not documentation; only `name` counts
    root = make_repo(tmp_path, documented=("repro_alpha_total",))
    doc = root / "docs" / "observability.md"
    doc.write_text(
        doc.read_text(encoding="utf-8")
        + "\nrepro_beta_seconds mentioned without backticks\n",
        encoding="utf-8",
    )
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    assert len(report.findings) == 1
    assert "'repro_beta_seconds'" in report.findings[0].message


def test_real_repo_catalog_is_documented():
    """The live catalog and the live doc must agree right now."""
    root = Path(__file__).resolve().parents[2]
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    assert report.findings == []


def test_inline_allow_silences_the_registration_line(tmp_path):
    root = make_repo(tmp_path)  # beta not documented
    catalog = root / "src" / "repro" / "obs" / "catalog.py"
    line = 'GAMMA = register_metric("repro_gamma", "gauge", "g")'
    catalog.write_text(OBS_MODULE + line + "\n", encoding="utf-8")
    report = lint_repo(root, rule_ids=["metric-doc-drift"])
    assert len(report.findings) == 2  # beta and gamma
    catalog.write_text(
        OBS_MODULE + line + "  # lint: allow[metric-doc-drift]\n",
        encoding="utf-8",
    )
    for use_baseline in (True, False):
        report = lint_repo(
            root,
            rule_ids=["metric-doc-drift"],
            use_baseline=use_baseline,
        )
        (finding,) = report.findings  # beta still fires
        assert "'repro_beta_seconds'" in finding.message
