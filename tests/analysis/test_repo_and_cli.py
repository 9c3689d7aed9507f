"""The gate itself: the repo lints clean, and the CLI exit codes are
wired so CI can block on them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import available_rules
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture, in-scope destination inside a pretend checkout)
BAD_FIXTURES = [
    ("rng_bad.py", "src/repro/device/rng_bad.py"),
    ("wall_clock_bad.py", "src/repro/engine/wall_clock_bad.py"),
    ("float_eq_bad.py", "src/repro/core/float_eq_bad.py"),
    ("events_bad.py", "src/repro/engine/events.py"),
    ("async_lock_bad.py", "src/repro/serve/ledger.py"),
]


def test_repo_is_lint_clean(repo_lint):
    """`repro lint` must exit 0 on this very checkout."""
    report = repo_lint.report
    assert [f.render() for f in report.findings] == []
    assert report.parse_errors == []
    assert report.stale_baseline == []
    assert report.exit_code == 0
    assert report.files_checked > 50
    assert set(available_rules()) <= set(report.rules_run)


def test_cli_lint_clean_on_repo(capsys):
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


@pytest.mark.parametrize("fixture,dest", BAD_FIXTURES)
def test_cli_exits_nonzero_on_bad_fixture(tmp_path, fixture, dest, capsys):
    target = tmp_path / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        (FIXTURES / fixture).read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert main(["lint", "--root", str(tmp_path)]) == 1
    assert "error[" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "engine" / "clock.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\nT = time.time()\n", encoding="utf-8")
    assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "no-wall-clock"
    assert finding["line"] == 2


def test_cli_list_rules(capsys):
    assert main(["lint", "--root", str(REPO_ROOT), "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in available_rules():
        assert rid in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "engine" / "clock.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\nT = time.time()\n", encoding="utf-8")
    assert main(["lint", "--root", str(tmp_path)]) == 1
    assert main(["lint", "--root", str(tmp_path), "--write-baseline"]) == 0
    assert (tmp_path / "lint-baseline.json").is_file()
    assert main(["lint", "--root", str(tmp_path)]) == 0
    capsys.readouterr()


def test_cli_rejects_non_repo_root(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path)]) == 2
    assert "src/repro" in capsys.readouterr().err


def two_rule_repo(tmp_path: Path) -> Path:
    """An env read and a wall-clock read, each where its rule bites."""
    for fixture, dest in (
        ("taint_env_bad.py", "src/repro/fleet/cfg.py"),
        ("wall_clock_bad.py", "src/repro/engine/wall_clock_bad.py"),
    ):
        target = tmp_path / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            (FIXTURES / fixture).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
    return tmp_path


def test_cli_rules_flag_scopes_the_run(tmp_path, capsys):
    root = str(two_rule_repo(tmp_path))
    args = ["lint", "--root", root, "--rules"]
    assert main([*args, "env-dependent-config"]) == 1
    out = capsys.readouterr().out
    assert "env-dependent-config" in out
    assert "no-wall-clock" not in out
    assert "1 rules" in out.splitlines()[-1]
    # the same tree is quiet under an unrelated rule...
    assert main([*args, "no-float-equality"]) == 0
    capsys.readouterr()
    # ...and an unknown id is a usage error, not a silent no-op
    assert main([*args, "no-such"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_json_output_is_byte_stable_across_hash_seeds(tmp_path):
    """`repro lint --format json` must not leak dict/set iteration
    order: two interpreters with different hash seeds, same bytes."""
    root = two_rule_repo(tmp_path)

    def run(seed: str) -> bytes:
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--root", str(root),
             "--format", "json"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stderr.decode()
        return proc.stdout

    first = run("0")
    assert json.loads(first)["findings"], "corpus must produce findings"
    assert first == run("4242")


def git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


def test_cli_changed_scopes_reporting_to_dirty_files(tmp_path, capsys):
    """--changed reports only findings in git-dirty files, while the
    project graph (and the project rules) still see the whole tree."""
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    committed = pkg / "old_clock.py"
    committed.write_text(
        "import time\nT = time.time()\n", encoding="utf-8"
    )
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")

    # full lint sees the committed violation...
    assert main(["lint", "--root", str(tmp_path)]) == 1
    assert "old_clock" in capsys.readouterr().out

    # ...but --changed with a clean tree reports nothing
    assert main(["lint", "--root", str(tmp_path), "--changed"]) == 0
    capsys.readouterr()

    # an untracked violating file is in scope, the committed one is not
    fresh = pkg / "new_clock.py"
    fresh.write_text("import time\nU = time.time()\n", encoding="utf-8")
    assert main(["lint", "--root", str(tmp_path), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "new_clock" in out
    assert "old_clock" not in out


def test_cli_changed_base_diffs_against_merge_base(tmp_path, capsys):
    """--changed --base REF scopes to files changed since REF — the
    CI PR job's view — even when the working tree itself is clean."""
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    old = pkg / "old_clock.py"
    old.write_text("import time\nT = time.time()\n", encoding="utf-8")
    git(tmp_path, "init", "-q", "-b", "main")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")

    git(tmp_path, "checkout", "-qb", "feature")
    new = pkg / "new_clock.py"
    new.write_text("import time\nU = time.time()\n", encoding="utf-8")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "add clock")

    # committed on the branch => plain --changed sees a clean tree...
    assert main(["lint", "--root", str(tmp_path), "--changed"]) == 0
    capsys.readouterr()
    # ...but diffing against main scopes to the branch's files
    args = ["lint", "--root", str(tmp_path), "--changed", "--base", "main"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "new_clock" in out
    assert "old_clock" not in out


def test_cli_changed_outside_git_repo_errors(tmp_path, capsys):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    assert main(["lint", "--root", str(tmp_path), "--changed"]) == 2
    assert "git" in capsys.readouterr().err


def test_cli_version(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out
