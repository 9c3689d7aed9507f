"""Shared fixtures for the static-analysis tests."""

from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis import LintReport, lint_repo, set_parse_listener

REPO_ROOT = Path(__file__).resolve().parents[2]


class RepoLint(NamedTuple):
    report: LintReport
    #: module -> times it went through the parse seam during the run
    parses: Counter


@pytest.fixture(scope="session")
def repo_lint() -> RepoLint:
    """One whole-repo lint of this checkout, run with the parse listener
    installed, shared by every test that only reads its result."""
    parses: Counter = Counter()
    set_parse_listener(lambda module: parses.update([module]))
    try:
        report = lint_repo(REPO_ROOT)
    finally:
        set_parse_listener(None)
    return RepoLint(report, parses)
