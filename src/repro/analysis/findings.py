"""Finding and severity types shared by every lint rule.

A :class:`Finding` pins one invariant violation to a file/line and the
rule that raised it. Findings are value objects: the runner sorts,
deduplicates and serialises them, and the suppression baseline matches
them by :meth:`Finding.fingerprint` — (rule id, path,
:func:`normalize_context`-normalised source text), never the line
*number*, so unrelated edits above (or re-indentation of) a suppressed
finding do not churn the baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Severity", "Finding", "normalize_context"]

#: a text edit ``--fix`` applies: (1-based line, col start, col end,
#: replacement), columns in UTF-8 bytes as :mod:`ast` counts them;
#: ``start == end`` inserts, and a line one past the last appends
TextEdit = Tuple[int, int, int, str]


def normalize_context(code: str) -> str:
    """Whitespace-insensitive form of a source line.

    Fingerprints key on this instead of the raw line so pure
    formatting churn (re-indentation, spacing around operators being
    collapsed by a formatter) does not invalidate baseline entries.
    """
    return " ".join(code.split())


class Severity(enum.Enum):
    """How hard a finding should fail the build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule_id:
        Registry key of the rule that fired (e.g. ``no-wall-clock``).
    path:
        Repo-relative posix path of the offending file.
    line, col:
        1-based line and 0-based column of the flagged node.
    message:
        Human-readable explanation with the suggested fix.
    severity:
        :class:`Severity`; only errors fail ``repro lint``.
    code:
        The stripped source line, used for baseline fingerprints and
        text output.
    fix:
        The edits that mechanically repair the violation (empty when
        it needs a human); applied by ``repro lint --fix``. Not part of
        the finding's identity, JSON or SARIF.
    """

    rule_id: str
    path: str
    line: int
    message: str
    col: int = 0
    severity: Severity = Severity.ERROR
    code: str = ""
    fix: Tuple[TextEdit, ...] = field(default=(), compare=False)

    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-shift-stable identity used by the baseline: (rule id,
        path, whitespace-normalised source context)."""
        return (self.rule_id, self.path, normalize_context(self.code))

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload for ``repro lint --format json``."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "code": self.code,
        }

    def render(self) -> str:
        """One-line text rendering (``path:line: [rule] message``)."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.severity.value}[{self.rule_id}] {self.message}"
        )
