"""SARIF 2.1.0 exporter for ``repro lint --format sarif``.

SARIF (Static Analysis Results Interchange Format) is the industry
interchange schema GitHub code scanning ingests: uploading the output
of this module via ``github/codeql-action/upload-sarif`` turns lint
findings into inline PR annotations. The payload is deliberately
minimal but valid:

* one run, with ``tool.driver`` naming ``repro-lint`` and carrying one
  rule-metadata entry per registered rule (stable ids, the same
  one-line descriptions ``--list`` and the docs use);
* one ``result`` per finding, pointing at the repo-relative file and
  1-based line/column via ``physicalLocation.region``;
* a ``partialFingerprints`` entry derived from the baseline
  fingerprint (rule id, path, hashed normalised context) so GitHub's
  alert tracking survives line shifts exactly like the baseline does.

Output is deterministic: rules are ordered (report order, then any
extra ids found on results), results follow the standard finding sort.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List

from .base import rule_class
from .findings import Finding, Severity, normalize_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import LintReport

__all__ = [
    "SARIF_VERSION",
    "SARIF_SCHEMA_URI",
    "sarif_payload",
    "render_sarif",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "repro-lint"
_TOOL_URI = "docs/static-analysis.md"
#: version the fingerprint scheme, per the SARIF partialFingerprints
#: contract: bump when the hashing recipe changes
_FINGERPRINT_KEY = "reproLintFingerprint/v1"


def _level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _rule_metadata(rule_id: str) -> Dict[str, object]:
    """Stable per-rule metadata; synthetic ids (``parse-error``) get a
    fixed fallback entry so every result keeps a valid ruleIndex."""
    try:
        cls = rule_class(rule_id)
        description = cls.description or rule_id
        level = _level(cls.severity)
    except KeyError:
        description = (
            "file could not be parsed"
            if rule_id == "parse-error"
            else rule_id
        )
        level = "error"
    return {
        "id": rule_id,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": level},
        "helpUri": _TOOL_URI,
    }


def _fingerprint(finding: Finding) -> str:
    digest = hashlib.sha256(
        normalize_context(finding.code).encode("utf-8")
    ).hexdigest()[:16]
    return f"{finding.rule_id}:{finding.path}:{digest}"


def sarif_payload(report: "LintReport") -> Dict[str, object]:
    """Build the SARIF document as a plain dict (tested directly)."""
    findings = sorted(
        [*report.findings, *report.parse_errors], key=Finding.sort_key
    )
    rule_ids: List[str] = list(report.rules_run)
    for f in findings:
        if f.rule_id not in rule_ids:
            rule_ids.append(f.rule_id)
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}

    results: List[Dict[str, object]] = []
    for f in findings:
        result: Dict[str, object] = {
            "ruleId": f.rule_id,
            "ruleIndex": rule_index[f.rule_id],
            "level": _level(f.severity),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {
                _FINGERPRINT_KEY: _fingerprint(f)
            },
        }
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": [
                            _rule_metadata(rid) for rid in rule_ids
                        ],
                    }
                },
                "columnKind": "unicodeCodePoints",
                "originalUriBaseIds": {
                    "SRCROOT": {"description": {"text": "repo root"}}
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: "LintReport") -> str:
    """Serialise the report as a SARIF 2.1.0 JSON document."""
    return json.dumps(sarif_payload(report), indent=2) + "\n"
