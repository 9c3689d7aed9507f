"""The regression gate: two gated ratios and the diff that judges them.

``repro bench suite`` (:func:`bench_suite`) measures the two
dimensionless ratios ``perfbench/`` deliberately does not carry and
writes a schema-versioned payload (``BENCH_core.json``); ``repro bench
diff OLD NEW`` (:func:`diff_payloads`) turns two payloads into
per-metric verdicts CI can fail on. Timings of the round path are
``perfbench/``'s; see ``docs/benchmarks.md`` for what measures what.
"""

from .diff import (
    Verdict,
    diff_payloads,
    format_diff,
    has_regression,
    load_payload,
)
from .suite import (
    SUITE_SCHEMA,
    MetricResult,
    bench_suite,
    format_suite,
    git_sha,
    suite_payload,
    write_suite,
)

__all__ = [
    "SUITE_SCHEMA",
    "MetricResult",
    "Verdict",
    "bench_suite",
    "diff_payloads",
    "format_diff",
    "format_suite",
    "git_sha",
    "has_regression",
    "load_payload",
    "suite_payload",
    "write_suite",
]
