"""Golden-output tests: every rule fires on its bad fixture and stays
silent on its good twin.

Fixtures live under ``tests/analysis/fixtures/`` and are linted *as
if* they sat at an in-scope path (``lint_source`` takes the pretend
module path), so the scoping logic is exercised alongside the rule.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name: str, module: str, rule_id: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, module, rule_ids=[rule_id])


CASES = [
    # (fixture, pretend module path, rule, expected finding lines)
    (
        "rng_bad.py",
        "src/repro/device/rng_bad.py",
        "no-unseeded-rng",
        [9, 10, 11],
    ),
    (
        "rng_good.py",
        "src/repro/device/rng_good.py",
        "no-unseeded-rng",
        [],
    ),
    (
        "wall_clock_bad.py",
        "src/repro/engine/wall_clock_bad.py",
        "no-wall-clock",
        [8, 9],
    ),
    (
        "wall_clock_good.py",
        "src/repro/engine/wall_clock_good.py",
        "no-wall-clock",
        [],
    ),
    (
        "serve_clock_bad.py",
        "src/repro/engine/serve_clock_bad.py",
        "no-wall-clock",
        [8, 9],
    ),
    (
        "serve_clock_good.py",
        "src/repro/serve/serve_clock_good.py",
        "no-wall-clock",
        [],
    ),
    (
        "float_eq_bad.py",
        "src/repro/core/float_eq_bad.py",
        "no-float-equality",
        [5, 7, 9],
    ),
    (
        "float_eq_good.py",
        "src/repro/core/float_eq_good.py",
        "no-float-equality",
        [],
    ),
    (
        "events_bad.py",
        "src/repro/engine/events.py",
        "event-schema-sync",
        [21, 21, 26, 27, 33, 36],
    ),
    (
        "events_good.py",
        "src/repro/engine/events.py",
        "event-schema-sync",
        [],
    ),
    (
        "fleet_loop_bad.py",
        "src/repro/engine/fleet_loop_bad.py",
        "no-python-loop-over-fleet",
        [6, 8, 9, 11],
    ),
    (
        "fleet_loop_good.py",
        "src/repro/sched/fleet_loop_good.py",
        "no-python-loop-over-fleet",
        [],
    ),
]


@pytest.mark.parametrize(
    "fixture,module,rule_id,lines",
    CASES,
    ids=[c[0].replace(".py", "") for c in CASES],
)
def test_fixture_golden_lines(fixture, module, rule_id, lines):
    findings = run_fixture(fixture, module, rule_id)
    assert [f.line for f in findings] == sorted(lines)
    assert all(f.rule_id == rule_id for f in findings)
    assert all(f.path == module for f in findings)


def test_out_of_scope_module_is_ignored():
    # the same bad RNG code outside src/repro is nobody's business
    source = (FIXTURES / "rng_bad.py").read_text(encoding="utf-8")
    assert lint_source(source, "examples/demo.py") == []
    # and the CLI is exempt from the RNG rule (seeds enter there)
    assert (
        lint_source(source, "src/repro/cli.py", ["no-unseeded-rng"])
        == []
    )


def test_wall_clock_scope_excludes_device_package():
    source = (FIXTURES / "wall_clock_bad.py").read_text(encoding="utf-8")
    assert (
        lint_source(
            source, "src/repro/device/clock.py", ["no-wall-clock"]
        )
        == []
    )


def test_serve_clock_seam_scope():
    # repro.serve is in wall-clock scope: a direct time.time() in the
    # http layer is flagged like anywhere else in the stack...
    source = (FIXTURES / "wall_clock_bad.py").read_text(encoding="utf-8")
    findings = lint_source(
        source, "src/repro/serve/httpd_bad.py", ["no-wall-clock"]
    )
    assert [f.line for f in findings] == [8, 9]
    # ...except in the seam module itself, the one sanctioned reader
    assert (
        lint_source(
            source, "src/repro/serve/clock.py", ["no-wall-clock"]
        )
        == []
    )
    # and the seam's message names the seam, not perf_counter
    seam = run_fixture(
        "serve_clock_bad.py",
        "src/repro/engine/serve_clock_bad.py",
        "no-wall-clock",
    )
    assert all("repro.serve" in f.message for f in seam)


def test_fleet_loop_scope_is_engine_and_sched_only():
    # the store itself may loop (it builds the per-class arrays), and
    # so may anything outside the two hot-path packages
    source = (FIXTURES / "fleet_loop_bad.py").read_text(encoding="utf-8")
    for module in (
        "src/repro/fleet/store.py",
        "src/repro/obs/recorder.py",
    ):
        assert (
            lint_source(source, module, ["no-python-loop-over-fleet"])
            == []
        )


@pytest.mark.parametrize(
    "module",
    ["src/repro/fleet/round.py", "src/repro/serve/coordinator.py"],
)
def test_fleet_loop_guards_the_packages_that_hold_a_fleet(module):
    # the columnar hot path lives in repro.fleet and repro.serve
    source = (
        "class Core:\n"
        "    def total(self):\n"
        "        return sum(j for j in self.fleet.data_size)\n"
        "\n"
        "    def drain(self):\n"
        "        for j in self.fleet.data_size:\n"
        "            self.spend(j)\n"
    )
    findings = lint_source(source, module, ["no-python-loop-over-fleet"])
    assert [f.line for f in findings] == [3, 6]
    assert all("fleet.data_size" in f.message for f in findings)


def test_import_aliases_are_resolved():
    source = (
        "import numpy.random as nr\n"
        "import random as rnd\n"
        "x = nr.rand(3)\n"
        "y = rnd.random()\n"
    )
    findings = lint_source(
        source, "src/repro/core/aliased.py", ["no-unseeded-rng"]
    )
    assert [f.line for f in findings] == [3, 4]


def test_messages_carry_the_fix():
    findings = run_fixture(
        "wall_clock_bad.py",
        "src/repro/engine/wall_clock_bad.py",
        "no-wall-clock",
    )
    assert "time.perf_counter" in findings[0].message
