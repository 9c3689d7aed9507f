"""Archived paper tables as tier-1 goldens.

``benchmarks/results/`` holds the tables EXPERIMENTS.md reports; the
benchmark suite re-generates them but is not part of tier-1. Table IV
schedules only (no device simulation, no training), so it is cheap
enough to pin here byte for byte: any change to the profile grid, the
cost-matrix build or Fed-MinAvg that moves a schedule on testbeds
A/B/C fails this test and has to explain the cell in EXPERIMENTS.md.
"""

from pathlib import Path

from repro.experiments import table4

RESULTS = Path(__file__).parents[2] / "benchmarks" / "results"


def test_table4_matches_the_archive_byte_for_byte():
    # the configuration benchmarks/test_table4_schedules.py archives
    table = table4.run(table4.Table4Config(shard_size=100)).to_table()
    archived = (RESULTS / "table4.txt").read_text(encoding="utf-8")
    assert table + "\n" == archived
