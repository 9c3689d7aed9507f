"""Bad: environment reads inside the deterministic core.

Configuration must arrive as explicit arguments; reads here make
behaviour machine-dependent wherever the value goes (the read site is
what is flagged).
"""

import os
from os import getenv

from repro.engine.events import RoundCompleted


def shard_size():
    return int(os.environ.get("REPRO_SHARD", "1024"))


def debug_mode():
    return getenv("REPRO_DEBUG") is not None


def tag_round(bus, idx):
    tag = os.environ["REPRO_TAG"]
    bus.emit(RoundCompleted(round_idx=idx, note=tag))
