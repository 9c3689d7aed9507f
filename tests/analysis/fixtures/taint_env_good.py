"""Good: env reads confined to an entry layer.

Linted as if at ``src/repro/serve/app.py`` — the bootstrap may read
the environment and passes the value onward as an explicit argument.
"""

import os

from repro.engine.events import RoundCompleted


def bootstrap():
    shard = int(os.environ.get("REPRO_SHARD", "1024"))
    return shard


def announce(bus, idx, clock_s):
    bus.emit(RoundCompleted(round_idx=idx, time_s=clock_s))
