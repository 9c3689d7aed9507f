"""The yardstick: a fixed kernel that prices this host, right now.

Wall time on a shared box is a poor unit: the same round reads ±17 %
across fresh processes because the host's speed drifts, in phases that
last from a fraction of a second to minutes. Every short block of timed
rounds is therefore bracketed by this kernel, and a round's cost is
reported as its wall milliseconds divided by the mean of the two
bracketing readings — in *yardsticks* (``yd``).

A slow phase does not slow all work alike (README, noise study), so the
kernel mixes the kinds of work the repository does, each about 1–2 ms,
so that it slows down about as much as a round does:

* an interpreter loop (dispatch arms, bookkeeping);
* dict traffic (metric registries, ledgers, device records);
* small-object construction and attribute reads (typed events);
* ``json.dumps`` of event-sized dicts (the JSONL sink);
* many tiny NumPy calls — one ``searchsorted`` per row (Fed-LBAP's
  feasibility check, layer-by-layer model code);
* fancy-indexed patch extraction plus a matmul (im2col convolution);
* ``sort`` over 10⁵ floats and ``searchsorted`` into it;
* 256² float64 matmuls (BLAS pinned to one thread);
* one streaming pass over 5·10⁵ floats (the columnar store's sweeps).

Inputs are seeded and fixed; the kernel's result is a checksum so a
test can pin that the work itself never changes.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Yardstick", "REFERENCE_MS", "block_yardsticks"]

#: one kernel run on the box the workloads were sized on, in its quiet
#: state. Only ever used to express a cost in yardsticks as seconds
#: (``setup_s`` must be in seconds): seconds = yardsticks x this.
REFERENCE_MS = 12.3

_SEED = 20200518  # IPDPS 2020; any fixed value will do

_LOOP_ITERS = 13_000
_DICT_KEYS = 10_500
_OBJECTS = 3_100
_JSON_DOCS = 155
_ROWS, _ROW_LEN = 265, 600
_CONV_PASSES = 3
_SORT_N = 100_000
_SEARCH_N = 8_000
_MATMULS = 3
_MATMUL_DIM = 256
_STREAM_N = 500_000


class _Event:
    """Event-sized object: what the bus allocates per client."""

    __slots__ = ("round_idx", "total_s", "span", "energy_j")

    def __init__(
        self, round_idx: int, total_s: float, span: Tuple[int, int]
    ) -> None:
        self.round_idx = round_idx
        self.total_s = total_s
        self.span = span
        self.energy_j = None


class Yardstick:
    """Owns the kernel's fixed inputs; :meth:`read` times it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        self._keys: List[int] = [
            int(k) for k in rng.integers(0, 1 << 30, size=_DICT_KEYS)
        ]
        self._docs: List[Dict[str, object]] = [
            {
                "event": "client_finished",
                "round_idx": i,
                "client_id": i * 7,
                "compute_s": 1.5 * i,
                "comm_s": 0.25,
                "total_s": 1.75 * i,
                "energy_j": 12.5,
                "battery_soc": 0.8,
            }
            for i in range(_JSON_DOCS)
        ]
        self._rows = np.sort(rng.random((_ROWS, _ROW_LEN)), axis=1)
        self._images = rng.random((20, 8, 12, 12))
        self._filters = rng.random((8 * 3 * 3, 16))
        #: (out position, kernel offset) -> input position, per axis
        self._patch = np.arange(10)[:, None] + np.arange(3)[None, :]
        self._sortable = rng.random(_SORT_N)
        self._queries = rng.random(_SEARCH_N)
        self._mats = rng.random((_MATMULS, _MATMUL_DIM, _MATMUL_DIM))
        self._stream_a = rng.random(_STREAM_N)
        self._stream_b = rng.random(_STREAM_N)

    def kernel(self) -> float:
        """Run the fixed work once; returns its checksum."""
        acc = 0
        for i in range(_LOOP_ITERS):
            acc = (acc * 31 + i) & 0xFFFFFF

        table: Dict[int, int] = {}
        for k in self._keys:
            table[k] = table.get(k, 0) + 1
        hits = 0
        for k in self._keys:
            hits += table[k]

        events = [_Event(i, i * 0.5, (i, i + 1)) for i in range(_OBJECTS)]
        busy = 0.0
        for event in events:
            busy += event.total_s
        by_round = {event.round_idx: event for event in events}

        dumped = 0
        for doc in self._docs:
            dumped += len(json.dumps(doc))

        within = 0
        for row in self._rows:
            within += int(np.searchsorted(row, 0.5, side="right"))

        patch = self._patch
        conv = 0.0
        for _ in range(_CONV_PASSES):
            cols = self._images[:, :, patch][:, :, :, :, patch]
            cols = cols.transpose(0, 2, 4, 1, 3, 5).reshape(-1, 72)
            conv += float((cols @ self._filters)[0, 0])

        ordered = np.sort(self._sortable)
        pos = np.searchsorted(ordered, self._queries)

        mats = self._mats
        trace = 0.0
        for i in range(_MATMULS):
            trace += float((mats[i] @ mats[(i + 1) % _MATMULS])[0, 0])

        streamed = self._stream_a * 1.0001 + self._stream_b

        return (
            float(acc + hits + len(by_round) + dumped + within)
            + busy
            + conv
            + float(pos.sum())
            + trace
            + float(streamed[::1000].sum())
        )

    def read(self) -> float:
        """Milliseconds one kernel run takes right now."""
        t0 = time.perf_counter()
        self.kernel()
        return (time.perf_counter() - t0) * 1e3

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` just spent, as seconds at the reference host
        speed: scaled by :data:`REFERENCE_MS` over the fastest of three
        readings taken now. Two unread runs come first: in a fresh
        process the kernel's own first runs (page faults, allocator
        warm-up) read 20–50 % high."""
        for _ in range(2):
            self.kernel()
        now_ms = min(self.read() for _ in range(3))
        return wall_s * REFERENCE_MS / now_ms


def block_yardsticks(readings: List[float]) -> Tuple[List[float], float]:
    """Per-block yardsticks from the ``n_blocks + 1`` bracketing
    readings (block ``i`` sits between readings ``i`` and ``i + 1``),
    and the run's drift: max ÷ min block yardstick − 1, in percent."""
    blocks = [
        (readings[i] + readings[i + 1]) / 2.0
        for i in range(len(readings) - 1)
    ]
    drift_pct = (max(blocks) / min(blocks) - 1.0) * 100.0
    return blocks, drift_pct
