"""The process-wide scratch-buffer pool for the hot simulation paths.

The epoch kernel (chunked GEMM and fast-forward, E30), the
compiled SWAR evaluator (uint64 bitplanes, E32), and
:meth:`ArrayState.add_lane_profiles` all need per-chunk or per-batch
workspaces of a few recurring shapes, and every simulation accumulates
its counters in a workspace per geometry and accumulation dtype
(float32 or float64). They take them from
:data:`POOL`, one :class:`BufferPool` shared by the whole process, so a
grid of runs on the same geometry allocates each workspace once, and a
retained result holds no scratch (``docs/performance.md`` has the peak
RSS this saves on the paper's 1024x1024 grid).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.telemetry.core import get_telemetry


class BufferPool:
    """Named, shape-keyed reusable scratch buffers.

    ``get(name, shape, dtype)`` returns the *same* array for the same
    ``(name, shape, dtype)`` triple on every call, so per-chunk and
    per-batch workspaces stop allocating. Callers own the discipline:
    a pooled buffer must be fully overwritten (or requested with
    ``zero=True``) before use and must never escape to a consumer that
    outlives the next ``get`` of the same slot.
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, shape, dtype=np.float64, zero: bool = False):
        """The pooled buffer for ``(name, shape, dtype)``.

        Args:
            name: Slot name; the same name may serve several shapes
                (e.g. a final short chunk) — each gets its own buffer.
            shape: Required array shape.
            dtype: Required dtype.
            zero: Zero-fill the buffer before returning it. Without it
                the contents are whatever the previous use left — only
                safe when the caller overwrites every element.
        """
        key = (name, tuple(int(s) for s in shape), np.dtype(dtype).str)
        buffer = self._slots.get(key)
        if buffer is None:
            self.misses += 1
            buffer = np.empty(shape, dtype=dtype)
            self._slots[key] = buffer
        else:
            self.hits += 1
        if zero:
            buffer[...] = 0
        return buffer

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory)."""
        self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)


#: The one scratch pool every hot path in the process draws from.
POOL = BufferPool()

#: ``(hits, misses)`` of :data:`POOL` already published to telemetry.
_flushed = (0, 0)


def flush_pool_counters() -> None:
    """Fold :data:`POOL`'s hit/miss deltas into the telemetry counters.

    The pool's own attributes are process-lifetime totals; this
    publishes only what accrued since the last flush into
    ``pool.hits``/``pool.misses``, so repeated flush points (end of a
    fleet run, every manifest snapshot) never double-count.
    """
    global _flushed
    hits, misses = POOL.hits, POOL.misses
    last_hits, last_misses = _flushed
    tele = get_telemetry()
    if hits > last_hits:
        tele.count("pool.hits", hits - last_hits)
    if misses > last_misses:
        tele.count("pool.misses", misses - last_misses)
    _flushed = (hits, misses)
