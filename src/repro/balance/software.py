"""Software re-mapping strategies: Static, Random shuffling, Byte-shifting.

The paper's software strategies change the logical-to-physical address
mapping at recompile time only ("both require periodic re-compilation in
order to balance load", Section 3.2). Each strategy is a pure function of
the epoch index, so simulations are reproducible given a seed.

Strategy labels follow the paper: ``St`` (static, no re-mapping), ``Ra``
(random shuffling), ``Bs`` (byte-shifting). Within-lane strategies permute
bit offsets inside every lane identically; between-lane strategies permute
whole lanes. Either dimension can use any strategy, giving the 3 x 3 grid
of Figs. 14-16.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.balance.mapping import (
    BITS_PER_BYTE,
    byte_shift_permutation,
    identity_permutation,
    random_permutation,
)


class StrategyKind(Enum):
    """A software re-mapping strategy (paper Section 4 terminology).

    ``St``, ``Ra`` and ``Bs`` are the paper's three strategies and form
    the default 18-configuration grid. Two extensions:

    * ``B1`` (bit-shifting) — a cyclic shift by a *single bit* per epoch.
      It deliberately violates the byte-alignment constraint the paper
      imposes for memory-access friendliness ("shifts should be by an
      integer number of bytes"), so its gains over ``Bs`` measure exactly
      what that constraint costs — e.g., it levels the convolution's
      period-4 hot columns that ``Bs`` provably cannot touch.
    * ``Wa`` (wear-aware) — at each recompile, assign the heaviest lane
      roles to the least-worn physical lanes (the greedy min-max policy of
      wear-leveling remappers like WoLFRaM, applied at PIM's whole-lane
      granularity). Stateful: valid only as a *between-lane* strategy,
      resolved by the simulator, which has the accumulated wear;
      :func:`make_permutation` rejects it.
    """

    STATIC = "St"
    RANDOM = "Ra"
    BYTE_SHIFT = "Bs"
    BIT_SHIFT = "B1"
    WEAR_AWARE = "Wa"

    @property
    def label(self) -> str:
        """The paper's two-letter label."""
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "StrategyKind":
        """Parse a paper label (``St``/``Ra``/``Bs``), case-insensitively."""
        normalized = label.strip().lower()
        for kind in cls:
            if kind.value.lower() == normalized:
                return kind
        raise ValueError(f"unknown strategy label {label!r} (want St/Ra/Bs)")


def make_permutation(
    kind: StrategyKind,
    size: int,
    epoch: int,
    rng: "np.random.Generator | None" = None,
) -> np.ndarray:
    """The logical-to-physical permutation a strategy uses in ``epoch``.

    Args:
        kind: Strategy.
        size: Number of addresses (lane size or lane count).
        epoch: Zero-based recompile epoch index. Static ignores it;
            byte-shifting shifts by ``epoch`` bytes; random shuffling draws
            a fresh permutation from ``rng`` per call (callers must invoke
            in epoch order for reproducibility).
        rng: Random generator, required for :attr:`StrategyKind.RANDOM`.
    """
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if kind is StrategyKind.STATIC:
        return identity_permutation(size)
    if kind is StrategyKind.BYTE_SHIFT:
        return byte_shift_permutation(size, shift_bytes=epoch)
    if kind is StrategyKind.BIT_SHIFT:
        shift = epoch % size
        return ((np.arange(size, dtype=np.int64) + shift) % size).astype(
            np.int64
        )
    if kind is StrategyKind.RANDOM:
        if rng is None:
            raise ValueError("random shuffling requires an rng")
        return random_permutation(size, rng)
    if kind is StrategyKind.WEAR_AWARE:
        raise ValueError(
            "wear-aware mapping is stateful and resolved by the simulator; "
            "it has no pure per-epoch permutation"
        )
    raise ValueError(f"unhandled strategy {kind!r}")


def make_permutations(
    kind: StrategyKind,
    size: int,
    count: int,
    rng: "np.random.Generator | None" = None,
    epoch_start: int = 0,
) -> np.ndarray:
    """Permutations for ``count`` consecutive epochs, as a matrix.

    The batched analogue of :func:`make_permutation`: row ``e`` is the
    permutation of epoch ``epoch_start + e``. Deterministic strategies
    (``St``/``Bs``/``B1``) produce rows identical to the per-epoch
    function. Random shuffling draws one uniform block per epoch and
    argsorts it — a uniformly random permutation per row, but a
    *different* stream than ``rng.permutation`` (callers must use one
    convention consistently; the simulator uses this one on every path).

    Args:
        kind: Strategy.
        size: Number of addresses (lane size or lane count).
        count: Number of epochs to generate.
        rng: Random generator, required for :attr:`StrategyKind.RANDOM`.
        epoch_start: Zero-based index of the first epoch.

    Returns:
        A ``(count, size)`` int64 matrix. The periodic strategies'
        matrices are read-only views with no per-epoch storage: the
        Static row broadcast, and the shifted rows (``Bs``/``B1``) as
        windows onto one ring of ``step * (count - 1) + size``
        addresses, each row starting ``step`` further along it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if epoch_start < 0:
        raise ValueError("epoch_start must be non-negative")
    if kind is StrategyKind.STATIC:
        return np.broadcast_to(np.arange(size, dtype=np.int64), (count, size))
    if kind in (StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT):
        step = BITS_PER_BYTE if kind is StrategyKind.BYTE_SHIFT else 1
        # Row e is (a + step * (epoch_start + e)) mod size: the ring's
        # entries from position step * e on.
        ring = np.arange(step * max(count - 1, 0) + size, dtype=np.int64)
        ring += step * epoch_start % size
        ring %= size
        return np.lib.stride_tricks.as_strided(
            ring,
            shape=(count, size),
            strides=(step * ring.itemsize, ring.itemsize),
            writeable=False,
        )
    if kind is StrategyKind.RANDOM:
        if rng is None:
            raise ValueError("random shuffling requires an rng")
        return np.argsort(rng.random((count, size)), axis=1).astype(
            np.int64, copy=False
        )
    if kind is StrategyKind.WEAR_AWARE:
        raise ValueError(
            "wear-aware mapping is stateful and resolved by the simulator; "
            "it has no pure per-epoch permutation"
        )
    raise ValueError(f"unhandled strategy {kind!r}")


def wear_aware_permutation(
    lane_loads: np.ndarray, accumulated_wear: np.ndarray
) -> np.ndarray:
    """Greedy min-max lane assignment: heavy roles onto cold lanes.

    Args:
        lane_loads: Per-*logical*-lane writes per iteration (how heavy each
            lane's role is).
        accumulated_wear: Per-*physical*-lane accumulated writes so far.

    Returns:
        Logical-lane -> physical-lane permutation pairing the heaviest
        loads with the least-worn lanes.
    """
    lane_loads = np.asarray(lane_loads, dtype=float)
    accumulated_wear = np.asarray(accumulated_wear, dtype=float)
    if lane_loads.shape != accumulated_wear.shape:
        raise ValueError("lane_loads and accumulated_wear must align")
    heavy_first = np.argsort(-lane_loads, kind="stable")
    cold_first = np.argsort(accumulated_wear, kind="stable")
    permutation = np.empty(lane_loads.size, dtype=np.int64)
    permutation[heavy_first] = cold_first
    return permutation
