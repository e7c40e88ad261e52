"""Batched epoch kernel: chunked GEMM accumulation across recompile epochs.

The per-epoch simulation loop pays, for every epoch, a permutation
generation, a permutation validation, and one full-array outer product per
program group. At the paper's extremes (``remap_frequency_sweep`` goes
down to ``recompile_interval=1``, i.e. 100,000 epochs for the Section 4
horizon) that is 100,000 Python-level trips over an 8 MB temporary.

This module collapses the loop across epochs:

* **permutation batch** — all within/between maps for a chunk of ``E``
  epochs come from one call (:func:`make_epoch_maps`): a single
  ``rng.random((E, k)).argsort`` for random shuffling, closed-form index
  arithmetic for byte-/bit-shifting, a broadcast view for static;
* **profile batch** — each program's per-offset profile is scattered
  through all ``E`` within-maps with one advanced-indexing assignment
  into an ``(E, lane_size)`` matrix (the hardware path rides
  :meth:`HardwareRemapper.profile_many`, which shares the per-length
  domain-count cache);
* **GEMM reduction** — the chunk's contribution,
  ``sum_e outer(profile[e], weights[e])``, is one
  ``profiles.T @ weights`` matrix product
  (:meth:`ArrayState.add_lane_profiles`) instead of ``E`` outer products.

Everything stays **exact**: profiles, epoch lengths and lane weights are
integer-valued float64, so the GEMM reduction equals the sequential sum
bit for bit, in any chunking. The stateful wear-aware (``Wa``)
between-lane strategy is the one part that must observe epoch order; it
keeps an O(lane_count)-per-epoch incremental wear vector (per-lane totals
are invariant under within-lane permutation, so cell-level accumulation
still defers to the chunk-end GEMM).

``EnduranceSimulator.run`` uses this kernel by default; the per-epoch
loop survives as the property-test oracle (``kernel="epoch"``), driven by
the same permutation stream so the two are bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.hardware import HardwareRemapper
from repro.balance.software import (
    StrategyKind,
    make_permutations,
    wear_aware_permutation,
)
from repro.core.scratch import POOL
from repro.synth.program import LaneProgram
from repro.telemetry import get_telemetry

#: Epochs accumulated per GEMM. Bounds the working set to a few
#: ``chunk x lane_size`` matrices (~8 MB each at the paper's geometry)
#: while amortizing permutation generation and the BLAS call.
DEFAULT_CHUNK_SIZE = 1024

#: The simulator's two execution paths.
KERNELS = ("batched", "epoch")


def epoch_lengths(config: BalanceConfig, iterations: int) -> np.ndarray:
    """Per-epoch iteration counts covering a run, as an int64 vector.

    Configurations without software re-mapping never recompile and run as
    one continuous epoch; otherwise ``iterations`` splits into full
    ``recompile_interval`` epochs plus an optional remainder.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if not config.needs_recompilation:
        return np.array([iterations], dtype=np.int64)
    interval = config.recompile_interval
    full, remainder = divmod(iterations, interval)
    lengths = np.full(full + (1 if remainder else 0), interval, dtype=np.int64)
    if remainder:
        lengths[-1] = remainder
    return lengths


def make_epoch_maps(
    within: StrategyKind,
    between: StrategyKind,
    lane_size: int,
    lane_count: int,
    count: int,
    rng: "np.random.Generator | None" = None,
    epoch_start: int = 0,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Within/between permutation matrices for ``count`` epochs.

    This is the canonical permutation source for both simulator kernels.
    When either side uses random shuffling, the uniforms for the whole
    chunk are drawn as **one** ``(count, k)`` block whose row ``e`` holds
    epoch ``e``'s within-draws followed by its between-draws. Row-major
    filling makes the stream identical whether the chunk is generated in
    one call or epoch by epoch, so results are independent of chunking.

    Returns:
        ``(within_maps, between_maps)`` of shapes ``(count, lane_size)``
        and ``(count, lane_count)``. ``between_maps`` is ``None`` for the
        stateful wear-aware strategy, which the caller must resolve in
        epoch order against accumulated wear.
    """
    within_random = within is StrategyKind.RANDOM
    between_random = between is StrategyKind.RANDOM
    draws = None
    if within_random or between_random:
        if rng is None:
            raise ValueError("random shuffling requires an rng")
        width = lane_size * within_random + lane_count * between_random
        draws = rng.random((count, width))
    if within_random:
        within_maps = np.argsort(draws[:, :lane_size], axis=1).astype(
            np.int64, copy=False
        )
    else:
        within_maps = make_permutations(
            within, lane_size, count, epoch_start=epoch_start
        )
    if between is StrategyKind.WEAR_AWARE:
        between_maps: Optional[np.ndarray] = None
    elif between_random:
        between_maps = np.argsort(draws[:, -lane_count:], axis=1).astype(
            np.int64, copy=False
        )
    else:
        between_maps = make_permutations(
            between, lane_count, count, epoch_start=epoch_start
        )
    return within_maps, between_maps


def run_batched_epochs(
    architecture: PIMArchitecture,
    config: BalanceConfig,
    state: ArrayState,
    rng: np.random.Generator,
    groups: Dict[int, Tuple[LaneProgram, List[int]]],
    iterations: int,
    *,
    remappers: Optional[Dict[int, HardwareRemapper]] = None,
    lane_loads: Optional[np.ndarray] = None,
    track_reads: bool = True,
    chunk_size: Optional[int] = None,
) -> int:
    """Accumulate a whole run into ``state``, chunked across epochs.

    Args:
        architecture: The PIM design (geometry, orientation, pre-sets).
        config: Load-balancing configuration driving the epoch schedule.
        state: Counters to update.
        rng: The run's random stream (shared with the epoch-loop oracle).
        groups: ``id(program) -> (program, logical_lanes)`` — lanes
            grouped by canonical program object.
        iterations: Total repetitions to simulate.
        remappers: Per-group :class:`HardwareRemapper`, required when
            ``config.hardware`` is set.
        lane_loads: Per-logical-lane writes/iteration, required when the
            between strategy is wear-aware.
        track_reads: Also accumulate the read distribution.
        chunk_size: Epochs per GEMM (default
            :data:`DEFAULT_CHUNK_SIZE`); affects memory and speed only,
            never results.

    Returns:
        The number of epochs simulated.
    """
    chunk = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if chunk < 1:
        raise ValueError("chunk_size must be positive")
    lane_size = architecture.lane_size
    lane_count = architecture.lane_count
    orientation = architecture.orientation
    wear_between = config.between is StrategyKind.WEAR_AWARE
    if config.hardware and remappers is None:
        raise ValueError("hardware re-mapping requires remappers")
    if wear_between and lane_loads is None:
        raise ValueError("wear-aware between-lane mapping requires lane_loads")

    # Static per-group data, computed once for the whole run.
    lane_arrays: Dict[int, np.ndarray] = {}
    write_profiles: Dict[int, np.ndarray] = {}
    read_profiles: Dict[int, np.ndarray] = {}
    epoch_lane_writes: Dict[int, float] = {}
    for key, (program, lanes) in groups.items():
        lane_arrays[key] = np.asarray(lanes, dtype=np.int64)
        if config.hardware:
            # Profiles come per-chunk from the remapper; wear updates need
            # only the per-iteration total, which renaming preserves.
            epoch_lane_writes[key] = remappers[key].writes_per_iteration
            continue
        if program.footprint > lane_size:
            raise ValueError(
                f"program {program.name!r} needs {program.footprint} bits, "
                f"lane has {lane_size}"
            )
        writes = program.write_profile(
            lane_size, include_presets=architecture.presets_output
        )
        write_profiles[key] = writes
        epoch_lane_writes[key] = float(writes.sum())
        if track_reads:
            read_profiles[key] = program.read_profile(lane_size)

    wear = (
        state.lane_view(state.write_counts, orientation)
        .sum(axis=0)
        .astype(np.float64)
        if wear_between
        else None
    )

    tele = get_telemetry()
    gemms = 0
    lengths = epoch_lengths(config, iterations)
    total_epochs = int(lengths.size)
    start = 0
    while start < total_epochs:
        count = min(chunk, total_epochs - start)
        tele.count("kernel.chunks")
        chunk_lengths = lengths[start : start + count]
        within_maps, between_maps = make_epoch_maps(
            config.within,
            config.between,
            lane_size,
            lane_count,
            count,
            rng,
            epoch_start=start,
        )
        if wear_between:
            # The one genuinely sequential piece: each epoch's assignment
            # depends on wear accrued by all earlier epochs. Per-lane wear
            # is invariant under within-lane permutation, so an
            # O(lane_count) incremental update suffices and the cell-level
            # accumulation still happens in the chunk-end GEMM.
            with tele.timed_phase("wear_aware"):
                between_maps = POOL.get(
                    "kernel.between_maps", (count, lane_count), np.int64
                )
                for e in range(count):
                    permutation = wear_aware_permutation(lane_loads, wear)
                    between_maps[e] = permutation
                    length = int(chunk_lengths[e])
                    for key in groups:
                        wear[permutation[lane_arrays[key]]] += (
                            epoch_lane_writes[key] * length
                        )
        rows = np.arange(count)[:, None]
        float_lengths = chunk_lengths.astype(np.float64)[:, None]
        for key, (program, _) in groups.items():
            lanes = lane_arrays[key]
            if config.hardware:
                profile_writes, profile_reads = remappers[key].profile_many(
                    chunk_lengths, within_maps
                )
                # The remapper's profiles already carry the epoch length.
                weight_values: "np.ndarray | float" = 1.0
            else:
                # Pooled scratch: the scatter covers every column of
                # every row (within_maps rows are permutations), so no
                # zero-fill is needed between reuses.
                profile_writes = POOL.get(
                    "kernel.profile_writes", (count, lane_size)
                )
                profile_writes[rows, within_maps] = write_profiles[key]
                if track_reads:
                    profile_reads = POOL.get(
                        "kernel.profile_reads", (count, lane_size)
                    )
                    profile_reads[rows, within_maps] = read_profiles[key]
                weight_values = float_lengths
            # Rows of between_maps are permutations and the group's lanes
            # are distinct, so scattered columns never collide.
            lane_weights = POOL.get(
                "kernel.lane_weights", (count, lane_count), zero=True
            )
            lane_weights[rows, between_maps[:, lanes]] = weight_values
            state.add_lane_profiles(
                profile_writes, lane_weights, orientation, "write"
            )
            gemms += 1
            if track_reads:
                state.add_lane_profiles(
                    profile_reads, lane_weights, orientation, "read"
                )
                gemms += 1
        start += count
    tele.count("kernel.gemms", gemms)
    tele.gauge("kernel.chunk_size", chunk)
    return total_epochs
