"""The epoch kernel: every simulation's wear, folded along periodic axes.

Between software recompiles the logical wear profile is constant, so a
run is a sum of per-epoch outer products,

``sum_e outer(profile[e], weights[e])``,

where ``profile[e]`` is each program's per-offset write (or read)
profile scattered through epoch ``e``'s within-lane map and
``weights[e]`` marks the lanes its between-lane map assigns, scaled by
the epoch length. :func:`run_batched_epochs` evaluates that sum as
``profiles.T @ weights`` GEMMs (:meth:`ArrayState.add_lane_profiles`),
shrinks the GEMM's inner dimension wherever an axis is periodic, and
skips the GEMM of the largest lane set altogether (see below).
The deterministic strategies are pure functions of the epoch index
with short periods (:func:`strategy_period`):

* ``St`` — identity every epoch: period 1;
* ``Bs`` — shift by ``8 * epoch mod size``: period ``size / gcd(8, size)``;
* ``B1`` — shift by ``epoch mod size``: period ``size``.

Three cases follow.

* **Both axes periodic (fast-forward).** The per-epoch delta of full
  epochs repeats with period ``P = lcm(P_within, P_between)`` —
  hardware re-mapping included, because renaming restarts from the
  software mapping at every recompile and its profile depends only on
  ``(epoch length, within map)``. ``E = q * P + r`` full epochs
  collapse to one GEMM over the first ``min(P, E)`` epochs with integer
  multiplicities ``q`` or ``q + 1``, plus the final short epoch. Cost is
  O(period), however long the horizon.
* **One axis periodic.** Random shuffling (``Ra``) and wear-aware
  mapping (``Wa``) never repeat, so every epoch's maps are still drawn,
  in chunks of :data:`CHUNK_EPOCHS`, consuming the random stream
  exactly as the per-epoch loop does. Before each GEMM the periodic
  side's equal rows are merged: with a periodic *between* axis the
  profile rows of each between phase are summed (weighted by epoch
  length); with a periodic *within* axis the lane-weight rows of each
  within phase are summed — keyed on ``(phase, epoch length)`` under
  hardware re-mapping, whose profiles depend on the length.
* **Neither axis periodic** (``Ra x Ra``, ``Ra x Wa``): one GEMM per
  chunk over every epoch.

Every run seeds its stream from the settings seed, so a grid's ``Ra``
cells draw the same uniform blocks. The kernel ranks each block once
per process (**ranked-block memo**): a least-recently-used table of
:data:`MAPS_MEMO_SIZE` entries keyed on the full PCG64 state, the
chunk's epoch count and the random segments' widths holds each
segment's argsort read-only in the narrowest unsigned dtype, plus the
generator state the draw leaves, which a hit installs — so the stream
moves on exactly as after a draw. Only a run's first
:data:`MAPS_MEMO_RUN_CHUNKS` chunks insert entries, so a long run does
not evict the blocks a later run replays. Other bit generators bypass
the memo, and so does the oracle: :func:`make_epoch_maps` (and
:func:`~repro.balance.software.make_permutations`) always draw afresh.

On every branch, GEMMs are paid only where the between-lane map
matters (**complement accumulation**). The lanes split into one set per
program plus the set no program occupies, whose profile is zero. Each
epoch's between map is a permutation, so the lane-weight rows of all
sets sum to the epoch's weight ``v[e]`` on every lane; with ``r`` the
largest set,

``sum_g P_g.T @ W_g = outer(P_r.T @ v, 1) + sum_{g != r} (P_g - P_r).T @ W_g``.

The reference set costs one GEMV, whose per-offset column the state
keeps apart from its counter plane (:meth:`ArrayState.add_every_lane`);
every other set pays a signed GEMM into the plane. When one program runs
on every lane (``mult``) no GEMM runs, no between map is built and the
plane is never written: the finished block is a broadcast of the
column. Its uniforms are still drawn,
so the random stream moves on exactly as before. When the unassigned
set is the largest (trace workloads) ``P_r`` is zero and each program
pays its own plain GEMM, as without the rule.

A GEMM is paid only over the lanes its set touches (**lane-compact
products**). A set whose between maps land on at most ``lane_count //
COMPACT_DIVISOR`` distinct lanes in a chunk — a trace's programs on a
few of 1,024 lanes under ``St`` or ``Bs`` between maps — builds its
lane-weight rows over just those ``m`` lanes, runs a ``lane_size x m``
product and adds it into just their counters. The distinct lanes come
from a boolean mark, not a sort; a set wider than the cutoff skips even
that, since each epoch alone puts it on as many lanes as it has. Every
other set pays the full-width GEMM. The sums are the same, so the
result is too. Either way the kernel knows which lanes of the plane its
GEMMs write — the lanes its sets' weights land on — and reports them
through ``written``, so a finished run packs just those lanes (every
lane when the reference column is nonzero) without scanning the
counters for them, and the next run on the pooled plane clears just
those.

Everything stays **exact**: profiles, epoch lengths, multiplicities and
lane weights are integers, held in the run's **accumulation dtype**
(:func:`accumulation_dtype`), and every partial sum has a bound that
dtype holds exactly. At a cell ``(l, o)`` of physical lane ``l``, a
signed GEMM term is what ``l`` accrues at ``o`` while running ``g``
plus what a reference lane accrues at ``o`` over those same epochs, so
the terms' magnitudes — summed over every set, since ``l`` is in one
set per epoch — are at most twice ``B``, an a-priori bound on any one
cell's count over the run (:func:`cell_bounds`). Every GEMM partial
sum, plane entry, fold and merge is therefore bounded by ``2B``, and
every lane weight by the iteration count. A run whose ``2B`` and
iterations fit in 2^24 for every tracked kind accumulates in float32,
which halves the GEMM and plane traffic; any other run accumulates in
float64, whose partial sums are bounded by the run's total of their
kind, which ``verify_mapping`` keeps below 2^53 (RPR019; reads too when
they are tracked). So each reduction equals the sequential per-epoch
sum bit for bit, in any order; ``EnduranceSimulator._run_epoch_loop``
(in float64) is the slow oracle the tests pin this kernel to. The
stateful ``Wa``
between-lane strategy is the one part that must observe epoch order; it
keeps an O(lane_count)-per-epoch incremental wear vector (per-lane
totals are invariant under within-lane permutation, so cell-level
accumulation still defers to the GEMM).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.hardware import HardwareRemapper
from repro.balance.mapping import BITS_PER_BYTE
from repro.balance.software import (
    StrategyKind,
    make_permutations,
    wear_aware_permutation,
)
from repro.core.scratch import POOL
from repro.synth.program import LaneProgram
from repro.telemetry import get_telemetry

#: Strategies whose per-epoch permutation is a pure periodic function of
#: the epoch index. Ra (fresh randomness per epoch) and Wa (wear-state
#: feedback) are excluded by construction.
PERIODIC_KINDS = frozenset(
    {StrategyKind.STATIC, StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT}
)

#: Epochs drawn and accumulated per chunk on the non-periodic paths.
#: Bounds the working set to a few ``chunk x lane_size`` matrices
#: (~8 MB each at the paper's geometry); never changes results.
CHUNK_EPOCHS = 1024


def strategy_period(kind: StrategyKind, size: int) -> Optional[int]:
    """The epoch period of a software strategy over ``size`` addresses.

    Returns ``None`` for non-periodic strategies (``Ra``, ``Wa``).
    """
    if size < 1:
        raise ValueError("size must be positive")
    if kind is StrategyKind.STATIC:
        return 1
    if kind is StrategyKind.BYTE_SHIFT:
        return size // gcd(BITS_PER_BYTE, size)
    if kind is StrategyKind.BIT_SHIFT:
        return size
    return None


def fastforward_period(
    config: BalanceConfig, lane_size: int, lane_count: int
) -> Optional[int]:
    """The joint epoch period of ``config``, or ``None`` if either axis
    is not periodic.

    The combined within/between mapping repeats when both component
    streams do: ``lcm(P_within, P_between)``. Hardware re-mapping does
    not enter the period — it restarts at every recompile boundary, so
    its epoch profile is a function of the (periodic) within map alone.
    """
    within = strategy_period(config.within, lane_size)
    between = strategy_period(config.between, lane_count)
    if within is None or between is None:
        return None
    return within * between // gcd(within, between)


def fastforward_eligible(config: BalanceConfig) -> bool:
    """Whether both of ``config``'s axes are periodic, so the whole run
    collapses to one period block."""
    return (
        config.within in PERIODIC_KINDS and config.between in PERIODIC_KINDS
    )


def kernel_path(config: BalanceConfig) -> str:
    """Which branch :func:`run_batched_epochs` takes for ``config``:
    ``"fastforward"`` (both axes periodic) or ``"batched"``."""
    return "fastforward" if fastforward_eligible(config) else "batched"


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


#: float32's 24-bit significand holds every integer up to 2^24 exactly.
FLOAT32_EXACT_LIMIT = 2**24


def cell_bounds(
    architecture: PIMArchitecture,
    config: BalanceConfig,
    groups: Dict[int, Tuple[LaneProgram, np.ndarray]],
    remappers: Optional[Dict[int, HardwareRemapper]],
    iterations: int,
    track_reads: bool,
) -> Dict[str, int]:
    """Per tracked kind (``"write"``, plus ``"read"`` when
    ``track_reads``), an a-priori bound ``B`` on any one physical
    cell's count over the run.

    Without hardware re-mapping a cell takes at most the largest entry
    of any program's per-iteration profile each iteration: ``B`` is
    ``iterations`` times that. Under hardware re-mapping an epoch of
    length ``L`` puts at most the largest of the remappers' domain
    counts for ``L`` on a cell (:meth:`HardwareRemapper.peak_counts`):
    ``B`` sums that over the run's epochs, which have at most two
    lengths. The arguments are as :func:`run_batched_epochs` takes them.
    """
    kinds = ("write", "read") if track_reads else ("write",)
    if not config.hardware:
        peaks = {kind: 0 for kind in kinds}
        for program, _ in groups.values():
            profiles = {"write": program.write_profile(
                include_presets=architecture.presets_output
            )}
            if track_reads:
                profiles["read"] = program.read_profile()
            for kind, profile in profiles.items():
                peaks[kind] = max(peaks[kind], int(profile.max(initial=0)))
        return {kind: iterations * peak for kind, peak in peaks.items()}
    if not config.needs_recompilation:
        runs = {iterations: 1}
    else:
        full, remainder = divmod(iterations, config.recompile_interval)
        runs = {config.recompile_interval: full}
        if remainder:
            runs[remainder] = 1
    bounds = {kind: 0 for kind in kinds}
    for length, epochs in runs.items():
        if not epochs:
            continue
        peaks = [
            remappers[key].peak_counts(length, track_reads) for key in groups
        ]
        for index, kind in enumerate(kinds):
            peak = max((int(p[index]) for p in peaks), default=0)
            bounds[kind] += epochs * peak
    return bounds


def accumulation_dtype(
    architecture: PIMArchitecture,
    config: BalanceConfig,
    groups: Dict[int, Tuple[LaneProgram, np.ndarray]],
    remappers: Optional[Dict[int, HardwareRemapper]],
    iterations: int,
    track_reads: bool,
) -> np.dtype:
    """The dtype a run's counters, profiles and lane weights take.

    float32 when its bound proves every partial sum exact there — ``2B
    <= 2^24`` for every tracked kind (:func:`cell_bounds`) and
    ``iterations <= 2^24`` — else float64 (see the module docstring).
    """
    if iterations <= FLOAT32_EXACT_LIMIT and all(
        2 * bound <= FLOAT32_EXACT_LIMIT
        for bound in cell_bounds(
            architecture, config, groups, remappers, iterations, track_reads
        ).values()
    ):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def make_epoch_maps(
    within: StrategyKind,
    between: StrategyKind,
    lane_size: int,
    lane_count: int,
    count: int,
    rng: "np.random.Generator | None" = None,
    epoch_start: int = 0,
    with_between: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Within/between permutation matrices for ``count`` epochs.

    This is the canonical permutation source for the kernel and its
    oracle. When either side uses random shuffling, the uniforms for
    the whole chunk are drawn as **one** ``(count, k)`` block whose row
    ``e`` holds epoch ``e``'s within-draws followed by its
    between-draws. Row-major filling makes the stream identical whether
    the chunk is generated in one call or epoch by epoch, so results are
    independent of chunking. ``with_between=False`` skips building the
    between maps but still draws their uniforms, so the stream is
    consumed the same either way. Every call draws and ranks afresh;
    the kernel's own chunks go through the ranked-block memo
    (:data:`MAPS_MEMO_SIZE`) instead.

    Returns:
        ``(within_maps, between_maps)`` of shapes ``(count, lane_size)``
        and ``(count, lane_count)``. ``between_maps`` is ``None`` when
        skipped, and for the stateful wear-aware strategy, which the
        caller must resolve in epoch order against accumulated wear.
    """
    return _epoch_maps(
        within, between, lane_size, lane_count, count, rng,
        epoch_start=epoch_start, with_between=with_between,
        rank=_draw_ranked,
    )


def _epoch_maps(
    within: StrategyKind,
    between: StrategyKind,
    lane_size: int,
    lane_count: int,
    count: int,
    rng: "np.random.Generator | None",
    *,
    epoch_start: int,
    with_between: bool,
    rank,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`make_epoch_maps`, ranking the random segments through
    ``rank(rng, count, widths, wanted)`` (:func:`_draw_ranked` or
    :func:`_memo_ranked`)."""
    sides = (
        (within, lane_size, True),
        (between, lane_count,
         with_between and between is not StrategyKind.WEAR_AWARE),
    )
    random = [
        (size, wanted)
        for kind, size, wanted in sides
        if kind is StrategyKind.RANDOM
    ]
    ranked = iter(())
    if random:
        if rng is None:
            raise ValueError("random shuffling requires an rng")
        widths, wanted = zip(*random)
        ranked = iter(rank(rng, count, widths, wanted))
    maps: List[Optional[np.ndarray]] = []
    for kind, size, wanted in sides:
        if kind is StrategyKind.RANDOM:
            maps.append(next(ranked))
        elif wanted:
            maps.append(
                make_permutations(kind, size, count, epoch_start=epoch_start)
            )
        else:
            maps.append(None)
    return maps[0], maps[1]


def _draw_ranked(
    rng: np.random.Generator,
    count: int,
    widths: Tuple[int, ...],
    wanted: Tuple[bool, ...],
) -> List[Optional[np.ndarray]]:
    """Draw one ``(count, sum(widths))`` uniform block and argsort each
    wanted segment along its rows (``None`` for the others)."""
    draws = rng.random((count, sum(widths)))
    ranked: List[Optional[np.ndarray]] = []
    start = 0
    for width, want in zip(widths, wanted):
        ranked.append(
            np.argsort(draws[:, start : start + width], axis=1).astype(
                np.int64, copy=False
            )
            if want
            else None
        )
        start += width
    return ranked


#: Ranked random blocks one process keeps, least recently used dropped
#: first. Every run seeds its stream from the same settings seed, so a
#: grid's ``Ra`` cells draw the same few blocks (three distinct
#: segments over the 18 paper configurations); an entry holds at most
#: two ``CHUNK_EPOCHS x width`` maps in the narrowest unsigned dtype
#: (4 MiB at the paper's 1,024-wide lanes).
MAPS_MEMO_SIZE = 8

#: Chunks of one run that may insert a memo entry. A run longer than
#: this still looks its later chunks up, but ranks their misses without
#: keeping them, so it cannot evict the first chunks that a later run
#: on the same seed replays (its own or another's).
MAPS_MEMO_RUN_CHUNKS = MAPS_MEMO_SIZE // 2

#: ``(PCG64 state, inc, has_uint32, uinteger, count, widths) ->
#: [end state, maps]``; see :func:`_memo_ranked`.
_MAPS_MEMO: "OrderedDict[tuple, list]" = OrderedDict()


def _memo_ranked(
    rng: np.random.Generator,
    count: int,
    widths: Tuple[int, ...],
    wanted: Tuple[bool, ...],
    insert: bool = True,
) -> List[Optional[np.ndarray]]:
    """:func:`_draw_ranked` through the process-wide ranked-block memo.

    The block is a pure function of the generator's state and its
    shape, so the key is the full PCG64 state plus ``count`` and the
    segment ``widths``. Which side a segment serves does not enter it,
    so ``RaxSt``'s within maps and ``StxRa``'s between maps share an
    entry on a square array. A hit sets ``rng`` to the state the draw
    would have left, so the stream moves on exactly as after a draw.
    A wanted segment the entry lacks (it was first made without it) is
    ranked by drawing the block again: ``rng`` is at the entry's start
    state, by its key. The maps are read-only and held in the narrowest
    unsigned dtype their width needs. With ``insert=False`` a block
    that has no entry is drawn through :func:`_draw_ranked` and not
    kept. Other bit generators bypass the memo.
    """
    generator = rng.bit_generator
    if type(generator) is not np.random.PCG64:
        return _draw_ranked(rng, count, widths, wanted)
    start = generator.state
    key = (
        start["state"]["state"],
        start["state"]["inc"],
        start["has_uint32"],
        start["uinteger"],
        count,
        widths,
    )
    tele = get_telemetry()
    entry = _MAPS_MEMO.get(key)
    if entry is None and not insert:
        tele.count("kernel.maps_memo_misses")
        return _draw_ranked(rng, count, widths, wanted)
    if entry is None:
        entry = _MAPS_MEMO[key] = [None, [None] * len(widths)]
        while len(_MAPS_MEMO) > MAPS_MEMO_SIZE:
            _MAPS_MEMO.popitem(last=False)
    else:
        _MAPS_MEMO.move_to_end(key)
    missing = tuple(
        want and ranks is None for want, ranks in zip(wanted, entry[1])
    )
    if entry[0] is not None and not any(missing):
        tele.count("kernel.maps_memo_hits")
        generator.state = entry[0]
    else:
        tele.count("kernel.maps_memo_misses")
        drawn = _compact(_draw_ranked(rng, count, widths, missing))
        entry[1] = [
            ranks if ranks is not None else new
            for ranks, new in zip(entry[1], drawn)
        ]
        entry[0] = generator.state
    return [
        ranks if want else None for ranks, want in zip(entry[1], wanted)
    ]


def _compact(ranked: List[Optional[np.ndarray]]) -> List[Optional[np.ndarray]]:
    """Each rank matrix read-only in the narrowest unsigned dtype that
    holds its largest index (``uint16`` at 1,024-wide lanes)."""
    compact: List[Optional[np.ndarray]] = []
    for ranks in ranked:
        if ranks is not None:
            ranks = ranks.astype(np.min_scalar_type(ranks.shape[1] - 1))
            ranks.flags.writeable = False
        compact.append(ranks)
    return compact


def _fold(rows: np.ndarray, period: int) -> np.ndarray:
    """Sum ``rows`` by phase: output row ``j`` is the sum of every input
    row ``e`` with ``e % period == j`` (a no-op when nothing repeats)."""
    count, width = rows.shape
    if count <= period:
        return rows
    whole = count - count % period
    folded = rows[:whole].reshape(-1, period, width).sum(axis=0)
    folded[: count - whole] += rows[whole:]
    return folded


#: Key of the lane set no program occupies (its profile is zero).
_UNASSIGNED = "unassigned"

#: A lane set whose between maps touch at most ``lane_count //
#: COMPACT_DIVISOR`` distinct lanes in a chunk pays a lane-compact GEMM.
#: Measured crossover at 1,024 lanes with one BLAS thread: the compact
#: product plus its column scatter beat the full-width product plus add
#: at up to 64 touched lanes for 1 to 1,000 epochs, and lost from 256
#: (5.3 ms vs 2.2 ms at 20 epochs).
COMPACT_DIVISOR = 16


class _Accumulator:
    """Per-set profile rows, lane-weight rows and the products over them.

    The lanes split into one set per program plus the set no program
    occupies. Each epoch's between map is a permutation, so the
    lane-weight rows of all sets sum to the epoch's weight ``v[e]`` on
    every lane. With the largest set ``r`` as the reference,

    ``sum_g P_g.T @ W_g = outer(P_r.T @ v, 1) + sum_{g != r} (P_g - P_r).T @ W_g``

    (the unassigned set's ``P`` is zero), so ``r`` costs one GEMV, kept
    as the state's column (:meth:`ArrayState.add_every_lane`), and only
    the other sets pay a GEMM — none at all when one program runs on
    every lane. When the unassigned set is the largest, ``P_r`` is zero
    and every program set pays its own plain GEMM.

    A set pays only for the lanes it touches. When its between maps
    land on at most ``lane_count // COMPACT_DIVISOR`` distinct lanes in
    a chunk (a trace's few programs under ``St`` or ``Bs``), its
    lane-weight rows span just those lanes and its product adds into
    just their counters; every other set pays the full-width GEMM.

    Without hardware re-mapping a profile row is the program's static
    per-iteration profile scattered through a within map, and the epoch
    length rides on the lane weight. The hardware remapper's profile
    rows already carry the epoch length, so their lane weights are bare
    multiplicities. Every row, weight and product is in the state's
    accumulation dtype (:attr:`dtype`).
    """

    def __init__(
        self,
        architecture: PIMArchitecture,
        config: BalanceConfig,
        state: ArrayState,
        groups: Dict[int, Tuple[LaneProgram, np.ndarray]],
        remappers: Optional[Dict[int, HardwareRemapper]],
        track_reads: bool,
        written: np.ndarray,
    ) -> None:
        self.lane_size = architecture.lane_size
        self.lane_count = architecture.lane_count
        self.orientation = architecture.orientation
        self.state = state
        self.dtype = state.dtype
        self.hardware = config.hardware
        self.remappers = remappers
        self.track_reads = track_reads
        self.compact_limit = self.lane_count // COMPACT_DIVISOR
        self.gemms = 0
        self.compact_gemms = 0
        self.programs: Dict[int, np.ndarray] = {}
        self.writes: Dict[int, np.ndarray] = {}
        self.reads: Dict[int, np.ndarray] = {}
        for key, (program, lanes) in groups.items():
            self.programs[key] = np.asarray(lanes, dtype=np.int64)
            if self.hardware:
                continue
            if program.footprint > self.lane_size:
                raise ValueError(
                    f"program {program.name!r} needs {program.footprint} "
                    f"bits, lane has {self.lane_size}"
                )
            self.writes[key] = np.asarray(
                program.write_profile(
                    self.lane_size,
                    include_presets=architecture.presets_output,
                ),
                dtype=self.dtype,
            )
            if track_reads:
                self.reads[key] = np.asarray(
                    program.read_profile(self.lane_size), dtype=self.dtype
                )
        assigned = np.zeros(self.lane_count, dtype=bool)
        for lanes in self.programs.values():
            assigned[lanes] = True
        unassigned = np.flatnonzero(~assigned)
        #: The reference set's key; ``None`` when it is the unassigned set.
        self.reference: Optional[int] = max(
            self.programs, key=lambda key: self.programs[key].size,
            default=None,
        )
        if (
            self.reference is not None
            and unassigned.size >= self.programs[self.reference].size
        ):
            self.reference = None
        #: Every set that pays a GEMM: all but the reference.
        self.lanes: Dict[object, np.ndarray] = {
            key: lanes
            for key, lanes in self.programs.items()
            if key != self.reference
        }
        if self.reference is not None and unassigned.size:
            self.lanes[_UNASSIGNED] = unassigned
        #: Lanes of the plane the GEMMs write, marked by :meth:`weights`;
        #: the reference set's column is kept apart from the plane.
        self.written = written

    def lane_writes(self, key: int) -> float:
        """Writes one iteration deposits on each of the program's lanes."""
        if self.hardware:
            return self.remappers[key].writes_per_iteration
        return float(self.writes[key].sum())

    def profiles(
        self,
        key: int,
        within_maps: np.ndarray,
        lengths: np.ndarray,
        slot: str,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(writes, reads)`` profile rows, one per within map; without
        hardware re-mapping they live in the pooled ``slot``."""
        if self.hardware:
            return self.remappers[key].profile_many(
                lengths, within_maps, reads=self.track_reads,
                dtype=self.dtype,
            )
        # Pooled scratch: the scatter covers every column of every row
        # (within_maps rows are permutations), so no zero-fill is needed.
        rows = np.arange(len(within_maps))[:, None]
        writes = POOL.get(slot + "_writes", within_maps.shape, self.dtype)
        writes[rows, within_maps] = self.writes[key]
        reads = None
        if self.track_reads:
            reads = POOL.get(slot + "_reads", within_maps.shape, self.dtype)
            reads[rows, within_maps] = self.reads[key]
        return writes, reads

    def scale(self, lengths: np.ndarray) -> "np.ndarray | float":
        """The per-epoch factor a lane weight carries (see class doc)."""
        if self.hardware:
            return 1.0
        return lengths.astype(self.dtype)[:, None]

    def weights(
        self, key: object, between_maps: np.ndarray, values
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Lane-weight rows — ``values`` at each epoch's assigned lanes —
        and the physical lanes their columns stand for (``None``: all).
        """
        assigned = between_maps[:, self.lanes[key]]
        touched = self._touched(assigned)
        if touched is None:
            weights = POOL.get(
                "kernel.lane_weights",
                (len(between_maps), self.lane_count),
                self.dtype,
                zero=True,
            )
            columns = assigned
        else:
            # Fresh, not pooled: the width varies from set to set.
            weights = np.zeros((len(between_maps), touched.size), self.dtype)
            column_of = np.empty(self.lane_count, dtype=np.intp)
            column_of[touched] = np.arange(touched.size)
            columns = column_of[assigned]
        # Rows of between_maps are permutations and the set's lanes
        # are distinct, so scattered columns never collide.
        rows = np.arange(len(between_maps))[:, None]
        weights[rows, columns] = values
        self.written[assigned if touched is None else touched] = True
        return weights, touched

    def _touched(self, assigned: np.ndarray) -> Optional[np.ndarray]:
        """The distinct lanes in ``assigned``, ascending, when there are
        at most :attr:`compact_limit` of them; otherwise ``None``."""
        # Each row alone holds one distinct lane per column.
        if assigned.shape[1] > self.compact_limit:
            return None
        mark = np.zeros(self.lane_count, dtype=bool)
        mark[assigned] = True
        touched = np.flatnonzero(mark)
        return touched if touched.size <= self.compact_limit else None

    def accumulate(self, rows, weights, values) -> None:
        """Add ``sum_g rows(g).T @ weights(g)`` over every lane set.

        ``rows(key, slot)`` gives a program set's ``(writes, reads)``
        profile rows, ``weights(key)`` a set's lane-weight rows and the
        lanes they span (as :meth:`weights` returns them), and
        ``values`` (a scalar or a column, one entry per row) the weight
        all sets' rows sum to on every lane.
        """
        reference = (None, None)
        if self.reference is not None:
            reference = rows(self.reference, "kernel.profile")
            count = len(reference[0])
            # Contiguous: a scalar broadcast has stride 0, which the
            # product below would take off BLAS.
            column = np.ascontiguousarray(
                np.broadcast_to(values, (count, 1))[:, 0], dtype=self.dtype
            )
            for profile, kind in zip(reference, ("write", "read")):
                if profile is not None:
                    self.state.add_every_lane(
                        column @ profile, self.orientation, kind
                    )
        for key in self.lanes:
            if key is _UNASSIGNED:
                signed = [
                    None if profile is None else np.negative(profile)
                    for profile in reference
                ]
            else:
                signed = list(rows(key, "kernel.signed"))
                for profile, base in zip(signed, reference):
                    if base is not None:
                        profile -= base
            self.gemm(*signed, *weights(key))

    def gemm(
        self,
        writes: np.ndarray,
        reads: Optional[np.ndarray],
        weights: np.ndarray,
        lanes: Optional[np.ndarray],
    ) -> None:
        """Add ``sum_e outer(profile[e], weights[e])`` into the state;
        ``lanes`` as in :meth:`ArrayState.add_lane_profiles`."""
        kinds = ("write", "read") if self.track_reads else ("write",)
        for profile, kind in zip((writes, reads), kinds):
            self.state.add_lane_profiles(
                profile, weights, self.orientation, kind, lanes
            )
        self.gemms += len(kinds)
        if lanes is not None:
            self.compact_gemms += len(kinds)


def run_batched_epochs(
    architecture: PIMArchitecture,
    config: BalanceConfig,
    state: ArrayState,
    rng: np.random.Generator,
    groups: Dict[int, Tuple[LaneProgram, np.ndarray]],
    iterations: int,
    *,
    remappers: Optional[Dict[int, HardwareRemapper]] = None,
    lane_loads: Optional[np.ndarray] = None,
    track_reads: bool = True,
    written: Optional[np.ndarray] = None,
) -> int:
    """Accumulate a whole run into ``state``, folding periodic axes.

    Args:
        architecture: The PIM design (geometry, orientation, pre-sets).
        config: Load-balancing configuration driving the epoch schedule.
        state: Counters to update.
        rng: The run's random stream (shared with the epoch-loop oracle;
            periodic strategies draw nothing from it).
        groups: ``id(program) -> (program, logical_lanes)`` — lanes
            grouped by canonical program object.
        iterations: Total repetitions to simulate.
        remappers: Per-group :class:`HardwareRemapper`, required when
            ``config.hardware`` is set.
        lane_loads: Per-logical-lane writes/iteration, required when the
            between strategy is wear-aware.
        track_reads: Also accumulate the read distribution.
        written: A boolean mask over the lanes; the run sets it at every
            lane of the state's plane its GEMMs write (each lane outside
            stays zero), so finishing the run packs those lanes without
            scanning for them. The reference set's column
            (:meth:`ArrayState.add_every_lane`) is not in the plane and
            marks nothing.

    Returns:
        The number of logical epochs the run covers, however few were
        materialized.
    """
    if config.hardware and remappers is None:
        raise ValueError("hardware re-mapping requires remappers")
    if config.between is StrategyKind.WEAR_AWARE and lane_loads is None:
        raise ValueError("wear-aware between-lane mapping requires lane_loads")
    if written is None:
        written = np.zeros(architecture.lane_count, dtype=bool)
    accumulator = _Accumulator(
        architecture, config, state, groups, remappers, track_reads, written
    )
    lengths = epoch_lengths(config, iterations)
    total_epochs = int(lengths.size)
    tele = get_telemetry()
    period = fastforward_period(
        config, architecture.lane_size, architecture.lane_count
    )
    if period is None:
        _run_chunks(accumulator, config, rng, lengths, lane_loads)
    else:
        with tele.timed_phase("fastforward", period=period):
            materialized = _fastforward(accumulator, config, iterations, period)
        tele.count("fastforward.runs")
        tele.gauge("fastforward.period", period)
        tele.count("fastforward.epochs_collapsed", total_epochs - materialized)
    tele.count("kernel.gemms", accumulator.gemms)
    tele.count("kernel.compact_gemms", accumulator.compact_gemms)
    if accumulator.dtype == np.float32:
        tele.count("kernel.float32_runs")
    else:
        tele.count("kernel.float64_runs")
    return total_epochs


def _fastforward(
    acc: _Accumulator, config: BalanceConfig, iterations: int, period: int
) -> int:
    """Both axes periodic: one period block plus the remainder epoch.

    Epoch ``e`` (mod ``period``) occurs ``q`` times, plus once more for
    the first ``r`` phase positions — integer multiplicities, at most
    the iteration count, so exact in the accumulation dtype. Returns the
    number of epochs materialized.
    """
    if config.needs_recompilation:
        interval = config.recompile_interval
        full_epochs, remainder = divmod(iterations, interval)
    else:
        # St x St (+Hw): a single continuous epoch; period 1 by definition.
        interval, full_epochs, remainder = iterations, 1, 0
    q, r = divmod(full_epochs, period)
    block = min(period, full_epochs)
    multiplicity = q + (np.arange(block, dtype=np.int64) < r)
    for count, epoch_start, length, repeats in (
        (block, 0, interval, multiplicity.astype(acc.dtype)[:, None]),
        (1 if remainder else 0, full_epochs, remainder, 1.0),
    ):
        if not count:
            continue
        within_maps, between_maps = make_epoch_maps(
            config.within,
            config.between,
            acc.lane_size,
            acc.lane_count,
            count,
            epoch_start=epoch_start,
            with_between=bool(acc.lanes),
        )
        chunk_lengths = np.full(count, length, dtype=np.int64)
        values = np.multiply(repeats, acc.scale(chunk_lengths))
        acc.accumulate(
            lambda key, slot: acc.profiles(
                key, within_maps, chunk_lengths, slot
            ),
            lambda key: acc.weights(key, between_maps, values),
            values,
        )
    return block + (1 if remainder else 0)


def _run_chunks(
    acc: _Accumulator,
    config: BalanceConfig,
    rng: np.random.Generator,
    lengths: np.ndarray,
    lane_loads: Optional[np.ndarray],
) -> None:
    """At most one axis periodic: draw every epoch, fold before the GEMM.

    Between maps are drawn only when some set pays a GEMM; without one
    the random block is still drawn, so the stream moves on as usual.
    """
    within_period = strategy_period(config.within, acc.lane_size)
    between_period = strategy_period(config.between, acc.lane_count)
    wear = None
    if config.between is StrategyKind.WEAR_AWARE and acc.lanes:
        wear = (
            acc.state.lane_view(acc.state.write_counts, acc.orientation)
            .sum(axis=0)
            .astype(np.float64)
        )
        lane_writes = {key: acc.lane_writes(key) for key in acc.programs}
    tele = get_telemetry()
    total_epochs = int(lengths.size)
    for start in range(0, total_epochs, CHUNK_EPOCHS):
        count = min(CHUNK_EPOCHS, total_epochs - start)
        tele.count("kernel.chunks")
        chunk_lengths = lengths[start : start + count]
        within_maps, between_maps = _epoch_maps(
            config.within,
            config.between,
            acc.lane_size,
            acc.lane_count,
            count,
            rng,
            epoch_start=start,
            with_between=bool(acc.lanes),
            rank=partial(
                _memo_ranked,
                insert=start < MAPS_MEMO_RUN_CHUNKS * CHUNK_EPOCHS,
            ),
        )
        if wear is not None:
            # The one genuinely sequential piece: each epoch's assignment
            # depends on wear accrued by all earlier epochs. Per-lane wear
            # is invariant under within-lane permutation, so an
            # O(lane_count) incremental update suffices and the cell-level
            # accumulation still happens in the GEMM.
            with tele.timed_phase("wear_aware"):
                between_maps = POOL.get(
                    "kernel.between_maps", (count, acc.lane_count), np.int64
                )
                for e in range(count):
                    permutation = wear_aware_permutation(lane_loads, wear)
                    between_maps[e] = permutation
                    length = int(chunk_lengths[e])
                    for key, lanes in acc.programs.items():
                        wear[permutation[lanes]] += lane_writes[key] * length
        values = acc.scale(chunk_lengths)
        if within_period is not None:
            _within_folded(
                acc, within_period, within_maps, between_maps,
                chunk_lengths, values,
            )
        elif between_period is not None and acc.lanes:
            _between_folded(
                acc, between_period, within_maps, between_maps,
                chunk_lengths, values,
            )
        else:
            acc.accumulate(
                lambda key, slot: acc.profiles(
                    key, within_maps, chunk_lengths, slot
                ),
                lambda key: acc.weights(key, between_maps, values),
                values,
            )


def _within_folded(
    acc: _Accumulator,
    period: int,
    within_maps: np.ndarray,
    between_maps: Optional[np.ndarray],
    lengths: np.ndarray,
    values: "np.ndarray | float",
) -> None:
    """Periodic within axis: sum lane-weight rows by within phase.

    Only the first occurrence of each phase needs a profile row. Under
    hardware re-mapping the profile also depends on the epoch length, so
    a short final epoch keeps its own row.
    """
    count = len(lengths)
    split = count
    if acc.hardware and lengths[-1] != lengths[0]:
        split -= 1

    def fold(rows: np.ndarray) -> np.ndarray:
        folded = _fold(rows[:split], period)
        if split < count:
            folded = np.concatenate([folded, rows[split:]])
        return folded

    def weights(key):
        rows, lanes = acc.weights(key, between_maps, values)
        return fold(rows), lanes

    phases = min(split, period)
    keep = np.r_[0:phases, split:count]
    acc.accumulate(
        lambda key, slot: acc.profiles(
            key, within_maps[keep], lengths[keep], slot
        ),
        weights,
        fold(np.broadcast_to(values, (count, 1))),
    )


def _between_folded(
    acc: _Accumulator,
    period: int,
    within_maps: np.ndarray,
    between_maps: np.ndarray,
    lengths: np.ndarray,
    values: "np.ndarray | float",
) -> None:
    """Periodic between axis: sum profile rows by between phase, each
    weighted by its lane-weight factor, against one 0/1 row per phase."""

    def rows(key, slot):
        writes, reads = acc.profiles(key, within_maps, lengths, slot)
        if not acc.hardware:
            np.multiply(writes, values, out=writes)
            if reads is not None:
                np.multiply(reads, values, out=reads)
        return _fold(writes, period), (
            None if reads is None else _fold(reads, period)
        )

    phases = min(len(lengths), period)
    acc.accumulate(
        rows,
        lambda key: acc.weights(key, between_maps[:phases], 1.0),
        1.0,
    )
