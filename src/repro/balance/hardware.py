"""Hardware re-mapping: spare-bit register renaming within a lane.

Section 3.2: "Hardware re-mapping requires a spare bit which can be used
to swap logical addresses. For a lane with N physical bits, there are N-1
logical bit addresses and 1 free bit address. ... when a write operation is
performed to logical bit address A in all lanes, the hardware re-directs
the write to the free physical address, overwriting its contents. It then
marks the free physical address as logical address A, and assigns the
previous physical address of A as the free address."

The evaluation applies this "most extreme case of re-mapping on every gate
that uses all lanes" (Section 4). For CRAM-style architectures the pre-set
write accompanies the renamed gate write onto the *same* new physical cell
("an additional write operation would be required"), so a preset gate
counts as one renaming event of write-weight two.

Exact fast path
---------------

Naively this is a per-write stateful simulation — tens of millions of
sequential steps for the paper's 100,000 iterations. We instead exploit a
closed form. Model the lane mapping as a bijection ``pi: domain ->
physical`` where the domain is the N-1 logical addresses plus one FREE
slot. A renamed write to logical ``a`` swaps ``pi(FREE)`` and ``pi(a)`` —
a *domain-side* transposition, independent of ``pi``'s values. Hence after
one iteration of a fixed program, ``pi_1 = pi_0 ∘ tau`` for a fixed
permutation ``tau``, and after ``k`` iterations ``pi_k = pi_0 ∘ tau^k``.
The i-th write of iteration ``k`` lands on ``pi_0(tau^k(d_i))`` where
``d_i`` is a fixed domain element recorded from one symbolic pass, which
keeps only their per-element weights (an ``N``-vector each for writes and
reads). Summing over ``k`` reduces to counting visits along the cycles of
``tau`` — an ``O(N)`` computation per horizon that is *bit-exact* with the
naive replay (property-tested in the test suite). :func:`remapper_for`
memoizes one remapper per program and geometry, so the simulator and the
verifier share its symbolic pass.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.balance.mapping import permute_rows
from repro.synth.program import KIND_GATE, KIND_READ, KIND_WRITE, LaneProgram

#: Horizons whose domain-count vectors one remapper keeps, least recently
#: used dropped first. A run needs at most two (the recompile interval and
#: a short final epoch); the bound keeps a remapper memoized on its
#: program at O(lane_size) however many horizons a process runs.
DOMAIN_CACHE_SIZE = 8


def remapper_for(
    program: LaneProgram, lane_size: int, include_presets: bool
) -> "HardwareRemapper":
    """The one :class:`HardwareRemapper` of ``program`` at this geometry.

    Memoized on the immutable program, keyed on ``(lane_size,
    include_presets)``, as its static-verification findings are: every
    run, engine job and verify pass over the same program object shares
    one symbolic domain trace.
    """
    key = (int(lane_size), bool(include_presets))
    remapper = program._remappers.get(key)
    if remapper is None:
        remapper = HardwareRemapper(program, lane_size, include_presets)
        program._remappers[key] = remapper
    return remapper


class HardwareRemapper:
    """Exact wear profile of one lane program under hardware re-mapping.

    Build one per (program, lane size, preset accounting) triple through
    :func:`remapper_for`. Construction runs the symbolic single-iteration
    pass once and keeps only O(lane_size) arrays — the cycles of the
    renaming permutation ``tau`` that carry events, and the
    per-domain-element write and read weights — after which profiles
    for any horizon and any initial software mapping are cheap.

    Args:
        program: The lane program whose writes get renamed.
        lane_size: Physical bits in the lane (``N``); the program footprint
            must leave at least one spare bit.
        include_presets: Count the CRAM pre-set as an extra write riding on
            each gate's renaming event.
    """

    def __init__(
        self, program: LaneProgram, lane_size: int, include_presets: bool
    ) -> None:
        if program.footprint > lane_size - 1:
            raise ValueError(
                f"hardware re-mapping needs a spare bit: program footprint "
                f"{program.footprint} must be < lane size {lane_size}"
            )
        # The columns, not the program: the program holds its memoized
        # remappers, and this keeps the pair free of a cycle.
        self._columns = program.columns
        self.lane_size = int(lane_size)
        self.include_presets = bool(include_presets)
        self._free_slot = self.lane_size - 1  # domain index of the FREE slot
        tau, self._write_weights, self._read_weights = self._domain_trace()
        # Only cycles that carry an event contribute; dropping the rest
        # (every untouched address is a fixed point) keeps a remapper of
        # a small-footprint program in a wide lane small.
        self._cycles = _weighted_cycles(
            tau, (self._write_weights != 0) | (self._read_weights != 0)
        )
        # Epochs of equal length share their domain-count vectors: the
        # renaming dynamics depend only on the horizon, not on the software
        # mapping installed at epoch start. Values are [writes, reads]; the
        # reads fill in on first demand.
        self._domain_cache: "OrderedDict[int, list]" = OrderedDict()

    # ------------------------------------------------------------------
    # Symbolic single-iteration pass
    # ------------------------------------------------------------------

    def _domain_trace(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One iteration in domain coordinates, starting from identity.

        Returns ``(tau, write_weights, read_weights)``: the per-iteration
        domain permutation, and per domain element the write weight of
        the renaming events it takes and the number of reads it serves.
        """
        n = self.lane_size
        free = self._free_slot
        sigma = list(range(n))  # current domain permutation
        writes = [0] * n
        reads = [0] * n
        gate_weight = 2 if self.include_presets else 1
        columns = self._columns
        for kind, address, inputs in zip(
            columns.kind.tolist(),
            columns.address.tolist(),
            columns.inputs.tolist(),
        ):
            if kind == KIND_READ:
                reads[sigma[address]] += 1
                continue
            if kind == KIND_GATE:
                for source in inputs:
                    if source >= 0:
                        reads[sigma[source]] += 1
                writes[sigma[free]] += gate_weight
            else:
                writes[sigma[free]] += 1
            sigma[free], sigma[address] = sigma[address], sigma[free]
        return (
            np.asarray(sigma, dtype=np.int64),
            np.asarray(writes, dtype=np.float64),
            np.asarray(reads, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Exact multi-iteration profiles
    # ------------------------------------------------------------------

    def profile(
        self, iterations: int, within_map: "np.ndarray | None" = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-physical-offset ``(writes, reads)`` over ``iterations`` runs.

        Args:
            iterations: Number of program repetitions (one epoch).
            within_map: Initial logical-to-physical permutation installed by
                the software strategy at the start of the epoch (identity if
                omitted). Its image of the top logical slot is the initial
                free cell.

        Returns:
            Two float arrays of length ``lane_size`` in *physical* offsets.
        """
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        domain_writes, domain_reads = self._domain_profiles(iterations)
        n = self.lane_size
        pi0 = (
            np.arange(n, dtype=np.int64)
            if within_map is None
            else np.asarray(within_map, dtype=np.int64)
        )
        if pi0.shape != (n,):
            raise ValueError(f"within_map must have length {n}")
        physical_writes = np.zeros(n)
        physical_writes[pi0] = domain_writes
        physical_reads = np.zeros(n)
        physical_reads[pi0] = domain_reads
        return physical_writes, physical_reads

    def profile_many(
        self,
        lengths: np.ndarray,
        within_maps: "np.ndarray | None" = None,
        reads: bool = True,
        dtype=np.float64,
        *,
        inverse_maps: "np.ndarray | None" = None,
        out: "Tuple[np.ndarray, Optional[np.ndarray]] | None" = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Batched :meth:`profile`: one epoch per row, in ``dtype``.

        Row ``e`` equals ``profile(lengths[e], within_maps[e])``. The
        per-length domain-count cache is shared with :meth:`profile`, so
        a chunk of equal-length epochs costs one domain computation plus
        one pass over the chunk's rows; each distinct length's row goes
        straight into its epochs' rows, with no copy per epoch.

        Args:
            lengths: Per-epoch iteration counts, shape ``(E,)``.
            within_maps: Per-epoch initial logical-to-physical maps,
                shape ``(E, lane_size)``, of any integer dtype (identity
                rows if omitted); each row is scattered through.
            reads: Also build the read rows; without it the second
                result is ``None`` and no read counts are computed.
            dtype: The rows' float dtype (a simulation's accumulation
                dtype); the caller makes sure it holds every count.
            inverse_maps: The within maps' row-wise inverses
                (:func:`~repro.balance.mapping.invert_rows`): when
                given, each row is gathered through its inverse
                (:func:`~repro.balance.mapping.permute_rows`) and
                ``within_maps`` is not read.
            out: ``(writes, reads)`` ``(E, lane_size)`` ``dtype`` arrays
                to fill (``reads`` ``None`` without ``reads``) instead
                of new ones; used only with within or inverse maps.

        Returns:
            Two ``(E, lane_size)`` ``dtype`` arrays in physical offsets
            (the second ``None`` when ``reads`` is false).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1:
            raise ValueError("lengths must be one-dimensional")
        if lengths.size and lengths.min() < 0:
            raise ValueError("iterations must be non-negative")
        n = self.lane_size
        count = lengths.size
        unique, inverse = np.unique(lengths, return_inverse=True)
        tables = [np.empty((unique.size, n), dtype) for _ in range(1 + reads)]
        for i, length in enumerate(unique):
            domain = self._domain_profiles(int(length), reads)
            for table, row in zip(tables, domain):
                table[i] = row
        if within_maps is None and inverse_maps is None:
            profiles = [table[inverse] for table in tables]
            return profiles[0], profiles[1] if reads else None
        gather = inverse_maps is not None
        maps = np.asarray(inverse_maps if gather else within_maps)
        if maps.shape != (count, n):
            raise ValueError(
                f"{'inverse_maps' if gather else 'within_maps'} must have "
                f"shape {(count, n)}, got {maps.shape}"
            )
        profiles = (
            [np.empty((count, n), dtype) for _ in tables]
            if out is None
            else list(out[: len(tables)])
        )
        for i in range(unique.size):
            epochs = np.flatnonzero(inverse == i)
            first, last = epochs[0], epochs[-1] + 1
            # Equal lengths come in runs (whole epochs, then a short
            # last one): a run's maps and rows are views, not gathers.
            run = last - first == epochs.size
            rows = slice(first, last) if run else epochs
            for profile, table in zip(profiles, tables):
                target = profile[rows]
                if gather:
                    permute_rows(table[i], target, inverses=maps[rows])
                else:
                    permute_rows(table[i], target, maps=maps[rows])
                if not run:
                    profile[rows] = target
        return profiles[0], profiles[1] if reads else None

    def peak_counts(
        self, iterations: int, reads: bool = True
    ) -> Tuple[float, Optional[float]]:
        """The largest write count, and read count when ``reads``, that
        one physical offset takes over an epoch of ``iterations`` runs.

        A within map only moves the domain counts to other offsets, so
        this bounds every epoch of that length, whatever its map.
        """
        writes, domain_reads = self._domain_profiles(iterations, reads)
        return float(writes.max()), (
            None if domain_reads is None else float(domain_reads.max())
        )

    @property
    def writes_per_iteration(self) -> float:
        """Total write weight one program repetition deposits on the lane.

        Renaming relocates writes; it never changes how many land, so this
        is the per-iteration wear any lane running the program accrues —
        the signal wear-aware between-lane mapping sorts by.
        """
        return float(self._write_weights.sum())

    def _domain_profiles(
        self, iterations: int, reads: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Cached ``(domain_writes, domain_reads)`` for one horizon
        (``domain_reads`` is ``None`` unless ``reads`` asks for it)."""
        cache = self._domain_cache
        entry = cache.get(iterations)
        if entry is None:
            entry = cache[iterations] = [
                self._domain_counts(self._write_weights, iterations),
                None,
            ]
            if len(cache) > DOMAIN_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(iterations)
        if reads and entry[1] is None:
            entry[1] = self._domain_counts(self._read_weights, iterations)
        return entry[0], entry[1] if reads else None

    def _domain_counts(
        self, weights: np.ndarray, iterations: int
    ) -> np.ndarray:
        """Accumulated event counts per domain element over ``iterations``.

        ``weights[d]`` is the event weight element ``d`` takes in one
        iteration from the identity; it moves to ``tau^k(d)`` in
        iteration ``k``. Elements on a ``tau``-cycle of length ``L`` are
        visited ``K // L`` times plus once more for the first ``K mod L``
        phase offsets.
        """
        n = self.lane_size
        counts = np.zeros(n)
        if iterations == 0 or not weights.any():
            return counts
        for cycle in self._cycles:
            length = cycle.size
            m = weights[cycle]  # event weight by cycle position
            if not m.any():
                continue
            full, remainder = divmod(iterations, length)
            cycle_counts = np.full(length, full * m.sum())
            if remainder:
                # tau^k advances a cycle position by k; the first
                # `remainder` phases deliver one extra visit each, i.e.
                # position j gains sum_{delta<remainder} m[(j-delta) % L]
                # — a wrapped backward window, one prefix-sum pass over
                # the doubled cycle instead of O(L * remainder) rolls.
                prefix = np.zeros(2 * length + 1)
                np.cumsum(np.concatenate([m, m]), out=prefix[1:])
                ends = np.arange(length) + length + 1
                cycle_counts += prefix[ends] - prefix[ends - remainder]
            counts[cycle] += cycle_counts
        return counts

    # ------------------------------------------------------------------
    # Reference implementation (used to validate the algebra)
    # ------------------------------------------------------------------

    def simulate_explicit(
        self, iterations: int, within_map: "np.ndarray | None" = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Naive stateful replay; bit-identical to :meth:`profile`.

        Exposed for tests and for readers who want the paper's mechanism
        spelled out operationally. O(iterations * instructions).
        """
        n = self.lane_size
        mapping = (
            np.arange(n, dtype=np.int64)
            if within_map is None
            else np.asarray(within_map, dtype=np.int64).copy()
        )
        l2p = mapping[: n - 1].copy()  # logical address -> physical offset
        free = int(mapping[n - 1])  # physical offset of the spare bit
        writes = np.zeros(n)
        reads = np.zeros(n)
        gate_weight = 2 if self.include_presets else 1

        def renamed_write(address: int, weight: int) -> None:
            nonlocal free
            writes[free] += weight
            free, l2p[address] = int(l2p[address]), free

        columns = self._columns
        rows = list(zip(
            columns.kind.tolist(),
            columns.address.tolist(),
            columns.inputs.tolist(),
        ))
        for _ in range(iterations):
            for kind, address, inputs in rows:
                if kind == KIND_WRITE:
                    renamed_write(address, 1)
                elif kind == KIND_READ:
                    reads[l2p[address]] += 1
                else:
                    for source in inputs:
                        if source >= 0:
                            reads[l2p[source]] += 1
                    renamed_write(address, gate_weight)
        return writes, reads


def _cycles_of(permutation: np.ndarray) -> List[np.ndarray]:
    """Cycle decomposition; each cycle lists elements in tau-orbit order,
    starting from its smallest. The oracle of :func:`_weighted_cycles`
    (tests only)."""
    n = permutation.size
    visited = np.zeros(n, dtype=bool)
    cycles: List[np.ndarray] = []
    for start in range(n):
        if visited[start]:
            continue
        cycle = [start]
        visited[start] = True
        current = int(permutation[start])
        while current != start:
            cycle.append(current)
            visited[current] = True
            current = int(permutation[current])
        cycles.append(np.asarray(cycle, dtype=np.int64))
    return cycles


def _weighted_cycles(
    permutation: np.ndarray, weighted: np.ndarray
) -> List[np.ndarray]:
    """The cycles of ``permutation`` holding a ``weighted`` element.

    Equals filtering :func:`_cycles_of` (the oracle) by ``weighted``,
    same arrays in the same order (by smallest element), but walks only
    the points the permutation moves: a weighted fixed point is a
    singleton cycle, found by one mask.
    """
    n = permutation.size
    moved = permutation != np.arange(n)
    successor = permutation.tolist()
    visited = [False] * n
    cycles: List[np.ndarray] = []
    for start in np.flatnonzero(moved | weighted).tolist():
        if visited[start]:
            continue
        cycle = [start]
        visited[start] = True
        current = successor[start]
        while current != start:
            cycle.append(current)
            visited[current] = True
            current = successor[current]
        members = np.asarray(cycle, dtype=np.int64)
        if weighted[members].any():
            cycles.append(members)
    return cycles
